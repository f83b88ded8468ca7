import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_lattice_times(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lattice_times.py"), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_lattice_times_refuses_a_repeat_below_one(repeat):
    # no timed run would leave no best time: argparse refuses the value
    run = run_lattice_times("--repeat", repeat, "x^2 - 2")
    assert run.returncode == 2
    assert f"--repeat: must be at least 1, got {repeat}" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


@pytest.mark.parametrize("text, message", [
    ("x^2", "not squarefree, gcd with derivative is x"),
    ("x^5 - 2", "the degree must be between 2 and 4"),
])
def test_lattice_times_reports_a_refused_input_as_an_error(text, message):
    # a refused input ends the run as the CLI ends it: "error: ..." on
    # stderr and exit 2, after the input before it was timed, its
    # automorphisms beside its lattice
    run = run_lattice_times("--repeat", "1", "x^2 - 2", text, "x^3 - 2")
    assert run.returncode == 2
    assert run.stderr == f"error: {text}: {message}\n"
    [line] = run.stdout.splitlines()
    assert line.startswith("x^2 - 2 ") and "automorphisms " in line and "lattice " in line


def run_paired_times(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_times.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_paired_times_of_a_tree_against_itself():
    # both package names import the same sources; the ratio is near 1
    src = str(ROOT / "src")
    run = run_paired_times(src, src, "--passes", "1")
    assert run.returncode == 0, run.stderr
    old, new, ratio = run.stdout.splitlines()
    assert old.startswith(f"old {src}: pass totals ") and new.startswith(f"new {src}: pass totals ")
    match = re.fullmatch(r"median per-input ratio new/old (\S+), quartiles (\S+)-(\S+), "
                         r"over 79 inputs \(best of 1 passes each\)", ratio)
    assert match and 0.5 <= float(match[1]) <= 2
    assert float(match[2]) <= float(match[1]) <= float(match[3])


def test_paired_times_refuses_a_path_without_galcert(tmp_path):
    run = run_paired_times(str(ROOT / "src"), str(tmp_path))
    assert run.returncode == 2
    assert run.stderr == f"error: {tmp_path}: no galcert/__init__.py\n"
    assert run.stdout == ""


def test_each_mutation_probe_line_occurs_once():
    # a row whose line has moved or been duplicated would mutate nothing,
    # or the wrong check; mutate refuses both
    spec = importlib.util.spec_from_file_location("mutation_probe", ROOT / "tools" / "mutation_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    for name, line, replacement, selectors in probe.MUTANTS:
        text = (ROOT / "src" / "galcert" / name).read_text()
        assert [s.strip() for s in text.splitlines()].count(line) == 1, (name, line)
        assert probe.mutate(text, line, replacement) != text
        for selector in selectors:
            assert (ROOT / selector.split("::")[0]).is_file(), selector
