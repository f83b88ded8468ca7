import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_lattice_times_refuses_a_repeat_below_one(repeat):
    # no timed run would leave no best time: argparse refuses the value
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lattice_times.py"), "--repeat", repeat, "x^2 - 2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 2
    assert f"--repeat: must be at least 1, got {repeat}" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""
