import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from galcert.cli import (
    AnalysisConfig,
    analyze,
    main,
    normalize_monic_integer,
    parse_poly,
    render_json,
    render_text,
    report_to_dict,
)
from galcert.errors import InputError
from galcert.poly import UniPoly


def test_parse_poly_examples():
    assert parse_poly("x^3 - 2") == UniPoly([-2, 0, 0, 1])
    assert parse_poly("x^2 + 1") == UniPoly([1, 0, 1])
    assert parse_poly("3x^2 + 2x + 1") == UniPoly([1, 2, 3])
    assert parse_poly("x*x - x") == UniPoly([0, -1, 1])
    assert parse_poly("1/2 x^2 - 3/4") == UniPoly([Fraction(-3, 4), 0, Fraction(1, 2)])
    assert parse_poly("-x^2 + 3") == UniPoly([3, 0, -1])
    assert parse_poly("x^2 - 2x + x") == UniPoly([0, -1, 1])


def test_parse_poly_second_variable():
    with pytest.raises(InputError, match="position 6"):
        parse_poly("x^2 + y")


def test_parse_poly_syntax_errors():
    with pytest.raises(InputError, match="position"):
        parse_poly("x^")
    with pytest.raises(InputError, match="position"):
        parse_poly("x + + 2")
    with pytest.raises(InputError, match="character"):
        parse_poly("x^2 # 3")
    with pytest.raises(InputError):
        parse_poly("")


def test_parse_render_round_trip():
    for coeffs in ([-2, 0, 0, 1], [1, 0, 1], [Fraction(1, 2), -3, 1], [7]):
        p = UniPoly(coeffs)
        assert parse_poly(p.render()) == p


def test_normalize_monic_integer():
    g, c = normalize_monic_integer(UniPoly([Fraction(-1, 2), 0, 1]))
    assert g == UniPoly([-2, 0, 1]) and c == 2
    g, c = normalize_monic_integer(UniPoly([-4, 0, 2]))
    assert g == UniPoly([-2, 0, 1]) and c == 1
    g, c = normalize_monic_integer(UniPoly([-2, 0, 1]))
    assert g == UniPoly([-2, 0, 1]) and c == 1


def test_config_validation(capsys):
    with pytest.raises(InputError):
        AnalysisConfig(precision_bits=32)
    assert AnalysisConfig(precision_bits=65536).precision_bits == 65536
    with pytest.raises(InputError, match="precision must be at most 65536 bits"):
        AnalysisConfig(precision_bits=65537)
    # rejected before any root is isolated (this input ran past 120 s)
    assert main(["analyze", "x^3 - 2", "--precision", "100000"]) == 2
    assert "precision must be at most 65536 bits" in capsys.readouterr().err
    with pytest.raises(InputError):
        AnalysisConfig(resolvent_norm_bound=0)
    with pytest.raises(InputError):
        AnalysisConfig(output_format="xml")


def test_analyze_quadratic_report():
    report = analyze("x^2 - 2")
    assert report.group_order == 2
    assert len(report.entries) == 2
    assert report.all_passed()
    assert report.min_poly == UniPoly([-2, 0, 1])


def test_analyze_rejects_bad_inputs():
    with pytest.raises(InputError, match=r"^not squarefree, gcd with derivative is x - 1$"):
        analyze("x^2 - 2x + 1")
    with pytest.raises(InputError, match="degree"):
        analyze("x - 1")
    with pytest.raises(InputError, match="degree"):
        analyze("x^5 - 2")


def test_json_and_text_share_content():
    report = analyze("x^2 - 2")
    data = json.loads(render_json(report))
    text = render_text(report)
    assert data["group"]["order"] == report.group_order
    assert f"order {report.group_order}" in text
    for entry, jentry in zip(report.entries, data["subgroups"]):
        assert jentry["dim"] == entry.dim
        assert jentry["order"] == entry.subgroup.order
        assert f"subfield dim {entry.dim}" in text
        assert len(jentry["basis"]) == entry.dim
    assert all(c["pass"] for c in data["checks"])
    assert text.count("PASS") == len(report.checks)


def test_rationals_serialize_as_fraction_strings():
    report = analyze("x^2 - 1/2")
    data = report_to_dict(report)
    assert data["polynomial"]["root_scale"] == "2"
    flat = json.dumps(data)
    assert "/" in flat  # subfield coordinates carry exact p/q strings
    for row in data["subgroups"][-1]["basis"]:
        for cell in row:
            Fraction(cell)  # parseable back to exact rationals


def test_deterministic_output():
    cfg = AnalysisConfig(emit_array=True)
    one = render_text(analyze("x^3 - 2", cfg))
    two = render_text(analyze("x^3 - 2", cfg))
    assert one == two
    j1 = render_json(analyze("x^3 - 2", cfg))
    j2 = render_json(analyze("x^3 - 2", cfg))
    assert j1 == j2


def test_arrangement_array_rendering():
    cfg = AnalysisConfig(emit_array=True)
    report = analyze("x^2 - 2", cfg)
    assert report.arrangement_arrays is not None
    joined = "\n".join(report.arrangement_arrays)
    assert "a b" in joined and "b a" in joined
    assert "1.41421" in joined
    # the values are the exact weighted sums of the polished root centers,
    # so the polish's last bits show as a tiny imaginary part
    row = "    -1.41421 + 7.57153e-270i   b a"
    assert report.arrangement_arrays == [
        "subgroup of order 1: id\n  block 1:\n                     1.41421   a b\n"
        "  block 2:\n" + row,
        "subgroup of order 2: id, (ab)\n  block 1:\n"
        "                     1.41421   a b\n" + row,
    ]


def test_main_exit_codes(capsys):
    assert main(["analyze", "x^2 - 2"]) == 0
    assert main(["analyze", "x^2 - 2x + 1"]) == 2
    assert main(["analyze", "x^2 + y"]) == 2
    assert main(["analyze", "x^2 - 2", "--spec", "0,1"]) == 0
    assert main(["analyze", "x^2 - 2", "--spec", "nope"]) == 2
    capsys.readouterr()
    # an empty explicit list is a bad list, not a request to search
    assert main(["analyze", "x^2 - 2", "--spec", ""]) == 2
    assert "could not parse the weight list ''" in capsys.readouterr().err


def test_main_rejects_overlong_number(capsys):
    # more digits than int() converts by default
    text = "x^2 - " + "9" * 5000
    assert main(["analyze", text]) == 2
    assert "position 6" in capsys.readouterr().err
    with pytest.raises(InputError, match="position 6"):
        parse_poly(text)


def test_main_rejects_overlong_coefficients(capsys):
    # every token is within the digit limit; the products are not
    a = "7" * 2500
    assert main(["analyze", f"x^2 - 2*{a}*{a} x + {a}*{a}*{a}*{a}"]) == 2
    assert "coefficient too long" in capsys.readouterr().err
    # only the x -> x/c scaling makes the constant term B^3 too long
    b = "7" * 1500
    assert main(["analyze", f"x^4 + 1/{b}"]) == 2
    assert "coefficient too long" in capsys.readouterr().err


def test_main_rejects_high_degree_before_allocating(capsys):
    tracemalloc.start()
    try:
        assert main(["analyze", "x^2000000"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "degree must be between 2 and 4" in capsys.readouterr().err
    # terms that cancel do not raise the degree
    assert parse_poly("x^9 - x^9 + x^2 - 2") == UniPoly([-2, 0, 1])


def test_main_explicit_spec_must_be_injective(capsys):
    # equal weights collapse the two permutation values
    assert main(["analyze", "x^3 - 2", "--spec", "1,1,1"]) == 3
    err = capsys.readouterr().err
    assert "certification" in err


def test_main_json_output(capsys):
    assert main(["analyze", "x^2 + 1", "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["group"]["order"] == 2


def test_analyze_reducible_quartics():
    # squarefree is the only requirement; reducible inputs are fine
    bi = analyze("x^4 - 5x^2 + 6")  # (x^2-2)(x^2-3), Klein four-group
    assert bi.group_order == 4
    assert sorted(e.dim for e in bi.entries) == [1, 2, 2, 2, 4]
    assert bi.all_passed()

    gauss = analyze("x^4 + 4")  # splits over the Gaussian rationals
    assert gauss.group_order == 2
    assert gauss.min_poly.degree == 2
    assert gauss.all_passed()

    # a cubic with roots 1, 2, -3: the splitting field is Q itself, so
    # every automorphism matrix is 1 x 1
    split = analyze("x^3 - 7x + 6")
    assert split.group_order == 1
    assert len(split.entries) == 1
    assert split.all_passed()


def test_analyze_cyclic_quartic():
    rep = analyze("x^4 + x^3 + x^2 + x + 1")
    assert rep.group_order == 4
    # cyclic of order 4: exactly three subgroups
    assert sorted(e.dim for e in rep.entries) == [1, 2, 4]
    assert rep.all_passed()


def test_analyze_s4_quartic():
    # the full symmetric group: a degree-24 field and 30 subgroups; a
    # 7-digit constant term gives larger roots and wider exact coordinates
    for text, expected in (
        ("x^4 - x - 1", "c4282b338256f00070d3a6aee2942df09a634e0b078dff2e83241ed496df129e"),
        ("x^4 - x - 1000000", "86ff90650e28132ede17de03a782bdffc996bc690c5f49ffc5233f00ef54ba35"),
    ):
        report = analyze(text)
        assert report.group_order == 24
        assert len(report.entries) == 30
        assert report.all_passed()
        digest = hashlib.sha256(render_json(report).encode()).hexdigest()
        assert digest == expected


def test_module_entry_points():
    # the package and its cli module run the same command, with nothing
    # on stderr (importing the package must not import the cli first)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "analyze", "x^2 - 2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for module in ("galcert", "galcert.cli")
    ]
    for run in runs:
        assert run.returncode == 0
        assert run.stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert "PASS  averaging_witness" in runs[0].stdout


def test_cli_import_leaves_code_generators_and_selftest_unloaded():
    # dataclasses would pull in inspect, ast, dis and tokenize; the
    # selftest is imported only by the selftest command
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys, galcert.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'galcert.selftest')"
        " if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_rendered_coefficients_are_ints_or_fractions():
    # report_to_dict writes coefficients with str, exact only for these
    report = analyze("1/2 x^3 - 3/4 x + 5", AnalysisConfig(emit_array=True))
    coeffs = [report.scale, *report.polynomial.coeffs, *report.min_poly.coeffs]
    for e in report.entries:
        coeffs += [*e.primitive.coeffs, *e.primitive_min_poly.coeffs]
        for b in e.subfield.basis:
            coeffs += b.coeffs
    assert {type(c) for c in coeffs} <= {int, Fraction}
    data = report_to_dict(report)
    assert data["polynomial"]["coefficients"] == [str(Fraction(c)) for c in report.polynomial.coeffs]
