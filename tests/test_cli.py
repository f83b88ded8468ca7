import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import galcert
from galcert import cli, resolvent, roots
from galcert.cli import (
    analyze,
    main,
    normalize_monic_integer,
    parse_poly,
    render_json,
    render_text,
)
from galcert.errors import InputError
from galcert.numberfield import compose_mod
from galcert.poly import UniPoly

from helpers import record_refinements


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


@pytest.mark.parametrize("text, name, pos", [("1e3x^2 - 2", "e3x", 1), ("x2^2 - 2", "x2", 0),
                                               ("x^3 + x2 - 1", "x2", 6)])
def test_a_name_with_a_digit_is_refused(capsys, text, name, pos):
    # a name is letters only: "1e3x" is not 1 times a variable "e3x", and
    # "x2" neither a second variable nor 2x
    with pytest.raises(InputError, match=f"^variable name '{name}' at position {pos} contains"):
        parse_poly(text)
    assert main(["analyze", text]) == 2
    assert f"'{name}' at position {pos}" in capsys.readouterr().err


def test_parse_poly_syntax_errors():
    with pytest.raises(InputError, match="position"):
        parse_poly("x^")
    with pytest.raises(InputError, match="position"):
        parse_poly("x + + 2")
    with pytest.raises(InputError, match="character"):
        parse_poly("x^2 # 3")
    # a digit that is not decimal is not a number token
    with pytest.raises(InputError, match="unexpected character '²' at position 6"):
        parse_poly("x^2 - ²")
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


def test_precision_is_not_an_option(capsys):
    # isolation starts at isolate_roots' default and every certificate
    # climbs the precision schedule from there, so there is no start knob
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x^3 - 2", "--precision", "256"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision 256" in capsys.readouterr().err
    with pytest.raises(TypeError):
        analyze("x^3 - 2", precision_bits=256)
    # the CLI picks the renderer, and argparse checks --format's choices
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x^2 - 2", "--format", "xml"])
    assert exc.value.code == 2


def test_analyze_keeps_explicit_weights_as_ints():
    report = analyze("x^2 - 2", [True, 0.0])
    assert report.weights == (1, 0) and all(type(w) is int for w in report.weights)
    with pytest.raises(InputError, match="must match the degree"):
        analyze("x^2 - 2", [0, 1, 2])


@pytest.mark.parametrize("weights", [[0, 1.5], [0, "1"], [0, "a"], [0, float("inf")]])
def test_analyze_refuses_weights_that_are_not_integers(weights):
    # int() would truncate 1.5 and read "1": a weight it changes or
    # cannot read is an input error, as --spec 0,1.5 is
    with pytest.raises(InputError, match="weights must be integers"):
        analyze("x^2 - 2", weights)


def _no_isolation(f):
    raise AssertionError("isolate_roots ran")


@pytest.mark.parametrize("weights, message", [
    ([0, 1.5, 2], "weights must be integers"),
    ([0, 1], "weight list must match the degree"),
])
def test_analyze_checks_weights_before_the_isolation(monkeypatch, weights, message):
    # both checks read only the degree, so a lopsided cubic whose
    # isolation takes seconds is refused without one
    monkeypatch.setattr(cli, "isolate_roots", _no_isolation)
    with pytest.raises(InputError, match=message):
        analyze("x^3 - 1000000000000x^2 + 1", weights)


def test_report_numbers_past_the_digit_limit_exit_2(capsys):
    # a weight of 121 digits gives resolvent coefficients of about 720,
    # over a limit of 640: the report could not be printed, so analyze
    # refuses it instead of the renderer raising ValueError
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert main(["analyze", "x^3 - 2", "--spec", f"0,1,{10**120}"]) == 2
        assert capsys.readouterr().err == "error: coefficient too long (more than 640 digits)\n"
        with pytest.raises(InputError, match="more than 640 digits"):
            analyze("x^3 - 2", [0, 1, 10**120])
    finally:
        sys.set_int_max_str_digits(limit)


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
    text = render_json(report)
    data = json.loads(text)
    assert data["polynomial"]["root_scale"] == "2"
    assert "/" in text  # subfield coordinates carry exact p/q strings
    for row in data["subgroups"][-1]["basis"]:
        for cell in row:
            Fraction(cell)  # parseable back to exact rationals


def _benchmark_inputs():
    """The benchmark's corpus and its small_warm inputs of seeds 1 and 2,
    at the default run length."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    count = workloads.input_count(workloads.WORKLOADS["small_warm"], 15)
    return [k.poly for k in workloads.CORPUS] + [
        text for seed in (1, 2) for text in workloads.make_inputs("small_warm", seed, count)]


def test_json_text_is_what_json_dumps_writes():
    # render_json writes its text itself: json.dumps(indent=2) of the data
    # it parses back to gives the same bytes, on every benchmark input and
    # on arrays, whose blocks are strings with newlines in them
    reports = [analyze("x^4 - 2", array=True), analyze("x^4 + 8x + 12", array=True)]
    for text in _benchmark_inputs():
        try:
            reports.append(analyze(text))
        except InputError:
            pass  # the repeated roots
    assert len(reports) == 2 + 8 + 150
    for report in reports:
        out = render_json(report)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_deterministic_output():
    one = render_text(analyze("x^3 - 2", array=True))
    two = render_text(analyze("x^3 - 2", array=True))
    assert one == two
    j1 = render_json(analyze("x^3 - 2", array=True))
    j2 = render_json(analyze("x^3 - 2", array=True))
    assert j1 == j2


def test_arrangement_array_rendering():
    report = analyze("x^2 - 2", array=True)
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


def test_arrangement_array_prints_values_past_the_float_range():
    # a weight of 10**400 puts the real parts past the float range; they
    # are formatted from the balls' exact centers, not printed as inf
    report = analyze("x^2 - 2", [0, 10**400], array=True)
    rows = "\n".join(report.arrangement_arrays).splitlines()
    assert "                1.41421e+400   a b" in rows
    assert "    -1.41421e+400 + 7.57153e+130i   b a" in rows
    assert not any("inf" in row for row in rows)


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
    # the weight search has no bound to set: the flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x^2 - 2", "--norm-bound", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --norm-bound 8" in capsys.readouterr().err


def test_main_reads_a_leading_minus_after_double_dash(capsys):
    # argparse reads "-x^2+2" as an option, so poly is missing; after
    # "--", or with a space inside, it is the polynomial 2 - x^2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-x^2+2"])
    assert exc.value.code == 2
    assert "the following arguments are required: poly" in capsys.readouterr().err
    outs = []
    for args in (["--", "-x^2+2"], ["-x^2 + 2"], ["2 - x^2"]):
        assert main(["analyze", *args]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


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


def test_analyze_s4_quartic(monkeypatch):
    # the full symmetric group: a degree-24 field and 30 subgroups; a
    # 7-digit constant term gives larger roots and wider exact coordinates.
    # Read off balls, its resolvent would need 256 bits; from power sums,
    # with G = S4 certified mod primes and the root expressions exact,
    # nothing is isolated or refined
    refinements = record_refinements(monkeypatch)
    monkeypatch.setattr(cli, "isolate_roots", _no_isolation)
    for text, expected in (
        ("x^4 - x - 1", "c4282b338256f00070d3a6aee2942df09a634e0b078dff2e83241ed496df129e"),
        ("x^4 - x - 1000000", "86ff90650e28132ede17de03a782bdffc996bc690c5f49ffc5233f00ef54ba35"),
    ):
        report = analyze(text)
        assert refinements == []
        assert report.group_order == 24
        assert len(report.entries) == 30
        assert report.all_passed()
        digest = hashlib.sha256(render_json(report).encode()).hexdigest()
        assert digest == expected


def test_s_n_fields_are_never_isolated(monkeypatch):
    # G = S_n is certified mod primes and every root expression is exact,
    # so no root ball is needed; only the arrays print ball values
    monkeypatch.setattr(cli, "isolate_roots", _no_isolation)
    for text, digest in (
        ("x^2 - 2", "13c4fcec771f154a153c855fcd8407e7eedc9d6bbfe7431a3bd227cd50db9402"),
        ("x^3 - 2", "69e41d35e03dfef0393decb1b0c88fe215e5f07ef26ae9c3153c8b880f89673d"),
    ):
        report = analyze(text)
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == digest
    with pytest.raises(AssertionError, match="isolate_roots ran"):
        analyze("x^3 - 2", array=True)



@pytest.mark.parametrize("text, isolated", [("x^3 - 2", 0), ("x^4 + 8x + 12", 1)])
def test_squarefreeness_is_decided_once_before_the_search(monkeypatch, text, isolated):
    # building the roots decides it; the weight search takes it from
    # them, and only the isolation, on the ball route, checks its own
    # input again
    f = parse_poly(text)
    seen = {"resolvent": 0, "roots": 0}
    for name, module in (("resolvent", resolvent), ("roots", roots)):
        def counted(g, name=name, decide=module.is_squarefree):
            seen[name] += g == f
            return decide(g)
        monkeypatch.setattr(module, "is_squarefree", counted)
    analyze(text)
    assert seen == {"resolvent": 1, "roots": isolated}


def test_only_the_winning_ladder_reads_balls(monkeypatch):
    # the search's candidates read only their resolvents; the subgroup
    # search refines the winner to 256 bits, and the arrays print its
    # unrefined rung, read once at 128 bits
    reads = []
    balls = resolvent.conjugate_balls

    def counted(weights, rs):
        reads.append((weights, rs.precision_bits))
        return balls(weights, rs)

    monkeypatch.setattr(resolvent, "conjugate_balls", counted)
    analyze("x^4 - 1000000000000000000000000000057", array=True)
    assert reads == [((0, 1, 2, 4), 128), ((0, 1, 2, 4), 256)]


def test_a_missing_cycle_type_takes_the_ball_route(monkeypatch, capsys):
    # a reader that never sees a prime with no root leaves S4 unproved,
    # so the subgroup search isolates, reads the balls and finds S4, and
    # the report is the same
    isolations = []
    isolate, counts = cli.isolate_roots, resolvent.roots_mod

    def counted_isolate(f):
        isolations.append(f)
        return isolate(f)

    monkeypatch.setattr(cli, "isolate_roots", counted_isolate)
    monkeypatch.setattr(resolvent, "roots_mod", lambda f, p: counts(f, p) or 2)
    for args, digest in (
        (["x^4 - x - 1", "--format", "json"],
         "c4282b338256f00070d3a6aee2942df09a634e0b078dff2e83241ed496df129e"),
        (["x^4 - x - 1", "--array", "--format", "json"],
         "c0757f1fb2416e0c9e7d3fdac1ffa597fd39cd789d09490ddf3dfc7f31039d27"),
    ):
        isolations.clear()
        assert main(["analyze", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert len(isolations) == 1


def test_a_long_minimal_polynomial_is_refused_before_the_expressions(monkeypatch, capsys):
    # a weight of 1,001 digits gives the S3 resolvent, which the report
    # prints, coefficients of about 6,000 digits: analyze refuses it as
    # soon as the group is identified
    def no_expressions(gd):
        raise AssertionError("express_roots ran")

    monkeypatch.setattr(cli, "express_roots", no_expressions)
    assert main(["analyze", "x^3 - 2", "--spec", "0,1,1" + "0" * 1000]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: coefficient too long (more than {limit} digits)\n"


@pytest.mark.parametrize("text, weights, order", [
    ("x^4 - 5x^2 + 4", (0, 1, 2, 9), 1),
    ("x^4 + 5x^2 + 4", (0, 1, 2, 9), 2),
    ("x^4 - 10x^2 + 9", (0, 1, 4, 14), 1),
    ("x^4 - 6x^3 + 11x^2 - 6x", (0, 1, 4, 14), 1),
])
def test_analyze_quartics_that_need_large_weights(monkeypatch, text, weights, order):
    # no weight vector of max-norm <= 8 is injective on these, and the
    # search has no bound; the arithmetic progressions 0, 1, 2, 3 and
    # -3, -1, 1, 3 reach norm 14 after 289 decisions.  Every resolvent
    # reads at the isolation's 128 bits, so nothing is refined
    decisions = []
    certify = resolvent.certify_distinct_values

    def counted_certify(ladder):
        decisions.append(ladder.weights)
        return certify(ladder)

    refinements = record_refinements(monkeypatch)
    monkeypatch.setattr(resolvent, "certify_distinct_values", counted_certify)
    report = analyze(text)
    assert report.weights == weights == decisions[-1]
    assert report.group_order == order
    assert report.all_passed()
    assert len(decisions) <= 289
    assert refinements == []


# sha256 of the standard output of each invocation: any change to the
# weight order, the pipeline or the rendering shows here
PINNED_OUTPUTS = [
    (["x^2 - 2"], "3a52afa073924b231580372ccd7ef23139d3868ab032ed815219e5c30bfd36dd"),
    (["x^2 - 2", "--format", "json"], "13c4fcec771f154a153c855fcd8407e7eedc9d6bbfe7431a3bd227cd50db9402"),
    (["x^2 + 1"], "34908439c00be1457b87c2f5b2e8279c60ec7149b3e5d09a67fb266a8bea03d9"),
    (["x^2 + 1", "--format", "json"], "4d7f4db8d45ef5c5bfafb8295522e3907f4ec7c811bc0ba615f4423ff01c5c00"),
    (["x^3 - 2"], "d624c86690f286c6f9e9e8d175f5262a3621d6011f966cc72e9e254be86040cb"),
    (["x^3 - 2", "--format", "json"], "69e41d35e03dfef0393decb1b0c88fe215e5f07ef26ae9c3153c8b880f89673d"),
    (["x^3 - 3x - 1"], "6220327828c5c517e01a0c7b91876dc7bd05770e785df6ade80cae062ac2d2be"),
    (["x^3 - 3x - 1", "--format", "json"], "efcd2f5919795d1516e8b6b8e72fd93be24d32b341808759914e8ffd767596f4"),
    (["x^4 + 1"], "6c606d15e2218b10836bf5c3f07d54f56ecc6f89cb0e993332993c92e231c999"),
    (["x^4 + 1", "--format", "json"], "55e1215637185f8b8ca39242c64db45c545b295d0bd0328e3b2132b8af672148"),
    (["x^4 - 2"], "19d00a8389bdee7d31c2dd271539fbf680d1b5456884fd1e98791f626d2b0a06"),
    (["x^4 - 2", "--format", "json"], "efb3b154ad4d11f626a0c47f68bf487547d40c2461023b7bdaffba4ccf7c79b9"),
    (["1/2 x^3 - 3/4 x + 5"], "102320cf10513c3d3d0e87ddb9d4d637f93b9a0c31b45e8eff817685814e713b"),
    (["1/2 x^3 - 3/4 x + 5", "--format", "json"],
     "b5078d637ce91818e31b005c3f539a8c991ce348ffeb516e46c9c5dafceebeef"),
    (["x^3 - 2", "--array"], "5b25c920331730b4932b8fdd724b5a3ff399380695825d96b884bc774ee527ea"),
    (["x^4 - 2", "--array"], "2f342c4232a147fa670c4662c97419851292b5e4e6fe06a5ddbf80570f2084c0"),
    (["x^2 - 2", "--spec", "1,0"], "4e5bd3b796250c67c7ef50e189110067e980fb6518af1dd85ff1be731dd0da32"),
    (["x^3 - 2", "--array", "--format", "json"],
     "13c24c9fbae3f6d3143657c1a60718b3e4e727378a761997222cc67eef40efee"),
    (["x^2 - 2", "--spec", "1,0", "--format", "json"],
     "02d298cdd2bacd7e98b93214b2e5d6327804d7761d3c584762421e20ab88b8f5"),
    (["x^4 + 8x + 12", "--array"], "e324a8f6210416df0119be3f5f4e007640d4b0bef1c2ef784a9437e4120d725a"),
    (["x^4 - x - 1", "--array", "--format", "json"],
     "c0757f1fb2416e0c9e7d3fdac1ffa597fd39cd789d09490ddf3dfc7f31039d27"),
    (["x^4 - 1000000000000000000000000000057", "--array", "--format", "json"],
     "62ae491e85c1e62e5ba981331145bc63736548b5464c05bd0e2a132c6db95e3f"),
    (["x^4 + 3x + 3", "--format", "json"],
     "c0f92263090cfe9e20705f4265545c23ef5bed599d9b69636c5ef21f908301da"),
    # 288 weight vectors rejected, each by a rational gcd of R and R'
    (["x^4 - 6x^3 + 11x^2 - 6x", "--format", "json"],
     "89d89ff7e081c3abe6985bc4ffcfc6c1cf42b1a4101c59348c8f3c4adbea5815"),
    # a rational input whose roots are scaled by 15
    (["3x^3 - 2x + 7/5", "--format", "json"],
     "cfa059e8157655d01e3160e9f222c18d0065053b5962b409f9bccacef25192cd"),
]


@pytest.mark.parametrize("args, digest", PINNED_OUTPUTS,
                         ids=[" ".join(args) for args, _ in PINNED_OUTPUTS])
def test_output_is_pinned(capsys, args, digest):
    assert main(["analyze", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_block(section, lang):
    return README.split(f"## {section}", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_cli_lines():
    return [line.split("#", 1)[0].strip() for line in _readme_block("CLI", "sh").splitlines()
            if line.startswith("galcert analyze")]


def test_readme_library_example_runs():
    # the Library block runs as written, and each commented value holds
    block = _readme_block("Library", "python")
    namespace = {}
    exec(block, namespace)
    commented = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    assert len(commented) == 2
    for expr, value in commented:
        assert eval(expr, namespace) == ast.literal_eval(value.strip())
    # the stage chain it documents runs on the exported names
    chain = re.search(r"`(express_roots\(.*\))`", README).group(1)
    f = UniPoly([-2, 0, 0, 1])
    exprs = eval(chain, {**vars(galcert), "f": f})
    assert len(exprs) == 3 and all(compose_mod(f, x).is_zero() for x in exprs)
    # every exported name resolves and is documented in the section
    section = README.split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in galcert.__all__:
        assert getattr(galcert, name) is not None
        assert re.search(rf"\b{name}\b", section), name


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(capsys, line):
    # every documented invocation still parses and passes its checks
    args = shlex.split(line)[1:]
    assert main(args) == 0
    assert "FAIL" not in capsys.readouterr().out


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
    # render_json writes coefficients with str, exact only for these
    report = analyze("1/2 x^3 - 3/4 x + 5", array=True)
    coeffs = [report.scale, *report.polynomial.coeffs, *report.min_poly.coeffs]
    for e in report.entries:
        coeffs += [*e.primitive.coeffs, *e.primitive_min_poly.coeffs]
        for b in e.subfield.basis:
            coeffs += b.coeffs
    assert {type(c) for c in coeffs} <= {int, Fraction}
    data = json.loads(render_json(report))
    assert data["polynomial"]["coefficients"] == [str(Fraction(c)) for c in report.polynomial.coeffs]
