"""Tests of the benchmark's own code: seeded inputs, the oracle, the
tracer's install/uninstall, and that BENCHMARK.json names what it prints."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = wl.WORKLOADS[name]
    n = wl.input_count(w, 20)
    assert wl.make_inputs(name, 7, n) == wl.make_inputs(name, 7, n)
    if not w.cold:
        assert wl.make_inputs(name, 7, n) != wl.make_inputs(name, 8, n)


def test_input_count_depends_only_on_arguments():
    assert wl.input_count(wl.WORKLOADS["small_warm"], 15) == 79
    assert wl.input_count(wl.WORKLOADS["corpus_cold"], 25) == len(wl.CORPUS)


def test_small_warm_mix_is_the_same_for_every_seed():
    from galcert.cli import parse_poly

    mix = wl.small_mix(100)
    assert mix == {"repeated_root": 5, "quadratic": 20, "one_real": 58,
                   "three_real": 16, "reducible": 1}
    for seed in (1, 2):
        polys = wl.make_inputs("small_warm", seed, 100)
        outcomes = [oracle.expected(p)[0] for p in polys]
        assert outcomes.count("InputError") == mix["repeated_root"]
        kinds = [wl.small_kind(_integer_coeffs(parse_poly(p).coeffs))
                 for p, outcome in zip(polys, outcomes) if outcome == "ok"]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            k: n for k, n in mix.items() if k != "repeated_root"}


def _integer_coeffs(coeffs):
    """The primitive integer multiple of rational coefficients, as drawn."""
    from math import gcd, lcm

    den = lcm(*(wl.Fraction(c).denominator for c in coeffs))
    ints = [int(wl.Fraction(c) * den) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def test_render_round_trips_through_the_parser():
    from galcert.cli import parse_poly

    coeffs = [wl.Fraction(-5, 7), 0, 3, -1]
    assert wl.render(coeffs) == "-x^3 + 3x^2 - 5/7"
    assert list(parse_poly(wl.render(coeffs)).coeffs) == coeffs


@pytest.mark.parametrize("known", wl.CORPUS, ids=lambda k: k.poly)
def test_oracle_agrees_with_hand_checked_corpus(known):
    assert oracle.expected(known.poly) == ("ok", known.group, known.order, known.subgroups)


def test_oracle_flags_repeated_roots():
    assert oracle.expected("x^3 - 3x + 2")[0] == "InputError"


def test_warm_worker_counts_an_unexpected_exception_as_a_failed_input():
    import run
    import worker
    from galcert import errors

    class RaisingCli:
        @staticmethod
        def analyze(poly):
            raise ValueError("unparsed")

    record = worker.run_one(RaisingCli, errors, "x^2 - 2", 5.0)
    assert record["outcome"] == "exception ValueError"
    [why] = run.check(["x^2 - 2"], [("ok", "C2", 2, 2)], [record], {})
    assert why and "ValueError: unparsed" in why[0]


def _bindings():
    import galcert

    mods = tr._galcert_modules()
    out = {}
    for name, _, spec in tr.TARGETS:
        owner, attr, module = tr._resolve(spec)
        homes = [owner] if owner is not module else mods
        for home in homes:
            if attr in home.__dict__:
                out[(home.__name__, attr)] = home.__dict__[attr]
    assert galcert.cli.analyze is out[("galcert.cli", "analyze")]
    return out


def test_tracer_patches_every_import_and_restores_originals():
    before = _bindings()
    tracer = tr.Tracer()
    tracer.install()
    try:
        homes = set(tracer.patched_homes())
        for pair in [("galcert.numberfield", "compose_mod"),
                     ("galcert.correspondence", "compose_mod"),
                     ("galcert.groups", "all_subgroups"),
                     ("galcert.resolvent", "all_subgroups"),
                     ("galcert.correspondence", "all_subgroups"),
                     ("galcert.resolvent", "decompose"),
                     ("galcert.resolvent", "substitute_elementary"),
                     ("galcert.roots", "isolate_roots"),
                     ("galcert.cli", "isolate_roots"),
                     ("galcert.resolvent", "certify_distinct_values"),
                     ("galcert.cli", "certify_distinct_values")]:
            assert pair in homes
        changed = _bindings()
        assert all(changed[k] is not v for k, v in before.items())
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_analysis_gives_the_same_output_and_counts():
    from galcert.cli import analyze, render_json

    plain = render_json(analyze("x^3 - 2"))
    summaries = []
    for _ in range(2):
        with tr.Tracer() as tracer:
            assert render_json(analyze("x^3 - 2")) == plain
        summaries.append(tracer.summarize())
    metrics = [tr.layer_metrics(s) for s in summaries]
    counted = [k for k, (_, unit) in metrics[0].items() if unit != "s"]
    assert [metrics[0][k] for k in counted] == [metrics[1][k] for k in counted]
    assert metrics[0]["correspondence.lattice_s"][0] > 0
    assert metrics[0]["resolvent.candidate_accept_ratio"][0] == 1.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _ in tr.PER_LAYER] + [tr.OVERHEAD_METRIC]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "latency_p50_s", "certified_per_s", "peak_rss_mb"}
