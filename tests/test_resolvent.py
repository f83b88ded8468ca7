from fractions import Fraction
from itertools import islice
from itertools import product as iter_product
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galcert import resolvent
from galcert.arith import ball_disjoint
from galcert.cli import main, normalize_monic_integer, parse_poly
from galcert.errors import CertificationError, InputError
from galcert.groups import Permutation, all_subgroups, symmetric_group
from galcert.numberfield import automorphism_table, express_roots
from galcert.poly import UniPoly, gcd
from galcert.resolvent import (
    Ladder,
    Roots,
    certify_distinct_values,
    certify_symmetric,
    conjugate_balls,
    discriminant,
    identify_galois,
    power_sum_resolvent,
    resolvent_poly,
    roots_mod,
    search_resolvent,
)
from galcert.roots import PREC_CAP, RootSystem, isolate_roots, precisions
from galcert.selftest import CORPUS, corpus_pipeline


def setup_module(module):
    module.rs2 = isolate_roots(UniPoly([-2, 0, 1]))
    module.rs3 = isolate_roots(UniPoly([-2, 0, 0, 1]))


def decide(weights, rs):
    return certify_distinct_values(Ladder(weights, rs))


def test_pipeline_reads_each_resolvent_once(monkeypatch):
    # the search computes one resolvent per candidate, each a different
    # multiset, and identify_galois takes the winning ladder with its
    # resolvent, also for a later hit
    reads = []
    read = resolvent.power_sum_resolvent

    def counted_read(f, weights):
        reads.append(weights)
        return read(f, weights)

    monkeypatch.setattr(resolvent, "power_sum_resolvent", counted_read)
    for rs, skip, weights in ((rs2, 0, (0, 1)), (rs2, 1, (0, 2)), (rs3, 1, (0, 1, 3))):
        reads.clear()
        gd = identify_galois(search_resolvent(rs, skip=skip))
        assert gd.weights == weights == reads[-1]
        assert len(reads) == len({tuple(sorted(w)) for w in reads})


def test_search_quadratic_accepts_0_1():
    assert search_resolvent(rs2).weights == (0, 1)
    assert search_resolvent(rs2, skip=1).weights == (0, 2)


def test_single_root_weight_rejected_for_cubic():
    assert not decide((1, 0, 0), rs3)
    vals = list(conjugate_balls((1, 0, 0), rs3).values())
    overlapping = sum(
        1
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
        if not ball_disjoint(vals[i], vals[j])
    )
    assert overlapping >= 3  # each root value is shared by two permutations


def test_first_attempt_runs_even_above_the_cap():
    assert list(precisions(2 * PREC_CAP)) == [2 * PREC_CAP]
    assert list(precisions(PREC_CAP // 4)) == [PREC_CAP // 4, PREC_CAP // 2, PREC_CAP]


def test_schedule_needs_a_positive_start():
    # isolate_roots refuses 0 bits, so the system is built by hand; the
    # group of x^2 - 1 is not S2, so the subgroup test climbs it
    f = UniPoly([-1, 0, 1])
    rs = RootSystem(f, isolate_roots(f).enclosures, 0)
    with pytest.raises(InputError, match="at least 1 bit"):
        identify_galois(Ladder((0, 1), rs))


def test_roots_refuse_a_repeated_root():
    # Roots decides squarefreeness when it is built, so the weight search
    # never tries weights on a polynomial whose values always coincide
    with pytest.raises(InputError, match="not squarefree, gcd with derivative is x - 1"):
        Roots(UniPoly([1, -2, 1]), isolate_roots)


def test_search_cubic_within_norm_two():
    weights = search_resolvent(rs3).weights
    assert max(weights) <= 2
    assert decide(weights, rs3)


def test_resolvent_poly_quadratics():
    f = UniPoly([-2, 0, 1])
    assert resolvent_poly(f, (1, 0)) == f
    g = UniPoly([1, 0, 1])
    assert resolvent_poly(g, (1, 0)) == g


def test_resolvent_degrees_are_factorials():
    f3 = UniPoly([-2, 0, 0, 1])
    assert resolvent_poly(f3, (0, 1, 2)).degree == 6
    f4 = UniPoly([-2, 0, 0, 0, 1])
    assert resolvent_poly(f4, (0, 1, 2, 4)).degree == 24


def test_resolvent_guards():
    with pytest.raises(InputError, match="degree"):
        resolvent_poly(UniPoly([-1, 0, 0, 0, 0, 1]), (0, 1, 2, 3, 4))
    with pytest.raises(InputError, match="weight"):
        resolvent_poly(UniPoly([-2, 0, 1]), (1, 0, 0))
    with pytest.raises(InputError, match="monic"):
        resolvent_poly(UniPoly([-2, 0, 2]), (1, 0))


def test_identify_quadratic():
    gd = identify_galois(search_resolvent(rs2))
    assert gd.group.order == 2
    assert Permutation((1, 0)) in gd.group
    assert gd.min_poly == UniPoly([-2, 0, 1])


def test_identify_cubic_full_s3():
    gd = identify_galois(search_resolvent(rs3))
    assert gd.group == symmetric_group(3)
    assert gd.min_poly.degree == 6
    assert gd.min_poly == gd.resolvent


def test_identify_cyclotomic_quartic():
    f = UniPoly([1, 0, 0, 0, 1])
    rs = isolate_roots(f)
    gd = identify_galois(search_resolvent(rs))
    assert gd.group.order == 4
    assert gd.min_poly.degree == 4
    identity = Permutation.identity(4)
    assert all(p * p == identity for p in gd.group)
    q, r = divmod(gd.resolvent, gd.min_poly)
    assert r.is_zero()


def test_identify_invariants_and_determinism():
    weights = search_resolvent(rs3).weights
    gd1 = identify_galois(Ladder(weights, rs3))
    gd2 = identify_galois(Ladder(weights, rs3))
    assert gd1.weights == gd2.weights
    assert gd1.group == gd2.group
    assert gd1.min_poly == gd2.min_poly

    # the group's conjugate values are exactly the roots of the minimal
    # polynomial: ball evaluation of m at each contains zero, and the
    # remaining values provably miss
    refined = rs3.refine(256)
    vals = conjugate_balls(gd1.weights, refined)
    for sigma in symmetric_group(3):
        v = gd1.min_poly.eval_ball(vals[sigma], 288)
        assert v.contains_zero() == (sigma in gd1.group)


def test_identify_requires_integer_coefficients():
    f = UniPoly([Fraction(-1, 2), 0, 1])
    rs = isolate_roots(f)
    with pytest.raises(InputError, match="integer"):
        identify_galois(Ladder((0, 1), rs))
    with pytest.raises(InputError, match="integer coefficients required"):
        decide((0, 1), rs)



@pytest.mark.parametrize("coeffs, weights, message", [
    ([-2, 0, 2], (0, 1), "must be monic"),
    ([-2, 0, 1], (0, 1, 2), "weight count must match the degree"),
    ([-2, 0, 0, 1], (0, 1), "weight count must match the degree"),
])
def test_power_sum_resolvent_refuses_what_its_power_sums_cannot_describe(coeffs, weights, message):
    # the power sums assume a monic f and take n from the weights: either
    # mismatch would silently give a wrong R
    with pytest.raises(InputError, match=message):
        power_sum_resolvent(UniPoly(coeffs), weights)

_small = st.integers(-12, 12)
_weight = st.integers(-40, 40)
_inputs = st.one_of(
    st.tuples(st.tuples(_small, _small), st.tuples(*[_weight] * 2)),
    st.tuples(st.tuples(_small, _small, _small), st.tuples(*[_weight] * 3)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_inputs)
@example(((-2, 0, 0), (1, 0, 0)))
@example(((-2, 0, 0), (1, 1, 1)))
@example(((-2, 0, 0), (1, 2, 0)))
@example(((-2, 0, 0), (-7, 0, 33)))
@example(((1, 0, 0, 0), (0, 1, 2, 4)))
@example(((-2, 0, 0, 0), (0, 1, 2, 4)))
def test_power_sum_resolvent_is_the_symbolic_one(case):
    # the symbolic reference multiplies the linear forms out and never
    # sees a power sum; the quartics are x^4 + 1 and x^4 - 2
    coeffs, weights = case
    f = UniPoly(list(coeffs) + [1])
    assume(gcd(f, f.derivative()).degree == 0)
    expected = resolvent_poly(f, weights)
    assert power_sum_resolvent(f, weights) == expected
    squarefree = gcd(expected, expected.derivative()).degree == 0
    assert decide(weights, isolate_roots(f)) == squarefree


def test_colliding_quartic_rejected_without_refining(monkeypatch):
    requested = []
    original = RootSystem.refine

    def refine(self, bits):
        requested.append(bits)
        return original(self, bits)

    monkeypatch.setattr(RootSystem, "refine", refine)
    rs = isolate_roots(UniPoly([1, 0, 0, 0, 1]), 128)
    assert not decide((0, 1, 2, 3), rs)
    # the resolvent comes from power sums: no ball is read at all
    assert requested == []


def test_search_pays_one_ball_product_per_candidate(monkeypatch):
    # the resolvent coefficients of x^4 - 1000003 would need more than
    # the 128 bits the roots come with; from power sums the search pays
    # no ball product at all
    products, candidates = [], []
    product, certify = resolvent._ball_poly_product, resolvent.certify_distinct_values

    def counted_product(balls, prec):
        products.append(prec)
        return product(balls, prec)

    def counted_certify(ladder):
        candidates.append(ladder.weights)
        return certify(ladder)

    monkeypatch.setattr(resolvent, "_ball_poly_product", counted_product)
    monkeypatch.setattr(resolvent, "certify_distinct_values", counted_certify)
    f = UniPoly([-1000003, 0, 0, 0, 1])
    rs = isolate_roots(f)
    ladder = search_resolvent(rs)
    assert ladder.weights == (0, 1, 2, 4)
    assert len(candidates) == 2 and products == []
    assert identify_galois(ladder).group.order == 8


def test_stages_read_from_the_finest_system_built(monkeypatch):
    # sent down the subgroup search, x^4 + 1/1000x + 1 refines once, to
    # 512 bits: every read starts at the finest system built, so nothing
    # climbs back to 256 bits.  Certified S4, it refines nothing, and its
    # root expressions are the same
    refined = []
    original = RootSystem.refine

    def refine(self, bits):
        if bits > self.precision_bits:
            refined.append(bits)
        return original(self, bits)

    monkeypatch.setattr(RootSystem, "refine", refine)
    f, _ = normalize_monic_integer(parse_poly("x^4 + 1/1000x + 1"))
    exact = express_roots(identify_galois(search_resolvent(isolate_roots(f))))
    assert refined == []
    monkeypatch.setattr(resolvent, "certify_symmetric", lambda f: False)
    gd = identify_galois(search_resolvent(isolate_roots(f)))
    assert gd.group.order == 24
    assert express_roots(gd) == exact
    assert refined == [512]


@pytest.mark.parametrize(
    "coeffs, order",
    [([6, 0, -5, 0, 1], 4), ([1, 0, 0, 0, 1], 4), ([-2, 0, 0, 0, 1], 8)],
)
def test_search_decides_the_same_on_quartics(monkeypatch, coeffs, order):
    # each injectivity decision is exact and the search tries only
    # sorted vectors from 0, so it stops at the same vector after
    # deciding {0, 1, 2, 3} (rejected) and {0, 1, 2, 4} on each input
    calls = []
    certify = resolvent.certify_distinct_values

    def counted_certify(ladder):
        calls.append(ladder.weights)
        return certify(ladder)

    monkeypatch.setattr(resolvent, "certify_distinct_values", counted_certify)
    f = UniPoly(coeffs)
    rs = isolate_roots(f)
    ladder = search_resolvent(rs)
    assert ladder.weights == (0, 1, 2, 4)
    assert calls == [(0, 1, 2, 3), (0, 1, 2, 4)]
    assert identify_galois(ladder).group.order == order


_squarefree = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(-6, 6), min_size=n, max_size=n)
).map(lambda low: UniPoly(low + [1])).filter(
    lambda f: gcd(f, f.derivative()).degree == 0
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_squarefree, st.lists(st.integers(0, 4), min_size=4, max_size=4, unique=True))
@example(UniPoly([-2, 0, 0, 0, 1]), [0, 1, 2, 4])
@example(UniPoly([1, 0, 0, 0, 1]), [3, 0, 1, 2])
@example(UniPoly([-2, 0, 0, 1]), [0, 1, 2, 4])
@example(UniPoly([-1, -3, 0, 1]), [2, 0, 1, 3])
@example(UniPoly([-2, 0, 0, 1]), [1, 1, 0, 0])
def test_resolvent_depends_only_on_the_weight_multiset(f, weights):
    weights = tuple(weights[:f.degree])
    expected = power_sum_resolvent(f, weights)
    for pi in symmetric_group(f.degree):
        permuted = tuple(weights[pi(i)] for i in range(f.degree))
        assert power_sum_resolvent(f, permuted) == expected


def _reference_search(rs, max_norm, skip, normalized=False):
    # the bounded search of every weight vector, by max-norm, then
    # lexicographically, each decided on its own; normalized keeps only
    # the sorted vectors from 0
    n = rs.poly.degree
    hits = (
        weights
        for norm in range(1, max_norm + 1)
        for weights in iter_product(range(norm + 1), repeat=n)
        if max(weights) == norm and len(set(weights)) == n
        and (not normalized or (weights[0] == 0 and list(weights) == sorted(weights)))
        and decide(weights, rs)
    )
    return next(islice(hits, skip, None), None)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_squarefree)
@example(UniPoly([-2, 0, 0, 0, 1]))
@example(UniPoly([6, 0, -5, 0, 1]))
@example(UniPoly([4, 0, -5, 0, 1]))
def test_search_agrees_with_the_bounded_reference(f):
    # the first hit of the bounded search is the unbounded one's; the
    # second is the normalized order's.  Where the bound is too small,
    # the unbounded search finds a hit of larger norm
    rs = isolate_roots(f)
    for skip, normalized in ((0, False), (1, True)):
        expected = _reference_search(rs, 4, skip, normalized)
        weights = search_resolvent(rs, skip).weights
        if expected is None:
            assert max(weights) > 4
        else:
            assert weights == expected


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_squarefree, st.lists(st.integers(0, 4), min_size=4, max_size=4),
       st.integers(-3, 5))
@example(UniPoly([-2, 0, 0, 1]), [0, 1, 2, 0], 1)
@example(UniPoly([4, 0, -5, 0, 1]), [0, 1, 2, 9], -1)
def test_shifting_every_weight_keeps_the_decision(f, weights, c):
    # every value moves by c * (alpha_1 + ... + alpha_n), so the values
    # that coincide stay the same
    weights = tuple(weights[:f.degree])
    rs = isolate_roots(f)
    assert decide(tuple(w + c for w in weights), rs) == decide(weights, rs)


@pytest.mark.parametrize("coeffs", [[1, 1], [1, -2, 1], [0, 0, 1]])
def test_search_rejects_a_root_system_it_cannot_finish(coeffs):
    # a hand-built system of degree < 2 leaves nothing to search, and
    # one with a repeated root has no injective weight vector, so the
    # search would never end
    f = UniPoly(coeffs)
    rs = RootSystem(f, rs2.enclosures[:f.degree], 128)
    with pytest.raises(InputError, match="squarefree polynomial of degree at least 2"):
        search_resolvent(rs)


def test_search_rejects_a_negative_skip():
    # a negative skip never counts down to a hit, so the search would not
    # end
    rs = isolate_roots(UniPoly([-2, 0, 1]))
    with pytest.raises(InputError, match="skip must be at least 0"):
        search_resolvent(rs, skip=-1)
    assert search_resolvent(rs, skip=0).weights == (0, 1)


def test_identify_reads_conjugate_balls_once_per_precision(monkeypatch):
    # the subgroup candidates of x^4 - (10^30 + 57) need 256 bits; every
    # subgroup test climbs one ladder of balls, read at 128 and 256 bits,
    # and the root expressions and the automorphisms read no balls
    precisions_read = []
    balls = resolvent.conjugate_balls

    def counted_balls(weights, rs):
        precisions_read.append(rs.precision_bits)
        return balls(weights, rs)

    f = UniPoly([-(10**30 + 57), 0, 0, 0, 1])
    rs = isolate_roots(f)
    monkeypatch.setattr(resolvent, "conjugate_balls", counted_balls)
    gd = identify_galois(Ladder((0, 1, 2, 4), rs))
    assert gd.group.order == 8
    automorphism_table(gd, express_roots(gd))
    assert sorted(precisions_read) == [128, 256]


@pytest.mark.parametrize("text", CORPUS)
def test_misordered_root_expressions_rejected_exactly(monkeypatch, text):
    # each root expression is certified to take its own root's value at
    # the generator, so the automorphisms need no ball check: any other
    # order of the expressions fails an exact identity, with no refinement
    data = corpus_pipeline(text)
    refined = []
    monkeypatch.setattr(RootSystem, "refine", lambda rs, bits: refined.append(bits))
    n = data.f.degree
    for tau in symmetric_group(n):
        if tau != Permutation.identity(n):
            with pytest.raises(CertificationError):
                automorphism_table(data.gd, [data.roots[tau(i)] for i in range(n)])
    assert refined == []


@pytest.mark.parametrize("text", ["x^4 - x - 1", "x^4 + 3x + 3", "x^4 - x - 1000000"])
def test_power_sum_resolvent_is_the_ball_product_on_s4(text):
    # the exact resolvent is the product that the subgroup test of S4
    # reads off the conjugate balls
    f = parse_poly(text)
    ladder = search_resolvent(isolate_roots(f))
    product = resolvent._test_subgroup(ladder.resolvent, symmetric_group(4), ladder)
    assert product == ladder.resolvent == power_sum_resolvent(f, ladder.weights)


@pytest.mark.parametrize("text, symmetric", [
    ("x^2 - 2", True), ("x^2 - 5x + 6", False),
    ("x^3 - 2", True), ("x^3 - 3x - 1", False), ("x^3 - 2x", False),
    ("x^4 - x - 1", True), ("x^4 + x^3 + x^2 + x + 1", False), ("x^4 + 1", False),
    ("x^4 - 2", False), ("x^4 + 8x + 12", False), ("x^4 - 5x^2 + 6", False),
])
def test_dedekind_certifies_only_the_symmetric_group(text, symmetric):
    # the benchmark corpus' C3, C4, V4, D4, A4 and reducible V4 never
    # show the cycle types that force S_n, however many primes are read
    assert certify_symmetric(parse_poly(text)) is symmetric


def test_cycle_types_mod_small_primes():
    # x^4 - x - 1 is irreducible mod 3, of type (4), and has the root 3
    # mod 7, of type (1, 3)
    f = UniPoly([-1, -1, 0, 0, 1])
    assert discriminant(f) == -283
    assert roots_mod(f, 3) == 0
    assert roots_mod(f, 7) == 1
    # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) mod 3
    assert roots_mod(UniPoly([1, 0, 0, 0, 1]), 3) == 0
    # x^3 - 2 has the root 3 mod 5 and the three cube roots of 2 mod 31,
    # and none mod 7, where it is irreducible
    g = UniPoly([-2, 0, 0, 1])
    assert discriminant(g) == -108
    assert roots_mod(g, 5) == 1
    assert roots_mod(g, 31) == 3
    assert roots_mod(g, 7) == 0
    # x^4 + x + 1 has no root mod 2, which does not divide its discriminant
    h = UniPoly([1, 1, 0, 0, 1])
    assert discriminant(h) == 229
    assert roots_mod(h, 2) == 0


def test_a_root_free_prime_of_type_2_2_completes_s4(monkeypatch):
    # x^4 + 4x^3 - 3x^2 + x - 4 has one root mod 2, type (1, 3), and none
    # mod 3, where it is (x^2 + 1)(x^2 + x + 2), type (2, 2): with its
    # discriminant not a square that proves S4 at the second prime.  A
    # reader that waits for a 4-cycle goes on to 71
    f = parse_poly("x^4 + 4x^3 - 3x^2 + x - 4")
    assert discriminant(f) == -253175
    assert not any(c % 3 for c in (UniPoly([1, 0, 1]) * UniPoly([2, 1, 1]) - f).num)
    counts, read = resolvent.roots_mod, []

    def recorded(f, p):
        read.append((p, counts(f, p)))
        return read[-1][1]

    monkeypatch.setattr(resolvent, "roots_mod", recorded)
    assert certify_symmetric(f) is True
    assert read == [(2, 1), (3, 0)]


@pytest.mark.parametrize("text, skipped", [
    # 283, the discriminant, lies past the 40 primes: the scan is lengthened
    ("x^4 - x - 1", {283}),
    # d = 4 * 105^3
    ("x^3 - 105x", {2, 3, 5, 7}),
])
def test_no_prime_dividing_the_discriminant_is_read(monkeypatch, text, skipped):
    # a root count that is never waited for keeps the scan going to its end
    f = parse_poly(text)
    d = discriminant(f)
    assert {p for p in skipped if d % p == 0} == skipped
    read = []

    def never_waited(f, p):
        read.append(p)
        return 2

    monkeypatch.setattr(resolvent, "roots_mod", never_waited)
    monkeypatch.setattr(resolvent, "DEDEKIND_PRIMES", 70)
    assert certify_symmetric(f) is False
    primes = [q for q in range(2, 400) if all(q % r for r in range(2, isqrt(q) + 1))]
    assert read == [q for q in primes if d % q][:70]
    assert not skipped & set(read)
    assert read[-1] > max(skipped)


def _closed_form_discriminant(cs):
    """The discriminant of the monic x^n + ... of degree n <= 4 from its
    lower coefficients cs, ascending, by the classical formulas."""
    if len(cs) == 1:
        return 1
    if len(cs) == 2:
        c, b = cs
        return b * b - 4 * c
    if len(cs) == 3:
        d, c, b = cs
        return b * b * c * c - 4 * c ** 3 - 4 * b ** 3 * d - 27 * d * d + 18 * b * c * d
    # x^4 + bx^3 + cx^2 + dx + e has the discriminant of its resolvent
    # cubic, whose roots are a1 a2 + a3 a4, a1 a3 + a2 a4 and a1 a4 + a2 a3
    e, d, c, b = cs
    return _closed_form_discriminant([-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c])


_coefficient = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(_coefficient, min_size=n, max_size=n)))
@example([-1, -1, 0, 0])          # x^4 - x - 1
@example([-2, 0, 0])              # x^3 - 2
@example([1, -2])                 # (x - 1)^2
@example([0, 0, 0, 0])            # x^4
def test_discriminant_matches_the_closed_forms(cs):
    assert discriminant(UniPoly(cs + [1])) == _closed_form_discriminant(cs)


def test_newton_refuses_power_sums_of_no_integer_polynomial():
    # two numbers with sum 1 and sum of squares 0 have e_2 = 1/2: no monic
    # integer polynomial has them as its roots
    with pytest.raises(CertificationError, match="the resolvent's power sums are not those "
                                                 "of an integer polynomial"):
        resolvent.from_power_sums([2, 1, 0])
    # the roots 0 and 1, and the roots of x^2 - 2
    assert resolvent.from_power_sums([2, 1, 1]) == [1, 1, 0]
    assert resolvent.from_power_sums([2, 0, 4]) == [1, 0, -2]


def _ladder(text):
    f, _ = normalize_monic_integer(parse_poly(text))
    return search_resolvent(Roots(f, isolate_roots))


def test_an_undecided_subgroup_is_refused_not_rejected(monkeypatch, capsys):
    # no order-8 product of x^4 - 2 is read as integers, and the climb is
    # cut to two rungs: its group, a D4, stays undecided.  Rejecting it
    # would let the search go on to S4, whose R is reducible
    ladder = _ladder("x^4 - 2")
    read = resolvent.read_integers
    monkeypatch.setattr(resolvent, "read_integers",
                        lambda balls: None if len(balls) == 8 else read(balls))
    monkeypatch.setattr(resolvent, "precisions", lambda start: islice(precisions(start), 2))
    with pytest.raises(CertificationError, match=r"the subgroup PermGroup\(order=8, .* stays undecided"):
        identify_galois(ladder)
    assert main(["analyze", "x^4 - 2"]) == 3
    assert capsys.readouterr().err.startswith("certification failure: the subgroup PermGroup(order=8")


def test_exact_division_rejects_a_candidate_off_by_one(monkeypatch):
    # x^3 - 3x - 1 has group A3.  With each read's constant term off by
    # one, no candidate divides R; the cofactor of such a candidate does
    # not vanish on the group's values, so only the division rejects it
    ladder = _ladder("x^3 - 3x - 1")
    gd = identify_galois(ladder)
    assert gd.group.order == 3
    assert resolvent._test_subgroup(ladder.resolvent, gd.group, ladder) == gd.min_poly
    read = resolvent.read_integers

    def off_by_one(balls):
        ints = read(balls)
        return [ints[0] + 1, *ints[1:]] if ints else ints

    monkeypatch.setattr(resolvent, "read_integers", off_by_one)
    assert resolvent._test_subgroup(ladder.resolvent, gd.group, ladder) is None
    with pytest.raises(CertificationError, match="no subgroup produced"):
        identify_galois(ladder)


def test_cofactor_rejects_the_other_dihedral_conjugates(monkeypatch):
    # every order-8 read of x^4 - 2 returns G's own minimal polynomial m.
    # m divides R, so the division passes for all three D4 conjugates, and
    # only the cofactor R / m, which vanishes on a value of each other
    # conjugate, rejects them; the first one tried is not G.  At that
    # value m's ball excludes 0, so the rejection needs no finer rung than
    # those identify_galois built.  The climb stays cut to two rungs, so
    # that a value left in doubt fails the rung check instead of climbing
    # to 65536 bits, which takes minutes
    ladder = _ladder("x^4 - 2")
    gd = identify_galois(ladder)
    built = sorted(ladder._rungs)
    read = resolvent.read_integers
    low = list(gd.min_poly.num[:-1])
    monkeypatch.setattr(resolvent, "read_integers",
                        lambda balls: list(low) if len(balls) == 8 else read(balls))
    monkeypatch.setattr(resolvent, "precisions", lambda start: islice(precisions(start), 2))
    others = [h for h in all_subgroups(symmetric_group(4)) if h.order == 8 and h != gd.group]
    assert len(others) == 2
    for h in others:
        assert resolvent._test_subgroup(ladder.resolvent, h, ladder) is None
    assert sorted(ladder._rungs) == built
    again = identify_galois(ladder)
    assert again.group == gd.group and again.min_poly == gd.min_poly
