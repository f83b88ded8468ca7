import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcert import poly
from galcert.arith import ComplexBall
from galcert.poly import SQUAREFREE_PRIME, MultiPoly, UniPoly, convolve, gcd, is_squarefree, reduce_monic
from galcert.resolvent import resolvent_poly

from helpers import ball_contains_rational, bisect_root, fraction_divmod, fraction_gcd, interval_ball, xgcd


def P(*coeffs):
    return UniPoly(coeffs)


def rand_poly(rng, max_deg=6):
    return UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1))])


def test_divmod_examples():
    q, r = divmod(P(-1, 0, 1), P(-1, 1))
    assert q == P(1, 1) and r.is_zero()
    q, r = divmod(P(-2, 0, 0, 1), P(0, 0, 1))
    assert q == P(0, 1) and r == P(-2)


def test_divmod_resolvent_by_its_min_poly():
    f = P(-2, 0, 1)
    resolvent = resolvent_poly(f, (1, 0))
    assert resolvent == f
    q, r = divmod(resolvent, f)
    assert q == P(1) and r.is_zero()


def test_divmod_round_trip():
    rng = random.Random(11)
    for _ in range(80):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert b * q + r == a
        assert r.is_zero() or r.degree < b.degree


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), P())


def test_gcd_examples():
    assert gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
    # Euclid by hand: x^3 - 2 = (x/3) * 3x^2 - 2; then 3x^2 and -2 are coprime
    assert gcd(P(-2, 0, 0, 1), P(0, 0, 3)) == P(1)
    f = P(1, -1) * P(1, -1)
    assert gcd(f, f.derivative()) == P(-1, 1).monic()


def test_gcd_divides_both():
    rng = random.Random(13)
    for _ in range(50):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        if a.is_zero() and b.is_zero():
            continue
        g = gcd(a, b) if not (a.is_zero() and b.is_zero()) else None
        for p in (a, b):
            if not p.is_zero():
                assert (p % g).is_zero()


def test_gcd_of_two_zeros_is_an_error():
    with pytest.raises(ValueError):
        gcd(P(), P())


def _monic(low, high):
    """Monic integer polynomials of degree low..high."""
    return st.lists(st.integers(-1000, 1000), min_size=low, max_size=high).map(
        lambda cs: UniPoly(cs + [1])
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        _monic(1, 24),
        # f * g^2 with g nonconstant, of degree 2..24: never squarefree
        st.tuples(_monic(0, 10), _monic(1, 7)).map(lambda fg: fg[0] * fg[1] * fg[1]),
    )
)
@example(P(-2, 0, 1))
@example(P(1, -2, 1))
@example(UniPoly([-1] + [0] * 23 + [1]))  # x^24 - 1
@example(UniPoly([1] + [0] * 11 + [-2] + [0] * 11 + [1]))  # (x^12 - 1)^2
@example(P(0, -SQUAREFREE_PRIME, 1))
@example(P(SQUAREFREE_PRIME**2, -2 * SQUAREFREE_PRIME, 1))
def test_squarefree_decision_matches_the_rational_gcd(f):
    assert is_squarefree(f) == (gcd(f, f.derivative()).degree == 0)


def test_squarefree_falls_back_when_the_prime_splits_a_root_pair(monkeypatch):
    # x^2 - p x = x (x - p) has distinct roots over Q, but mod p it is
    # x^2, so the gcd mod p is x and the rational gcd decides
    f = P(0, -SQUAREFREE_PRIME, 1)
    # f and f' = 2x - p reduce to x^2 and 2x
    assert poly._gcd_degree_mod([0, 0, 1], [0, 2], SQUAREFREE_PRIME) == 1
    calls = []
    rational_gcd = poly.gcd

    def counted_gcd(a, b):
        calls.append(a)
        return rational_gcd(a, b)

    monkeypatch.setattr(poly, "gcd", counted_gcd)
    assert is_squarefree(f)
    assert calls == [f]
    calls.clear()
    # a constant gcd mod p accepts without the rational gcd
    assert is_squarefree(P(-2, 0, 1)) and calls == []
    # rational or non-monic input goes to the rational gcd at once
    assert is_squarefree(P(Fraction(-1, 2), 0, 1)) and len(calls) == 1
    assert not is_squarefree(P(2, 4, 2)) and len(calls) == 2


def _polys(max_deg):
    """Integer and rational polynomials of degree at most max_deg, with
    any leading coefficient."""
    coeff = st.one_of(
        st.integers(-10**6, 10**6),
        st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 60)),
    )
    return st.lists(coeff, max_size=max_deg + 1).map(UniPoly)


def _assert_canonical(p):
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0 and int_gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1]
    assert UniPoly(p.coeffs) == p == UniPoly(p.num, p.den)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_polys(8), _polys(8), _polys(8), st.booleans())
@example(P(-1, 0, 1), P(-1, 1), P(1), False)
@example(UniPoly([-1] + [0] * 23 + [1]), P(0, 0, 3), P(1), False)  # x^24 - 1
@example(P(1, 0, 0, 0, 0, 0, -1), P(2, 0, -3), P(-1, 0, 0, 0, 0, 0, 1), True)
@example(P(Fraction(7, 5), -2, 0, 3), P(Fraction(-2, 3), 9), P(Fraction(1, 2), -4), True)
def test_integer_form_matches_fraction_euclid(f, g, h, square):
    # a and b share the factor h; with square, a holds h twice, so it is
    # not squarefree when h is not constant.  Degrees reach 24.
    a = f * h * (h if square else P(1))
    b = g * h
    for p in (f, g, h, a, b, a.monic(), a.derivative(), -b, a + b, a - b):
        _assert_canonical(p)
    if not b.is_zero():
        q, r = divmod(a, b)
        _assert_canonical(q)
        _assert_canonical(r)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        assert (list(q.coeffs), list(r.coeffs)) == fraction_divmod(a.coeffs, b.coeffs)
    if not (a.is_zero() and b.is_zero()):
        assert list(gcd(a, b).coeffs) == fraction_gcd(a.coeffs, b.coeffs)
    if a.degree:
        assert list(gcd(a, a.derivative()).coeffs) == fraction_gcd(a.coeffs, a.derivative().coeffs)


def _schoolbook(a, b):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _remainder(cs, m):
    """cs mod the monic m by ``UniPoly`` division, padded to deg m."""
    r = divmod(UniPoly(cs), UniPoly(m))[1].num
    return [*r, *[0] * (len(m) - 1 - len(r))]


# vectors with many zeros, so the kernels' zero skips and swaps run
_vectors = st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), max_size=14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vectors, _vectors, st.lists(st.integers(-1000, 1000), min_size=1, max_size=6))
@example([], [], [0])
@example([], [3, 0, 1], [5, -1])
@example([7], [0, 0, 4], [1, 2, 3])  # both shorter than deg m
@example([1, 2, 3], [0, 5, 0], [4, 0, -1])  # both as long as deg m
@example([1] * 9, [0, 0, 0, 0, 1], [-2, 0, 1])  # both longer
def test_kernels_match_schoolbook_and_division(a, b, low):
    assert convolve(a, b) == _schoolbook(a, b)
    m = [*low, 1]
    for cs in (a, b, convolve(a, b)):
        assert reduce_monic(list(cs), m) == _remainder(cs, m)


def test_xgcd_bezout():
    rng = random.Random(17)
    for _ in range(30):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        if a.is_zero() or b.is_zero():
            continue
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g


def test_degree_sentinel_is_none():
    assert P().degree is None
    assert P(5).degree == 0
    assert P(0, 1).degree == 1


def test_eval_ball_examples():
    f = P(-2, 0, 1)
    v = f.eval_ball(ComplexBall.from_ints(0, 0, 0, 0), 64)
    assert ball_contains_rational(v, -2)

    lo, hi = bisect_root(f, 1, 2, steps=60)
    enclosure = interval_ball(lo, hi)
    near_zero = f.eval_ball(enclosure, 128)
    assert near_zero.contains_zero()
    assert near_zero.rad < Fraction(1, 10**12)

    five = P(5).eval_ball(interval_ball(-3, 17), 64)
    assert ball_contains_rational(five, 5)
    assert five.rad == 0


def test_substitute_scaled():
    f = P(Fraction(-1, 2), 0, 1)
    assert f.substitute_scaled(2) == P(-2, 0, 1)


def test_render_is_parseable_text():
    assert P(-2, 0, 0, 1).render() == "x^3 - 2"
    assert P(1, 0, 1).render() == "x^2 + 1"
    assert P(Fraction(1, 2), -1).render() == "-x + 1/2"


# -- multivariate ------------------------------------------------------------

def test_multipoly_products():
    x1 = MultiPoly(2, {(1, 0): 1})
    x2 = MultiPoly(2, {(0, 1): 1})
    assert (x1 + x2) * (x1 - x2) == MultiPoly(2, {(2, 0): 1, (0, 2): -1})
    e1 = x1 + x2
    assert e1 * e1 == MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    p = MultiPoly(2, {(3, 1): 5, (0, 2): -2})
    assert (p + (-p)).is_zero()
    assert (p + (-p)).terms == {}


def test_multipoly_variable_count_mismatch():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0): 1}) * MultiPoly(3, {(1, 0, 0): 1})


def test_multipoly_ring_axioms():
    rng = random.Random(23)

    def rand_mp():
        n = 3
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = rng.randint(-4, 4)
        return MultiPoly(n, terms)

    for _ in range(60):
        a, b, c = rand_mp(), rand_mp(), rand_mp()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a


def test_multipoly_orders():
    p = MultiPoly(2, {(1, 2): 1, (2, 0): 1, (0, 1): 7})
    assert p.lex_leading() == ((2, 0), 1)
    q = MultiPoly(2, {(2, 1): 1, (2, 0): 1})
    assert q.lex_leading() == ((2, 1), 1)
