import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from galcert.arith import (
    ComplexBall,
    ball_disjoint,
    div_sig,
    nth_root_upper,
    round_sig,
    sig_rational,
)
from galcert.poly import UniPoly
from galcert.resolvent import _ball_poly_product
from galcert.roots import read_integers

from helpers import ball_contains_rational, bisect_root, cplx_add, cplx_mul, dyadic_ball, interval_ball


def _value(m, e):
    return Fraction(m) * Fraction(2) ** e


def test_dyadic_roundtrip_and_rounding():
    assert sig_rational(Fraction(3, 2), 64) == (3, -1)
    assert sig_rational(Fraction(-12), 64) == (-3, 2)
    assert sig_rational(Fraction(0), 64) == (0, 0)
    for q in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**20 + 1, 3**30), Fraction(2, 3**50)):
        for prec in (1, 10, 64):
            m, e = sig_rational(q, prec)
            assert m % 2 == 1 and abs(m).bit_length() <= max(prec, int(abs(q)).bit_length()) + 3
            assert abs(q - _value(m, e)) <= Fraction(2) ** (e - 1)
    for m in (0b101101110111, -0b101101110111, 0b101101110000, 7):
        rm, re = round_sig(m, 3, 5)
        assert abs(rm).bit_length() <= 5
        if re == 3:
            assert rm == m
        else:
            assert abs(_value(rm, re) - m * 8) <= Fraction(2) ** (re - 1)


def test_dyadic_division_error_bound():
    for a, b in ((7, 3), (-7, 3), (12, 40), (1, 1)):
        qm, qe = div_sig(a, -2, b, 5, 64)
        exact = Fraction(a, b) * Fraction(1, 2**7)
        assert 0 <= exact - _value(qm, qe) < Fraction(2) ** qe


def test_sqrt_and_nth_root_upper_bounds():
    # n = 2 is the square root; the bound is the same for every form of
    # its input, and is normalized
    for k in (2, 3, 5, 10, 1000, 12345):
        for n in (2, 3, 4, 6):
            for e in (-7, 0, 5):
                m, re = nth_root_upper(k, e, n)
                assert m % 2 == 1
                assert _value(m, re) ** n >= _value(k, e)
                assert nth_root_upper(k << 3, e - 3, n) == (m, re)
    assert nth_root_upper(0, 5, 3) == (0, 0)
    assert nth_root_upper(27, 0, 3) == (3, 0)


def test_ball_disjoint_basic():
    a = dyadic_ball(0, rad=Fraction(1, 10))
    b = dyadic_ball(1, rad=Fraction(1, 10))
    assert ball_disjoint(a, b)
    assert ball_disjoint(b, a)
    c = dyadic_ball(0, rad=Fraction(6, 10))
    d = dyadic_ball(1, rad=Fraction(6, 10))
    assert not ball_disjoint(c, d)


def test_ball_disjoint_certified_sqrt2():
    # independent enclosures of +-sqrt(2) by bisection to radius < 1e-20
    f = UniPoly([-2, 0, 1])
    lo, hi = bisect_root(f, 1, 2)
    assert hi - lo < Fraction(1, 10**20)
    pos = interval_ball(lo, hi)
    neg = interval_ball(-hi, -lo)
    assert ball_disjoint(pos, neg)


def test_ball_arithmetic_contains_exact_values():
    rng = random.Random(7)
    for _ in range(60):
        ar = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ai = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        br = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        bi = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        a = dyadic_ball(ar, ai)
        b = dyadic_ball(br, bi)
        assert ball_contains_rational(a.mul(b, 64), *cplx_mul((ar, ai), (br, bi)))
        assert ball_contains_rational(-a, -ar, -ai)


def test_disjoint_balls_have_distinct_values():
    rng = random.Random(3)
    for _ in range(40):
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        y = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        bx = dyadic_ball(x, rad=Fraction(1, 10**9))
        by = dyadic_ball(y, rad=Fraction(1, 10**9))
        if ball_disjoint(bx, by):
            assert x != y
        if x == y:
            assert not ball_disjoint(bx, by)


# -- the integer ball kernel against exact rationals ------------------------

_mans = st.integers(-(2**60), 2**60)
# with these exponents the centers run from about 2**-260 to 2**200
_exps = st.integers(-260, 140)
_rads = st.one_of(st.just(0), st.integers(1, 2**8), st.integers(2**40, 2**62))
_balls = st.builds(ComplexBall.from_ints, _mans, _mans, _rads, _exps)
# a point of a ball: its center moved t * rad along a rational unit vector
_moves = st.tuples(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.sampled_from([(Fraction(3, 5), Fraction(4, 5)), (Fraction(-1), Fraction(0)),
                     (Fraction(0), Fraction(-1)), (Fraction(-4, 5), Fraction(3, 5))]),
)
_precs = st.integers(1, 300)


def _point(ball, move):
    t, (ur, ui) = move
    scale = Fraction(2) ** ball.exp
    return ((ball.x + t * ur * ball.r) * scale, (ball.y + t * ui * ball.r) * scale)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_balls, _moves, _balls, _moves, _precs)
def test_kernel_operations_contain_the_exact_results(a, ma, b, mb, prec):
    pa, pb = _point(a, ma), _point(b, mb)
    assert ball_contains_rational(a.mul(b, prec), *cplx_mul(pa, pb))
    assert ball_contains_rational(-a, -pa[0], -pa[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_balls, _moves), min_size=1, max_size=4),
    st.lists(st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10**6), min_size=1, max_size=5),
    _precs,
)
def test_horner_and_ball_product_contain_the_exact_results(pairs, coeffs, prec):
    balls = [b for b, _ in pairs]
    points = [_point(b, m) for b, m in pairs]
    # p(z) at every point, by plain Horner over Fraction pairs
    p = UniPoly(coeffs)
    for ball, z in zip(balls, points):
        acc = (Fraction(0), Fraction(0))
        for c in reversed(p.coeffs):
            acc = cplx_add(cplx_mul(acc, z), (Fraction(c), Fraction(0)))
        assert ball_contains_rational(p.eval_ball(ball, prec), *acc)
    # the monic product of (x - z) over the points, ascending
    exact = [(Fraction(1), Fraction(0))]
    for z in points:
        nxt = [(Fraction(0), Fraction(0))] * (len(exact) + 1)
        for i, c in enumerate(exact):
            prod = cplx_mul(c, z)
            nxt[i] = (nxt[i][0] - prod[0], nxt[i][1] - prod[1])
            nxt[i + 1] = cplx_add(nxt[i + 1], c)
        exact = nxt
    got = _ball_poly_product(balls, prec)
    assert len(got) == len(exact)
    for ball, value in zip(got, exact):
        assert ball_contains_rational(ball, *value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(2, 200),
    st.data(),
)
def test_read_integers_decides_like_the_exact_disk(k, s, data):
    """A ball narrower than 1/2 holding the integer k reads as k; False
    comes only from a ball narrower than 1/2 that holds no integer; a
    ball at least 1/2 wide reads as None."""
    half = 1 << (s - 1)
    r = data.draw(st.integers(0, half - 1))
    dx = data.draw(st.integers(-(1 << s), 1 << s))
    dy = data.draw(st.integers(-2 * r - 1, 2 * r + 1))
    ball = ComplexBall.from_ints((k << s) + dx, dy, r, -s)
    got = read_integers([ball])
    # only the nearest integer can lie in a disk narrower than 1/2
    nearest = round(Fraction((k << s) + dx, 1 << s))
    if got is False:
        assert not ball_contains_rational(ball, nearest)
    else:
        assert got == [nearest]
        assert ball_contains_rational(ball, nearest)
    wide = ComplexBall.from_ints(k << s, 0, half, -s)
    assert read_integers([wide]) is None
    assert read_integers([ball, wide]) is (False if got is False else None)


def test_read_integers_at_the_half_integer_edge():
    s = 8  # balls over 2**-8
    # edge on k + 1/2 from below: center k + 1/8, radius 3/8 holds k
    assert read_integers([ComplexBall.from_ints((7 << s) + 32, 0, 96, -s)]) == [7]
    # edge on k + 1/2 from above: center k + 5/8, radius 1/8 holds nothing
    assert read_integers([ComplexBall.from_ints((7 << s) + 160, 0, 32, -s)]) is False
    # a center exactly on k + 1/2 holds no integer when narrower than 1/2
    assert read_integers([ComplexBall.from_ints((-3 << s) + 128, 0, 127, -s)]) is False
    # an integer on the boundary is held: center k + 1/4, radius 1/4
    assert read_integers([ComplexBall.from_ints((-3 << s) + 64, 0, 64, -s)]) == [-3]
    # radius exactly 1/2 is not narrow enough
    assert read_integers([ComplexBall.from_ints(7 << s, 0, 128, -s)]) is None
    # an imaginary part beyond the radius proves the value non-real
    assert read_integers([ComplexBall.from_ints(7 << s, 40, 32, -s)]) is False
    # the box around the disk holds 7, the disk does not: 77^2 + 77^2 > 90^2
    assert read_integers([ComplexBall.from_ints((7 << s) + 77, 77, 90, -s)]) is False
    # coarse exponents: exact integers with zero radius
    assert read_integers([ComplexBall.from_ints(5, 0, 0, 3), ComplexBall.from_ints(-2, 0, 0, 0)]) == [40, -2]
