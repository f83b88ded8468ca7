import hashlib
import random
from fractions import Fraction

import pytest

from galcert import roots
from galcert.arith import ComplexBall, ball_disjoint
from galcert.cli import analyze, parse_poly
from galcert.errors import InputError
from galcert.poly import UniPoly, gcd
from galcert.roots import isolate_roots, read_integers

from helpers import ball_add, ball_contains_rational, bisect_root


def test_isolate_sqrt2():
    rs = isolate_roots(UniPoly([-2, 0, 1]), 128)
    assert len(rs.enclosures) == 2
    lo, hi = bisect_root(UniPoly([-2, 0, 1]), 1, 2)
    neg, pos = rs.enclosures
    for ball, (a, b) in ((pos, (lo, hi)), (neg, (-hi, -lo))):
        assert abs(ball.im) <= ball.rad
        center = ball.re
        assert a - ball.rad <= center <= b + ball.rad
        assert ball.rad <= Fraction(1, 2**128)


def test_isolate_i():
    rs = isolate_roots(UniPoly([1, 0, 1]), 128)
    ims = sorted(b.im for b in rs.enclosures)
    rad = max(b.rad for b in rs.enclosures)
    assert abs(ims[0] + 1) <= rad and abs(ims[1] - 1) <= rad
    for b in rs.enclosures:
        assert abs(b.re) <= b.rad


def test_isolate_cbrt2():
    f = UniPoly([-2, 0, 0, 1])
    rs = isolate_roots(f, 128)
    real = [b for b in rs.enclosures if abs(b.im) <= b.rad]
    cplx = [b for b in rs.enclosures if abs(b.im) > b.rad]
    assert len(real) == 1 and len(cplx) == 2
    lo, hi = bisect_root(f, 1, 2)
    center = real[0].re
    assert lo - real[0].rad <= center <= hi + real[0].rad
    # complex pair mirrors across the real axis
    a, b = cplx
    assert abs(a.re - b.re) <= 2 * a.rad
    assert abs(a.im + b.im) <= 2 * a.rad


def test_isolation_rejects_bad_input():
    with pytest.raises(InputError, match="squarefree"):
        isolate_roots(UniPoly([1, -2, 1]))
    with pytest.raises(InputError, match="monic"):
        isolate_roots(UniPoly([-2, 0, 2]))
    with pytest.raises(InputError, match="degree"):
        isolate_roots(UniPoly([5]))


def test_enclosures_pairwise_disjoint_and_vieta():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 5)
        f = UniPoly([rng.randint(-8, 8) for _ in range(n)] + [1])
        if f.degree != n or gcd(f, f.derivative()).degree != 0:
            continue
        rs = isolate_roots(f, 80)
        balls = rs.enclosures
        for i in range(n):
            for j in range(i + 1, n):
                assert ball_disjoint(balls[i], balls[j])
        prec = 400
        total = ComplexBall.from_ints(0, 0, 0, 0)
        prod = ComplexBall.from_ints(1, 0, 0, 0)
        for b in balls:
            total = ball_add(total, b)
            prod = prod.mul(b, prec)
        assert ball_contains_rational(total, -Fraction(f[n - 1]))
        assert ball_contains_rational(prod, Fraction((-1) ** n * f[0]))


def test_rational_roots_recovered():
    # monic with rational roots: denominators allowed via rational coefficients
    roots = [Fraction(1, 2), Fraction(-3), Fraction(5, 3)]
    f = UniPoly([1])
    for r in roots:
        f = f * UniPoly([-r, 1])
    rs = isolate_roots(f, 96)
    for ball, root in zip(rs.enclosures, sorted(roots)):
        assert ball_contains_rational(ball, root)


def test_refine_preserves_roots_and_order():
    f = UniPoly([-2, 0, 0, 1])
    rs = isolate_roots(f, 64)
    fine = rs.refine(256)
    assert fine.precision_bits == 256
    for old, new in zip(rs.enclosures, fine.enclosures):
        assert not ball_disjoint(old, new)
        assert new.rad <= Fraction(1, 2**256)
    for i, new in enumerate(fine.enclosures):
        for j, old in enumerate(rs.enclosures):
            if i != j:
                assert ball_disjoint(new, old)


def test_pipeline_refines_once_per_resolvent_read(monkeypatch):
    # x^4 - 1000003's resolvents need 256 bits: the search reads two
    # weight multisets and identify_galois one more resolvent, each
    # refining once, and the 128-bit system serves everything else
    refinements = []
    isolate = roots.isolate_roots

    def counted_isolate(f, bits=128, *, _seeds=None):
        if _seeds is not None:
            refinements.append(bits)
        return isolate(f, bits, _seeds=_seeds)

    monkeypatch.setattr(roots, "isolate_roots", counted_isolate)
    assert analyze("x^4 - 1000003").all_passed()
    assert refinements == [256, 256, 256]


def test_discriminant_reads_as_an_integer():
    # numeric discriminant of x^3 - 2
    rs = isolate_roots(UniPoly([-2, 0, 0, 1]), 96)
    prec = 400
    disc = ComplexBall.from_ints(1, 0, 0, 0)
    balls = rs.enclosures
    for i in range(3):
        for j in range(i + 1, 3):
            d = ball_add(balls[i], -balls[j])
            disc = disc.mul(d, prec).mul(d, prec)
    assert read_integers([disc]) == [-108]


def test_isolation_survives_float_overflow():
    # coefficients beyond float range force the dyadic seeding path
    f = UniPoly([-(10**400), 0, 1])
    rs = isolate_roots(f, 96)
    centers = sorted(b.re for b in rs.enclosures)
    for c, expected in zip(centers, (-(10**200), 10**200)):
        assert abs(c - expected) <= max(b.rad for b in rs.enclosures)


# the benchmark corpus (one polynomial per transitive group up to degree
# 4, and a reducible V4) and three inputs whose roots need more bits
_PINNED_POLYS = (
    "x^2 - 2", "x^3 - 3x - 1", "x^3 - 2", "x^4 + x^3 + x^2 + x + 1",
    "x^4 + 1", "x^4 - 2", "x^4 + 8x + 12", "x^4 - 5x^2 + 6",
    "x^3 - 7x^2 + 15x + 76", "x^4 - x - 1", "x^4 - 1000003",
)


def test_enclosures_are_pinned_bit_for_bit():
    """The polish and the certificate fix every enclosure's ints, and with
    them the root order: at 128 bits, one conjugate pair of
    x^4 + x^3 + x^2 + x + 1 has real parts 2**-577 apart, so its order
    follows the polish's last bit.  Any change to either shows here."""
    h = hashlib.sha256()
    for text in _PINNED_POLYS:
        f = parse_poly(text)
        systems = [isolate_roots(f, bits) for bits in (64, 128, 256)]
        systems.append(systems[1].refine(512))
        for rs in systems:
            for b in rs.enclosures:
                h.update(repr((b.x, b.y, b.r, b.exp)).encode())
    assert h.hexdigest() == "2cac850487e1c26fee698c9c7f100c75e625d697a2694dcd66e4f8ad81dcc860"
