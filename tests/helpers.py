"""Shared independent oracles for the tests.

These deliberately avoid the code paths they are used to check: root
enclosures come from plain bisection over exact fractions, complex
rational arithmetic is spelled out directly over Fraction pairs,
field inverses come from extended Euclid against the modulus, and
``fraction_divmod`` is schoolbook division over ``Fraction``s, the
reference for the integer form's pseudo-division.
``record_refinements`` counts the pipeline's refinements at the one
place they polish balls.
"""

import sys
from fractions import Fraction
from math import ceil

from galcert import roots
from galcert.arith import ComplexBall, fixed_rational
from galcert.poly import UniPoly


def eval_rational(f, x):
    """f(x) by Horner over exact rationals."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def bisect_root(f, lo, hi, steps=80):
    """Bisection enclosure [lo, hi] of a sign-changing root, over exact
    dyadic fractions.  Endpoints must be dyadic for exactness."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo = eval_rational(f, lo)
    fhi = eval_rational(f, hi)
    assert flo * fhi < 0, "no sign change on the starting interval"
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = eval_rational(f, mid)
        if fmid == 0:
            return mid, mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return lo, hi


def interval_ball(lo, hi):
    """Ball of a real interval with dyadic endpoints, exactly."""
    lo, hi = Fraction(lo), Fraction(hi)
    c, ce = fixed_rational((lo + hi) / 2, 4096)
    r, re = fixed_rational((hi - lo) / 2, 4096)
    assert not (ce or re), "endpoints must be dyadic"
    return ComplexBall.from_ints(c, 0, r, -4096)


def dyadic_ball(re, im=0, rad=0, prec=64):
    """Ball from rationals over 2**-prec; the radius is rounded up and
    covers the rounding of the center."""
    x, ex = fixed_rational(Fraction(re), prec)
    y, ey = fixed_rational(Fraction(im), prec)
    return ComplexBall.from_ints(x, y, ceil(Fraction(rad) * 2**prec) + ex + ey, -prec)


def ball_add(a, b):
    """The exact sum of two balls: centers add, radii add."""
    e = min(a.exp, b.exp)
    s, t = a.exp - e, b.exp - e
    return ComplexBall.from_ints(
        (a.x << s) + (b.x << t), (a.y << s) + (b.y << t), (a.r << s) + (b.r << t), e
    )


def ball_contains_rational(ball, re, im=0):
    """Exact containment check of a rational point in a ball."""
    dre = ball.re - Fraction(re)
    dim = ball.im - Fraction(im)
    return dre * dre + dim * dim <= ball.rad**2


def cplx_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cplx_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def fraction_divmod(a, b):
    """(q, r) as lists of ``Fraction``s, ascending, with no trailing
    zeros: schoolbook long division of the coefficient lists a by b."""
    rem = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] / b[-1]
        quot[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] -= q * b[j]
    for cs in (quot, rem):
        while cs and not cs[-1]:
            cs.pop()
    return quot, rem


def fraction_gcd(a, b):
    """The monic gcd of two coefficient lists by Euclid over ``Fraction``s."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def xgcd(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = UniPoly([1]), UniPoly()
    t0, t1 = UniPoly(), UniPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def xgcd_inverse(x):
    """Reference inverse: extended Euclid against the modulus."""
    g, s, _ = xgcd(x.to_unipoly(), x.field.modulus)
    assert g.degree == 0
    return x.field.element(s.scale(Fraction(1) / Fraction(g.coeffs[0])).coeffs)


def record_refinements(monkeypatch):
    """The list, filled as the test runs, of the precision of each
    refinement attempt: each ``roots._enclose`` call that
    ``RootSystem.refine`` makes, one per precision of its schedule.  The
    first isolation's call is not one."""
    attempts = []
    enclose, refine = roots._enclose, roots.RootSystem.refine.__code__

    def counted_enclose(f, zs, precision_bits):
        if sys._getframe(1).f_code is refine:
            attempts.append(precision_bits)
        return enclose(f, zs, precision_bits)

    monkeypatch.setattr(roots, "_enclose", counted_enclose)
    return attempts
