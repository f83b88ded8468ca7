"""Shared independent oracles for the tests.

These deliberately avoid the code paths they are used to check: root
enclosures come from plain bisection over exact fractions, complex
rational arithmetic is spelled out directly over Fraction pairs, and
field inverses come from extended Euclid against the modulus.
"""

from fractions import Fraction

from galcert.arith import ComplexBall, Dyadic
from galcert.poly import xgcd


def bisect_root(f, lo, hi, steps=80):
    """Bisection enclosure [lo, hi] of a sign-changing root, over exact
    dyadic fractions.  Endpoints must be dyadic for exactness."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo = f.eval_rational(lo)
    fhi = f.eval_rational(hi)
    assert flo * fhi < 0, "no sign change on the starting interval"
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = f.eval_rational(mid)
        if fmid == 0:
            return mid, mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return lo, hi


def interval_ball(lo, hi):
    """Ball of a real interval with dyadic endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    center = (lo + hi) / 2
    rad = (hi - lo) / 2
    c, ce = Dyadic.from_fraction(center, 4096)
    r, re = Dyadic.from_fraction(rad, 4096)
    assert ce.is_zero() and re.is_zero(), "endpoints must be dyadic"
    return ComplexBall(c, Dyadic(0), r)


def dyadic_ball(re, im=0, rad=0, prec=64):
    """Ball from rationals; radius gets an upper dyadic rounding."""
    c_re, e_re = Dyadic.from_fraction(Fraction(re), prec)
    c_im, e_im = Dyadic.from_fraction(Fraction(im), prec)
    r = Dyadic.from_fraction(Fraction(rad), prec)[0] + e_re + e_im + Dyadic(1, -prec)
    return ComplexBall(c_re, c_im, r)


def ball_contains_rational(ball, re, im=0):
    """Exact containment check of a rational point in a ball."""
    dre = ball.re.to_fraction() - Fraction(re)
    dim = ball.im.to_fraction() - Fraction(im)
    return dre * dre + dim * dim <= ball.rad.to_fraction() ** 2


def cplx_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cplx_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cplx_div(a, b):
    q = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / q, (a[1] * b[0] - a[0] * b[1]) / q)


def xgcd_inverse(x):
    """Reference inverse: extended Euclid against the modulus."""
    g, s, _ = xgcd(x.to_unipoly(), x.field.modulus)
    assert g.degree == 0
    return x.field.element(s.scale(Fraction(1) / Fraction(g.coeffs[0])).coeffs)
