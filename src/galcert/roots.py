"""Certified complex root isolation, the precision schedule, and rational
reconstruction.

Approximation is cheap and sloppy (float simultaneous iteration, then
dyadic polishing at growing precision); every claim that matters is
certified afterwards: for monic f of degree n and a point z, the nearest
root is within |f(z)|^(1/n), so inflating each approximation to that
radius and checking the n balls pairwise disjoint proves a bijection
between balls and roots.  |f(z)| is bounded above in ball arithmetic, so
the certificate is rigorous no matter how the points were found.

Every certificate that may need narrower balls follows one schedule,
``precisions(start)``: the first attempt always runs at ``start``, even
above the cap, then the precision doubles while it stays at or below
``PREC_CAP`` = 2**16 bits.  No caller picks another cap.  Each caller
decides what running out of the schedule means: reading an integer
polynomial off a ball product (the resolvent, or a subgroup's candidate
factor in ``identify_galois``) gives up with ``CertificationError`` or
rejects the subgroup, and ``RootSystem.refine``, ``express_roots`` and
``automorphism_table`` raise ``CertificationError`` (exit code 3 in the
CLI).  Injectivity of a weight vector needs no schedule of its own: it
is decided exactly on the resolvent.  ``isolate_roots`` has a separate
working-precision loop with its own budget: it drives the
approximation, not a certificate.

``reconstruct_rational`` is the one place where a ball is turned into the
exact rational it pins down, and ``read_integers`` the one place where a
list of balls is read as the integers they pin down: the resolvent, the
subgroup candidates and the root expressions' numerators all come
through it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    ComplexBall,
    Dyadic,
    ball_disjoint,
    dy_div,
    nth_root_upper,
    pairwise_disjoint,
    pow2,
)
from .errors import CertificationError, InputError
from .poly import UniPoly, gcd

PREC_CAP = 1 << 16


def precisions(start: int):
    """The certification schedule: start, then doublings up to PREC_CAP."""
    if start < 1:
        raise InputError("the start precision must be at least 1 bit")
    bits = start
    while True:
        yield bits
        bits *= 2
        if bits > PREC_CAP:
            return


# -- plain (non-interval) dyadic complex helpers for the iteration --------

def _c_from_complex(z: complex):
    return (
        Dyadic.from_fraction(Fraction(z.real), 64)[0],
        Dyadic.from_fraction(Fraction(z.imag), 64)[0],
    )


def _c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _c_mul(a, b, prec):
    re = a[0] * b[0] - a[1] * b[1]
    im = a[0] * b[1] + a[1] * b[0]
    return (re.round_nearest(prec)[0], im.round_nearest(prec)[0])


def _c_div(a, b, prec):
    q = b[0] * b[0] + b[1] * b[1]
    if q.is_zero():
        raise ZeroDivisionError
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    return (dy_div(re, q, prec)[0], dy_div(im, q, prec)[0])


def _c_abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _c_eval(coeffs, z, prec):
    acc = (Dyadic(0), Dyadic(0))
    for c in reversed(coeffs):
        acc = _c_mul(acc, z, prec)
        acc = (acc[0] + c, acc[1])
    return acc


def _float_aberth(f: UniPoly):
    """Double-precision warm start; None if floats cannot represent f."""
    n = f.degree
    try:
        cs = [float(Fraction(c)) for c in f.coeffs]
    except OverflowError:
        return None
    if any(c != c or abs(c) == float("inf") for c in cs):
        return None
    dcs = [i * cs[i] for i in range(1, n + 1)]
    bound = 1.0 + max(abs(c) for c in cs)
    zs = [
        bound * cmath.exp(2j * cmath.pi * (k + 0.3545) / n) for k in range(n)
    ]
    for _ in range(300):
        moved = 0.0
        scale = max(1.0, max(abs(z) for z in zs))
        new = []
        for i, z in enumerate(zs):
            fz = _horner_float(cs, z)
            dfz = _horner_float(dcs, z)
            if dfz == 0:
                new.append(z + 1e-7 * (1 + 1j))
                moved = 1.0
                continue
            ratio = fz / dfz
            s = 0.0 + 0.0j
            for j in range(n):
                if j != i and z != zs[j]:
                    s += 1.0 / (z - zs[j])
            den = 1.0 - ratio * s
            w = ratio / den if den != 0 else ratio
            new.append(z - w)
            moved = max(moved, abs(w))
        zs = new
        if moved < 1e-14 * scale:
            break
    return zs


def _horner_float(cs, z):
    acc = 0.0 + 0.0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _dyadic_aberth(f: UniPoly, zs, prec, max_iters):
    n = f.degree
    cs = [Dyadic.from_fraction(Fraction(c), prec)[0] for c in f.coeffs]
    dcs = [Dyadic.from_fraction(Fraction(i * f.coeffs[i]), prec)[0] for i in range(1, n + 1)]
    tiny = pow2(-(prec - 8))
    one = (Dyadic(1), Dyadic(0))
    for _ in range(max_iters):
        worst = Dyadic(0)
        new = []
        for i, z in enumerate(zs):
            fz = _c_eval(cs, z, prec)
            dfz = _c_eval(dcs, z, prec)
            if _c_abs2(dfz).is_zero():
                new.append((z[0] + pow2(-(prec // 2)), z[1]))
                worst = Dyadic(1)
                continue
            ratio = _c_div(fz, dfz, prec)
            s = (Dyadic(0), Dyadic(0))
            for j in range(n):
                if j == i:
                    continue
                diff = _c_sub(z, zs[j])
                if _c_abs2(diff).is_zero():
                    diff = (diff[0] + pow2(-(prec // 2)), diff[1])
                inv = _c_div(one, diff, prec)
                s = (s[0] + inv[0], s[1] + inv[1])
            den = _c_sub(one, _c_mul(ratio, s, prec))
            if _c_abs2(den).is_zero():
                w = ratio
            else:
                w = _c_div(ratio, den, prec)
            new.append((z[0] - w[0], z[1] - w[1]))
            mag = abs(w[0]) + abs(w[1])
            if mag > worst:
                worst = mag
        zs = [(zr.round_nearest(prec)[0], zi.round_nearest(prec)[0]) for zr, zi in new]
        if worst <= tiny:
            break
    return zs


def _certified_balls(f: UniPoly, zs, prec):
    n = f.degree
    balls = []
    for zr, zi in zs:
        val = f.eval_ball(ComplexBall.point(zr, zi), prec)
        r = nth_root_upper(val.abs_upper(), n)
        balls.append(ComplexBall(zr, zi, r))
    return balls


@dataclass(frozen=True)
class RootSystem:
    """Pairwise-disjoint certified enclosures, one per root of poly."""

    poly: UniPoly
    enclosures: tuple
    precision_bits: int

    def refine(self, precision_bits: int) -> "RootSystem":
        """Shrink all enclosures; root order is preserved."""
        if precision_bits <= self.precision_bits:
            return self
        seeds = [(b.re, b.im) for b in self.enclosures]
        for bits in precisions(precision_bits):
            fresh = isolate_roots(self.poly, bits, _seeds=seeds).enclosures
            # each old ball must meet exactly one new ball, one-to-one
            hits = [
                [j for j, nb in enumerate(fresh) if not ball_disjoint(old, nb)]
                for old in self.enclosures
            ]
            if sorted(hits) == [[j] for j in range(len(fresh))]:
                ordered = tuple(fresh[j] for [j] in hits)
                return RootSystem(self.poly, ordered, precision_bits)
        raise CertificationError(
            "could not match refined enclosures to the original ones"
        )


def isolate_roots(f: UniPoly, precision_bits: int = 128, *, _seeds=None) -> RootSystem:
    """Certified enclosures for all roots of a monic squarefree polynomial,
    with radii at most 2**-precision_bits."""
    if f.degree is None or f.degree < 1:
        raise InputError("degree must be at least 1")
    if not f.is_monic():
        raise InputError("polynomial must be monic")
    n = f.degree
    if n >= 2:
        g = gcd(f, f.derivative())
        if g.degree != 0:
            raise InputError(f"polynomial is not squarefree, gcd with derivative is {g.render()}")

    if _seeds is None:
        warm = _float_aberth(f)
        if warm is not None:
            zs = [_c_from_complex(z) for z in warm]
        else:
            bound_bits = max(abs(Fraction(c).numerator).bit_length() for c in f.coeffs) + 1
            zs = [
                _c_from_complex(
                    cmath.exp(2j * cmath.pi * (k + 0.3545) / n) * 2.0
                )
                for k in range(n)
            ]
            zs = [(zr * (1 << bound_bits), zi * (1 << bound_bits)) for zr, zi in zs]
    else:
        zs = list(_seeds)

    target = pow2(-precision_bits)
    # the certificate radius is |f(z)|**(1/n), so hitting 2**-pb takes
    # roughly n*pb accurate bits in z
    prec = max(64, n * precision_bits + 64)
    work_cap = max(16 * prec, 1 << 21)
    achieved = None
    while prec <= work_cap:
        zs = _dyadic_aberth(f, zs, prec, max_iters=80)
        balls = _certified_balls(f, zs, prec + 32)
        achieved = [b.rad for b in balls]
        if all(b.rad <= target for b in balls) and pairwise_disjoint(balls):
            balls.sort(key=lambda b: (b.re.to_fraction(), b.im.to_fraction()))
            return RootSystem(f, tuple(balls), precision_bits)
        prec *= 2
    raise CertificationError(
        "root certification failed within the precision budget; "
        f"achieved radii {[r.to_float() for r in (achieved or [])]}"
    )


def reconstruct_rational(x: ComplexBall, denominator_bound: int):
    """The unique rational p/q with q <= bound inside the ball, if the
    ball provably pins it down; None otherwise (absence is a value)."""
    if denominator_bound < 1:
        raise InputError("denominator bound must be at least 1")
    # imaginary part must straddle zero
    if abs(x.im) > x.rad:
        return None
    rad = x.rad.to_fraction()
    center = x.re.to_fraction()
    cand = center.limit_denominator(denominator_bound)
    q = cand.denominator
    # candidates with denominator <= bound sit at least 1/(q*bound) apart;
    # the ball must be narrower than that gap to identify one uniquely
    if 2 * rad >= Fraction(1, q * denominator_bound):
        return None
    if abs(center - cand) > rad:
        return None
    return cand


def read_integers(balls):
    """The integers pinned down by a list of balls.  A ball narrower than
    1/2 holds at most one integer.  Returns the list of ints once every
    ball is that narrow; False as soon as such a ball holds none, which
    proves its value is not an integer; None while some ball is wider."""
    half = pow2(-1)
    ints = [reconstruct_rational(b, 1) for b in balls if b.rad < half]
    if None in ints:
        return False
    if len(ints) < len(balls):
        return None
    return [int(k) for k in ints]
