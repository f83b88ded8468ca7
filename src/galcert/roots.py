"""Certified complex root isolation, the precision schedule, and integer
read-off.

Approximation is cheap and sloppy (float simultaneous iteration, then an
Aberth polish at growing precision); every claim that matters is
certified afterwards: for monic f of degree n and a point z, the nearest
root is within |f(z)|^(1/n), so inflating each approximation to that
radius and checking the n balls pairwise disjoint proves a bijection
between balls and roots.  |f(z)| is bounded above in ball arithmetic
(the integer kernel of ``arith``), so the certificate is rigorous no
matter how the points were found.

The polish runs on Gaussian integers as well: each part of a point is
a binary rational (m, e), the value m * 2**e, the one form ``arith``
uses for them.  The coefficients enter through ``sig_rational``, sums
are exact, and products and quotients keep prec significant bits (half
away from zero, and rounded down for quotients), so a point carries the
same number of bits at every scale.  That rule fixes each polished point
bit for bit, and with it the order of the roots, which are sorted by
real part, then imaginary part: the two roots of a conjugate pair have
real parts equal or a rounding apart, so a different rounding rule would
reorder some pairs and change the report.  The polished points and
their certified radii become balls through ``ComplexBall.from_parts``.

Every certificate that may need narrower balls follows one schedule,
``precisions(start)``: the first attempt always runs at ``start``, even
above the cap, then the precision doubles while it stays at or below
``PREC_CAP`` = 2**16 bits.  No caller picks another cap.  After the
isolation only the subgroup test of ``resolvent.identify_galois``
climbs it, from the finest system its ladder built, which refines each
precision once.  Both climbers raise ``CertificationError`` (exit code
3 in the CLI) when they run out of the schedule; the subgroup test names
the subgroup that its last rung left undecided.  The resolvent, and
with it the injectivity of a weight vector, needs no balls at all: it
comes from power sums.  ``isolate_roots`` is the first isolation: it
checks f, warm-starts the points and sorts the balls, which fixes the
root order; ``RootSystem.refine`` re-polishes its own balls and matches
new to old.  Both run ``_enclose``, with a working-precision budget of
its own.

``read_integers`` is the one place where a list of balls is read as the
integers they pin down, on the balls' ints: the subgroup candidates
come through it.  It tests the disk, not the box around it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .arith import (
    ComplexBall,
    _float,
    _normalize,
    abs_bound,
    ball_disjoint,
    div_sig,
    nth_root_upper,
    pairwise_disjoint,
    round_sig,
    sig_rational,
)
from .errors import CertificationError, InputError
from .poly import UniPoly, gcd, is_squarefree
from .record import Frozen, Record

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


def _float_aberth(f: UniPoly):
    """Double-precision warm start; None if floats cannot represent f or
    the iteration leaves them."""
    n = f.degree
    try:
        cs = [float(c) for c in f.coeffs]
    except OverflowError:
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
    if not all(cmath.isfinite(z) for z in zs):
        return None
    return zs


def _horner_float(cs, z):
    acc = 0.0 + 0.0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _float_point(z: complex) -> ComplexBall:
    """The point ball at a float complex value, exactly."""
    return ComplexBall.from_parts(*(sig_rational(Fraction(t), 64) for t in (z.real, z.imag)))


# -- the Aberth polish on Gaussian integers (see the module docstring) ------
#
# A real is (m, e), the value m * 2**e; a complex is (re_m, re_e, im_m, im_e).


def _sum(am, ae, bm, be):
    """a + b, exact."""
    if not am:
        return bm, be
    if not bm:
        return am, ae
    if ae <= be:
        return am + (bm << (be - ae)), ae
    return (am << (ae - be)) + bm, be


def _cmul(a, b, prec):
    ar, are, ai, aie = a
    br, bre, bi, bie = b
    return round_sig(*_sum(ar * br, are + bre, -ai * bi, aie + bie), prec) + round_sig(
        *_sum(ar * bi, are + bie, ai * br, aie + bre), prec
    )


def _cdiv(a, b, prec):
    ar, are, ai, aie = a
    br, bre, bi, bie = b
    q = _sum(br * br, 2 * bre, bi * bi, 2 * bie)
    return div_sig(*_sum(ar * br, are + bre, ai * bi, aie + bie), *q, prec) + div_sig(
        *_sum(ai * br, aie + bre, -ar * bi, are + bie), *q, prec
    )


def _csub(a, b):
    return _sum(a[0], a[1], -b[0], b[1]) + _sum(a[2], a[3], -b[2], b[3])


def _ceval(cs, z, prec):
    acc = (0, 0, 0, 0)
    for cm, ce in reversed(cs):
        acc = _cmul(acc, z, prec)
        acc = _sum(acc[0], acc[1], cm, ce) + acc[2:]
    return acc


def _dyadic_aberth(f: UniPoly, zs, prec):
    """Aberth iteration on Gaussian integers with prec significant bits.

    The points zs (balls; only their centers are used) become complex
    pairs of ints (see ``_sum``).  Each sweep moves every point from the
    previous sweep's points (Jacobi style) and rounds them to prec
    significant bits; the iteration stops once every correction is at
    most 2**-(prec - 8), or after 80 sweeps.  The rounding rule
    fixes the points bit for bit, and with them the order of the roots
    (by real part, then imaginary part).  Nothing here is trusted: the
    certificate checks the points afterwards.
    """
    n = f.degree
    cs = [sig_rational(c, prec) for c in f.coeffs]
    dcs = [sig_rational(i * c, prec) for i, c in enumerate(f.coeffs)][1:]
    one = (1, 0, 0, 0)
    nudge = -(prec // 2)
    pts = [_normalize(z.x, z.exp) + _normalize(z.y, z.exp) for z in zs]
    for _ in range(80):
        worst = (0, 0)
        new = []
        for i, z in enumerate(pts):
            fz = _ceval(cs, z, prec)
            dfz = _ceval(dcs, z, prec)
            if not (dfz[0] or dfz[2]):
                new.append(_sum(z[0], z[1], 1, nudge) + z[2:])
                worst = (1, 0)
                continue
            ratio = _cdiv(fz, dfz, prec)
            s = (0, 0, 0, 0)
            for j, zj in enumerate(pts):
                if j == i:
                    continue
                diff = _csub(z, zj)
                if not (diff[0] or diff[2]):
                    diff = (1, nudge) + diff[2:]
                inv = _cdiv(one, diff, prec)
                s = _sum(s[0], s[1], inv[0], inv[1]) + _sum(s[2], s[3], inv[2], inv[3])
            den = _csub(one, _cmul(ratio, s, prec))
            w = _cdiv(ratio, den, prec) if den[0] or den[2] else ratio
            new.append(_csub(z, w))
            mag = _sum(abs(w[0]), w[1], abs(w[2]), w[3])
            if _sum(mag[0], mag[1], -worst[0], worst[1])[0] > 0:
                worst = mag
        pts = [
            _normalize(*round_sig(zr, zre, prec)) + _normalize(*round_sig(zi, zie, prec))
            for zr, zre, zi, zie in new
        ]
        if _sum(worst[0], worst[1], -1, 8 - prec)[0] <= 0:
            break
    return [ComplexBall.from_parts((zr, zre), (zi, zie)) for zr, zre, zi, zie in pts]


def _certified_balls(f: UniPoly, zs, prec):
    """Each point inflated to |f(z)|**(1/n), f(z) bounded in ball
    arithmetic over 2**-prec, or finer when the point needs it."""
    n = f.degree
    balls = []
    for z in zs:
        val = f.eval_ball(z, max(prec, -z.exp))
        rad = nth_root_upper(abs_bound(val.x, val.y) + val.r, val.exp, n)
        balls.append(ComplexBall.from_parts((z.x, z.exp), (z.y, z.exp), rad))
    return balls


def _enclose(f: UniPoly, zs, precision_bits: int):
    """Certified, pairwise-disjoint balls of radius at most
    2**-precision_bits, in the order of the points zs: the polish and the
    certificate at a working precision that doubles within its budget."""
    target = Fraction(1, 1 << precision_bits)
    # the certificate radius is |f(z)|**(1/n), so hitting 2**-pb takes
    # roughly n*pb accurate bits in z
    prec = max(64, f.degree * precision_bits + 64)
    work_cap = max(16 * prec, 1 << 21)
    while prec <= work_cap:
        zs = _dyadic_aberth(f, zs, prec)
        balls = _certified_balls(f, zs, prec + 32)
        if all(b.rad <= target for b in balls) and pairwise_disjoint(balls):
            return balls
        prec *= 2
    raise CertificationError(
        "root certification failed within the precision budget; "
        f"achieved radii {[_float(b.r, b.exp) for b in balls]}"
    )


class RootSystem(Frozen):
    """Pairwise-disjoint certified enclosures, one per root of poly;
    immutable."""

    __slots__ = ("poly", "enclosures", "precision_bits")

    def __init__(self, poly: UniPoly, enclosures: tuple, precision_bits: int):
        Record.__init__(self, poly, enclosures, precision_bits)

    def refine(self, precision_bits: int) -> "RootSystem":
        """Narrow the enclosures to 2**-precision_bits; ``_enclose`` re-polishes
        them, and matching new balls to old, one-to-one, keeps the order."""
        if precision_bits <= self.precision_bits:
            return self
        for bits in precisions(precision_bits):
            fresh = _enclose(self.poly, self.enclosures, bits)
            # each old ball must meet exactly one new ball, one-to-one
            hits = [[j for j, nb in enumerate(fresh) if not ball_disjoint(old, nb)]
                    for old in self.enclosures]
            if sorted(hits) == [[j] for j in range(len(fresh))]:
                ordered = tuple(fresh[j] for [j] in hits)
                return RootSystem(self.poly, ordered, precision_bits)
        raise CertificationError("could not match refined enclosures to the original ones")


def not_squarefree(f: UniPoly) -> InputError:
    """The error for a polynomial with a repeated root: it names gcd(f, f')."""
    return InputError(f"not squarefree, gcd with derivative is {gcd(f, f.derivative()).render()}")


def isolate_roots(f: UniPoly, precision_bits: int = 128) -> RootSystem:
    """Certified enclosures for all roots of a monic squarefree polynomial,
    with radii at most 2**-precision_bits, in the root order (see above)."""
    if f.degree is None or f.degree < 1:
        raise InputError("degree must be at least 1")
    if not f.is_monic():
        raise InputError("polynomial must be monic")
    if precision_bits < 1:
        raise InputError("the precision must be at least 1 bit")
    if not is_squarefree(f):
        raise not_squarefree(f)
    n = f.degree
    warm = _float_aberth(f)
    if warm is not None:
        zs = [_float_point(z) for z in warm]
    else:
        bound_bits = max(abs(c.numerator).bit_length() for c in f.coeffs) + 1
        zs = [_float_point(cmath.exp(2j * cmath.pi * (k + 0.3545) / n) * 2.0) for k in range(n)]
        zs = [ComplexBall.from_ints(z.x, z.y, 0, z.exp + bound_bits) for z in zs]
    balls = _enclose(f, zs, precision_bits)
    balls.sort(key=lambda b: (b.re, b.im))
    return RootSystem(f, tuple(balls), precision_bits)


def read_integers(balls):
    """The integers pinned down by a list of balls.  A ball narrower than
    1/2 holds at most one integer: the nearest integer k to its center,
    which it holds when (re - k)**2 + im**2 <= rad**2, decided on the
    ball's ints.  Returns the list of ints once every ball is that
    narrow; False as soon as such a ball holds none, which proves its
    value is not an integer; None while some ball is wider."""
    ints = []
    for b in balls:
        x, y, r, e = b.x, b.y, b.r, b.exp
        if e > 0:
            x, y, r, e = x << e, y << e, r << e, 0
        one = 1 << -e
        if 2 * r >= one:
            continue
        k = (x + (one >> 1)) >> -e
        dx = x - k * one
        if dx * dx + y * y > r * r:
            return False
        ints.append(k)
    return ints if len(ints) == len(balls) else None
