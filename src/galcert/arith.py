"""Exact scalars and certified complex ball arithmetic.

Rationals are stdlib ``fractions.Fraction`` values: already canonical
(reduced, positive denominator) and arbitrary precision.  A binary
rational is an int pair (m, e), the value m * 2**e: ``sig_rational``
rounds a rational to one, ``round_sig`` and ``div_sig`` keep
significant bits of one (for the root polish in ``roots`` and the
conjugate values in ``resolvent``), and ``nth_root_upper`` bounds the
n-th root of one from above (for the root certificate).

Complex balls are midpoint-radius balls on one integer kernel
(Johansson, "Arb: efficient arbitrary-precision midpoint-radius interval
arithmetic", IEEE Trans. Computers 66, 2017; van der Hoeven, "Ball
arithmetic", 2010).  A ``ComplexBall`` is four ints: center
(x + i*y) * 2**exp and radius r * 2**exp, r >= 0, a fixed-point Gaussian
integer with its error bound in the same units.  An operation at
precision ``prec`` returns a ball at exp = -prec: absolute precision,
which is what every certificate here needs (an integer read-off wants a
radius below 1/2, a root ball one at most 2**-bits).  Operands are
aligned by shifts and the center is computed exactly in ints, then:

- the center is rounded to the nearest multiple of 2**-prec, which moves
  each part by at most half an ulp, so the center by less than one ulp,
  and one whole ulp is added to the radius when bits were dropped (an
  exact operation stays exact);
- radii are rounded up;
- the product radius is |a|*rb + |b|*ra + ra*rb, with |a| bounded by
  ``abs_bound``: max(|re|, |im|) + min(|re|, |im|)/2, no square root.

So every ball operation returns a ball containing the exact result for
any choice of points inside the operand balls.  Hot loops take their
operands once as ints (``ComplexBall.fixed``), add exactly, multiply
with ``fixed_mul``, and build one ball per output
(``ComplexBall.from_ints``); the rounding rule lives only in ``_to_prec``
and ``_product``.  Root points and radii, which arrive as (m, e) pairs,
become balls through ``ComplexBall.from_parts``.  Working precision is
always an explicit argument; there is no global state.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ldexp


def _normalize(man: int, exp: int) -> tuple[int, int]:
    """The same value with an odd mantissa (or 0 * 2**0)."""
    if man == 0:
        return 0, 0
    shift = (man & -man).bit_length() - 1
    if shift:
        man >>= shift
        exp += shift
    return man, exp


def sig_rational(q: Fraction, prec: int) -> tuple[int, int]:
    """q rounded half up to about prec significant bits, but never to
    fewer than its integer part, as a normalized (m, e); exact when q is
    a binary rational that fits."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return _normalize(num, 0)
    shift = max(0, prec + den.bit_length() - abs(num).bit_length() + 2)
    man, rem = divmod(num << shift, den)
    return _normalize(man + (2 * rem >= den), -shift)


def _iroot(a: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if a == 0:
        return 0
    if n == 1:
        return a
    x = 1 << ((a.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def nth_root_upper(man: int, exp: int, n: int) -> tuple[int, int]:
    """Upper bound on (man * 2**exp)**(1/n), man >= 0, as a normalized
    (m, e); both the input and the output are normalized first, so the
    bound is the same for every form of the input."""
    man, exp = _normalize(man, exp)
    if man == 0:
        return 0, 0
    rem = exp % n
    if rem:
        man <<= rem
        exp -= rem
    r = _iroot(man, n)
    if r**n < man:
        r += 1
    return _normalize(r, exp // n)


def round_sig(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded to prec significant bits, half away from zero, as
    (m', e'); unchanged when it fits, else off by at most 2**(e' - 1)."""
    a = -m if m < 0 else m
    s = a.bit_length() - prec
    if s <= 0:
        return m, e
    k = (a >> s) + ((a >> (s - 1)) & 1)
    return (-k if m < 0 else k), e + s


def div_sig(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """(am * 2**ae) / (bm * 2**be) for bm > 0, about prec significant bits
    rounded down, as (m', e'); off by less than 2**e'.  The shift is set
    by the odd parts of both mantissas."""
    if not am:
        return 0, 0
    t = (am & -am).bit_length() - 1
    am, ae = am >> t, ae + t
    t = (bm & -bm).bit_length() - 1
    bm, be = bm >> t, be + t
    shift = max(0, prec + bm.bit_length() - abs(am).bit_length() + 2)
    return (am << shift) // bm, ae - be - shift


def abs_bound(x: int, y: int) -> int:
    """Integer upper bound on |x + iy| without a square root:
    max(|x|, |y|) + ceil(min(|x|, |y|) / 2), at most 6% above it."""
    x, y = abs(x), abs(y)
    if x < y:
        x, y = y, x
    return x + ((y + 1) >> 1)


def fixed_rational(q, prec: int) -> tuple[int, bool]:
    """Nearest int to q * 2**prec (ties up) for an int or Fraction q, and
    whether it is inexact; the error is at most half an ulp."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return num << prec, False
    k, rem = divmod(num << prec, den)
    return k + (2 * rem >= den), rem != 0


def _to_prec(x: int, y: int, r: int, e: int, prec: int):
    """The ball with exact center (x + iy) * 2**e and radius r * 2**e as
    ints over 2**-prec: the center rounded to nearest, the radius rounded
    up, and one ulp added to it when center bits are dropped (each part
    moves by at most half an ulp, so the center by less than one)."""
    s = -prec - e
    if s <= 0:
        return x << -s, y << -s, r << -s
    m = (1 << s) - 1
    h = 1 << (s - 1)
    r = (r + m) >> s
    if (x | y) & m:
        r += 1
    return (x + h) >> s, (y + h) >> s, r


def _product(a, b, e: int, prec: int):
    """(x, y, r) over 2**-prec enclosing the product of two balls given as
    (x, y, r) ints whose exponents sum to e."""
    ax, ay, ar = a
    bx, by, br = b
    return _to_prec(
        ax * bx - ay * by,
        ax * by + ay * bx,
        abs_bound(ax, ay) * br + abs_bound(bx, by) * ar + ar * br,
        e,
        prec,
    )


def fixed_mul(a, b, prec: int):
    """Product of two balls given as (x, y, r) ints over 2**-prec, as
    (x, y, r) over 2**-prec."""
    return _product(a, b, -2 * prec, prec)


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _float(m: int, e: int) -> float:
    """m * 2**e with the mantissa truncated to 53 bits (rounded toward
    minus infinity), infinite on overflow."""
    drop = abs(m).bit_length() - 53
    if drop > 0:
        m, e = m >> drop, e + drop
    try:
        return ldexp(float(m), e)
    except OverflowError:
        return float("inf") if m > 0 else float("-inf")


class ComplexBall:
    """Complex disk: center (x + i*y) * 2**exp and radius r * 2**exp,
    four Python ints with r >= 0.  ``re``, ``im`` and ``rad`` read the
    parts as exact ``Fraction`` values for cold code."""

    __slots__ = ("x", "y", "r", "exp")

    @classmethod
    def from_ints(cls, x: int, y: int, r: int, exp: int) -> "ComplexBall":
        """The ball (x + i*y, radius r) * 2**exp, taken as given."""
        ball = object.__new__(cls)
        ball.x, ball.y, ball.r, ball.exp = x, y, r, exp
        return ball

    @classmethod
    def from_parts(cls, re, im, rad=(0, 0)) -> "ComplexBall":
        """The ball with center re + i*im and radius rad, each an (m, e)
        pair, over 2**exp for the least exponent among the parts'
        normalized nonzero forms."""
        parts = [_normalize(*p) for p in (re, im, rad)]
        e = min((pe for pm, pe in parts if pm), default=0)
        return cls.from_ints(*(pm << (pe - e) if pm else 0 for pm, pe in parts), e)

    def fixed(self, prec: int):
        """(x, y, r) ints over 2**-prec of a ball enclosing this one."""
        return _to_prec(self.x, self.y, self.r, self.exp, prec)

    @property
    def re(self) -> Fraction:
        return _fraction(self.x, self.exp)

    @property
    def im(self) -> Fraction:
        return _fraction(self.y, self.exp)

    @property
    def rad(self) -> Fraction:
        return _fraction(self.r, self.exp)

    def contains_zero(self) -> bool:
        return self.x * self.x + self.y * self.y <= self.r * self.r

    def __neg__(self):
        return ComplexBall.from_ints(-self.x, -self.y, self.r, self.exp)

    def mul(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        a, b = (self.x, self.y, self.r), (other.x, other.y, other.r)
        return ComplexBall.from_ints(*_product(a, b, self.exp + other.exp, prec), -prec)

    def to_complex(self) -> complex:
        return complex(_float(self.x, self.exp), _float(self.y, self.exp))

    def __repr__(self):
        return (
            f"ComplexBall({_float(self.x, self.exp)!r}, {_float(self.y, self.exp)!r},"
            f" rad={_float(self.r, self.exp)!r})"
        )


def ball_disjoint(a: ComplexBall, b: ComplexBall) -> bool:
    """True only if the center distance strictly exceeds the radius sum,
    so the enclosed exact values are provably distinct.  Exact test."""
    e = min(a.exp, b.exp)
    s, t = a.exp - e, b.exp - e
    dx, dy = (a.x << s) - (b.x << t), (a.y << s) - (b.y << t)
    reach = (a.r << s) + (b.r << t)
    return dx * dx + dy * dy > reach * reach


def pairwise_disjoint(balls) -> bool:
    """True only if every two of the balls are provably disjoint."""
    return all(ball_disjoint(a, b) for a, b in combinations(balls, 2))
