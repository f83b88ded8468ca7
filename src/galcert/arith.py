"""Exact scalars and certified complex ball arithmetic.

Rationals are stdlib ``fractions.Fraction`` values: already canonical
(reduced, positive denominator) and arbitrary precision.  On top of them
this module provides dyadic numbers (integer mantissa times a power of
two) and complex balls (dyadic center, dyadic radius) with outward
rounding: every ball operation returns a ball containing the exact result
for any choice of points inside the operand balls.  Working precision is
always an explicit argument; there is no global state.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt, ldexp

Rational = Fraction


class BallDivisionError(ZeroDivisionError):
    """Division by a ball whose enclosure cannot exclude zero."""


def _normalize(man: int, exp: int) -> tuple[int, int]:
    if man == 0:
        return 0, 0
    shift = (man & -man).bit_length() - 1
    if shift:
        man >>= shift
        exp += shift
    return man, exp


class Dyadic:
    """Exact binary rational man * 2**exp, mantissa kept odd (or zero)."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        self.man, self.exp = _normalize(man, exp)

    @classmethod
    def from_fraction(cls, q: Fraction, prec: int) -> tuple["Dyadic", "Dyadic"]:
        """Dyadic approximation with ~prec significant bits plus an upper
        bound on the absolute rounding error (zero when exact)."""
        num, den = q.numerator, q.denominator
        if den == 1:
            return cls(num), _ZERO
        shift = prec + den.bit_length() - abs(num).bit_length() + 2
        if shift < 0:
            shift = 0
        scaled = num << shift
        man, rem = divmod(scaled, den)
        if rem == 0:
            return cls(man, -shift), _ZERO
        if 2 * rem >= den:
            man += 1
        return cls(man, -shift), cls(1, -shift - 1)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def to_float(self) -> float:
        man, exp = self.man, self.exp
        bl = abs(man).bit_length()
        if bl > 53:
            drop = bl - 53
            man >>= drop
            exp += drop
        try:
            return ldexp(float(man), exp)
        except OverflowError:
            return float("inf") if man > 0 else float("-inf")

    def is_zero(self) -> bool:
        return self.man == 0

    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    def __bool__(self):
        return self.man != 0

    def __neg__(self):
        return Dyadic(-self.man, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.man), self.exp)

    def __add__(self, other):
        if self.man == 0:
            return other
        if other.man == 0:
            return self
        e = min(self.exp, other.exp)
        return Dyadic((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Dyadic(self.man * other, self.exp)
        return Dyadic(self.man * other.man, self.exp + other.exp)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        d = self - other
        return d.sign()

    def __eq__(self, other):
        return isinstance(other, Dyadic) and self.man == other.man and self.exp == other.exp

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self.to_fraction())

    def round_nearest(self, prec: int) -> tuple["Dyadic", "Dyadic"]:
        """Round to at most prec mantissa bits; also return an error bound."""
        a = abs(self.man)
        bl = a.bit_length()
        if bl <= prec:
            return self, _ZERO
        shift = bl - prec
        keep = a >> shift
        if (a >> (shift - 1)) & 1:
            keep += 1
        if self.man < 0:
            keep = -keep
        return Dyadic(keep, self.exp + shift), Dyadic(1, self.exp + shift - 1)

    def round_up(self, prec: int) -> "Dyadic":
        """Round a nonnegative value upward to at most prec mantissa bits."""
        man = self.man
        bl = man.bit_length()
        if bl <= prec:
            return self
        shift = bl - prec
        keep = man >> shift
        if man & ((1 << shift) - 1):
            keep += 1
        return Dyadic(keep, self.exp + shift)

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"


_ZERO = Dyadic(0)
_ONE = Dyadic(1)


def pow2(k: int) -> Dyadic:
    return Dyadic(1, k)


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


def sqrt_upper(d: Dyadic) -> Dyadic:
    """Dyadic upper bound on sqrt(d), d >= 0."""
    man, exp = d.man, d.exp
    if man == 0:
        return _ZERO
    if exp & 1:
        man <<= 1
        exp -= 1
    r = isqrt(man)
    if r * r < man:
        r += 1
    return Dyadic(r, exp // 2)


def nth_root_upper(d: Dyadic, n: int) -> Dyadic:
    """Dyadic upper bound on d**(1/n), d >= 0."""
    man, exp = d.man, d.exp
    if man == 0:
        return _ZERO
    rem = exp % n
    if rem:
        man <<= rem
        exp -= rem
    r = _iroot(man, n)
    if r**n < man:
        r += 1
    return Dyadic(r, exp // n)


def dy_div(a: Dyadic, b: Dyadic, prec: int) -> tuple[Dyadic, Dyadic]:
    """Approximate a/b (b != 0) to prec bits, with an error bound."""
    if a.man == 0:
        return _ZERO, _ZERO
    shift = prec + abs(b.man).bit_length() - abs(a.man).bit_length() + 2
    if shift < 0:
        shift = 0
    q = (a.man << shift) // b.man
    rexp = a.exp - b.exp - shift
    return Dyadic(q, rexp), Dyadic(1, rexp)


class ComplexBall:
    """Complex disk: dyadic center (re, im) and nonnegative dyadic radius."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re: Dyadic, im: Dyadic, rad: Dyadic = _ZERO):
        if rad.man < 0:
            raise ValueError("negative radius")
        self.re = re
        self.im = im
        self.rad = rad

    @classmethod
    def from_rationals(cls, re: Fraction, im: Fraction, prec: int) -> "ComplexBall":
        cr, er = Dyadic.from_fraction(re, prec)
        ci, ei = Dyadic.from_fraction(im, prec)
        return cls(cr, ci, (er + ei).round_up(32))

    @classmethod
    def from_int(cls, k: int) -> "ComplexBall":
        return cls(Dyadic(k), _ZERO, _ZERO)

    @classmethod
    def point(cls, re: Dyadic, im: Dyadic) -> "ComplexBall":
        return cls(re, im, _ZERO)

    def center_abs_upper(self) -> Dyadic:
        return sqrt_upper(self.re * self.re + self.im * self.im)

    def center_abs_lower(self) -> Dyadic:
        # |z| >= max(|re|, |im|)
        a, b = abs(self.re), abs(self.im)
        return a if a >= b else b

    def abs_upper(self) -> Dyadic:
        """Upper bound on |z| over the whole ball."""
        return self.center_abs_upper() + self.rad

    def contains_zero(self) -> bool:
        return self.re * self.re + self.im * self.im <= self.rad * self.rad

    def __neg__(self):
        return ComplexBall(-self.re, -self.im, self.rad)

    def add(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        re, er = (self.re + other.re).round_nearest(prec)
        im, ei = (self.im + other.im).round_nearest(prec)
        rad = (self.rad + other.rad + er + ei).round_up(32)
        return ComplexBall(re, im, rad)

    def sub(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return self.add(-other, prec)

    def mul(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        cr = self.re * other.re - self.im * other.im
        ci = self.re * other.im + self.im * other.re
        re, er = cr.round_nearest(prec)
        im, ei = ci.round_nearest(prec)
        abs_a = self.center_abs_upper()
        abs_b = other.center_abs_upper()
        rad = (
            abs_a * other.rad
            + abs_b * self.rad
            + self.rad * other.rad
            + er
            + ei
        ).round_up(32)
        return ComplexBall(re, im, rad)

    def scale_int(self, k: int, prec: int) -> "ComplexBall":
        re, er = (self.re * k).round_nearest(prec)
        im, ei = (self.im * k).round_nearest(prec)
        rad = (self.rad * abs(k) + er + ei).round_up(32)
        return ComplexBall(re, im, rad)

    def recip(self, prec: int) -> "ComplexBall":
        low = self.center_abs_lower()
        if low <= self.rad:
            raise BallDivisionError("ball may contain zero; refine before dividing")
        q = self.re * self.re + self.im * self.im
        re, er = dy_div(self.re, q, prec)
        im, ei = dy_div(-self.im, q, prec)
        # |1/z - 1/c| <= rad / ((|c| - rad) * |c|) for |z - c| <= rad < |c|
        num = self.rad
        den = (low - self.rad) * low
        drift, ed = dy_div(num, den, 32)
        rad = (drift + ed + er + ei).round_up(32)
        return ComplexBall(re, im, rad)

    def div(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return self.mul(other.recip(prec), prec)

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())

    def __repr__(self):
        return (
            f"ComplexBall({self.re.to_float()!r}, {self.im.to_float()!r},"
            f" rad={self.rad.to_float()!r})"
        )


def ball_disjoint(a: ComplexBall, b: ComplexBall) -> bool:
    """True only if the center distance strictly exceeds the radius sum,
    so the enclosed exact values are provably distinct.  Exact test."""
    dr = a.re - b.re
    di = a.im - b.im
    s = a.rad + b.rad
    return dr * dr + di * di > s * s


def pairwise_disjoint(balls) -> bool:
    """True only if every two of the balls are provably disjoint."""
    return all(ball_disjoint(a, b) for a, b in combinations(balls, 2))
