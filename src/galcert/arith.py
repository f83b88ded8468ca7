"""Exact scalars and certified complex ball arithmetic.

Rationals are stdlib ``fractions.Fraction`` values: already canonical
(reduced, positive denominator) and arbitrary precision.  Dyadic numbers
(``Dyadic``: integer mantissa times a power of two) serve cold code: the
conversion of rationals, n-th root bounds, sort keys and the selftest.
``round_sig`` and ``div_sig`` are significant-bit rules on (mantissa,
exponent) int pairs, for the root polish in ``roots`` and the conjugate
values in ``resolvent``.

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
and ``_product``.  Working precision is always an explicit argument;
there is no global state.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ldexp

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


class ComplexBall:
    """Complex disk: center (x + i*y) * 2**exp and radius r * 2**exp,
    four Python ints with r >= 0.  ``re``, ``im`` and ``rad`` read the
    parts as ``Dyadic`` values for cold code."""

    __slots__ = ("x", "y", "r", "exp")

    def __init__(self, re: Dyadic, im: Dyadic, rad: Dyadic = _ZERO):
        if rad.man < 0:
            raise ValueError("negative radius")
        parts = (re, im, rad)
        e = min((d.exp for d in parts if d.man), default=0)
        self.x, self.y, self.r = (d.man << (d.exp - e) if d.man else 0 for d in parts)
        self.exp = e

    @classmethod
    def from_ints(cls, x: int, y: int, r: int, exp: int) -> "ComplexBall":
        """The ball (x + i*y, radius r) * 2**exp, taken as given."""
        ball = object.__new__(cls)
        ball.x, ball.y, ball.r, ball.exp = x, y, r, exp
        return ball

    @classmethod
    def rounded(cls, x: int, y: int, r: int, exp: int, prec: int) -> "ComplexBall":
        """The ball (x + i*y, radius r) * 2**exp, given exactly in ints,
        enclosed by one over 2**-prec."""
        return cls.from_ints(*_to_prec(x, y, r, exp, prec), -prec)

    @classmethod
    def from_rationals(cls, re: Fraction, im: Fraction, prec: int) -> "ComplexBall":
        x, ex = fixed_rational(re, prec)
        y, ey = fixed_rational(im, prec)
        return cls.from_ints(x, y, int(ex or ey), -prec)

    @classmethod
    def from_int(cls, k: int) -> "ComplexBall":
        return cls.from_ints(k, 0, 0, 0)

    @classmethod
    def point(cls, re: Dyadic, im: Dyadic) -> "ComplexBall":
        return cls(re, im)

    def fixed(self, prec: int):
        """(x, y, r) ints over 2**-prec of a ball enclosing this one."""
        return _to_prec(self.x, self.y, self.r, self.exp, prec)

    @property
    def re(self) -> Dyadic:
        return Dyadic(self.x, self.exp)

    @property
    def im(self) -> Dyadic:
        return Dyadic(self.y, self.exp)

    @property
    def rad(self) -> Dyadic:
        return Dyadic(self.r, self.exp)

    def abs_upper(self) -> Dyadic:
        """Upper bound on |z| over the whole ball."""
        return Dyadic(abs_bound(self.x, self.y) + self.r, self.exp)

    def contains_zero(self) -> bool:
        return self.x * self.x + self.y * self.y <= self.r * self.r

    def __neg__(self):
        return ComplexBall.from_ints(-self.x, -self.y, self.r, self.exp)

    def _aligned(self, other):
        """Both balls' ints over 2**e, e the smaller exponent."""
        e = min(self.exp, other.exp)
        s, t = self.exp - e, other.exp - e
        return (
            (self.x << s, self.y << s, self.r << s),
            (other.x << t, other.y << t, other.r << t),
            e,
        )

    def add(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        (ax, ay, ar), (bx, by, br), e = self._aligned(other)
        return ComplexBall.rounded(ax + bx, ay + by, ar + br, e, prec)

    def sub(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        (ax, ay, ar), (bx, by, br), e = self._aligned(other)
        return ComplexBall.rounded(ax - bx, ay - by, ar + br, e, prec)

    def mul(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        a, b = (self.x, self.y, self.r), (other.x, other.y, other.r)
        return ComplexBall.from_ints(*_product(a, b, self.exp + other.exp, prec), -prec)

    def scale_int(self, k: int, prec: int) -> "ComplexBall":
        return ComplexBall.rounded(
            self.x * k, self.y * k, self.r * abs(k), self.exp, prec
        )

    def recip(self, prec: int) -> "ComplexBall":
        x, y, r = self.x, self.y, self.r
        low = max(abs(x), abs(y))
        if low <= r:
            raise BallDivisionError("ball may contain zero; refine before dividing")
        # 1/c = (x - iy) / (x^2 + y^2) * 2**-exp; over 2**-prec that is
        # (x - iy) * 2**s / q, rounded down (under one ulp per part)
        s = prec - self.exp
        q = x * x + y * y
        # |1/z - 1/c| <= r / ((|c| - r) * |c|) for |z - c| <= r < |c|
        drift_num, drift_den = r, (low - r) * low
        if s >= 0:
            x, y, drift_num = x << s, y << s, drift_num << s
        else:
            q, drift_den = q << -s, drift_den << -s
        drift = -(-drift_num // drift_den)
        return ComplexBall.from_ints(x // q, -y // q, drift + 2, -prec)

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
    (ax, ay, ar), (bx, by, br), _ = a._aligned(b)
    dx, dy, s = ax - bx, ay - by, ar + br
    return dx * dx + dy * dy > s * s


def pairwise_disjoint(balls) -> bool:
    """True only if every two of the balls are provably disjoint."""
    return all(ball_disjoint(a, b) for a, b in combinations(balls, 2))
