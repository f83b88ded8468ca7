"""Dense univariate and sparse multivariate polynomials over the rationals.

A univariate polynomial is one integer vector over one positive
denominator, canonical like a field element (``numberfield``): ``num``
holds den times the coefficients, ascending with no trailing zeros, and
gcd(den, *num) == 1, so equal polynomials have equal (num, den); zero is
((), 1), of degree None, never -1.  ``coeffs`` is the rational view:
``num`` when den == 1, else reduced ``Fraction``s.  Arithmetic runs on
ints and normalizes each result once.  Division is integer
pseudo-division (Knuth, *TAOCP* vol. 2, 4.6.1), lead**k * a = q * b + r
on the vectors, with lead**k joining the denominator.  Normalizing r
divides its content out as far as its denominator allows, so Euclid's
loop in ``gcd`` is the primitive polynomial remainder sequence (Brown,
J. ACM 18, 1971) up to one integer factor per remainder, the numerator
of its rational content, and forms no ``Fraction``.  Two integer
kernels serve every exact product: ``convolve`` multiplies vectors for
``UniPoly`` and ``numberfield.NumberFieldElement``, and ``reduce_monic``
reduces by a monic vector for field elements.  Multivariate
polynomials map exponent tuples to nonzero coefficients.  Values are
immutable: every operation builds a new polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd
from math import lcm

from .arith import ComplexBall, fixed_mul, fixed_rational


def integer_vector(cs):
    """(num, den): a list of rationals as ints over their least common
    denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def convolve(a, b):
    """The product of two ascending integer vectors, as a list of length
    len(a) + len(b) - 1.  The outer loop skips zeros, so it runs over the
    operand with more of them."""
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def reduce_monic(cs, m):
    """The integer list cs reduced in place mod the monic integer vector m,
    ascending, and padded with zeros to length deg m; returns cs."""
    d = len(m) - 1
    for i in range(len(cs) - 1, d - 1, -1):
        c = cs[i]
        if c:
            for j in range(d):
                cs[i - d + j] -= c * m[j]
    del cs[d:]
    cs += [0] * (d - len(cs))
    return cs


class UniPoly:
    """num / den, canonical; built from ints or rationals, over den."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=(), den=1):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        if not all(type(c) is int for c in cs):
            cs, d = integer_vector(cs)
            den *= d
        g = _int_gcd(den, *cs) if den > 0 else -_int_gcd(den, *cs)
        if g != 1:
            cs = [c // g for c in cs]
            den //= g
        self.num, self.den = tuple(cs), den

    @property
    def coeffs(self):
        """The exact rational coefficients, ascending."""
        den = self.den
        return self.num if den == 1 else tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def is_zero(self):
        return not self.num

    def is_monic(self):
        return bool(self.num) and self.num[-1] == self.den

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.num) else 0

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return UniPoly([-c for c in self.num], self.den)

    def __add__(self, other):
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db:
            a, b, da = [c * db for c in a], [c * da for c in b], da * db
        return UniPoly([x + y for x, y in zip_longest(a, b, fillvalue=0)], da)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return UniPoly(convolve(self.num, other.num), self.den * other.den)

    def scale(self, c):
        """c times the polynomial, for an int or rational c."""
        k = c.numerator
        return UniPoly([k * v for v in self.num], self.den * c.denominator)

    def __divmod__(self, other):
        """(q, r), deg r < deg other, by pseudo-division of the integer
        vectors: lead**k * self.num == quot * other.num + rem, for lead the
        divisor's leading entry and k the number of quotient terms."""
        b = other.num
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        db, k = len(b) - 1, len(self.num) - len(b) + 1
        if k <= 0:
            return UniPoly(), self
        lead = b[-1]
        scale = lead**k
        rem = [c * scale for c in self.num]
        quot = [0] * k
        for i in range(len(rem) - 1, db - 1, -1):
            q = quot[i - db] = rem[i] // lead
            if q:
                for j in range(db):
                    rem[i - db + j] -= q * b[j]
        den = scale * self.den
        return UniPoly([q * other.den for q in quot], den), UniPoly(rem[:db], den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        return UniPoly(self.num, self.num[-1]) if self.num else self

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def eval_ball(self, x: ComplexBall, prec: int) -> ComplexBall:
        """Horner evaluation with outward rounding: the result encloses
        p(z) for every z in the input ball.  Runs on (x, y, r) ints over
        2**-prec and builds one ball."""
        xf = x.fixed(prec)
        acc = (0, 0, 0)
        for c in reversed(self.coeffs):
            acc = fixed_mul(acc, xf, prec)
            cv, inexact = fixed_rational(c, prec)
            acc = (acc[0] + cv, acc[1], acc[2] + inexact)
        return ComplexBall.from_ints(*acc, -prec)

    def substitute_scaled(self, lam: int):
        """Return lam**n * p(x / lam), the root-scaling substitution, for
        an int lam."""
        n = self.degree
        if n is None:
            return self
        return UniPoly([c * lam ** (n - i) for i, c in enumerate(self.num)], self.den)

    def render(self, var="x"):
        return render_terms(reversed(list(enumerate(self.coeffs))), var)

    def __repr__(self):
        return f"UniPoly({self.render()})"


def render_terms(terms, var: str) -> str:
    """The sum of c * var^k over (k, c) in the given order, as text: zero
    terms skipped, signs between terms, unit magnitudes left out."""
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        mag = abs(Fraction(c))
        if k == 0:
            body = str(mag)
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor by Euclid's algorithm."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# the Mersenne prime 2**61 - 1, for squarefree decisions mod p
SQUAREFREE_PRIME = (1 << 61) - 1


def _gcd_degree_mod(a, b, p):
    """Degree of gcd(a, b) over GF(p) by Euclid, for ascending lists of
    residues with no trailing zeros, a nonzero."""
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        a = list(a)
        for i in range(len(a) - 1, db - 1, -1):
            q = a[i] * inv % p
            if q:
                for j in range(db):
                    a[i - db + j] = (a[i - db + j] - q * b[j]) % p
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def is_squarefree(f: UniPoly) -> bool:
    """Whether gcd(f, f') is constant.

    A monic integral f is first decided mod the prime p = 2**61 - 1
    (Brown, J. ACM 18, 1971).  Over Q, g = gcd(f, f') is monic and
    divides f, so by Gauss's lemma it is integral, and it divides f and
    f' over Z; reduced mod p it keeps its degree and divides both
    reductions.  So a constant gcd mod p proves g constant.  The test
    mod p only ever accepts: any other input, or a gcd mod p that is not
    constant, goes to the rational ``gcd``.
    """
    p = SQUAREFREE_PRIME
    if f.den == 1 and f.is_monic():
        # the degree n < p, so f' mod p keeps its leading coefficient n
        df = [k * c % p for k, c in enumerate(f.num)][1:]
        if not _gcd_degree_mod([c % p for c in f.num], df, p):
            return True
    return gcd(f, f.derivative()).degree == 0


class MultiPoly:
    """Sparse polynomial in n variables: exponent tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c}) if c != 0 else cls(n)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {other.n}")

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __neg__(self):
        return MultiPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        res = MultiPoly(self.n)
        res.terms = out
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple([x + y for x, y in zip(ea, eb)])
                v = get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        res = MultiPoly(self.n)
        res.terms = out
        return res

    def scale(self, c):
        if c == 0:
            return MultiPoly(self.n)
        return MultiPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def lex_leading(self):
        """Leading term under plain lexicographic order, x1 > x2 > ..."""
        e = max(self.terms)
        return e, self.terms[e]

    def permute_vars(self, images):
        """Apply the variable substitution x_i -> x_images[i]."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.n
            for i, p in enumerate(e):
                ne[images[i]] = p
            out[tuple(ne)] = c
        res = MultiPoly(self.n)
        res.terms = out
        return res

    def eval(self, values):
        """Evaluate at scalars from any exact commutative ring."""
        if len(values) != self.n:
            raise ValueError("value-count mismatch")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, p in zip(values, e):
                for _ in range(p):
                    term = term * v
            total = total + term
        return total

    def coefficients_in_first_var(self):
        """Split by the power of x1: list indexed by that power, entries
        are polynomials in the remaining n-1 variables."""
        if self.is_zero():
            return []
        top = max(e[0] for e in self.terms)
        buckets = [dict() for _ in range(top + 1)]
        for e, c in self.terms.items():
            buckets[e[0]][e[1:]] = c
        return [MultiPoly(self.n - 1, b) for b in buckets]

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.terms[e]
            mon = "*".join(
                f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}"
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" if not mon else f"{c}*{mon}")
        return "MultiPoly(" + " + ".join(bits) + ")"
