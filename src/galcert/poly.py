"""Dense univariate and sparse multivariate polynomials over the rationals.

Coefficients are exact (``int`` or ``Fraction``; Python lets the two mix
freely).  Univariate polynomials are coefficient tuples indexed by degree
with no trailing zeros; the zero polynomial has degree ``None``, never -1.
Multivariate polynomials map exponent tuples to nonzero coefficients.
Values are immutable: every operation builds a new polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import ComplexBall, fixed_mul, fixed_rational


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_dict(cls, d):
        if not d:
            return cls()
        cs = [0] * (max(d) + 1)
        for k, v in d.items():
            cs[k] = v
        return cls(cs)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return UniPoly(out)

    def scale(self, c):
        if c == 0:
            return UniPoly()
        return UniPoly([c * k for k in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= db:
            return UniPoly(), self
        quot = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c if lead == 1 else Fraction(c, 1) / lead
            quot[i - db] = q
            for j in range(db + 1):
                rem[i - db + j] -= q * other.coeffs[j]
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return UniPoly([Fraction(c) / lead for c in self.coeffs])

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_rational(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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

    def substitute_scaled(self, lam):
        """Return lam**n * p(x / lam), the root-scaling substitution."""
        n = self.degree
        if n is None:
            return self
        out = []
        power = 1
        for i in range(n, -1, -1):
            out.append(self.coeffs[i] * power)
            power *= lam
        out.reverse()
        return UniPoly(out)

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.coeffs)

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


def mul_mod(a, b, f, p):
    """a * b mod (f, p), for lists of residues of length n = deg f, f a
    monic list of ints, ascending."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(n):
                prod[i - n + j] -= c * f[j]
    return [c % p for c in prod[:n]]


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
    df = f.derivative()
    if f.is_monic() and f.has_integer_coeffs():
        p = SQUAREFREE_PRIME
        b = [int(c) % p for c in df.coeffs]
        while b and not b[-1]:
            b.pop()
        if _gcd_degree_mod([int(c) % p for c in f.coeffs], b, p) == 0:
            return True
    return gcd(f, df).degree == 0


def xgcd(a: UniPoly, b: UniPoly):
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
