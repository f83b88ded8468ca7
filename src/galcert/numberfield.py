"""Arithmetic in the splitting field realized as Q[a]/(m(a)).

Elements are coefficient vectors in the power basis of the generator (the
certified injective root combination), stored as one integer vector over
one positive denominator with no common factor (Cohen, *A Course in
Computational Algebraic Number Theory*, 4.2).  The modulus m is monic
with integer coefficients, so sums, products and the reduction mod m run
on ints, and one gcd per result keeps the form canonical; ``coeffs``
turns the pair back into rationals for callers that read them.

Each root of the input polynomial is expressed as such an element by
the rational univariate representation: P_i(x) = sum over the group of
alpha_{s(i)} * m(x)/(x - theta_s) has integer coefficients, read off the
certified balls by the same integer read-off as the resolvent, and root
i is P_i(a) / m'(a).  Each group permutation becomes a field
automorphism sending the generator to the matching conjugate.  An
automorphism is stored as its power-basis matrix, integer rows over one
denominator, derived once from the generator's image, and applied as a
matrix-vector product; ``compose_mod`` (substitution by Horner) is kept
for evaluating polynomial identities such as f(expr) = 0.  Exact linear
algebra, inverses included, runs through one fraction-free Gauss-Jordan
elimination, ``echelon``.  The uniform idiom: balls only ever pin down
integers or narrow down which exact object was found, and every exact
object is accepted only once an exact identity confirms it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .arith import ComplexBall, ball_disjoint, fixed_mul
from .errors import CertificationError, InputError
from .groups import Permutation
from .poly import UniPoly, render_terms
from .record import Frozen, Record
from .resolvent import GaloisData, conjugate_balls
from .roots import RootSystem, precisions, read_integers


def integer_vector(cs):
    """(num, den): a list of rationals as ints over their least common
    denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class NumberField:
    """Context Q[a]/(m(a)) for a monic irreducible m with integer
    coefficients, so reducing an integer vector mod m stays integral."""

    __slots__ = ("modulus", "degree", "_mod_coeffs")

    def __init__(self, modulus: UniPoly):
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        if not modulus.has_integer_coeffs():
            raise ValueError("modulus must have integer coefficients")
        self.modulus = modulus
        self.degree = modulus.degree
        self._mod_coeffs = tuple(int(c) for c in modulus.coeffs)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NumberField) and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(self.modulus)

    def element(self, coeffs) -> "NumberFieldElement":
        """The element with the given rational coordinates; a longer
        vector is reduced mod m."""
        return NumberFieldElement(self, *integer_vector(list(coeffs)))

    def _reduce(self, cs):
        """Integer vector of any length reduced mod m, padded to length d."""
        d = self.degree
        m = self._mod_coeffs
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                cs[i] = 0
                for j in range(d):
                    cs[i - d + j] -= c * m[j]
        del cs[d:]
        cs += [0] * (d - len(cs))
        return cs

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        return self.element([0, 1])

    def rational(self, c):
        return self.element([c])

    def __repr__(self):
        return f"NumberField({self.modulus.render()})"


class NumberFieldElement:
    """num / den in the power basis: num holds d ints, den > 0 and
    gcd(den, *num) == 1, so equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den=1):
        """Normalize an integer vector over an integer denominator; a
        vector longer than d is reduced mod m first."""
        if len(num) != field.degree:
            num = field._reduce(list(num))
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self):
        """The exact rational coordinates."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def _add(self, other, sign):
        if isinstance(other, (int, Fraction)):
            # num / den + p / q = (q * num + p * den * e_0) / (den * q)
            q, den = other.denominator, self.den
            num = [q * a for a in self.num] if q != 1 else list(self.num)
            num[0] += sign * other.numerator * den
            return NumberFieldElement(self.field, num, den * q)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return NumberFieldElement(
                self.field, [a + sign * b for a, b in zip(self.num, other.num)], da
            )
        return NumberFieldElement(
            self.field,
            [a * db + sign * b * da for a, b in zip(self.num, other.num)],
            da * db,
        )

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return NumberFieldElement(
                self.field, [k * a for a in self.num], self.den * other.denominator
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        conv = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        conv[i + j] += ca * cb
        return NumberFieldElement(self.field, conv, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        acc = self.field.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse: the y with x * y = 1, solved exactly in
        the basis x * a^j and then checked by the product itself."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        d = field.degree
        cols = [self.num]
        for _ in range(d - 1):
            cols.append(tuple(field._reduce([0, *cols[-1]])))
        # x = num / den, so x * y = 1 reads sum_j y_j (num * a^j) = den * e_0
        rows = [[*row, 0] for row in zip(*cols)]
        rows[0][d] = self.den
        red, pivots = echelon(rows)
        if pivots != list(range(d)):
            raise ZeroDivisionError("element shares a factor with the modulus")
        den = lcm(*(row[i] for i, row in enumerate(red)))
        inv = NumberFieldElement(field, [row[d] * (den // row[i]) for i, row in enumerate(red)], den)
        if self * inv != field.one():
            raise CertificationError("inverse failed its check x * inv == 1")
        return inv

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def to_unipoly(self) -> UniPoly:
        return UniPoly(self.coeffs)

    def eval_ball(self, gen: ComplexBall, prec: int) -> ComplexBall:
        return self.to_unipoly().eval_ball(gen, prec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a canonical rational element is (p, 0, ..., 0) over q
            return (
                self.num[0] == other.numerator
                and self.den == other.denominator
                and not any(self.num[1:])
            )
        return (
            isinstance(other, NumberFieldElement)
            and self.num == other.num
            and self.den == other.den
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def render(self, var="a"):
        return render_terms(enumerate(self.coeffs), var)

    def __repr__(self):
        return f"NFE({self.render()})"


def compose_mod(p: UniPoly, x: NumberFieldElement) -> NumberFieldElement:
    """p(x) reduced in the field (Horner)."""
    acc = x.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# -- exact linear algebra over integer rows --------------------------------

def _combine(a, p, b):
    """b with its entry in column p eliminated by row a: a[p] * b - b[p] * a,
    divided by its content.  Dividing both multipliers by their gcd first
    gives the same row from smaller intermediate products."""
    g = gcd(a[p], b[p])
    ap, bp = a[p] // g, b[p] // g
    row = [ap * y - bp * x for x, y in zip(a, b)]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _reduce_row(red, pivots, row):
    """The integer row with every pivot column of the echelon rows
    eliminated: zero exactly when the row lies in their Q-span."""
    for r, p in zip(red, pivots):
        if row[p]:
            row = _combine(r, p, row)
    return row


def insert_row(red, pivots, row):
    """Add one integer row to echelon rows in place, keeping them in the
    form ``echelon`` returns.  False, with nothing changed, if the row
    already lies in their Q-span."""
    row = _reduce_row(red, pivots, row)
    lead = next((j for j, v in enumerate(row) if v), None)
    if lead is None:
        return False
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = [v // g for v in row]
    for i, r in enumerate(red):
        if r[lead]:
            red[i] = _combine(row, lead, r)
    k = bisect_left(pivots, lead)
    red.insert(k, list(row))
    pivots.insert(k, lead)
    return True


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns (rows, pivots): the nonzero rows of the reduced row echelon
    form, each scaled to a primitive integer vector with a positive pivot
    entry, and their pivot columns in increasing order.  Row i of the
    reduced echelon form over Q is rows[i] / rows[i][pivots[i]].  Rows are
    taken one at a time by ``insert_row``, reduced against the rows kept
    so far; each row operation divides out the content, so entries stay
    small.
    """
    red, pivots = [], []
    for row in rows:
        insert_row(red, pivots, row)
    return red, pivots


def in_span(red, pivots, vec):
    """Whether the integer vector lies in the Q-span of echelon rows."""
    return not any(_reduce_row(red, pivots, vec))


# -- root expressions from the balls ----------------------------------------

def _unique_hit(value_ball, enclosures, index):
    """True if the value ball meets enclosure[index] and no other."""
    for j, enc in enumerate(enclosures):
        hit = not ball_disjoint(value_ball, enc)
        if hit != (j == index):
            return False
    return True


def _plus(a, b):
    """Sum of two balls given as (x, y, r) ints over one power of two."""
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _rur_numerators(gd: GaloisData, vals, enclosures, prec):
    """Coefficient balls of P_i(x) = sum over s in G of alpha_{s(i)} *
    m(x)/(x - theta_s), for each root index i, ascending order.

    Each quotient q_s = m(x)/(x - theta_s) comes from synthetic division
    on m's integer coefficients; the sum is grouped by root, P_i = sum_j
    alpha_j * (sum of q_s over s(i) = j), so the root balls enter in
    n*n*d products rather than |G|*n*d.  Runs on (x, y, r) ints over
    2**-prec, where sums are exact, and builds one ball per coefficient."""
    m = [int(c) for c in gd.min_poly.coeffs]
    d = len(m) - 1
    n = len(enclosures)
    quotients = {}
    for s in gd.group:
        theta = vals[s].fixed(prec)
        q = [(1 << prec, 0, 0)]
        for k in range(d - 1, 0, -1):
            x, y, r = fixed_mul(theta, q[-1], prec)
            q.append((x + (m[k] << prec), y, r))
        quotients[s] = q[::-1]
    alphas = [b.fixed(prec) for b in enclosures]
    out = []
    for i in range(n):
        grouped = {}
        for s, q in quotients.items():
            j = s(i)
            grouped[j] = list(map(_plus, grouped[j], q)) if j in grouped else q
        coeffs = [(0, 0, 0)] * d
        for j, q in grouped.items():
            coeffs = [_plus(c, fixed_mul(alphas[j], b, prec)) for c, b in zip(coeffs, q)]
        out.append([ComplexBall.from_ints(x, y, r, -prec) for x, y, r in coeffs])
    return out


def express_roots(gd: GaloisData, rs: RootSystem):
    """Each root of the input polynomial as an element of the field, by
    the rational univariate representation (Rouillier, AAECC 9, 1999).

    With theta_s the generator's conjugates, take P_i(x) = sum over s in
    G of alpha_{s(i)} * m(x)/(x - theta_s).  G permutes the terms of this
    sum, so its coefficients are rational; they are algebraic integers,
    since f is monic and integral and the weights are integers; so they
    are integers, read off the ball sums by ``read_integers`` like the
    resolvent's.  At the generator only the identity term survives, so
    root i is P_i(a) * m'(a)^-1, with one exact inverse per field.  Each
    expression is then verified exactly, f(expr) = 0 mod m, and by its
    value at the generator's ball meeting the i-th root ball and no
    other.
    """
    f = rs.poly
    if not f.has_integer_coeffs():
        raise InputError(
            "integer coefficients required; scale the variable first"
        )
    field = NumberField(gd.min_poly)
    d = field.degree
    n = f.degree
    dm_inv = field.element(gd.min_poly.derivative().coeffs).inverse()

    for bits in precisions(rs.precision_bits):
        cur = rs.refine(bits)
        prec = bits + 32
        vals = conjugate_balls(gd.spec, cur)
        numerators = _rur_numerators(gd, vals, cur.enclosures, prec)
        ints = read_integers([c for p in numerators for c in p])
        if ints is None:
            continue
        if ints is False:
            raise CertificationError(
                "root expression numerators read off the balls are not integers"
            )
        exprs = []
        for i in range(n):
            cand = NumberFieldElement(field, ints[i * d:(i + 1) * d]) * dm_inv
            if not compose_mod(f, cand).is_zero():
                break
            val = cand.eval_ball(vals[Permutation.identity(n)], prec)
            if not _unique_hit(val, cur.enclosures, i):
                break
            exprs.append(cand)
        else:
            return tuple(exprs)
    raise CertificationError(
        "root expressions could not be certified within the precision budget"
    )


def _power_matrix(psi: NumberFieldElement):
    """(rows, den): the integer matrix over one denominator whose column
    j holds the coordinates of psi^j, j < d.  Returns it with psi^(d-1)."""
    cols = [psi.field.one()]
    for _ in range(psi.field.degree - 1):
        cols.append(cols[-1] * psi)
    den = lcm(*(c.den for c in cols))
    rows = tuple(zip(*([v * (den // c.den) for v in c.num] for c in cols)))
    return (rows, den), cols[-1]


def _mat_vec(field: NumberField, mat, x: NumberFieldElement) -> NumberFieldElement:
    rows, den = mat
    xs = x.num
    return NumberFieldElement(
        field, [sum(a * c for a, c in zip(row, xs) if c) for row in rows], den * x.den
    )


class SplittingField(Frozen):
    """The certified field together with its automorphism action;
    immutable.  ``automorphisms`` holds pairs (permutation, image of the
    generator); ``matrices`` maps each permutation to its power-basis
    matrix (integer rows, denominator) and is left out of equality and
    hashing, since the pairs determine it."""

    __slots__ = ("galois", "field", "poly", "root_exprs", "automorphisms", "matrices")
    _compared = ("galois", "field", "poly", "root_exprs", "automorphisms")

    def __init__(self, galois: GaloisData, field: NumberField, poly: UniPoly,
                 root_exprs: tuple, automorphisms: tuple, matrices: dict):
        Record.__init__(self, galois, field, poly, root_exprs, automorphisms, matrices)

    def psi_for(self, perm):
        for p, psi in self.automorphisms:
            if p == perm:
                return psi
        raise KeyError(f"{perm} is not in the group")

    def apply(self, perm, x: NumberFieldElement) -> NumberFieldElement:
        """The automorphism attached to perm: its matrix times x."""
        return _mat_vec(self.field, self.matrices[perm], x)

    def matrix(self, perm):
        """Power-basis matrix of the automorphism over Q: column j holds
        the coordinates of the image of a^j, that is of psi^j."""
        rows, den = self.matrices[perm]
        return tuple(tuple(Fraction(v, den) for v in row) for row in rows)

    @property
    def degree(self):
        return self.field.degree


def automorphism_table(gd: GaloisData, roots, rs: RootSystem) -> SplittingField:
    """One automorphism per group element: the generator maps to the
    matching conjugate, built exactly from the root expressions and then
    verified both exactly (m(image) = 0 mod m) and by ball containment.
    m(psi) = psi^(d-1) * psi + sum_j m_j psi^j is read off the powers
    of psi that also make up the automorphism's matrix.
    """
    field = roots[0].field
    weights = gd.spec.weights
    n = rs.poly.degree
    group = list(gd.group)
    low = field.element(gd.min_poly.coeffs[:-1])

    autos = []
    matrices = {}
    for s in group:
        psi = field.zero()
        for i, w in enumerate(weights):
            if w:
                psi = psi + roots[s(i)] * w
        mat, top = _power_matrix(psi)
        if not (top * psi + _mat_vec(field, mat, low)).is_zero():
            raise CertificationError(
                f"automorphism image for {s.cycle_string()} is not a conjugate"
            )
        autos.append((s, psi))
        matrices[s] = mat

    # ball check: each image value lands in its own conjugate's ball
    for bits in precisions(rs.precision_bits):
        cur = rs.refine(bits)
        prec = bits + 32
        vals = conjugate_balls(gd.spec, cur)
        gen_ball = vals[Permutation.identity(n)]
        targets = [vals[s] for s in group]
        if all(
            _unique_hit(psi.eval_ball(gen_ball, prec), targets, k)
            for k, (_, psi) in enumerate(autos)
        ):
            break
    else:
        raise CertificationError("automorphism balls could not be separated")

    sf = SplittingField(
        galois=gd,
        field=field,
        poly=rs.poly,
        root_exprs=tuple(roots),
        automorphisms=tuple(autos),
        matrices=matrices,
    )

    # the induced root permutation must be the group element itself
    for s in group:
        for i, expr in enumerate(roots):
            if sf.apply(s, expr) != roots[s(i)]:
                raise CertificationError(
                    "automorphism does not permute the root expressions "
                    f"as expected for {s.cycle_string()}"
                )
    return sf
