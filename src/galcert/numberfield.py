"""Arithmetic in the splitting field realized as Q[a]/(m(a)).

Elements are coefficient vectors in the power basis of the generator (the
certified injective root combination), stored as one integer vector over
one positive denominator with no common factor (Cohen, *A Course in
Computational Algebraic Number Theory*, 4.2).  The modulus m is monic
with integer coefficients, so sums, products and the reduction mod m run
on ints, the last two through ``poly.convolve`` and ``poly.reduce_monic``,
and one gcd per result keeps the form canonical; ``coeffs`` turns the
pair back into rationals for callers that read them.

Each root of the input polynomial is expressed as such an element by
the rational univariate representation, on one route for every group:
with R the full resolvent, Q_i(x) = sum over all sigma in S_n of
alpha_sigma(i) * R(x)/(x - theta_sigma) has integer coefficients,
symmetric functions of the roots computed from f's coefficients like R
itself, and root i is Q_i(a) / R'(a); for G = S_n, m = R.  The last two
roots follow from the trace and from a = sum w_i E_i.  The expressions
are accepted on exact identities alone: f(E_i) = 0, the E_i pairwise
distinct, and sum w_i E_i = a, which with the weights' injectivity pin
each E_i to root i.  Each group permutation becomes a field automorphism
sending the generator to the matching conjugate, which the root
expressions fix; exact identities check those of the group's generators,
whose composites are the rest.  An
automorphism is stored as its power-basis matrix, integer rows over one
denominator, derived once from the generator's image, and applied as a
matrix-vector product; whether it sends x to y is that product's integer
identity, cross-multiplied by the denominators.  ``compose_mod``
(substitution by Horner) is kept for evaluating polynomial identities
such as f(expr) = 0.  Spans and kernels run through one fraction-free
Gauss-Jordan elimination, ``echelon``; minimal polynomials and inverses
come from traces by Newton's identities (``charpoly``), as R does.  No
ball is read here: every object is exact, and accepted only once an
exact identity confirms it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import CertificationError
from .poly import UniPoly, convolve, integer_vector, reduce_monic, render_terms
from .record import Frozen, Record
from .resolvent import GaloisData, from_power_sums, orbit_sums, power_sums


class NumberField:
    """Context Q[a]/(m(a)) for a monic irreducible m with integer
    coefficients, so reducing an integer vector mod m stays integral."""

    __slots__ = ("modulus", "degree")

    def __init__(self, modulus: UniPoly):
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        if modulus.den != 1:
            raise ValueError("modulus must have integer coefficients")
        self.modulus = modulus
        self.degree = modulus.degree

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

    def zero(self):
        return NumberFieldElement(self, [0] * self.degree)

    def one(self):
        return NumberFieldElement(self, [1] + [0] * (self.degree - 1))

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
            num = reduce_monic(list(num), field.modulus.num)
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
        return NumberFieldElement(self.field, convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse, read off x's characteristic polynomial
        chi = t^d + ... + c_1 t + c_0 (``charpoly``): chi(x) = 0, so x^-1 =
        -(x^(d-1) + ... + c_1) / c_0, and then checked by the product."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        powers = [field.one(), self]
        while len(powers) <= field.degree:
            powers.append(powers[-1] * self)
        chi = charpoly(powers)
        if not chi.num[0]:
            raise ZeroDivisionError("element shares a factor with the modulus")
        inv = combination(chi.num[1:], powers[:-1], -chi.num[0])
        if self * inv != field.one():
            raise CertificationError("inverse failed its check x * inv == 1")
        return inv

    def is_zero(self):
        return not any(self.num)

    def to_unipoly(self) -> UniPoly:
        return UniPoly(self.num, self.den)

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


def combination(coeffs, elements, den=1) -> NumberFieldElement:
    """sum_i c_i x_i / den for ints c_i and den != 0, as one integer vector
    over the elements' common denominator, normalized once."""
    common = lcm(*(x.den for x in elements))
    scaled = [c * (common // x.den) for c, x in zip(coeffs, elements)]
    cols = zip(*(x.num for x in elements))
    return NumberFieldElement(elements[0].field, [sum(map(mul, scaled, col)) for col in cols],
                              common * den)


def compose_mod(p: UniPoly, x: NumberFieldElement) -> NumberFieldElement:
    """p(x) reduced in the field (Horner, from the leading coefficient)."""
    *rest, lead = p.coeffs or (0,)
    acc = x.field.rational(lead)
    for c in reversed(rest):
        acc = acc * x + c
    return acc


def charpoly(powers) -> UniPoly:
    """From powers = [1, x, ..., x^k] in a field of degree d, the monic
    polynomial of degree k whose power sums are k/d times Tr(x^j): x's
    minimal polynomial when deg x = k, its characteristic one when k = d.
    For x = z / den with z integral, an algebraic integer as m is monic,
    Tr(z^j) is z^j's coordinates dotted with m's power sums; Newton's
    identities give z's polynomial P, and x's is P(den t) / den^k."""
    field = powers[0].field
    d, k, den = field.degree, len(powers) - 1, powers[1].den
    if d % k:
        raise CertificationError(f"x^{k} closes no subfield: {k} does not divide the degree {d}")
    p, sums = power_sums(field.modulus, d - 1), [k]
    for j, x in enumerate(powers[1:], 1):
        q, r = divmod(k * (den ** j // x.den) * sum(map(mul, x.num, p)), d)
        if r:
            raise CertificationError(f"the trace of x^{j} is not {d // k} times an integer")
        sums.append(q)
    e = from_power_sums(sums)
    return UniPoly([(-1) ** i * e[i] * den ** (k - i) for i in range(k, -1, -1)], den ** k)


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


# -- root expressions ---------------------------------------------------------

def _symmetric_numerators(gd: GaloisData, count):
    """The integer coefficients of Q_0, ..., Q_(count-1), ascending, where
    Q_i(x) = sum over all sigma in S_n of alpha_sigma(i) R(x)/(x - theta_sigma)
    and R is the full resolvent: the coefficient of Q_i at x^j is
    sum_k r_(j+k+1) T_(i,k), with T_(i,k) = sum over sigma of
    alpha_sigma(i) theta_sigma^k from ``resolvent.orbit_sums``."""
    r = gd.resolvent.num
    big = len(r) - 1
    sums = orbit_sums(gd.ladder.poly, gd.weights, big - 1, range(count))
    return [[sum(r[j + k + 1] * t[k] for k in range(big - j)) for j in range(big)]
            for t in sums]


def _complete(known, weights, trace: int, gen):
    """All n root expressions from the first n - 2 of them: the last two,
    E_j and E_k, solve E_j + E_k = trace - (the sum of the others) and
    w_j E_j + w_k E_k = gen - (the others' weighted sum), so E_k = (gen -
    w_j trace - sum_i (w_i - w_j) E_i) / (w_k - w_j), and E_j likewise with
    j and k swapped.  Injective weights are pairwise distinct: w_j != w_k."""
    elements = (gen, gen.field.one(), *known)
    w_j, w_k = weights[-2:]
    return (*known, *(combination((1, -w * trace, *(w - v for v in weights)), elements, u - w)
                      for w, u in ((w_k, w_j), (w_j, w_k))))


def _accept(exprs, f: UniPoly, weights, gen):
    """The root expressions as a tuple once the three identities of
    ``express_roots`` hold; CertificationError at the first that fails."""
    for i, e in enumerate(exprs):
        if not compose_mod(f, e).is_zero():
            raise CertificationError(f"root expression {i} is not a root of the polynomial")
    if len(set(exprs)) != len(exprs):
        raise CertificationError("root expressions are not pairwise distinct")
    if combination(weights, exprs) != gen:
        raise CertificationError("root expressions do not recombine to the generator")
    return tuple(exprs)


def express_roots(gd: GaloisData):
    """Each root of the input polynomial as an element of the field, by
    the rational univariate representation (Rouillier, AAECC 9, 1999).

    With R the full resolvent and theta_sigma its roots, take Q_i(x) =
    sum over all sigma in S_n of alpha_sigma(i) * R(x)/(x - theta_sigma).
    S_n permutes the terms of this sum, so its coefficients are rational;
    they are algebraic integers, since f is monic and integral
    (``identify_galois`` accepts no other) and the weights are integers;
    so they are integers, symmetric functions of the roots computed from
    f's coefficients (``_symmetric_numerators``).  At the generator only
    the identity term survives, so Q_i(a) = alpha_i * R'(a).  R is
    squarefree and m divides it, so R'(a) is invertible, and root i is
    Q_i(a) * R'(a)^-1, with one exact inverse per field; for G = S_n,
    m = R.  Only n - 2 roots take a numerator: the last two follow from
    the trace and from a = sum w_i E_i (``_complete``), so a quadratic
    needs none, and a linear f takes its one.

    The expressions are accepted by exact identities alone (``_accept``):
    f(E_i) = 0, the E_i pairwise distinct, and sum_i w_i E_i = a.  These
    pin each E_i to root i.  Under the embedding a -> theta_id of the
    field, the E_i go to roots of f, and distinct ones to distinct roots,
    so to alpha_tau(i) for some permutation tau; then theta_tau =
    sum_i w_i alpha_tau(i) = theta_id, and since the weights are
    injective, tau is the identity.
    """
    f = gd.ladder.poly
    field = NumberField(gd.min_poly)
    n = f.degree
    numerators = _symmetric_numerators(gd, n - 2 if n > 1 else 1)
    exprs = []
    if numerators:
        dr_inv = NumberFieldElement(field, gd.resolvent.derivative().num).inverse()
        exprs = [NumberFieldElement(field, num) * dr_inv for num in numerators]
    if len(exprs) < n:
        exprs = _complete(exprs, gd.weights, -f.num[n - 1], field.gen())
    return _accept(exprs, f, gd.weights, field.gen())


def _power_matrix(psi: NumberFieldElement):
    """(rows, den): the integer matrix over one denominator whose column
    j holds the coordinates of psi^j, j < d.  Returns it with psi^(d-1)."""
    d = psi.field.degree
    cols = [psi.field.one(), psi][:d]
    while len(cols) < d:
        cols.append(cols[-1] * psi)
    den = lcm(*(c.den for c in cols))
    rows = tuple(zip(*([v * (den // c.den) for v in c.num] for c in cols)))
    return (rows, den), cols[-1]


def _mat_vec(field: NumberField, mat, x: NumberFieldElement) -> NumberFieldElement:
    rows, den = mat
    xs = x.num
    return NumberFieldElement(field, [sum(map(mul, row, xs)) for row in rows], den * x.den)


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

    def sends(self, perm, x: NumberFieldElement, y: NumberFieldElement) -> bool:
        """Whether the automorphism attached to perm maps x to y, as the
        integer identity rows * x.num * y.den == den * x.den * y.num on
        its matrix rows / den; no element is built or normalized."""
        rows, den = self.matrices[perm]
        xs, left, right = x.num, y.den, den * x.den
        return all(
            sum(map(mul, row, xs)) * left == right * c for row, c in zip(rows, y.num)
        )

    def matrix(self, perm):
        """Power-basis matrix of the automorphism over Q: column j holds
        the coordinates of the image of a^j, that is of psi^j."""
        rows, den = self.matrices[perm]
        return tuple(tuple(Fraction(v, den) for v in row) for row in rows)

    @property
    def degree(self):
        return self.field.degree


def automorphism_table(gd: GaloisData, roots) -> SplittingField:
    """One automorphism per group element s: the generator maps to the
    conjugate psi_s = sum w_i roots[s(i)], one integer combination of the
    root expressions (``combination``), stored with its power matrix.
    Exact identities are checked on the group's ``generators`` alone:
    m(psi) = psi^(d-1) * psi + sum_j m_j psi^j = 0, read off the powers
    that make up the matrix, and that the matrix permutes the root
    expressions as s does.  The rest follows: a composite of the
    generators' automorphisms moves each E_i = roots[i] as the product
    permutation s does, and ``express_roots`` certified a = sum w_i E_i,
    so that composite sends a to psi_s.  So psi_s is a root of m, and its
    power matrix is that composite's matrix: the stored matrices compose
    as G does.
    """
    field = roots[0].field
    low = NumberFieldElement(field, gd.min_poly.num[:-1])
    autos = []
    matrices = {}
    for s in gd.group:
        psi = combination(gd.weights, [roots[i] for i in s.images])
        mat, top = _power_matrix(psi)
        if s in gd.group.generators:
            if not (top * psi + _mat_vec(field, mat, low)).is_zero():
                raise CertificationError(
                    f"automorphism image for {s.cycle_string()} is not a conjugate"
                )
            if any(_mat_vec(field, mat, e) != roots[s(i)] for i, e in enumerate(roots)):
                raise CertificationError(
                    "automorphism does not permute the root expressions "
                    f"as expected for {s.cycle_string()}"
                )
        autos.append((s, psi))
        matrices[s] = mat
    return SplittingField(
        galois=gd,
        field=field,
        poly=gd.ladder.poly,
        root_exprs=tuple(roots),
        automorphisms=tuple(autos),
        matrices=matrices,
    )
