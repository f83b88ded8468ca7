"""Arithmetic in the splitting field realized as Q[a]/(m(a)).

Elements are coefficient vectors in the power basis of the generator (the
certified injective root combination).  Each root of the input polynomial
is expressed as such an element, and each group permutation becomes a
field automorphism sending the generator to the matching conjugate.  An
automorphism is stored as its power-basis matrix, derived once from the
generator's image, and applied as a matrix-vector product;
``compose_mod`` (substitution by Horner) is kept for evaluating
polynomial identities such as f(expr) = 0 and m(image) = 0.  The
uniform idiom: a numeric guess from ball linear algebra is only accepted
once an exact modular identity confirms it, and balls only ever narrow
down which exact object was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .arith import ComplexBall, ball_disjoint
from .errors import CertificationError
from .groups import Permutation
from .poly import UniPoly, xgcd
from .resolvent import GaloisData, conjugate_balls
from .roots import RootSystem, precisions, reconstruct_rational


class NumberField:
    """Context Q[a]/(m(a)) for a monic irreducible m."""

    __slots__ = ("modulus", "degree", "_mod_coeffs")

    def __init__(self, modulus: UniPoly):
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self.degree = modulus.degree
        self._mod_coeffs = modulus.coeffs

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def element(self, coeffs) -> "NumberFieldElement":
        cs = list(coeffs)
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        cs += [0] * (self.degree - len(cs))
        return NumberFieldElement(self, tuple(cs))

    def _reduce(self, cs):
        d = self.degree
        m = self._mod_coeffs
        cs = list(cs)
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                cs[i] = 0
                for j in range(d):
                    cs[i - d + j] -= c * m[j]
        return cs[:d]

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
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, tuple(other * a for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        d = self.field.degree
        conv = [0] * (2 * d - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        conv[i + j] += ca * cb
        return NumberFieldElement(self.field, tuple(self.field._reduce(conv)))

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
        """Multiplicative inverse via extended Euclid against the modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = xgcd(self.to_unipoly(), self.field.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("element shares a factor with the modulus")
        inv = s.scale(Fraction(1) / Fraction(g.coeffs[0]))
        return self.field.element(inv.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def to_unipoly(self) -> UniPoly:
        return UniPoly(self.coeffs)

    def eval_ball(self, gen: ComplexBall, prec: int) -> ComplexBall:
        return self.to_unipoly().eval_ball(gen, prec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (
            isinstance(other, NumberFieldElement)
            and self.field == other.field
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash(tuple(Fraction(c) for c in self.coeffs))

    def render(self, var="a"):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
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
        return " ".join(parts)

    def __repr__(self):
        return f"NFE({self.render()})"


def compose_mod(p: UniPoly, x: NumberFieldElement) -> NumberFieldElement:
    """p(x) reduced in the field (Horner)."""
    acc = x.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# -- ball linear algebra ---------------------------------------------------

def _solve_ball_system(matrix, rhs_columns, prec):
    """Gaussian elimination over balls with widest-margin pivoting.

    matrix: list of rows of ComplexBall; rhs_columns: list of columns,
    each a list of ComplexBall.  Returns a list of solution columns, or
    None if some pivot cannot exclude zero at this precision.
    """
    d = len(matrix)
    rows = [list(r) + [col[i] for col in rhs_columns] for i, r in enumerate(matrix)]
    width = len(rows[0])
    for c in range(d):
        pivot_row = None
        pivot_margin = None
        for r in range(c, d):
            cell = rows[r][c]
            margin = cell.center_abs_lower() - cell.rad
            if margin.sign() > 0 and (pivot_margin is None or margin > pivot_margin):
                pivot_row = r
                pivot_margin = margin
        if pivot_row is None:
            return None
        rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        inv = rows[c][c].recip(prec)
        rows[c] = [cell.mul(inv, prec) for cell in rows[c]]
        for r in range(d):
            if r == c:
                continue
            factor = rows[r][c]
            if factor.contains_zero() and factor.rad.is_zero():
                continue
            rows[r] = [
                rows[r][k].sub(factor.mul(rows[c][k], prec), prec)
                for k in range(width)
            ]
    return [[rows[i][d + j] for i in range(d)] for j in range(len(rhs_columns))]


def _reconstruct_fraction(ball: ComplexBall):
    """The unique rational the ball can pin down, or None: a ball of
    radius r separates denominators up to isqrt(1/(4r)); an exact ball
    carries its own denominator."""
    rad = ball.rad.to_fraction()
    bound = isqrt(int(1 / (4 * rad))) if rad else ball.re.to_fraction().denominator
    return reconstruct_rational(ball, bound) if bound >= 1 else None


def _unique_hit(value_ball, enclosures, index):
    """True if the value ball meets enclosure[index] and no other."""
    for j, enc in enumerate(enclosures):
        hit = not ball_disjoint(value_ball, enc)
        if hit != (j == index):
            return False
    return True


def express_roots(gd: GaloisData, rs: RootSystem):
    """Each root of the input polynomial as an element of the field.

    For every group permutation s, the generator's conjugate satisfies
    root_expr(conjugate(s)) = root at s(i); stacking those equations over
    the group gives a Vandermonde system solved in ball arithmetic, then
    rationals are reconstructed and the identities f(expr) = 0 mod m and
    expr(generator) in the i-th root ball are verified exactly.
    """
    field = NumberField(gd.min_poly)
    d = field.degree
    group = list(gd.group)
    f = rs.poly
    n = f.degree

    for bits in precisions(rs.precision_bits):
        cur = rs.refine(bits)
        prec = bits + 32
        vals = conjugate_balls(gd.spec, cur)
        matrix = []
        for s in group:
            row = [ComplexBall.from_int(1)]
            for _ in range(d - 1):
                row.append(row[-1].mul(vals[s], prec))
            matrix.append(row)
        rhs = [[cur.enclosures[s(i)] for s in group] for i in range(n)]
        sol = _solve_ball_system(matrix, rhs, prec)
        if sol is not None:
            exprs = []
            for i in range(n):
                coeffs = [_reconstruct_fraction(b) for b in sol[i]]
                if any(c is None for c in coeffs):
                    break
                cand = field.element(coeffs)
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


@dataclass(frozen=True)
class SplittingField:
    """The certified field together with its automorphism action."""

    galois: GaloisData
    field: NumberField
    poly: UniPoly
    root_exprs: tuple
    automorphisms: tuple  # pairs (permutation, image of the generator)
    # permutation -> power-basis matrix, derived once from the image
    matrices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrices = {}
        for perm, psi in self.automorphisms:
            cols = [self.field.one()]
            for _ in range(self.field.degree - 1):
                cols.append(cols[-1] * psi)
            matrices[perm] = tuple(zip(*(c.coeffs for c in cols)))
        object.__setattr__(self, "matrices", matrices)

    def psi_for(self, perm):
        for p, psi in self.automorphisms:
            if p == perm:
                return psi
        raise KeyError(f"{perm} is not in the group")

    def apply(self, perm, x: NumberFieldElement) -> NumberFieldElement:
        """The automorphism attached to perm: its matrix times x."""
        xs = x.coeffs
        return NumberFieldElement(
            self.field,
            tuple(sum(a * c for a, c in zip(row, xs) if c) for row in self.matrices[perm]),
        )

    def matrix(self, perm):
        """Power-basis matrix of the automorphism: column j holds the
        coordinates of the image of a^j, that is of psi^j."""
        return self.matrices[perm]

    @property
    def degree(self):
        return self.field.degree


def automorphism_table(gd: GaloisData, roots, rs: RootSystem) -> SplittingField:
    """One automorphism per group element: the generator maps to the
    matching conjugate, built exactly from the root expressions and then
    verified both exactly (m(image) = 0 mod m) and by ball containment.
    """
    field = roots[0].field
    weights = gd.spec.weights
    n = rs.poly.degree
    group = list(gd.group)

    autos = []
    for s in group:
        psi = field.zero()
        for i, w in enumerate(weights):
            if w:
                psi = psi + roots[s(i)] * w
        if not compose_mod(gd.min_poly, psi).is_zero():
            raise CertificationError(
                f"automorphism image for {s.cycle_string()} is not a conjugate"
            )
        autos.append((s, psi))

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
