"""Subgroup/subfield correspondence, certified both ways.

For a subgroup H two fields are built independently: one generated by the
elementary symmetric values of the generator's H-conjugates (closing the
span under multiplication), and one cut out by exact linear algebra as
the simultaneous fixed space of H's automorphisms.  The lattice check
verifies they coincide for every subgroup, that the map is a bijection
onto the subfields, that dimensions match the group orders, and that the
averaging witness expresses every fixed element as a symmetric value.

Subfields are canonicalized as reduced row echelon bases over Q, so field
equality is a syntactic comparison.  Automorphisms act through the
matrices the splitting field stores (``sf.matrix``, ``sf.apply``);
``compose_mod`` is kept for the polynomial identities that certify the
isomorphism between two generators' fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product

from .errors import CertificationError, TheoremError
from .groups import PermGroup, all_subgroups
from .numberfield import NumberField, NumberFieldElement, SplittingField, compose_mod
from .poly import UniPoly
from .sympoly import elementary_values


# -- exact linear algebra over Q -------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).
    Zero rows are dropped and pivots are normalized to 1."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _reduce_against(rref_rows, pivots, vec):
    vec = list(map(Fraction, vec))
    for row, p in zip(rref_rows, pivots):
        if vec[p] != 0:
            f = vec[p]
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def in_span(rref_rows, pivots, vec):
    return all(v == 0 for v in _reduce_against(rref_rows, pivots, vec))


def nullspace(rows):
    """Basis of the right kernel, canonical (RREF of the standard
    free-variable solutions)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[fcol]
        basis.append(vec)
    out, _ = rref(basis)
    return out


# -- subfields ---------------------------------------------------------------

@dataclass(frozen=True)
class Subfield:
    """Q-subspace of the splitting field in canonical echelon form,
    verified on construction to contain 1 and be closed under products."""

    field: NumberField
    basis: tuple
    generators: tuple = field(default=(), compare=False)

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def from_elements(cls, nf: NumberField, elements, generators=()):
        rows = [list(e.coeffs) for e in elements]
        red, pivots = rref(rows)
        basis = tuple(nf.element(r) for r in red)
        sub = cls(nf, basis, tuple(generators))
        sub._verify()
        return sub

    def _verify(self):
        red, pivots = self._rref_data()
        one = [Fraction(0)] * self.field.degree
        if self.field.degree:
            one[0] = Fraction(1)
        if not in_span(red, pivots, one):
            raise TheoremError("span does not contain 1")
        for i in range(len(self.basis)):
            for j in range(i, len(self.basis)):
                prod = self.basis[i] * self.basis[j]
                if not in_span(red, pivots, list(prod.coeffs)):
                    raise TheoremError(
                        "span is not closed under multiplication"
                    )

    def _rref_data(self):
        red = [list(map(Fraction, b.coeffs)) for b in self.basis]
        pivots = [next(i for i, v in enumerate(row) if v != 0) for row in red]
        return red, pivots

    def contains(self, x: NumberFieldElement) -> bool:
        red, pivots = self._rref_data()
        return in_span(red, pivots, list(x.coeffs))

    def contains_subfield(self, other: "Subfield") -> bool:
        red, pivots = self._rref_data()
        return all(in_span(red, pivots, list(b.coeffs)) for b in other.basis)

    def coordinate_matrix(self):
        return tuple(tuple(Fraction(c) for c in b.coeffs) for b in self.basis)


def fields_equal(a: Subfield, b: Subfield) -> bool:
    """Equality of canonical echelon bases (same ambient field required)."""
    if a.field != b.field:
        raise ValueError("subfields of different ambient fields")
    return a.coordinate_matrix() == b.coordinate_matrix()


def field_from_subgroup(h: PermGroup, sf: SplittingField) -> Subfield:
    """The field generated by symmetric polynomial values of the
    generator's conjugates under h.

    Every symmetric value is a polynomial in the elementary symmetric
    values of the conjugates, so those finitely many generators suffice;
    their multiplicative span closure is the field.
    """
    conjugates = [sf.psi_for(s) for s in h]
    gens = elementary_values(conjugates)
    elements = [sf.field.one()] + list(gens)
    span = _span_rows(elements)
    while True:
        basis_elems = [sf.field.element(r) for r in span[0]]
        products = [
            basis_elems[i] * basis_elems[j]
            for i in range(len(basis_elems))
            for j in range(i, len(basis_elems))
        ]
        new_span = _span_rows(basis_elems + products)
        if len(new_span[0]) == len(span[0]):
            break
        span = new_span
    basis = tuple(sf.field.element(r) for r in span[0])
    return Subfield.from_elements(sf.field, basis, generators=tuple(gens))


def _span_rows(elements):
    return rref([list(e.coeffs) for e in elements])


def fixed_field(h: PermGroup, sf: SplittingField) -> Subfield:
    """Simultaneous fixed space of h's automorphisms, by exact kernels."""
    d = sf.field.degree
    stacked = []
    for s in h:
        mat = sf.matrix(s)
        for i in range(d):
            row = [mat[i][j] - (1 if i == j else 0) for j in range(d)]
            stacked.append(row)
    kernel = nullspace(stacked)
    elements = [sf.field.element(v) for v in kernel]
    return Subfield.from_elements(sf.field, elements)


def averaging_check(x: NumberFieldElement, h: PermGroup, sf: SplittingField) -> bool:
    """Verify the explicit symmetric witness: x equals the average of its
    h-orbit images (all equal to x when x is fixed by h)."""
    images = [sf.apply(s, x) for s in h]
    if any(image != x for image in images):
        raise ValueError("element is not fixed by the subgroup")
    total = sf.field.zero()
    for image in images:
        total = total + image
    return total * Fraction(1, len(h)) == x


def _isomorphism_to(sf: SplittingField, sf2: SplittingField) -> NumberFieldElement:
    """Image of sf2's generator inside sf's field, exact and verified.

    Both fields sit on the same root system, so the second generator is
    the second weight vector applied to the first field's root
    expressions; the map is verified by the modular identity m2(t) = 0.
    """
    t = sf.field.zero()
    for i, w in enumerate(sf2.galois.spec.weights):
        if w:
            t = t + sf.root_exprs[i] * w
    if not compose_mod(sf2.galois.min_poly, t).is_zero():
        raise CertificationError("isomorphism construction failed")
    for i in range(len(sf.root_exprs)):
        if compose_mod(sf2.root_exprs[i].to_unipoly(), t) != sf.root_exprs[i]:
            raise CertificationError("isomorphism does not match the roots")
    return t


def primitive_independence_check(
    h: PermGroup, sf: SplittingField, sf2: SplittingField
) -> bool:
    """The subgroup's field does not depend on which certified generator
    was used: transport along the verified isomorphism and compare."""
    t = _isomorphism_to(sf, sf2)
    other = field_from_subgroup(h, sf2)
    mapped = [compose_mod(b.to_unipoly(), t) for b in other.basis]
    transported = Subfield.from_elements(sf.field, mapped)
    return fields_equal(transported, field_from_subgroup(h, sf))


# -- the lattice -------------------------------------------------------------

@dataclass
class SubgroupEntry:
    subgroup: PermGroup
    dim: int
    subfield: Subfield
    primitive: NumberFieldElement
    primitive_min_poly: UniPoly
    fixed_field_equal: bool


@dataclass
class CorrespondenceReport:
    polynomial: UniPoly
    input_polynomial: UniPoly
    scale: Fraction
    weights: tuple
    min_poly: UniPoly
    group: PermGroup
    entries: list
    checks: list
    arrangement_arrays: list | None = None

    @property
    def group_order(self):
        return self.group.order

    def all_passed(self):
        return all(ok for _, ok in self.checks)


def minimal_polynomial(x: NumberFieldElement) -> UniPoly:
    """Minimal polynomial over Q by the first linear dependence among
    powers of x: one echelon form of the matrix whose columns are
    1, x, ..., x^d.  Its first non-pivot column k holds the coordinates
    c_i of x^k = sum c_i x^i over the pivot columns before it."""
    d = x.field.degree
    powers = [x.field.one()]
    for _ in range(d):
        powers.append(powers[-1] * x)
    red, pivots = rref(list(zip(*(p.coeffs for p in powers))))
    k = next((i for i, p in enumerate(pivots) if p != i), len(pivots))
    return UniPoly([-red[i][k] for i in range(k)] + [1])


def _primitive_element(sub: Subfield, sf: SplittingField):
    """A generator of the subfield with its minimal polynomial: try the
    symmetric generators one by one, then small integer combinations
    (|c| <= 3), lazily and in a fixed order."""
    gens = list(sub.generators) or list(sub.basis)
    m = len(gens)

    def candidates():
        for g in gens:
            yield g
        for combo in iter_product(range(-3, 4), repeat=m):
            if all(c == 0 for c in combo):
                continue
            cand = sf.field.zero()
            for c, g in zip(combo, gens):
                if c:
                    cand = cand + g * c
            yield cand

    for cand in candidates():
        mp = minimal_polynomial(cand)
        if mp.degree == sub.dim:
            return cand, mp
    raise TheoremError("no primitive element found in the search range")


def correspondence_lattice(sf: SplittingField) -> CorrespondenceReport:
    """Build both fields for every subgroup and certify the lattice.

    Raises TheoremError (with the offending subgroup pair in the message)
    as soon as an exact assertion fails.
    """
    subgroups = all_subgroups(sf.galois.group)
    d = sf.field.degree

    entries = []
    checks = []
    constructed = []
    fixed = []
    for h in subgroups:
        la = field_from_subgroup(h, sf)
        lb = fixed_field(h, sf)
        eq = fields_equal(la, lb)
        constructed.append(la)
        fixed.append(lb)
        prim, prim_mp = _primitive_element(la, sf)
        entries.append(
            SubgroupEntry(
                subgroup=h,
                dim=la.dim,
                subfield=la,
                primitive=prim,
                primitive_min_poly=prim_mp,
                fixed_field_equal=eq,
            )
        )

    def fail(name, message):
        checks.append((name, False))
        raise TheoremError(message, report=None)

    # the two constructions agree
    bad = [i for i, e in enumerate(entries) if not e.fixed_field_equal]
    if bad:
        h = entries[bad[0]].subgroup
        fail(
            "symmetric_field_equals_fixed_field",
            f"constructed field differs from the fixed field for subgroup {h!r}",
        )
    checks.append(("symmetric_field_equals_fixed_field", True))

    # injectivity: distinct subgroups give distinct subfields
    seen = {}
    for i, la in enumerate(constructed):
        key = la.coordinate_matrix()
        if key in seen:
            fail(
                "subgroup_to_subfield_injective",
                "subgroups "
                f"{subgroups[seen[key]]!r} and {subgroups[i]!r} map to the same subfield",
            )
        seen[key] = i
    checks.append(("subgroup_to_subfield_injective", True))

    # degree: dim * |H| equals the field degree for every subgroup
    for h, la in zip(subgroups, constructed):
        if la.dim * h.order != d:
            fail(
                "degree_matches_subgroup_order",
                f"dim {la.dim} times order {h.order} is not {d} for {h!r}",
            )
    checks.append(("degree_matches_subgroup_order", True))

    # inclusion reversal on every comparable pair
    for i, hi in enumerate(subgroups):
        for j, hj in enumerate(subgroups):
            if i != j and hi.is_subgroup_of(hj):
                if not constructed[i].contains_subfield(constructed[j]):
                    fail(
                        "inclusion_reversal",
                        f"inclusion {hi!r} <= {hj!r} is not reversed by the fields",
                    )
    checks.append(("inclusion_reversal", True))

    # surjectivity replay: the stabilizer of each subfield maps back to it
    for h, la in zip(subgroups, constructed):
        stab = PermGroup(
            [
                s
                for s in sf.galois.group
                if all(sf.apply(s, b) == b for b in la.basis)
            ]
        )
        # once stab == h, its field is la by construction, so no rebuild
        if stab.elements != h.elements:
            fail(
                "stabilizer_recovers_subfield",
                f"stabilizer of the subfield of {h!r} is {stab!r}, not the subgroup",
            )
    checks.append(("stabilizer_recovers_subfield", True))

    # closure under inverses, spot-checked on one element per subfield
    for la in constructed:
        sample = next((b for b in la.basis if not b.is_rational()), la.basis[0])
        if not la.contains(sample.inverse()):
            fail("inverse_closure", "a sampled inverse escapes its subfield")
    checks.append(("inverse_closure", True))

    # averaging witness on a spanning set of every fixed field
    for h, lb in zip(subgroups, fixed):
        for b in lb.basis:
            if not averaging_check(b, h, sf):
                fail(
                    "averaging_witness",
                    f"averaging witness failed for subgroup {h!r}",
                )
    checks.append(("averaging_witness", True))

    return CorrespondenceReport(
        polynomial=sf.poly,
        input_polynomial=sf.poly,
        scale=Fraction(1),
        weights=sf.galois.spec.weights,
        min_poly=sf.galois.min_poly,
        group=sf.galois.group,
        entries=entries,
        checks=checks,
    )
