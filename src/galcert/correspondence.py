"""Subgroup/subfield correspondence, certified both ways.

For a subgroup H, the field generated by the elementary symmetric values
of the generator's H-conjugates is Fix(H), the fixed field of H's
automorphisms.  The lattice certifies that for every subgroup, that the
map is a bijection onto the subfields, that dimensions match the group
orders, and that the averaging witness expresses every fixed element as
a symmetric value.

A fixed point is the integer identity ``sf.sends(s, x, x)`` on the
matrices the splitting field stores, tested on generators by the power
walk: the matrices compose as the group does (``automorphism_table``
proves it on G's generators), so an element fixed by the generators
that ``all_subgroups`` carries with H is fixed by all of H.
Each subgroup's field has one construction, ``_certified_field``, which
the lattice, ``field_from_subgroup`` and the selftest all read:

* Dimension.  dim Fix(H) is the trace of H's averaging projector, the
  mean of the M_s over s in H, which is idempotent with image Fix(H)
  since the M_s compose as H does (``_fixed_dimension``).
* Power sequence.  If the powers 1, ..., x^(k-1) of a value x fixed by
  H's generators are independent, k = dim Fix(H), then Q[x] <= Q[values]
  <= Fix(H) (H permutes the conjugates) all have dimension k and are
  equal (``_power_subfield``), and ``charpoly`` reads x's minimal
  polynomial off the traces of the same powers.  When no value is
  primitive, the closure worklist ``_closure`` of the values must be the
  exact kernel ``_fixed_space``, of dimension k, and a combination of
  values closes k.

Then one element per subfield suffices: an automorphism, a ring map,
fixes Q(prim) iff it fixes prim.  Inclusion reversal tests one primitive
per pair and the stabilizer replay only the elements outside H, both
listed once per group (``subgroup_inclusions``); the averaging witness
tests each primitive against every element of H, so it reads every
matrix of H; prim^-1 is one integer combination of prim's powers.

A subfield is its echelon rows: the primitive integer rows with positive
pivot entries that ``echelon`` returns, so subfield equality is equality
of rows, and ``Subfield.basis`` is a view for the renderers.  Spans and
kernels come from the fraction-free ``echelon`` and its one-row step
``insert_row``.  The closure and the kernel also serve
``from_elements`` and ``fixed_field``, the selftest's independent
construction.  The pipeline does not call ``rref``, ``nullspace``,
``fixed_field`` or ``minimal_polynomial``: they serve the selftest, the
tests and perfbench's tracer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product, tee
from math import lcm

from .errors import CertificationError, TheoremError
from .groups import PermGroup, all_subgroups, subgroup_inclusions
from .numberfield import (
    NumberField,
    NumberFieldElement,
    SplittingField,
    charpoly,
    combination,
    compose_mod,
    echelon,
    in_span,
    insert_row,
)
from .poly import UniPoly, integer_vector
from .record import Frozen, Record
from .sympoly import elementary_values


# -- exact linear algebra over Q -------------------------------------------

def _integer_rows(rows):
    return [integer_vector(list(r))[0] for r in rows]


def _as_fractions(red, pivots):
    return [[Fraction(v, r[p]) for v in r] for r, p in zip(red, pivots)]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).
    Zero rows are dropped and pivots are normalized to 1."""
    red, pivots = echelon(_integer_rows(rows))
    return _as_fractions(red, pivots), pivots


def _kernel(rows, ncols):
    """Integer echelon rows (see ``echelon``) spanning the right kernel of
    integer rows: the standard free-variable solutions, cleared of
    denominators and brought to echelon form."""
    red, pivots = echelon(rows)
    den = lcm(*(r[p] for r, p in zip(red, pivots)))
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fcol] = den
        for r, p in zip(red, pivots):
            vec[p] = -r[fcol] * (den // r[p])
        basis.append(vec)
    return echelon(basis)


def nullspace(rows):
    """Basis of the right kernel, canonical (RREF of the standard
    free-variable solutions)."""
    if not rows:
        return []
    return _as_fractions(*_kernel(_integer_rows(rows), len(rows[0])))


# -- subfields ---------------------------------------------------------------

def _rows(red):
    return tuple(map(tuple, red))


def _closure(nf: NumberField, gens):
    """Echelon rows of Q[gens], by a worklist.  The rows of 1 and the
    generators go in first; G, the generators whose row was kept, span
    all of them together with 1.  Every element x kept from then on,
    starting with G, enqueues x * g for each g in G.  When the queue is
    empty the span V contains 1 and V * g lies in V for each g in G,
    hence for each generator by linearity, so V contains Q[gens]; and V
    is made of products of generators, so V = Q[gens].  That is a domain
    of finite dimension over Q, hence a field."""
    red, pivots = [], []
    insert_row(red, pivots, nf.one().num)
    queue = [g for g in gens if insert_row(red, pivots, g.num)]
    mult = list(queue)
    for x in queue:
        for g in mult:
            y = x * g
            if insert_row(red, pivots, y.num):
                queue.append(y)
    return _rows(red)


class Subfield(Frozen):
    """A subfield of the splitting field as its echelon rows: the form
    ``echelon`` returns, so equal subfields have equal rows.  Built from a
    primitive's powers by ``_certified_field``, which keeps the pivot
    columns of its walk, or by ``from_elements``, which proves closure
    with ``_closure``.  Immutable; equality and hashing read the ambient
    field and the rows, whatever built them."""

    __slots__ = ("field", "rows", "pivots")
    _compared = ("field", "rows")

    def __init__(self, field: NumberField, rows: tuple, pivots: tuple | None = None):
        if pivots is None:
            pivots = tuple(next(j for j, v in enumerate(r) if v) for r in rows)
        Record.__init__(self, field, rows, pivots)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        """The reduced echelon basis over Q: each row over its pivot entry."""
        return tuple(NumberFieldElement(self.field, r, r[p])
                     for r, p in zip(self.rows, self.pivots))

    @classmethod
    def from_elements(cls, nf: NumberField, elements):
        """The span of the elements, accepted only if it is a field:
        closing it under products, with 1, adds no row."""
        elements = list(elements)
        rows = _closure(nf, elements)
        if len(rows) != len(echelon([e.num for e in elements])[0]):
            raise TheoremError("span does not contain 1 or is not closed under products")
        return cls(nf, rows)

    def contains(self, x: NumberFieldElement) -> bool:
        return in_span(self.rows, self.pivots, x.num)


def _fixed_rows(h: PermGroup, sf: SplittingField):
    """The rows of den * (M - I) for the stored matrix M = rows / den of
    each of h's generators.  An element fixed by a generating set is
    fixed by all of h, so their common kernel is the fixed space."""
    stacked = []
    for s in h.generators:
        rows, den = sf.matrices[s]
        for i, row in enumerate(rows):
            row = list(row)
            row[i] -= den
            stacked.append(row)
    return stacked


def _fixed_dimension(h: PermGroup, sf: SplittingField) -> int:
    """dim Fix(h), exactly: the mean of tr(M_s) over s in h, read off the
    stored diagonals.  As the matrices compose as the group does, their mean
    is idempotent with image Fix(h), so its rank is its trace (the character
    formula; Serre, Linear Representations of Finite Groups, ch. 2)."""
    mats = [sf.matrices[s] for s in h]
    den = lcm(*(d for _, d in mats))
    total = sum(sum(row[i] for i, row in enumerate(rows)) * (den // d) for rows, d in mats)
    k, r = divmod(total, den * h.order)
    if r:
        mean = Fraction(total, den * h.order)
        raise TheoremError(f"the mean trace {mean} over {h!r} is not an integer")
    return k


def _fixed_space(h: PermGroup, sf: SplittingField):
    """Echelon rows of the fixed space of h's automorphisms, the exact
    kernel of ``_fixed_rows``, not checked to be a field: for the fallback
    of ``_certified_field`` and for ``fixed_field``."""
    return _rows(_kernel(_fixed_rows(h, sf), sf.field.degree)[0])


def fixed_field(h: PermGroup, sf: SplittingField) -> Subfield:
    """Simultaneous fixed space of h's automorphisms, verified to be a
    subfield (contains 1, closed under products): the independent
    construction that the selftest compares with ``field_from_subgroup``."""
    nf = sf.field
    return Subfield.from_elements(nf, [NumberFieldElement(nf, r) for r in _fixed_space(h, sf)])


def averaging_check(x: NumberFieldElement, h: PermGroup, sf: SplittingField) -> bool:
    """Whether the explicit symmetric witness holds: x equals the average
    of its h-orbit images.  Each element of h, on its own stored matrix, is
    tested to fix x, an exact identity each, so the images' sum is |h| * x
    and averages to x."""
    return all(sf.sends(s, x, x) for s in h)


def _isomorphism_to(sf: SplittingField, sf2: SplittingField) -> NumberFieldElement:
    """Image of sf2's generator inside sf's field, exact and verified.

    Both fields sit on the same root system, so the second generator is
    the second weight vector applied to the first field's root
    expressions; the map is verified by the modular identity m2(t) = 0.
    """
    t = combination(sf2.galois.weights, sf.root_exprs)
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
    was used: transport along the verified isomorphism and compare rows.
    The image of a field under an isomorphism is a field, so the
    transported span needs no closure proof of its own."""
    t = _isomorphism_to(sf, sf2)
    mapped = [compose_mod(b.to_unipoly(), t).num for b in field_from_subgroup(h, sf2).basis]
    return _rows(echelon(mapped)[0]) == field_from_subgroup(h, sf).rows


# -- the lattice -------------------------------------------------------------

class SubgroupEntry(Record):
    """One row of the lattice: a subgroup, its subfield and the
    subfield's primitive element."""

    __slots__ = ("subgroup", "dim", "subfield", "primitive", "primitive_min_poly")

    def __init__(self, subgroup: PermGroup, dim: int, subfield: Subfield,
                 primitive: NumberFieldElement, primitive_min_poly: UniPoly):
        Record.__init__(self, subgroup, dim, subfield, primitive, primitive_min_poly)


class CorrespondenceReport(Record):
    """Everything the CLI reports: the lattice entries and the named
    checks, with the input as given and as analysed."""

    __slots__ = ("polynomial", "input_polynomial", "scale", "weights", "min_poly",
                 "group", "entries", "checks", "arrangement_arrays")

    def __init__(self, polynomial: UniPoly, input_polynomial: UniPoly, scale: Fraction,
                 weights: tuple, min_poly: UniPoly, group: PermGroup, entries: list,
                 checks: list, arrangement_arrays: list | None = None):
        Record.__init__(self, polynomial, input_polynomial, scale, weights, min_poly,
                        group, entries, checks, arrangement_arrays)

    @property
    def group_order(self):
        return self.group.order

    def all_passed(self):
        return all(ok for _, ok in self.checks)


def minimal_polynomial(x: NumberFieldElement, dim: int | None = None) -> UniPoly:
    """Minimal polynomial over Q of x, which lies in a field of dimension
    dim (the whole field by default): its powers up to x^dim depend.  The
    first power in the span of the ones before it closes Q[x], and
    ``charpoly`` reads the polynomial off the powers' traces."""
    if dim is None:
        dim = x.field.degree
    red, pivots, powers = [], [], [x.field.one()]
    while insert_row(red, pivots, powers[-1].num):
        if len(powers) > dim:
            raise ValueError(f"the element lies in no field of dimension {dim}")
        powers.append(powers[-1] * x)
    return charpoly(powers)


def _candidates(values):
    """Primitive-element candidates, lazily: the integer combinations of
    at least two values, coefficients in [-3, 3].  A single value, or a
    multiple of it, gives the field the power walk has already rejected."""
    for combo in iter_product(range(-3, 4), repeat=len(values)):
        if sum(map(bool, combo)) > 1:
            yield combination(combo, values)


def _symmetric_values(h: PermGroup, sf: SplittingField):
    """e1, ..., e_|h| of h's conjugates of the generator, lazily: e1, their
    sum, by additions alone, and the others only when asked for."""
    conj = [sf.psi_for(s) for s in h]
    yield sum(conj[1:], conj[0])
    yield from elementary_values(conj)[1:]


def _power_subfield(h: PermGroup, sf: SplittingField, candidates, k: int):
    """(Q[x], x, its minimal polynomial, [1, ..., x^(k-1)]) for the first
    candidate x that h's generators fix and whose powers 1, ..., x^(k-1)
    are independent, or None.  For k = dim Fix(h) and x in Q[values],
    Q[x] = Q[values] = Fix(h) by the power-sequence argument above; its
    rows are the powers' echelon rows, and x's minimal polynomial is the
    ``charpoly`` of [1, ..., x^k], which the lattice's inverse closure
    confirms: the inverse read off it must give x * inv == 1."""
    nf = sf.field
    for x in candidates:
        if not all(sf.sends(s, x, x) for s in h.generators):
            continue
        red, pivots, powers = [], [], [nf.one(), x]
        while insert_row(red, pivots, powers[-2].num):
            if len(powers) > k:
                return (Subfield(nf, _rows(red), tuple(pivots)), x, charpoly(powers),
                        powers[:-1])
            powers.append(powers[-1] * x)
    return None


def _certified_field(h: PermGroup, sf: SplittingField):
    """(Fix(h), its primitive x, x's minimal polynomial, [1, ..., x^(k-1)]):
    the power sequence of the first symmetric value that closes k =
    dim Fix(h), or, when none does, of the first combination of them.
    Each value is made once: the fallback reads the ones the walk kept."""
    walk, values = tee(_symmetric_values(h, sf))
    k = _fixed_dimension(h, sf)
    found = _power_subfield(h, sf, walk, k)
    if found is None:
        # a primitive that combines values, or a real mismatch.  Only the closure shows
        # that the values generate Fix(h): without it a wrong symmetric field raises
        # nothing at once, and _candidates walks up to 7^|h| combinations (7^24 on S4)
        values = list(values)
        rows = _closure(sf.field, values)
        if rows != _fixed_space(h, sf):
            raise TheoremError(f"constructed field differs from the fixed field "
                               f"for subgroup {h!r}")
        if len(rows) != k:
            raise TheoremError(f"fixed field of {h!r} has dimension {len(rows)}, "
                               f"not the mean trace {k}")
        found = _power_subfield(h, sf, _candidates(values), k)
        if found is None:
            raise TheoremError("no primitive element found in the search range")
    return found


def field_from_subgroup(h: PermGroup, sf: SplittingField) -> Subfield:
    """The field generated by symmetric polynomial values of the
    generator's conjugates under h, certified to be Fix(h).  Every
    symmetric value is a polynomial in the elementary symmetric values of
    the conjugates, so those suffice.  It is the field the lattice
    reports, spanned by the powers of that entry's primitive."""
    return _certified_field(h, sf)[0]


def inverse_witness(x: NumberFieldElement, mp: UniPoly, powers):
    """(x, x^-1) read off x's minimal polynomial x^k + c_(k-1) x^(k-1) +
    ... + c_0: x^-1 = -(x^(k-1) + c_(k-1) x^(k-2) + ... + c_1) / c_0, one
    integer combination of the powers [1, x, ..., x^(k-1)].  Zero, a
    rational subfield's primitive of trace 0, has no inverse; 1, whose
    powers are the same [1], stands in for it."""
    if x.is_zero():
        x, mp = x.field.one(), UniPoly([-1, 1])
    return x, combination(mp.num[1:], powers, -mp.num[0])


def correspondence_lattice(sf: SplittingField) -> CorrespondenceReport:
    """Certify, for every subgroup, its symmetric field as its fixed field,
    and then the lattice.

    Raises TheoremError (with the offending subgroup pair in the message)
    as soon as an exact assertion fails."""
    subgroups = all_subgroups(sf.galois.group)
    pairs, outside = subgroup_inclusions(sf.galois.group)
    d = sf.field.degree

    entries = []
    witnesses = []
    for h in subgroups:
        la, prim, prim_mp, powers = _certified_field(h, sf)
        witnesses.append(powers)
        entries.append(SubgroupEntry(h, la.dim, la, prim, prim_mp))
    checks = [("symmetric_field_equals_fixed_field", True)]
    constructed = [e.subfield for e in entries]

    # injectivity: distinct subgroups give distinct subfields
    seen = {}
    for i, la in enumerate(constructed):
        key = la.rows
        if key in seen:
            raise TheoremError(
                f"subgroups {subgroups[seen[key]]!r} and {subgroups[i]!r} map to the same subfield"
            )
        seen[key] = i
    checks.append(("subgroup_to_subfield_injective", True))

    # degree: dim * |H| equals the field degree for every subgroup
    for h, la in zip(subgroups, constructed):
        if la.dim * h.order != d:
            raise TheoremError(f"dim {la.dim} times order {h.order} is not {d} for {h!r}")
    checks.append(("degree_matches_subgroup_order", True))

    # inclusion reversal on every comparable pair, one primitive per pair
    for i, j in pairs:
        if not constructed[i].contains(entries[j].primitive):
            raise TheoremError(f"inclusion {subgroups[i]!r} <= {subgroups[j]!r} "
                               "is not reversed by the fields")
    checks.append(("inclusion_reversal", True))

    # surjectivity replay: the stabilizer of each subfield maps back to it.
    # h's generators fix la = Q(prim) (_power_subfield), so test s outside h;
    # once none fixes prim, the stabilizer is h, whose field is la by
    # construction, so no rebuild
    for e, out in zip(entries, outside):
        h, prim = e.subgroup, e.primitive
        if any(sf.sends(s, prim, prim) for s in out):
            stab = tuple(s for s in sf.galois.group if s in h or sf.sends(s, prim, prim))
            raise TheoremError(
                f"stabilizer of the subfield of {h!r} is "
                f"{PermGroup._trusted(stab)!r}, not the subgroup"
            )
    checks.append(("stabilizer_recovers_subfield", True))

    # closure under inverses on each subfield's primitive: inv combines the powers
    # whose echelon rows are the subfield, so x * inv == 1 is all there is to test
    for e, powers in zip(entries, witnesses):
        x, inv = inverse_witness(e.primitive, e.primitive_min_poly, powers)
        if x * inv != 1:
            raise TheoremError("a sampled inverse escapes its subfield")
    checks.append(("inverse_closure", True))

    # averaging witness: each primitive, which stands for its subfield, against all of H
    for e in entries:
        if not averaging_check(e.primitive, e.subgroup, sf):
            raise TheoremError(f"averaging witness failed for subgroup {e.subgroup!r}")
    checks.append(("averaging_witness", True))

    return CorrespondenceReport(
        polynomial=sf.poly,
        input_polynomial=sf.poly,
        scale=Fraction(1),
        weights=sf.galois.weights,
        min_poly=sf.galois.min_poly,
        group=sf.galois.group,
        entries=entries,
        checks=checks,
    )
