import random
from fractions import Fraction
from math import isqrt

import pytest

from galcert import correspondence
from galcert.cli import main
from galcert.correspondence import (
    Subfield,
    _closure,
    _fixed_dimension,
    _fixed_space,
    _isomorphism_to,
    _power_subfield,
    _symmetric_values,
    averaging_check,
    correspondence_lattice,
    field_from_subgroup,
    fixed_field,
    inverse_witness,
    minimal_polynomial,
    nullspace,
    primitive_independence_check,
    rref,
)
from galcert.errors import CertificationError, TheoremError
from galcert.groups import PermGroup, Permutation, all_subgroups, closure
from galcert.numberfield import (
    SplittingField,
    automorphism_table,
    compose_mod,
    echelon,
    express_roots,
)
from galcert.poly import UniPoly
from galcert.resolvent import identify_galois, search_resolvent
from galcert.selftest import CORPUS, corpus_pipeline
from galcert.sympoly import elementary_values

from helpers import xgcd_inverse


def is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def fraction_rref(rows):
    """Reference: plain Gauss-Jordan over Fractions."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def test_rref_and_nullspace_match_fraction_gauss_jordan():
    rng = random.Random(31)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)  # wide and tall
        rank = rng.randint(0, min(nrows, ncols))
        base = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(ncols)]
            for _ in range(rank)
        ]
        rows = []
        for _ in range(nrows):
            # rank-deficient: every row is a combination of the base rows,
            # and some rows are zero
            cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)])
        red, pivots = rref(rows)
        assert (red, pivots) == fraction_rref(rows)
        assert all(isinstance(v, Fraction) for row in red for v in row)
        free = [c for c in range(ncols) if c not in pivots]
        kernel = nullspace(rows)
        standard = []
        for f in free:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for row, p in zip(red, pivots):
                vec[p] = -row[f]
            standard.append(vec)
        assert kernel == fraction_rref(standard)[0]
        for vec in kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_full_group_gives_the_rationals():
    data = corpus_pipeline("x^3 - 2")
    sub = field_from_subgroup(data.gd.group, data.sf)
    assert sub.dim == 1
    assert sub.basis[0] == data.sf.field.one()


def test_trivial_group_gives_the_whole_field():
    data = corpus_pipeline("x^3 - 2")
    trivial = closure([], n=3)
    sub = field_from_subgroup(trivial, data.sf)
    assert sub.dim == data.sf.field.degree


def test_cubic_quadratic_subfield_matches_the_discriminant():
    data = corpus_pipeline("x^3 - 2")
    order3 = next(h for h in all_subgroups(data.gd.group) if h.order == 3)
    sub = field_from_subgroup(order3, data.sf)
    assert sub.dim == 2
    u = next(b for b in sub.basis if any(b.num[1:]))
    mp = minimal_polynomial(u)
    assert mp.degree == 2
    disc = Fraction(mp[1]) ** 2 - 4 * Fraction(mp[0])
    assert disc != 0
    assert is_square(disc / Fraction(-108))


def test_fixed_field_dimensions():
    data = corpus_pipeline("x^3 - 2")
    d = data.sf.field.degree
    for h in all_subgroups(data.gd.group):
        assert fixed_field(h, data.sf).dim * h.order == d
    trivial = closure([], n=3)
    assert fixed_field(trivial, data.sf).dim == d
    assert fixed_field(data.gd.group, data.sf).dim == 1


def test_fields_equal_semantics():
    data = corpus_pipeline("x^3 - 2")
    whole = field_from_subgroup(closure([], n=3), data.sf)
    rationals = field_from_subgroup(data.gd.group, data.sf)
    assert whole == field_from_subgroup(closure([], n=3), data.sf)
    assert whole != rationals
    for h in all_subgroups(data.gd.group):
        assert field_from_subgroup(h, data.sf) == fixed_field(h, data.sf)


def test_fields_equal_requires_same_ambient():
    # Q has the same rows in both quadratic fields, but they are
    # subfields of different fields
    a = corpus_pipeline("x^2 - 2")
    b = corpus_pipeline("x^2 + 1")
    qa = field_from_subgroup(a.gd.group, a.sf)
    qb = field_from_subgroup(b.gd.group, b.sf)
    assert qa.rows == qb.rows == ((1, 0),)
    assert qa != qb and qa == Subfield(a.sf.field, ((1, 0),))


def test_averaging_witness_examples():
    data = corpus_pipeline("x^3 - 2")
    sf = data.sf
    K = sf.field
    full = data.gd.group
    assert averaging_check(K.rational(Fraction(5, 7)), full, sf)
    trivial = closure([], n=3)
    assert averaging_check(K.gen(), trivial, sf)
    order3 = next(h for h in all_subgroups(full) if h.order == 3)
    u = next(b for b in fixed_field(order3, sf).basis if any(b.num[1:]))
    assert averaging_check(u, order3, sf)


def test_averaging_requires_a_fixed_element():
    data = corpus_pipeline("x^3 - 2")
    assert averaging_check(data.sf.field.gen(), data.gd.group, data.sf) is False
    # the primitive of a subgroup's field is fixed by that subgroup and
    # moved by every other group element, so it passes for each subgroup
    # inside that one and fails for each other subgroup
    for text in ("x^3 - 2", "x^4 - 2"):
        data = corpus_pipeline(text)
        for e in data.report.entries:
            for h in all_subgroups(data.gd.group):
                if h.is_subgroup_of(e.subgroup):
                    assert averaging_check(e.primitive, h, data.sf)
                else:
                    assert not averaging_check(e.primitive, h, data.sf)


def test_averaging_witness_reads_every_element_of_the_subgroup(monkeypatch):
    # the stored matrix of an element of H outside its generators, swapped
    # for that of an element outside H, moves H's primitive: the generators
    # still fix it, and the witness, which reads all of H, fails
    data = corpus_pipeline("x^4 - 2")
    group = data.gd.group
    one = Permutation.identity(4)
    h, prim, s = next((e.subgroup, e.primitive, s) for e in data.report.entries
                      for s in e.subgroup if s != one and s not in e.subgroup.generators
                      and e.subgroup.order < group.order)
    t = next(t for t in group if t not in h)
    assert not data.sf.sends(t, prim, prim)
    monkeypatch.setitem(data.sf.matrices, s, data.sf.matrices[t])
    assert all(data.sf.sends(g, prim, prim) for g in h.generators)
    assert not averaging_check(prim, h, data.sf)


def test_failed_averaging_witness_is_a_theorem_error(monkeypatch, capsys):
    # the lattice turns a failed witness into TheoremError, and the CLI
    # into exit 4, not a traceback
    data = corpus_pipeline("x^2 - 2")
    monkeypatch.setattr(correspondence, "averaging_check", lambda x, h, sf: False)
    with pytest.raises(TheoremError, match="averaging witness failed"):
        correspondence_lattice(data.sf)
    assert main(["analyze", "x^2 - 2"]) == 4
    assert "assertion failure: averaging witness failed" in capsys.readouterr().err


def test_fixed_point_checks_test_generators_then_the_rest(monkeypatch):
    # the power sequence tests each primitive against its subgroup's
    # generators, the stabilizer replay then against the elements of G
    # outside the subgroup only, and the averaging witness, once per
    # subgroup, against every element of the subgroup
    data = corpus_pipeline("x^4 - 2")
    tested, averaged = [], []
    sends, averaging = SplittingField.sends, correspondence.averaging_check

    def recorded(sf, perm, x, y):
        tested.append((perm, x))
        return sends(sf, perm, x, y)

    def recorded_averaging(x, h, sf):
        start = len(tested)
        ok = averaging(x, h, sf)
        averaged.append((h, x, [p for p, _ in tested[start:]]))
        return ok

    monkeypatch.setattr(SplittingField, "sends", recorded)
    monkeypatch.setattr(correspondence, "averaging_check", recorded_averaging)
    report = correspondence.correspondence_lattice(data.sf)
    group = list(data.gd.group)
    assert any(e.subgroup.generators != e.subgroup.elements for e in report.entries)
    for e in report.entries:
        h = e.subgroup
        outside = [s for s in group if s not in h]
        assert [p for p, x in tested if x is e.primitive] == list(h.generators) + outside + list(h)
        assert [(x, perms) for k, x, perms in averaged if k is h] == [(e.primitive, list(h))]
    assert len(averaged) == len(report.entries)


def test_primitive_independence_quadratic():
    data = corpus_pipeline("x^2 - 2")
    sf2 = _second_field(data)
    for h in all_subgroups(data.gd.group):
        assert primitive_independence_check(h, data.sf, sf2)


def _second_field(data):
    """The splitting field on the second certified weight vector."""
    gd2 = identify_galois(search_resolvent(data.rs, skip=1))
    return automorphism_table(gd2, express_roots(gd2))


def test_an_isomorphism_off_the_conjugates_is_refused(monkeypatch):
    # the transported generator moved by 1 is no root of the second
    # minimal polynomial; the roots would not match either, but the
    # modular identity fails first
    data = corpus_pipeline("x^3 - 2")
    sf2 = _second_field(data)
    combine = correspondence.combination
    monkeypatch.setattr(correspondence, "combination", lambda cs, xs: combine(cs, xs) + 1)
    with pytest.raises(CertificationError, match="^isomorphism construction failed$"):
        _isomorphism_to(data.sf, sf2)


def test_an_isomorphism_onto_another_conjugate_is_refused(monkeypatch):
    # the second weights applied to the root expressions permuted by an
    # element of G: a conjugate of the second generator, so a root of its
    # minimal polynomial, but a map that moves the roots
    data = corpus_pipeline("x^3 - 2")
    sf2 = _second_field(data)
    s = data.gd.group.elements[-1]
    combine = correspondence.combination
    monkeypatch.setattr(correspondence, "combination",
                        lambda cs, xs: combine(cs, [xs[i] for i in s.images]))
    with pytest.raises(CertificationError, match="^isomorphism does not match the roots$"):
        _isomorphism_to(data.sf, sf2)
    assert s != s.identity(3)


def test_lattice_report_quadratic():
    data = corpus_pipeline("x^2 - 2")
    report = data.report
    assert len(report.entries) == 2
    assert sorted(e.dim for e in report.entries) == [1, 2]
    assert report.all_passed()
    names = [name for name, _ in report.checks]
    assert "subgroup_to_subfield_injective" in names
    assert "stabilizer_recovers_subfield" in names


def test_lattice_dims_cubic():
    report = corpus_pipeline("x^3 - 2").report
    assert sorted(e.dim for e in report.entries) == [1, 2, 3, 3, 3, 6]
    # codegrees (field degree over each subfield) are the subgroup orders
    d = report.min_poly.degree
    assert sorted(d // e.dim for e in report.entries) == [1, 2, 2, 2, 3, 6]


def test_minimal_polynomial_of_the_generator():
    data = corpus_pipeline("x^3 - 2")
    K = data.sf.field
    assert minimal_polynomial(K.gen()) == data.gd.min_poly
    # rationals: the first power already depends on 1
    assert minimal_polynomial(K.zero()) == UniPoly([0, 1])
    assert minimal_polynomial(K.rational(Fraction(-5, 3))) == UniPoly([Fraction(5, 3), 1])


def test_primitive_elements_generate_their_subfields():
    for text in ("x^3 - 2", "x^4 - 2"):
        report = corpus_pipeline(text).report
        for e in report.entries:
            assert e.primitive_min_poly.degree == e.dim
            assert e.subfield.contains(e.primitive)
            assert compose_mod(e.primitive_min_poly, e.primitive).is_zero()


def test_subfield_construction_rejects_non_closed_spans():
    data = corpus_pipeline("x^3 - 2")
    K = data.sf.field
    # a span without 1, and a span with 1 that products leave
    for elements in ([K.gen()], [K.one(), K.gen()], []):
        with pytest.raises(TheoremError, match="closed under products"):
            Subfield.from_elements(K, elements)
    # every subgroup's field is accepted, from its basis or a spanning
    # set with repeats, and its rows are echelon's
    for h in all_subgroups(data.gd.group):
        la = field_from_subgroup(h, data.sf)
        assert Subfield.from_elements(K, la.basis) == la
        assert Subfield.from_elements(K, la.basis[::-1] + la.basis) == la
        assert la.rows == tuple(map(tuple, echelon([b.num for b in la.basis])[0]))
        assert la.basis[0] == K.one()


def test_lattice_witnesses_agree_with_the_exact_references():
    # the inverse witness read off each primitive's minimal polynomial and
    # its powers 1, ..., x^(k-1) is the echelon inverse and the
    # extended-Euclid one
    fallbacks = []
    for text in CORPUS:
        data = corpus_pipeline(text)
        K = data.sf.field
        for e in data.report.entries:
            powers = [K.one()]
            while len(powers) < e.dim:
                powers.append(powers[-1] * e.primitive)
            x, inv = inverse_witness(e.primitive, e.primitive_min_poly, powers)
            assert inv == x.inverse()
            if e.primitive.is_zero():
                assert x == K.one() and inv == K.one()
                fallbacks.append((text, e.subgroup.order))
            else:
                assert x == e.primitive
                assert inv == xgcd_inverse(x)
    # the full group of x^2 - 2 fixes Q, whose primitive, the trace, is 0
    assert ("x^2 - 2", 2) in fallbacks


@pytest.mark.parametrize("text", CORPUS + ("x^4 + 8x + 12", "x^4 - x - 1"))
def test_field_from_subgroup_is_the_reported_field(text):
    # one construction: field_from_subgroup is each entry's subfield,
    # which holds its primitive, and the verified subfield its basis
    # spans; x^4 - x - 1 has subgroups whose primitive combines values
    data = corpus_pipeline(text)
    for e in data.report.entries:
        la = field_from_subgroup(e.subgroup, data.sf)
        assert la == e.subfield and la.contains(e.primitive)
        assert la == Subfield.from_elements(data.sf.field, la.basis)


# the corpus S3, D4 and A4 fields and a full S4 field
SIZED_FIELDS = ("x^3 - 2", "x^4 - 2", "x^4 + 8x + 12", "x^4 - x - 1")


def _all_pairs_field(h, sf):
    """Reference closure: the span of 1 and the elementary symmetric values,
    extended by all pairwise products of its basis until the dimension
    stops growing."""
    K = sf.field
    gens = elementary_values([sf.psi_for(s) for s in h])
    rows, _ = echelon([K.one().num] + [g.num for g in gens])
    while True:
        basis = Subfield(K, tuple(map(tuple, rows))).basis
        products = [a * b for i, a in enumerate(basis) for b in basis[i:]]
        grown, _ = echelon(rows + [e.num for e in products])
        if len(grown) == len(rows):
            return tuple(map(tuple, rows))
        rows = grown


def _full_power_minimal_polynomial(x):
    """Reference: all powers x^0..x^d, then the first dependent column."""
    powers = [x.field.one()]
    for _ in range(x.field.degree):
        powers.append(powers[-1] * x)
    red, pivots = echelon(list(zip(*(p.num for p in powers))))
    k = next((i for i, p in enumerate(pivots) if p != i), len(pivots))
    dk = powers[k].den
    return UniPoly(
        [-Fraction(red[i][k] * powers[i].den, red[i][i] * dk) for i in range(k)] + [1]
    )


@pytest.mark.parametrize("text", SIZED_FIELDS)
def test_sized_certificates_match_their_full_references(text):
    data = corpus_pipeline(text)
    sf = data.sf
    group = data.gd.group
    for e in data.report.entries:
        h = e.subgroup
        # the worklist closure is the all-pairs fixpoint and the reported field
        values = elementary_values([sf.psi_for(s) for s in h])
        assert _closure(sf.field, values) == _all_pairs_field(h, sf) == e.subfield.rows
        # the fixed space of the generators is that of every element
        assert _fixed_space(h, sf) == _fixed_space(PermGroup(h.elements), sf)
        # the stabilizer of the primitive is that of the whole basis
        by_primitive = [s for s in group if sf.apply(s, e.primitive) == e.primitive]
        by_basis = [
            s for s in group if all(sf.apply(s, b) == b for b in e.subfield.basis)
        ]
        assert by_primitive == by_basis == list(h.elements)


@pytest.mark.parametrize("text", SIZED_FIELDS)
def test_early_stopping_minimal_polynomial_matches_all_powers(text):
    data = corpus_pipeline(text)
    K = data.sf.field
    rng = random.Random(text)
    samples = [K.zero(), K.rational(Fraction(-7, 4)), K.gen()]
    # a random element of each of a few subfields, so degrees vary
    entries = data.report.entries
    for e in rng.sample(entries, min(len(entries), 4)):
        x = K.zero()
        for b in e.subfield.basis:
            x = x + b * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        samples.append(x)
    for x in samples:
        assert minimal_polynomial(x) == _full_power_minimal_polynomial(x)


@pytest.mark.parametrize("text", ("x^4 - 2", "x^4 + 8x + 12"))
def test_subfield_sized_minimal_polynomial_matches_all_powers(monkeypatch, text):
    # every primitive's minimal polynomial is read off the traces of its
    # powers up to its subfield's dimension; the linear relation among the
    # full powers up to the field degree agrees
    data = corpus_pipeline(text)
    calls = []
    sized = correspondence.charpoly

    def recorded(powers):
        mp = sized(powers)
        calls.append((powers, mp))
        return mp

    monkeypatch.setattr(correspondence, "charpoly", recorded)
    report = correspondence.correspondence_lattice(data.sf)
    assert len(calls) >= len(report.entries)
    for powers, mp in calls:
        assert mp == _full_power_minimal_polynomial(powers[1])
    for e in report.entries:
        assert any(powers[1] is e.primitive and len(powers) == e.dim + 1 for powers, _ in calls)
    # an element outside every field of the given dimension is refused
    with pytest.raises(ValueError, match="dimension 1"):
        minimal_polynomial(data.sf.field.gen(), 1)


def _with_fields_of(monkeypatch, pick):
    """Make the lattice certify each subgroup h with the field, primitive,
    minimal polynomial and powers that ``pick(h, found)`` returns, where
    ``found`` is ``_certified_field`` itself."""
    found = correspondence._certified_field
    monkeypatch.setattr(correspondence, "_certified_field", lambda h, sf: pick(h, found))


def test_injectivity_rejects_a_repeated_field(monkeypatch):
    # every subgroup certified with the rationals, the full group's field
    data = corpus_pipeline("x^3 - 2")
    _with_fields_of(monkeypatch, lambda h, found: found(data.gd.group, data.sf))
    with pytest.raises(TheoremError, match="map to the same subfield"):
        correspondence.correspondence_lattice(data.sf)


def test_degree_check_rejects_fields_of_the_wrong_size(monkeypatch):
    # the subgroups' fields in reverse order: all distinct, so injective,
    # but the trivial group gets the rationals
    data = corpus_pipeline("x^3 - 2")
    subgroups = all_subgroups(data.gd.group)
    other = dict(zip(subgroups, reversed(subgroups)))
    _with_fields_of(monkeypatch, lambda h, found: found(other[h], data.sf))
    with pytest.raises(TheoremError, match=r"dim 1 times order 1 is not 6"):
        correspondence.correspondence_lattice(data.sf)


def test_inclusion_reversal_rejects_swapped_fields(monkeypatch):
    # D4's center lies in all three subgroups of order 4, another subgroup
    # of order 2 in one only: their swapped fields keep injectivity and
    # the degrees, but the center's new field misses a larger field
    data = corpus_pipeline("x^4 - 2")
    subgroups = all_subgroups(data.gd.group)
    order2 = sorted((h for h in subgroups if h.order == 2),
                    key=lambda h: sum(h.is_subgroup_of(k) for k in subgroups))
    swap = {order2[0]: order2[-1], order2[-1]: order2[0]}
    _with_fields_of(monkeypatch, lambda h, found: found(swap.get(h, h), data.sf))
    with pytest.raises(TheoremError, match="is not reversed by the fields"):
        correspondence.correspondence_lattice(data.sf)


def test_stabilizer_replay_rejects_a_primitive_of_another_field(monkeypatch):
    # each subgroup keeps its field but takes the primitive of a strictly
    # larger subgroup's field: that passes injectivity, the degrees and
    # inclusion, and is fixed by the larger subgroup's elements outside h
    data = corpus_pipeline("x^3 - 2")
    subgroups = all_subgroups(data.gd.group)

    def larger_primitive(h, found):
        k = next((k for k in subgroups if k.order > h.order and h.is_subgroup_of(k)), h)
        return (found(h, data.sf)[0], *found(k, data.sf)[1:])

    _with_fields_of(monkeypatch, larger_primitive)
    trivial, order2 = subgroups[0], subgroups[1]
    assert trivial.order == 1 and order2.order == 2
    with pytest.raises(TheoremError, match="stabilizer of the subfield") as raised:
        correspondence.correspondence_lattice(data.sf)
    # the message names h and the stabilizer, h plus the outside elements
    assert str(raised.value) == (f"stabilizer of the subfield of {trivial!r} is {order2!r}, "
                                 f"not the subgroup")


def test_inverse_closure_rejects_a_wrong_minimal_polynomial(monkeypatch):
    # a doubled constant term makes the inverse read off it wrong by 2
    data = corpus_pipeline("x^3 - 2")

    def doubled(h, found):
        la, prim, mp, powers = found(h, data.sf)
        return la, prim, UniPoly([2 * mp.coeffs[0], *mp.coeffs[1:]]), powers

    _with_fields_of(monkeypatch, doubled)
    with pytest.raises(TheoremError, match="a sampled inverse escapes its subfield"):
        correspondence.correspondence_lattice(data.sf)


def test_no_primitive_in_the_search_range_is_a_theorem_error(monkeypatch, capsys):
    # an order-2 subgroup of this D4 quartic has no primitive among its
    # values, so it takes the fallback, whose combinations here are none;
    # the CLI exits 4
    data = corpus_pipeline("x^4 + 3x + 3")
    monkeypatch.setattr(correspondence, "_candidates", lambda values: iter(()))
    with pytest.raises(TheoremError, match="no primitive element found in the search range"):
        correspondence.correspondence_lattice(data.sf)
    assert main(["analyze", "x^4 + 3x + 3"]) == 4
    err = capsys.readouterr().err
    assert err == "assertion failure: no primitive element found in the search range\n"


@pytest.mark.parametrize("text", SIZED_FIELDS)
def test_trace_and_power_sequence_match_the_exact_kernel(text):
    # the mean trace is the exact kernel's dimension on every subgroup,
    # the worklist closure's rows are the kernel's, and so are the power
    # sequence's; it gives up only where no elementary value is primitive
    data = corpus_pipeline(text)
    sf, d = data.sf, data.sf.degree
    for h in all_subgroups(data.gd.group):
        kernel = _fixed_space(h, sf)
        assert _fixed_dimension(h, sf) == len(kernel) == d // h.order
        values = elementary_values([sf.psi_for(s) for s in h])
        assert list(_symmetric_values(h, sf)) == values
        assert _closure(sf.field, values) == kernel
        found = _power_subfield(h, sf, values, len(kernel))
        if found is None:
            assert all(minimal_polynomial(v).degree < len(kernel) for v in values)
        else:
            assert found[0].rows == kernel


def test_a_trace_one_too_many_is_a_theorem_error(monkeypatch, capsys):
    # no value closes a dimension one above the kernel's, and the fallback
    # refuses the kernel for not having it; the CLI exits 4
    data = corpus_pipeline("x^3 - 2")
    dimension = correspondence._fixed_dimension
    monkeypatch.setattr(correspondence, "_fixed_dimension", lambda h, sf: dimension(h, sf) + 1)
    with pytest.raises(TheoremError, match="has dimension 6, not the mean trace 7"):
        correspondence.correspondence_lattice(data.sf)
    assert main(["analyze", "x^3 - 2"]) == 4
    assert "not the mean trace" in capsys.readouterr().err


def test_a_mean_trace_that_is_not_an_integer_is_a_theorem_error(monkeypatch):
    # one more on a diagonal moves the group's mean trace by 1 / (6 den)
    data = corpus_pipeline("x^3 - 2")
    group = data.gd.group
    s = group.elements[-1]
    rows, den = data.sf.matrices[s]
    bumped = ((rows[0][0] + 1, *rows[0][1:]), *rows[1:])
    monkeypatch.setitem(data.sf.matrices, s, (bumped, den))
    with pytest.raises(TheoremError, match="is not an integer"):
        _fixed_dimension(group, data.sf)
    with pytest.raises(TheoremError, match="is not an integer"):
        correspondence.correspondence_lattice(data.sf)


@pytest.mark.parametrize("text, fallbacks", [
    pytest.param(text, count, id=text)
    for text, count in (("x^3 - 2", 0), ("x^4 - 2", 0), ("x^4 + 3x + 3", 1), ("x^4 - x - 1", 2))
])
def test_exact_fallback_makes_each_value_once(monkeypatch, capsys, text, fallbacks):
    # the subgroups whose primitives combine values take the fallback,
    # whose closure and combinations read the values the power walk made:
    # elementary_values runs at most once per subgroup, and the
    # combinations walk none of the values again; same output
    assert main(["analyze", text, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    subgroups = all_subgroups(corpus_pipeline(text).gd.group)
    values, certified, power_subfield = (correspondence.elementary_values,
                                         correspondence._certified_field,
                                         correspondence._power_subfield)
    calls, walks, per_subgroup = [], [], []

    def recorded_values(conj):
        calls.append(conj)
        return values(conj)

    def recorded_walk(h, sf, candidates, k):
        walked = []
        walks[-1].append(walked)
        return power_subfield(h, sf, (walked.append(x) or x for x in candidates), k)

    def counted(h, sf):
        start = len(calls)
        walks.append([])
        found = certified(h, sf)
        per_subgroup.append(len(calls) - start)
        return found

    monkeypatch.setattr(correspondence, "elementary_values", recorded_values)
    monkeypatch.setattr(correspondence, "_power_subfield", recorded_walk)
    monkeypatch.setattr(correspondence, "_certified_field", counted)
    assert main(["analyze", text, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected
    assert len(per_subgroup) == len(walks) == len(subgroups)
    assert max(per_subgroup) == 1
    assert sum(len(w) == 2 for w in walks) == fallbacks
    for single, *combined in walks:
        assert not any(x in single for walk in combined for x in walk)


def test_wrong_symmetric_field_is_a_theorem_error(monkeypatch):
    # conjugates that are all 1 give Q as every symmetric field, which
    # differs from the fixed field of any proper subgroup
    data = corpus_pipeline("x^3 - 2")
    monkeypatch.setattr(SplittingField, "psi_for", lambda sf, s: sf.field.one())
    with pytest.raises(TheoremError, match="constructed field differs from the fixed field"):
        correspondence.correspondence_lattice(data.sf)
