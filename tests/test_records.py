"""Value semantics of the record classes: constructors and defaults,
validation, immutability of the frozen ones, and equality and hashing over
the fields that identify a value."""

import copy
import pickle

import pytest

from galcert.correspondence import (
    CorrespondenceReport,
    Subfield,
    SubgroupEntry,
    _closure,
)
from galcert.groups import Arrangement, ArrangementGroup, Permutation
from galcert.numberfield import SplittingField
from galcert.resolvent import GaloisData
from galcert.roots import RootSystem
from galcert.selftest import corpus_pipeline
from galcert.sympoly import elementary_values


@pytest.fixture(scope="module")
def cubic():
    return corpus_pipeline("x^3 - 2")


def _assert_frozen(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert getattr(obj, name) is before


def test_arrangement_records():
    a = Arrangement((2, 0, 1))
    assert a == Arrangement(order=(2, 0, 1)) and hash(a) == hash(Arrangement((2, 0, 1)))
    assert a != Arrangement((0, 1, 2)) and a != (2, 0, 1)
    assert repr(a) == "Arrangement(order=(2, 0, 1))"
    for bad in ((0, 0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not an arrangement"):
            Arrangement(bad)
    _assert_frozen(a, "order")

    rows = (Arrangement((1, 0)), Arrangement((0, 1)))
    block = ArrangementGroup(rows, rep=Permutation((1, 0)))
    assert block.rows == tuple(sorted(rows)) and len(block) == 2
    # the coset representative is outside equality and hashing
    plain = ArrangementGroup(rows)
    assert plain.rep is None
    assert block == plain and hash(block) == hash(plain)
    with pytest.raises(ValueError, match="not closed"):
        ArrangementGroup((Arrangement((0, 1, 2)), Arrangement((1, 2, 0))))
    _assert_frozen(block, "rows")
    _assert_frozen(block, "rep")


def test_resolvent_records(cubic):
    gd = cubic.gd
    assert gd.weights == gd.ladder.weights == (0, 1, 2)
    # the ladder of conjugate balls is outside equality and hashing
    same = GaloisData(gd.weights, gd.min_poly, None, gd.group, gd.resolvent)
    assert same == gd and hash(same) == hash(gd)
    assert GaloisData(weights=gd.weights, min_poly=gd.min_poly, ladder=gd.ladder,
                      group=gd.group, resolvent=gd.min_poly * gd.min_poly) != gd
    _assert_frozen(gd, "group")


def test_root_system_records(cubic):
    rs = cubic.rs
    same = RootSystem(rs.poly, rs.enclosures, rs.precision_bits)
    assert same == rs and hash(same) == hash(rs)
    assert RootSystem(poly=rs.poly, enclosures=rs.enclosures, precision_bits=64) != rs
    _assert_frozen(rs, "enclosures")
    # refining to the system's own precision or below returns the system
    for bits in (64, rs.precision_bits):
        assert rs.refine(bits) is rs
    finer = rs.refine(2 * rs.precision_bits)
    assert finer.precision_bits == 2 * rs.precision_bits and finer.poly == rs.poly


def test_splitting_field_equality_ignores_the_matrices(cubic):
    sf = cubic.sf
    args = (sf.galois, sf.field, sf.poly, sf.root_exprs, sf.automorphisms)
    bare = SplittingField(*args, matrices={})
    assert bare == sf and hash(bare) == hash(sf)
    assert SplittingField(*args[:4], sf.automorphisms[:1], sf.matrices) != sf
    _assert_frozen(sf, "matrices")


def test_subfield_equality_ignores_the_generators(cubic):
    # the lattice builds a subfield from its primitive's powers, and the
    # worklist closure from all |H| elementary values: equal all the same
    sub = cubic.report.entries[0].subfield
    assert sub.dim == 6
    for e in cubic.report.entries[1:]:
        values = elementary_values([cubic.sf.psi_for(s) for s in e.subgroup])
        assert len(values) == e.subgroup.order
        closed = Subfield(sub.field, _closure(sub.field, values))
        assert closed == e.subfield and hash(closed) == hash(e.subfield)
        powers = [sub.field.one()]
        while len(powers) < e.dim:
            powers.append(powers[-1] * e.primitive)
        assert Subfield.from_elements(sub.field, powers) == e.subfield
    assert sub.rows == tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    bare = Subfield(sub.field, sub.rows)
    assert bare == sub and hash(bare) == hash(sub)
    assert Subfield(field=sub.field, rows=sub.rows[:1]) != sub
    _assert_frozen(sub, "rows")


def test_lattice_records_are_mutable_values(cubic):
    report = cubic.report
    e = report.entries[0]
    fields = (e.subgroup, e.dim, e.subfield, e.primitive, e.primitive_min_poly)
    entry = SubgroupEntry(*fields)
    assert entry == e and entry != SubgroupEntry(e.subgroup, e.dim + 1, *fields[2:])
    with pytest.raises(TypeError):
        hash(entry)

    copy = CorrespondenceReport(
        polynomial=report.polynomial, input_polynomial=report.input_polynomial,
        scale=report.scale, weights=report.weights, min_poly=report.min_poly,
        group=report.group, entries=list(report.entries), checks=list(report.checks))
    assert copy.arrangement_arrays is None
    assert copy == report
    copy.arrangement_arrays = ["block"]
    assert copy != report
    with pytest.raises(TypeError):
        hash(copy)


def test_frozen_records_pickle_and_copy(cubic):
    # they refuse attribute assignment, so they are rebuilt through their
    # constructors, the fields outside equality included
    block = ArrangementGroup((Arrangement((1, 0)), Arrangement((0, 1))), rep=Permutation((1, 0)))
    sub = cubic.report.entries[0].subfield
    for obj in (block, Arrangement((2, 0, 1)), sub):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert twin == obj
    assert pickle.loads(pickle.dumps(block)).rep == block.rep
    # balls compare by identity, so records holding them are compared
    # field by field
    rs = pickle.loads(pickle.dumps(cubic.rs))
    assert (rs.poly, rs.precision_bits) == (cubic.rs.poly, cubic.rs.precision_bits)
    sf = pickle.loads(pickle.dumps(cubic.sf))
    assert sf.galois.group == cubic.sf.galois.group and sf.matrices == cubic.sf.matrices
    assert copy.copy(cubic.sf).matrices is cubic.sf.matrices
    assert pickle.loads(pickle.dumps(cubic.report)) == cubic.report

    gd = cubic.gd
    assert copy.copy(gd) == gd
    twin = pickle.loads(pickle.dumps(gd))
    assert (twin.weights, twin.min_poly, twin.group, twin.resolvent) == (
        gd.weights, gd.min_poly, gd.group, gd.resolvent)
    identity = Permutation.identity(3)
    ball, twin_ball = gd.ladder.base[1][identity], twin.ladder.base[1][identity]
    assert (twin_ball.x, twin_ball.y, twin_ball.r, twin_ball.exp) == (
        ball.x, ball.y, ball.r, ball.exp)
    # the mutable records too
    entry = cubic.report.entries[0]
    for twin in (pickle.loads(pickle.dumps(entry)), copy.copy(entry)):
        assert twin == entry and twin is not entry


def test_records_repr_every_field(cubic):
    records = (
        Arrangement((2, 0, 1)),
        ArrangementGroup((Arrangement((1, 0)), Arrangement((0, 1))), rep=Permutation((1, 0))),
        cubic.gd, cubic.rs, cubic.sf, cubic.report.entries[0].subfield,
        cubic.report.entries[0], cubic.report,
    )
    assert len({type(obj) for obj in records}) == 8
    for obj in records:
        text = repr(obj)
        assert text.startswith(f"{type(obj).__name__}(")
        for name in type(obj).__slots__:
            assert f"{name}={getattr(obj, name)!r}" in text
