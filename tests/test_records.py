"""Value semantics of the record classes: constructors and defaults,
validation, immutability of the frozen ones, and equality and hashing over
the fields that identify a value."""

import copy
import pickle

import pytest

from galcert.cli import AnalysisConfig
from galcert.correspondence import CorrespondenceReport, Subfield, SubgroupEntry
from galcert.errors import InputError
from galcert.groups import Arrangement, ArrangementGroup, Permutation
from galcert.numberfield import SplittingField
from galcert.resolvent import GaloisData, ResolventSpec
from galcert.roots import RootSystem
from galcert.selftest import corpus_pipeline


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


def test_analysis_config_defaults_and_validation():
    cfg = AnalysisConfig()
    assert (cfg.precision_bits, cfg.resolvent_norm_bound, cfg.output_format,
            cfg.emit_array, cfg.seed_spec) == (128, 8, "text", False, None)
    assert AnalysisConfig(256, 4, "json", True, (0, 1)) == AnalysisConfig(
        precision_bits=256, resolvent_norm_bound=4, output_format="json",
        emit_array=True, seed_spec=(0, 1))
    assert AnalysisConfig() != AnalysisConfig(emit_array=True)
    assert "seed_spec=None" in repr(cfg)
    for bad in ({"precision_bits": 63}, {"precision_bits": 65537},
                {"resolvent_norm_bound": 0}, {"output_format": "xml"}):
        with pytest.raises(InputError):
            AnalysisConfig(**bad)
    # a mutable record: assignment works, so it has no hash
    cfg.emit_array = True
    assert cfg == AnalysisConfig(emit_array=True)
    with pytest.raises(TypeError):
        hash(cfg)


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
    spec = ResolventSpec([True, 1.0, 2])
    assert spec.weights == (1, 1, 2) and all(type(w) is int for w in spec.weights)
    assert spec == ResolventSpec(weights=(1, 1, 2)) and hash(spec) == hash(ResolventSpec((1, 1, 2)))
    assert repr(spec) == "ResolventSpec(weights=(1, 1, 2))"
    _assert_frozen(spec, "weights")

    gd = cubic.gd
    same = GaloisData(gd.spec, gd.min_poly, gd.gen_ball, gd.group, gd.resolvent)
    assert same == gd and hash(same) == hash(gd)
    assert GaloisData(spec=gd.spec, min_poly=gd.min_poly, gen_ball=gd.gen_ball,
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
    sub = cubic.report.entries[0].subfield
    assert sub.generators and sub.dim == 6
    bare = Subfield(sub.field, sub.basis)
    assert bare.generators == ()
    assert bare == sub and hash(bare) == hash(sub)
    assert Subfield(field=sub.field, basis=sub.basis[:1], generators=sub.generators) != sub
    _assert_frozen(sub, "basis")


def test_lattice_records_are_mutable_values(cubic):
    report = cubic.report
    e = report.entries[0]
    fields = (e.subgroup, e.dim, e.subfield, e.primitive, e.primitive_min_poly,
              e.fixed_field_equal)
    entry = SubgroupEntry(*fields)
    assert entry == e and entry != SubgroupEntry(*fields[:-1], not e.fixed_field_equal)
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
    for obj in (block, Arrangement((2, 0, 1)), cubic.spec, sub):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert twin == obj
    assert pickle.loads(pickle.dumps(block)).rep == block.rep
    assert pickle.loads(pickle.dumps(sub)).generators == sub.generators
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
    assert (twin.spec, twin.min_poly, twin.group, twin.resolvent) == (
        gd.spec, gd.min_poly, gd.group, gd.resolvent)
    ball, twin_ball = gd.gen_ball, twin.gen_ball
    assert (twin_ball.x, twin_ball.y, twin_ball.r, twin_ball.exp) == (
        ball.x, ball.y, ball.r, ball.exp)
    # the mutable records too, the config through its validation
    for obj in (AnalysisConfig(256, 4, "json", True, (0, 1)), cubic.report.entries[0]):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert twin == obj and twin is not obj


def test_records_repr_every_field(cubic):
    records = (
        AnalysisConfig(), Arrangement((2, 0, 1)),
        ArrangementGroup((Arrangement((1, 0)), Arrangement((0, 1))), rep=Permutation((1, 0))),
        cubic.spec, cubic.gd, cubic.rs, cubic.sf, cubic.report.entries[0].subfield,
        cubic.report.entries[0], cubic.report,
    )
    assert len({type(obj) for obj in records}) == 10
    for obj in records:
        text = repr(obj)
        assert text.startswith(f"{type(obj).__name__}(")
        for name in type(obj).__slots__:
            assert f"{name}={getattr(obj, name)!r}" in text
