import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from galcert.groups import (
    Arrangement,
    ArrangementGroup,
    PermGroup,
    Permutation,
    all_subgroups,
    arrangement_array,
    closure,
    substitution_group,
    symmetric_group,
    transition,
)


def perm(*images):
    return Permutation(images)


def klein_four():
    return PermGroup([perm(0, 1, 2, 3), perm(1, 0, 3, 2), perm(2, 3, 0, 1), perm(3, 2, 1, 0)])


def alternating_four():
    return closure([perm(1, 2, 0, 3), perm(0, 2, 3, 1)])


def test_permutation_composition_convention():
    p = perm(1, 2, 0)  # 0->1->2->0
    q = perm(1, 0, 2)  # swap 0,1
    assert (p * q).images == tuple(p(q(i)) for i in range(3))
    assert p * p.inverse() == Permutation.identity(3)


def test_closure_examples():
    assert closure([perm(1, 0)]).order == 2
    s3 = closure([perm(1, 0, 2), perm(1, 2, 0)])
    assert s3 == symmetric_group(3)
    assert closure([], n=4).order == 1


def test_group_validation():
    with pytest.raises(ValueError, match="closed"):
        PermGroup([perm(0, 1, 2), perm(1, 0, 2), perm(0, 2, 1)])
    with pytest.raises(ValueError):
        PermGroup([perm(0, 1, 2), perm(1, 2, 0)])
    with pytest.raises(ValueError, match="identity"):
        PermGroup([perm(1, 0)])


def test_all_subgroups_counts():
    s3 = symmetric_group(3)
    subs = all_subgroups(s3)
    assert len(subs) == 6
    assert [g.order for g in subs] == [1, 2, 2, 2, 3, 6]

    z2 = closure([perm(1, 0)])
    assert len(all_subgroups(z2)) == 2

    a4 = alternating_four()
    subs4 = all_subgroups(a4)
    assert len(subs4) == 10
    assert sorted(g.order for g in subs4) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]

    # a dihedral group of order 8 inside S4
    d4 = closure([perm(1, 2, 3, 0), perm(0, 3, 2, 1)])
    subs_d4 = all_subgroups(d4)
    assert len(subs_d4) == 10
    assert [g.order for g in subs_d4] == [1] + [2] * 5 + [4] * 3 + [8]
    assert all(g.is_subgroup_of(d4) for g in subs_d4)


def _pair_closures(g):
    # every group of degree <= 4 is generated by two of its elements
    subs = {closure([a, b]) for a in g for b in g}
    return sorted(subs, key=PermGroup.sort_key)


def test_all_subgroups_matches_the_closures_of_all_pairs():
    s4 = symmetric_group(4)
    for g in [symmetric_group(3), s4] + all_subgroups(s4):
        assert all_subgroups(g) == _pair_closures(g)


def test_subgroups_carry_their_join_generators():
    d4 = closure([perm(1, 2, 3, 0), perm(0, 3, 2, 1)])
    for g in (symmetric_group(3), d4, alternating_four(), symmetric_group(4)):
        for h in all_subgroups(g):
            assert set(h.generators) <= set(h.elements)
            # at most two joins reach any subgroup of degree <= 4
            assert len(h.generators) <= 2
            assert closure(h.generators, n=h.n) == h


def test_constructed_groups_carry_a_generating_set():
    klein = klein_four()
    assert klein.generators == klein.elements
    gens = [perm(1, 2, 0, 3), perm(0, 2, 3, 1)]
    a4 = closure(gens)
    assert list(a4.generators) == gens
    assert closure(a4.generators) == a4
    trivial = closure([], n=3)
    assert closure(trivial.generators) == trivial
    # the generating set is not part of the group's identity
    same = PermGroup(a4.elements)
    assert same.generators != a4.generators
    assert same == a4 and hash(same) == hash(a4)
    # S_n carries a transposition and an n-cycle, not its n! elements
    for n in range(1, 5):
        sn = symmetric_group(n)
        assert len(sn.generators) <= 2
        assert closure(sn.generators, n=n) == sn
        assert sn.elements == PermGroup(Permutation(p) for p in permutations(range(n))).elements


def test_all_subgroups_returns_a_fresh_list():
    s3 = symmetric_group(3)
    subs = all_subgroups(s3)
    subs.pop()
    assert len(all_subgroups(s3)) == 6
    assert all_subgroups(s3) is not all_subgroups(s3)


def test_all_subgroups_cap():
    with pytest.raises(ValueError, match="cap"):
        all_subgroups(symmetric_group(5))


def test_subgroups_are_subgroups_and_sorted():
    s4 = symmetric_group(4)
    subs = all_subgroups(s4)
    assert len(subs) == 30
    orders = [g.order for g in subs]
    assert orders == [1] + [2] * 9 + [3] * 4 + [4] * 7 + [6] * 4 + [8] * 3 + [12, 24]
    assert subs == sorted(subs, key=PermGroup.sort_key)
    assert len(set(subs)) == 30
    for g in subs:
        assert g.is_subgroup_of(s4)


def test_transition_and_action():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = Arrangement(tuple(rng.sample(range(n), n)))
        b = Arrangement(tuple(rng.sample(range(n), n)))
        s = transition(a, b)
        assert a.act(s) == b
        # acting by p then q equals acting by the product q * p
        p = Permutation(tuple(rng.sample(range(n), n)))
        q = Permutation(tuple(rng.sample(range(n), n)))
        assert a.act(p).act(q) == a.act(q * p)


def test_arrangement_array_trivial_blocks():
    s3 = symmetric_group(3)
    base = Arrangement((0, 1, 2))
    whole = arrangement_array(s3, s3, base)
    assert len(whole) == 1 and len(whole[0]) == 6

    singles = arrangement_array(s3, closure([], n=3), base)
    assert len(singles) == 6 and all(len(b) == 1 for b in singles)
    for blk in singles:
        assert substitution_group(blk).order == 1


def test_arrangement_array_lagrange_and_conjugation():
    s3 = symmetric_group(3)
    base = Arrangement((0, 1, 2))
    for h in all_subgroups(s3):
        blocks = arrangement_array(s3, h, base)
        assert len(blocks) * h.order == s3.order
        for blk in blocks:
            got = substitution_group(blk)
            rep = blk.rep
            conj = PermGroup([rep * t * rep.inverse() for t in h])
            assert got == conj
        # the block containing the base row recovers the subgroup itself
        home = next(b for b in blocks if base in b.rows)
        assert substitution_group(home) == h


def test_arrangement_array_quartic_example():
    blocks = arrangement_array(alternating_four(), klein_four(), Arrangement((0, 1, 2, 3)))
    assert len(blocks) == 3
    assert all(len(b) == 4 for b in blocks)
    rows = [r for b in blocks for r in b.rows]
    assert len(set(rows)) == 12
    for b in blocks:
        assert substitution_group(b) == klein_four()


def test_arrangement_array_requires_subgroup():
    s3 = symmetric_group(3)
    z2 = closure([perm(1, 0)])
    with pytest.raises(ValueError, match="subgroup"):
        arrangement_array(z2, s3, Arrangement((0, 1, 2)))


def test_substitution_group_full_orbit():
    s3 = symmetric_group(3)
    base = Arrangement((0, 1, 2))
    orbit = ArrangementGroup(tuple(base.act(p) for p in s3))
    assert substitution_group(orbit) == s3


def test_closure_validator_reports_witness():
    rows = (Arrangement((0, 1, 2)), Arrangement((1, 2, 0)))
    with pytest.raises(ValueError, match="not closed"):
        ArrangementGroup(rows)


def test_random_nonclosed_subsets_are_rejected():
    rng = random.Random(9)
    s3 = symmetric_group(3)
    base = Arrangement((0, 1, 2))
    all_rows = [base.act(p) for p in s3]
    found_invalid = 0
    for _ in range(40):
        k = rng.randint(2, 5)
        rows = tuple(rng.sample(all_rows, k))
        try:
            ArrangementGroup(rows)
        except ValueError:
            found_invalid += 1
    assert found_invalid > 0


@lru_cache(maxsize=None)
def _swept(rows):
    """The ValueError text of the sweep over all triples of the sorted
    rows, or None if it accepts: the reference for the first-row check."""
    for a in rows:
        for b in rows:
            s = transition(a, b)
            for c in rows:
                if c.act(s) not in rows:
                    return ("not closed: the substitution taking "
                            f"{a.order} to {b.order} moves {c.order} outside the set")
    return None


def _checked(rows):
    try:
        ArrangementGroup(rows)
    except ValueError as exc:
        return str(exc)
    return None


def test_first_row_closure_matches_the_sweep_over_all_triples():
    base3 = Arrangement((0, 1, 2))
    rows3 = [base3.act(p) for p in symmetric_group(3)]
    subsets = [c for k in range(len(rows3) + 1) for c in combinations(rows3, k)]
    assert len(subsets) == 64
    base4 = Arrangement((0, 1, 2, 3))
    rows4 = [base4.act(p) for p in symmetric_group(4)]
    rng = random.Random(24)
    subsets += [tuple(rng.sample(rows4, rng.randint(1, 24))) for _ in range(2000)]
    accepted = 0
    for rows in subsets:
        want = _swept(tuple(sorted(rows)))
        assert _checked(rows) == want, rows
        accepted += want is None
    # S3's 19 closed subsets are the empty one and the 18 cosets of its 6
    # subgroups; the S4 samples add closed singletons, pairs and whole orbits
    assert _checked(()) is None and accepted > 19


def test_substitution_group_reads_the_first_row():
    s4 = symmetric_group(4)
    subs = all_subgroups(s4)
    assert len(subs) == 30
    base = Arrangement((2, 0, 3, 1))
    for h in subs:
        for blk in arrangement_array(s4, h, base):
            pairs = PermGroup({transition(a, b) for a in blk.rows for b in blk.rows})
            assert substitution_group(blk) == pairs
            assert _swept(blk.rows) is None
