import random
from fractions import Fraction
from itertools import permutations

import pytest

from galcert import sympoly
from galcert.numberfield import NumberField
from galcert.poly import MultiPoly, UniPoly
from galcert.sympoly import (
    decompose,
    elementary_polynomial,
    elementary_values,
    expand_elementary,
    substitute_elementary,
)


def is_symmetric(p):
    """The test that ``decompose`` makes first: no adjacent transposition
    of the variables changes p."""
    return sympoly._violating_transposition(p) is None


def test_is_symmetric_basic():
    assert is_symmetric(MultiPoly(2, {(2, 0): 1, (0, 2): 1}))
    assert not is_symmetric(MultiPoly(2, {(2, 1): 1}))


def test_is_symmetric_discriminant_product():
    # (x1-x2)^2 (x1-x3)^2 (x2-x3)^2: expand, then check all 6 permutations
    def diff(i, j):
        t = {}
        e = [0, 0, 0]
        e[i] = 1
        t[tuple(e)] = 1
        e = [0, 0, 0]
        e[j] = 1
        t[tuple(e)] = t.get(tuple(e), 0) - 1
        return MultiPoly(3, t)

    p = MultiPoly.const(3, 1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = diff(i, j)
        p = p * d * d
    for images in permutations(range(3)):
        assert p.permute_vars(list(images)) == p
    assert is_symmetric(p)


def test_decompose_examples_against_expansion_oracle():
    # oracle first: e1^2 - 2 e2 expanded equals x1^2 + x2^2
    e1 = elementary_polynomial(2, 1)
    e2 = elementary_polynomial(2, 2)
    sum_sq = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    assert e1 * e1 - e2.scale(2) == sum_sq
    got = decompose(sum_sq)
    assert got.poly == MultiPoly(2, {(2, 0): 1, (0, 1): -2})

    diff_sq = MultiPoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert e1 * e1 - e2.scale(4) == diff_sq
    assert decompose(diff_sq).poly == MultiPoly(2, {(2, 0): 1, (0, 1): -4})


def test_decompose_e1_identity():
    for n in (1, 2, 3, 4):
        p = elementary_polynomial(n, 1)
        exps = [0] * n
        exps[0] = 1
        assert decompose(p).poly == MultiPoly(n, {tuple(exps): 1})


def test_decompose_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="x1 and x2"):
        decompose(MultiPoly(2, {(2, 1): 1}))


def test_decompose_roundtrip_randomized():
    rng = random.Random(42)
    done = 0
    while done < 60:
        n = rng.randint(2, 4)
        acc = MultiPoly(n)
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(rng.randint(1, 8)):
                exps[rng.randrange(n)] += 1
            coeff = rng.choice([c for c in range(-5, 6) if c])
            orbit = set(permutations(exps))
            acc = acc + MultiPoly(n, {e: coeff for e in orbit})
        if acc.is_zero():
            continue
        assert expand_elementary(decompose(acc)) == acc
        done += 1


def test_elementary_values_rationals():
    assert elementary_values([2, 3]) == [5, 6]
    assert elementary_values([2, 3, 4]) == [9, 26, 24]


def test_elementary_values_in_a_number_field():
    K = NumberField(UniPoly([-2, 0, 1]))
    root = K.gen()
    assert elementary_values([root, -root]) == [K.zero(), K.rational(-2)]


def test_substitute_elementary_examples():
    q = decompose(MultiPoly(2, {(2, 0): 1, (0, 2): 1}))
    assert substitute_elementary(q, [Fraction(0), Fraction(-2)]) == 4

    # Vieta: E1 at a monic polynomial is minus the subleading coefficient
    e1_expr = decompose(elementary_polynomial(3, 1))
    f = UniPoly([5, -7, 3, 1])
    e_values = [(-1) ** j * f[3 - j] for j in range(1, 4)]
    assert substitute_elementary(e1_expr, e_values) == -f[2]

    disc_expr = decompose(MultiPoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1}))
    assert substitute_elementary(disc_expr, [Fraction(0), Fraction(-2)]) == 8


def test_substitute_elementary_length_mismatch():
    q = decompose(MultiPoly(2, {(1, 1): 1}))
    with pytest.raises(ValueError):
        substitute_elementary(q, [Fraction(1)])


def test_vieta_consistency_random_rational_roots():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        f = UniPoly([1])
        for r in roots:
            f = f * UniPoly([-r, 1])
        es = elementary_values(roots)
        for k in range(1, n + 1):
            assert es[k - 1] == (-1) ** k * f[n - k]


def test_base_case_single_variable():
    p = MultiPoly(1, {(3,): 2, (1,): -1})
    q = decompose(p)
    assert q.poly == MultiPoly(1, {(3,): 2, (1,): -1})
    assert expand_elementary(q) == p
