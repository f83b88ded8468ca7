import hashlib
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galcert import numberfield, resolvent
from galcert.arith import ComplexBall, fixed_mul
from galcert.cli import main, parse_poly, render_json
from galcert.correspondence import correspondence_lattice
from galcert.errors import CertificationError
from galcert.groups import Permutation, symmetric_group
from galcert.numberfield import (
    NumberField,
    NumberFieldElement,
    automorphism_table,
    charpoly,
    compose_mod,
    express_roots,
)
from galcert.poly import UniPoly, gcd
from galcert.resolvent import Ladder, identify_galois, search_resolvent
from galcert.roots import RootSystem, isolate_roots
from galcert.selftest import CORPUS, corpus_pipeline

from helpers import fraction_inverse, xgcd_inverse


def sqrt2_field():
    return NumberField(UniPoly([-2, 0, 1]))


def test_inverse_examples():
    K = sqrt2_field()
    assert K.one().inverse() == K.one()
    root = K.gen()
    assert root.inverse() == K.element([0, Fraction(1, 2)])
    assert (K.one() + root).inverse() == K.element([-1, 1])
    assert (K.one() + root) * K.element([-1, 1]) == K.one()
    # the linear solve agrees with extended Euclid on every corpus field
    rng = random.Random(29)
    for text in CORPUS:
        data = corpus_pipeline(text)
        K = data.sf.field
        seeded = [
            K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(K.degree)])
            for _ in range(3)
        ]
        for x in list(data.roots) + seeded:
            if not x.is_zero():
                assert x.inverse() == xgcd_inverse(x)


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        sqrt2_field().zero().inverse()
    # a zero divisor modulo a reducible modulus: a - 1 has characteristic
    # polynomial t^2 + 2t, whose constant term 0 leaves no inverse
    R = NumberField(UniPoly([-1, 0, 1]))
    with pytest.raises(ZeroDivisionError, match="^element shares a factor with the modulus$"):
        (R.gen() - 1).inverse()


_fraction = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(CORPUS), st.lists(_fraction, min_size=8, max_size=8))
def test_inverse_matches_a_fraction_solve(text, coords):
    # the inverse read off the characteristic polynomial agrees with a
    # Gauss-Jordan solve over Fractions, non-integral coordinates included
    K = corpus_pipeline(text).sf.field
    x = K.element(coords[:K.degree])
    assume(not x.is_zero())
    assert list(x.inverse().coeffs) == fraction_inverse(x)


def _powers(x, k):
    powers = [x.field.one()]
    while len(powers) <= k:
        powers.append(powers[-1] * x)
    return powers


def test_charpoly_reads_minimal_and_characteristic_polynomials():
    K = corpus_pipeline("x^3 - 2").sf.field
    a = K.gen()
    assert charpoly(_powers(a, 6)) == K.modulus
    # a^3 = sqrt(-108) over Q: its minimal polynomial from two powers
    assert charpoly(_powers(a * a * a, 2)) == UniPoly([108, 0, 1])
    # a non-integral element: x = (a + 1) / 2 in Q(sqrt 2) has x^2 - x - 1/4
    x = (sqrt2_field().gen() + 1) * Fraction(1, 2)
    assert charpoly(_powers(x, 2)) == UniPoly([Fraction(-1, 4), -1, 1])


def test_charpoly_refuses_a_power_that_closes_no_subfield():
    # k = 4 does not divide the degree 6 of the field of x^3 - 2
    a = corpus_pipeline("x^3 - 2").sf.field.gen()
    with pytest.raises(CertificationError,
                       match=r"^x\^4 closes no subfield: 4 does not divide the degree 6$"):
        charpoly(_powers(a, 4))


def test_charpoly_refuses_a_trace_of_no_subfield():
    # in Q[a]/(a^4 + a + 1), Tr(a^3) = -3, and k/d = 2/4 of it is no
    # integer: a^3 generates no subfield of degree 2
    K = NumberField(UniPoly([1, 1, 0, 0, 1]))
    cube = K.gen() * K.gen() * K.gen()
    with pytest.raises(CertificationError,
                       match=r"^the trace of x\^1 is not 2 times an integer$"):
        charpoly(_powers(cube, 2))


def test_field_arithmetic_and_powers():
    K = sqrt2_field()
    a = K.gen()
    assert a * a == K.rational(2)
    assert (a + 1) * (a - 1) == K.rational(1)
    assert a * a * a == 2 * a
    assert a * a.inverse() == K.one()
    # every result is one integer vector over one positive denominator
    # with no common factor, and coeffs reads it back as rationals
    half = K.element([Fraction(3, 4), Fraction(-1, 6)])
    third = (a + 1) * Fraction(1, 3)
    for x in (half, half * Fraction(4, 3), half - half, -half * 6, half * half, third):
        assert x.den > 0
        assert int_gcd(x.den, *x.num) == 1
        assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)
    assert (half.num, half.den) == ((9, -2), 12)
    assert (half - half).den == 1
    with pytest.raises(ValueError, match="integer"):
        NumberField(UniPoly([Fraction(1, 2), 0, 1]))
    with pytest.raises(ValueError, match="monic"):
        NumberField(UniPoly([1, 0, 2]))


def test_express_roots_quadratic():
    data = corpus_pipeline("x^2 - 2")
    # enclosures sorted by real part: negative root first
    assert [r.render() for r in data.roots] == ["-a", "a"]


def test_express_roots_cyclotomic_powers():
    data = corpus_pipeline("x^4 + 1")
    K = data.roots[0].field
    first = data.roots[0]
    for r in data.roots:
        square = r * r
        assert square * square == K.rational(-1)
    cube = first * first * first
    expected = {first, cube, -first, -cube}
    assert set(data.roots) == expected


def test_express_roots_cubic_exact_identities():
    data = corpus_pipeline("x^3 - 2")
    K = data.roots[0].field
    f = data.f
    total = K.zero()
    prod = K.one()
    for r in data.roots:
        assert compose_mod(f, r).is_zero()
        total = total + r
        prod = prod * r
    assert total == K.rational(-f[2])
    assert prod == K.rational((-1) ** 3 * f[0])


# one polynomial for each group of the benchmark corpus: C2, C3, S3, C4,
# V4, D4, A4 and the reducible V4; and S4
_EVERY_GROUP = ("x^2 - 2", "x^3 - 3x - 1", "x^3 - 2", "x^4 + x^3 + x^2 + x + 1", "x^4 + 1",
                "x^4 - 2", "x^4 + 8x + 12", "x^4 - 5x^2 + 6", "x^4 - x - 1")


def test_express_roots_reads_integers_not_a_ball_system(monkeypatch):
    # every group's numerators are symmetric functions of the roots,
    # computed from f's coefficients: express_roots makes no ball product
    # and refines no root system.  fixed_mul is patched in every galcert
    # module that binds it, and the same patches count the subgroup search's
    # ball reads, so they do see a ball read where there is one.  The S4
    # report stays the same
    data = {text: identify_galois(search_resolvent(isolate_roots(parse_poly(text))))
            for text in _EVERY_GROUP}
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ComplexBall, "mul", counted("mul", ComplexBall.mul))
    monkeypatch.setattr(RootSystem, "refine", counted("refine", RootSystem.refine))
    for name, module in list(sys.modules.items()):
        if name.startswith("galcert.") and getattr(module, "fixed_mul", None) is fixed_mul:
            monkeypatch.setattr(module, "fixed_mul", counted("fixed_mul", fixed_mul))
    exprs = {text: express_roots(gd) for text, gd in data.items()}
    assert calls == []
    identify_galois(search_resolvent(isolate_roots(UniPoly([-1000003, 0, 0, 0, 1]))))
    assert {"fixed_mul", "refine"} <= set(calls)
    monkeypatch.undo()
    gd = data["x^4 - x - 1"]
    report = correspondence_lattice(automorphism_table(gd, exprs["x^4 - x - 1"]))
    digest = hashlib.sha256(render_json(report).encode()).hexdigest()
    assert digest == "c4282b338256f00070d3a6aee2942df09a634e0b078dff2e83241ed496df129e"


def test_a_linear_polynomial_takes_its_one_numerator():
    # n - 2 roots take a numerator and the last two follow from the trace
    # and the generator; a linear f has one root, which takes its one
    # numerator over R' = 1 in a field of degree 1
    exprs = express_roots(identify_galois(Ladder((0,), isolate_roots(UniPoly([-3, 1])))))
    assert exprs == (3,)
    assert exprs[0].field.degree == 1


_coeff = st.integers(-30, 30)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_coeff, min_size=2, max_size=2), st.lists(_coeff, min_size=3, max_size=3)))
@example([-1, 0])  # x^2 - 1 = (x - 1)(x + 1)
@example([0, -1, 0])  # x^3 - x, three rational roots
@example([6, -7, 0])  # x^3 - 7x + 6 = (x - 1)(x - 2)(x + 3)
@example([-2, 0, 0])  # x^3 - 2, the full S3
@example([0, -2, 0])  # x^3 - 2x = x (x^2 - 2)
@example([-1, -3, 0])  # x^3 - 3x - 1, cyclic
def test_root_expressions_satisfy_vieta(low):
    # checked against the coefficients alone: the expressions sum to
    # -f[n-1], multiply to (-1)^n f[0] and are pairwise distinct
    f = UniPoly(low + [1])
    assume(gcd(f, f.derivative()).degree == 0)
    n = f.degree
    rs = isolate_roots(f)
    gd = identify_galois(search_resolvent(rs))
    roots = express_roots(gd)
    K = roots[0].field
    total, prod = K.zero(), K.one()
    for r in roots:
        total = total + r
        prod = prod * r
    assert total == K.rational(-f[n - 1])
    assert prod == K.rational((-1) ** n * f[0])
    assert len(set(roots)) == n


def test_automorphisms_quadratic():
    data = corpus_pipeline("x^2 - 2")
    sf = data.sf
    K = sf.field
    ident = Permutation((0, 1))
    swap = Permutation((1, 0))
    assert sf.psi_for(ident) == K.gen()
    assert sf.psi_for(swap) == -K.gen()
    assert sf.apply(swap, data.roots[0]) == data.roots[1]
    assert sf.apply(swap, data.roots[1]) == data.roots[0]


def test_automorphisms_cubic_realize_s3():
    data = corpus_pipeline("x^3 - 2")
    sf = data.sf
    perms = {p for p, _ in sf.automorphisms}
    assert perms == set(symmetric_group(3).elements)
    for p, _ in sf.automorphisms:
        for i, r in enumerate(data.roots):
            assert sf.apply(p, r) == data.roots[p(i)]


def test_automorphism_is_a_ring_homomorphism():
    data = corpus_pipeline("x^3 - 2")
    sf = data.sf
    K = sf.field
    rng = random.Random(19)
    elems = [
        K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(K.degree)])
        for _ in range(6)
    ]
    for p, _ in sf.automorphisms:
        for a in elems[:3]:
            for b in elems[3:]:
                assert sf.apply(p, a * b) == sf.apply(p, a) * sf.apply(p, b)
                assert sf.apply(p, a + b) == sf.apply(p, a) + sf.apply(p, b)
        assert sf.apply(p, K.rational(Fraction(7, 3))) == K.rational(Fraction(7, 3))


def test_automorphism_composition_closure():
    data = corpus_pipeline("x^3 - 2")
    sf = data.sf
    K = sf.field
    basis = [K.element([0] * k + [1]) for k in range(K.degree)]
    for p, _ in sf.automorphisms:
        for q, _ in sf.automorphisms:
            combined = p * q
            for b in basis:
                assert sf.apply(p, sf.apply(q, b)) == sf.apply(combined, b)


def test_generator_identity_element():
    data = corpus_pipeline("x^3 - 2")
    sf = data.sf
    ident = Permutation.identity(3)
    assert sf.psi_for(ident) == sf.field.gen()


def test_sends_is_apply_then_compare():
    # sends is the integer identity behind apply(s, x) == y, on the root
    # expressions and seeded elements of the six selftest fields, for
    # every automorphism and every target among them
    rng = random.Random(29)
    for text in CORPUS:
        data = corpus_pipeline(text)
        sf = data.sf
        K = sf.field
        elems = list(data.roots) + [K.rational(Fraction(-3, 5))] + [
            K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)])
            for _ in range(3)
        ]
        for p, _ in sf.automorphisms:
            for x in elems:
                image = sf.apply(p, x)
                assert sf.sends(p, x, image)
                for y in elems:
                    assert sf.sends(p, x, y) == (image == y)


def test_matrix_agrees_with_apply():
    # apply is the stored matrix times the coordinates; substituting the
    # generator's image by Horner is the reference it must agree with
    rng = random.Random(23)
    for text in CORPUS:
        data = corpus_pipeline(text)
        sf = data.sf
        K = sf.field
        elems = list(data.roots) + [
            K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)])
            for _ in range(3)
        ]
        for p, psi in sf.automorphisms:
            mat = sf.matrix(p)
            for x in elems:
                applied = sf.apply(p, x)
                assert applied == compose_mod(x.to_unipoly(), psi)
                coords = [sum(m * Fraction(c) for m, c in zip(row, x.coeffs)) for row in mat]
                assert list(applied.coeffs) == coords


def _misordered(roots, pi):
    """The root expressions with roots[pi(i)] in place i: a = sum w_i E_i,
    which ``express_roots`` certified, fails for pi != id."""
    return tuple(roots[pi(i)] for i in range(len(roots)))


def test_a_misordering_outside_the_group_is_not_a_conjugate():
    # on the D4 quartic a misordering pi outside G sends the generator to
    # theta_(pi s) for each s, a root of R but not of m; the first
    # generator in G's order is the first element that is checked
    data = corpus_pipeline("x^4 - 2")
    group = data.gd.group
    pi = next(p for p in symmetric_group(4) if p not in group)
    first = min(group.generators)
    with pytest.raises(CertificationError,
                       match=rf"image for {re.escape(first.cycle_string())} is not a conjugate"):
        automorphism_table(data.gd, _misordered(data.roots, pi))


def test_a_misordering_inside_the_group_does_not_permute_the_roots():
    # on S3 every misordering pi stays in G: each image theta_(pi s) is a
    # conjugate, but its automorphism moves roots[i] = E_pi(i) to
    # E_(pi s pi)(i), not to roots[s(i)] = E_(pi s)(i)
    data = corpus_pipeline("x^3 - 2")
    first = min(data.gd.group.generators)
    with pytest.raises(CertificationError,
                       match=("does not permute the root expressions as expected for "
                              + re.escape(first.cycle_string()))):
        automorphism_table(data.gd, _misordered(data.roots, Permutation((1, 0, 2))))


def test_automorphism_identities_run_on_the_generators_only(monkeypatch):
    # S4 stores 24 matrices; m(psi) = 0 and the n = 4 root identities,
    # one matrix-vector product each, run for its two generators alone
    gd = identify_galois(search_resolvent(isolate_roots(UniPoly([-1, -1, 0, 0, 1]))))
    roots = express_roots(gd)
    applied = []
    mat_vec = numberfield._mat_vec

    def recorded(field, mat, x):
        applied.append(mat)
        return mat_vec(field, mat, x)

    monkeypatch.setattr(numberfield, "_mat_vec", recorded)
    sf = automorphism_table(gd, roots)
    gens = gd.group.generators
    assert gd.group == symmetric_group(4) and len(gens) == 2
    assert len(sf.matrices) == len(sf.automorphisms) == 24
    perm_of = {id(mat): s for s, mat in sf.matrices.items()}
    assert Counter(perm_of[id(mat)] for mat in applied) == {s: 1 + len(roots) for s in gens}


def test_psi_for_refuses_a_permutation_outside_the_group():
    data = corpus_pipeline("x^4 - 2")
    outside = next(p for p in symmetric_group(4) if p not in data.gd.group)
    with pytest.raises(KeyError, match="is not in the group"):
        data.sf.psi_for(outside)


# sha256 of each input's express_roots tuple, rendered, as the exact
# route for S_n and the ball route for every other group gave it, before
# the one exact route replaced both
_PINNED_EXPRESSIONS = {
    (-1, -1, 0, 0, 1): "c1ff9403a8c8aad6e43038761a965d0705c5b2d4fe23a9c0a4cb216120e3c6b1",
    (-1000000, -1, 0, 0, 1): "c7f89c31f52d261ad237891dc4f960f02898ec64d8fa18c11caaa6d84616119d",
    (-2, 0, 1): "6629ab50240369c70d9ca7b1e1d88ae861fcfcba547d5705f499a46bbb414fd3",
    (-2, 0, 0, 1): "70010907817d6bb2b8c307e66aa9e397ee78464d97eb99be71a9195b08526a88",
    (-1, -3, 0, 1): "d6f0afea6936709b0f3121bcfc19a053d138356d34c9f107938f9ffeb79b482b",
    (-2, 0, 0, 0, 1): "c4742889c2dd269616fcdaba501a62e067c4c1410e36a0355c5ab196072fc88f",
    (1, 0, 0, 0, 1): "d71aaa026da7b5956d1c3acec405d6b39c8fc62d0a39c0a12e37e8bb9aea09da",
    (12, 8, 0, 0, 1): "b4a1e97909c6f902b8005e26f472383255e5f16145276bab019a55dac9d44467",
    (1, 1, 1, 1, 1): "176e1209d91259d7583b535740d32d1aaa47495abcffd4a7be0db8cdbacb6395",
    (6, 0, -5, 0, 1): "3abecb8e6425cebd8ceba21429881ba37edce44a8b1d6b2a7199252cf7e0e14f",
    (-1000003, 0, 0, 0, 1): "c1462edcc5cb819a5b4e1d6fdac354f6490d0c2555573cc96889654b4749308d",
    (2, 0, 1000000, 0, 1): "67a9b0dd2206cae1fec145508a94301df7f7ffa5ddcc4976b57898782be10101",
    (7, -7, 0, 1): "71e5c2ac2e9ab9533cdf92a3500a13797e6e63c5b005113b706ece79cef54f3f",
    (5, 5, 0, 0, 1): "143bf0a8c9764acb36d03b8788e310c6b113428b5120f61baacf56b5ae51bb34",
    (0, -6, 11, -6, 1): "b69c9b6a1e58fae71bd5f9ee7007e01f5e0f87673ad381fdbdc192686d06f599",
    (1, 0, -10, 0, 1): "3ff36bc1f3bf33c93dd76dae90b3a460332ec066318da2691b25953661fd7706",
}


@pytest.mark.parametrize("coeffs", [list(c) for c in _PINNED_EXPRESSIONS])
def test_exact_root_expressions_are_the_ball_route_ones(coeffs):
    # the S4 quartics x^4 - x - 1 and x^4 - x - 10^6 first, then groups
    # S3 to the trivial one: the exact numerators give the expressions
    # that were read off the balls, byte for byte
    gd = identify_galois(search_resolvent(isolate_roots(UniPoly(coeffs))))
    rendered = ", ".join(e.render() for e in express_roots(gd))
    assert hashlib.sha256(rendered.encode()).hexdigest() == _PINNED_EXPRESSIONS[tuple(coeffs)]


def test_a_tampered_trace_fails_the_root_identity(monkeypatch):
    # the last two roots solve two linear equations; a wrong trace still
    # recombines to the generator, and f(E) = 0 catches it
    gd = corpus_pipeline("x^3 - 2").gd
    complete = numberfield._complete
    monkeypatch.setattr(numberfield, "_complete",
                        lambda known, weights, trace, gen: complete(known, weights, trace + 1, gen))
    with pytest.raises(CertificationError, match="not a root of the polynomial"):
        express_roots(gd)


@pytest.mark.parametrize("text", ["x^4 - 2", "x^3 - 3x - 1"])
def test_swapped_root_expressions_are_rejected(monkeypatch, text):
    # swapping the last two root expressions keeps f(E_i) = 0 and the E_i
    # distinct; the generator's recombination sum w_i E_i = a fails
    gd = corpus_pipeline(text).gd
    complete = numberfield._complete

    def swapped(*args):
        *known, e_j, e_k = complete(*args)
        return (*known, e_k, e_j)

    monkeypatch.setattr(numberfield, "_complete", swapped)
    with pytest.raises(CertificationError, match="do not recombine to the generator"):
        express_roots(gd)


def test_a_perturbed_inverse_fails_its_product_check(monkeypatch):
    # the characteristic polynomial comes back one off in its linear
    # coefficient, so the inverse read off it is off by 1/c_0 in its first
    # coordinate: the product x * inv == 1 refuses it
    x = sqrt2_field().gen() + 3
    chi = numberfield.charpoly
    monkeypatch.setattr(numberfield, "charpoly", lambda powers: chi(powers) + UniPoly([0, 1]))
    with pytest.raises(CertificationError, match=r"^inverse failed its check x \* inv == 1$"):
        x.inverse()


def test_a_repeated_root_expression_is_refused(monkeypatch, capsys):
    # the first expression in the second's place: every expression is
    # still a root of f, but they are not pairwise distinct; the CLI exits 3
    # with that message, not the recombination's, which fails too
    accept = numberfield._accept
    monkeypatch.setattr(numberfield, "_accept",
                        lambda exprs, *rest: accept((exprs[0], *exprs[:1], *exprs[2:]), *rest))
    assert main(["analyze", "x^3 - 2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certification failure: root expressions are not pairwise distinct\n"
