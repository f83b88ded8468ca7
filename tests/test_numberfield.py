import hashlib
import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galcert import numberfield, resolvent
from galcert.arith import ComplexBall
from galcert.cli import render_json
from galcert.correspondence import correspondence_lattice
from galcert.errors import CertificationError
from galcert.groups import Permutation, symmetric_group
from galcert.numberfield import (
    NumberField,
    NumberFieldElement,
    automorphism_table,
    compose_mod,
    express_roots,
)
from galcert.poly import UniPoly, gcd
from galcert.resolvent import identify_galois, search_resolvent
from galcert.roots import isolate_roots
from galcert.selftest import CORPUS, corpus_pipeline

from helpers import xgcd_inverse


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
    with pytest.raises(ZeroDivisionError):
        sqrt2_field().zero().inverse()
    # a zero divisor modulo a reducible modulus: a singular system
    R = NumberField(UniPoly([-1, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        (R.gen() - 1).inverse()


def test_field_arithmetic_and_powers():
    K = sqrt2_field()
    a = K.gen()
    assert a * a == K.rational(2)
    assert (a + 1) * (a - 1) == K.rational(1)
    assert a**3 == 2 * a
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
        assert r**4 == K.rational(-1)
    expected = {first, first**3, -first, -(first**3)}
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


def test_express_roots_reads_integers_not_a_ball_system(monkeypatch):
    # the group of x^4 - x - 1 is S4, so its root numerators are exact
    # and take no ball product.  Read off the balls, as for any other
    # group, they take |G|*(d-1) fixed-point products in synthetic
    # division and n*n*d in the sums, about a thousand at one precision,
    # and no ball polynomial arithmetic.  The report stays the same
    f = UniPoly([-1, -1, 0, 0, 1])
    rs = isolate_roots(f)
    gd = identify_galois(search_resolvent(rs))
    calls, products = [], []
    mul, fixed_mul = ComplexBall.mul, numberfield.fixed_mul

    def counted_mul(self, other, prec):
        calls.append(prec)
        return mul(self, other, prec)

    def counted_fixed_mul(a, b, prec):
        products.append(prec)
        return fixed_mul(a, b, prec)

    monkeypatch.setattr(ComplexBall, "mul", counted_mul)
    monkeypatch.setattr(numberfield, "fixed_mul", counted_fixed_mul)
    roots = express_roots(gd)
    assert calls == products == []
    monkeypatch.setattr(resolvent, "certify_symmetric", lambda f: False)
    searched = identify_galois(search_resolvent(isolate_roots(f)))
    calls.clear()
    blocks = numberfield._ball_numerators(searched)
    monkeypatch.undo()
    assert calls == [] and 0 < len(products) <= 2000
    assert blocks[:2] == numberfield._symmetric_numerators(gd, 2)
    report = correspondence_lattice(automorphism_table(gd, roots))
    digest = hashlib.sha256(render_json(report).encode()).hexdigest()
    assert digest == "c4282b338256f00070d3a6aee2942df09a634e0b078dff2e83241ed496df129e"


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


@pytest.mark.parametrize("coeffs", [[-1, -1, 0, 0, 1], [-1000000, -1, 0, 0, 1]])
def test_exact_root_expressions_are_the_ball_route_ones(coeffs):
    # for G = S4 the numerators of P_0 and P_1 come from power sums and
    # the last two roots from the trace and the generator; reading all
    # four numerators off the balls gives the same expressions
    f = UniPoly(coeffs)
    gd = identify_galois(search_resolvent(isolate_roots(f)))
    assert gd.group == symmetric_group(4)
    exact = express_roots(gd)
    balls = numberfield._ball_numerators(gd)
    assert numberfield._symmetric_numerators(gd, 2) == balls[:2]
    dm_inv = NumberField(gd.min_poly).element(gd.min_poly.derivative().coeffs).inverse()
    assert tuple(NumberFieldElement(exact[0].field, num) * dm_inv for num in balls) == exact


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
def test_swapped_ball_numerators_are_rejected(monkeypatch, text):
    # swapping two roots' numerator blocks keeps f(E_i) = 0 and the E_i
    # distinct; the generator's recombination sum w_i E_i = a fails
    gd = corpus_pipeline(text).gd
    read = numberfield._ball_numerators

    def swapped(gd):
        blocks = read(gd)
        blocks[1], blocks[2] = blocks[2], blocks[1]
        return blocks

    monkeypatch.setattr(numberfield, "_ball_numerators", swapped)
    with pytest.raises(CertificationError, match="do not recombine to the generator"):
        express_roots(gd)
