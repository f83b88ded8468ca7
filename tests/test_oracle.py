"""The Galois group of quadratics and cubics against a classical oracle.

The oracle shares no code with galcert.  It scales a x^n + ... to a
monic integer polynomial with the same splitting field, substituting
x = y / a, and looks for integer roots among the divisors of the
constant term (rational roots of the input).  An irreducible cubic has
group A3 when its discriminant is a square and S3 otherwise; a cubic
with a root has group order 1 or 2 as its quadratic cofactor splits or
not.

The same oracle checks ``certify_symmetric``, Dedekind's certificate of
G = S_n, on its draws and on the benchmark's seeded small_warm inputs.
"""

import sys
from fractions import Fraction
from math import factorial, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from galcert.cli import analyze, normalize_monic_integer, parse_poly
from galcert.errors import InputError
from galcert.poly import is_squarefree
from galcert.resolvent import certify_symmetric


def _monic(coeffs):
    """Ascending coefficients of a^(n-1) f(y / a), a the leading one:
    monic, integral, with the roots of f times a."""
    n = len(coeffs) - 1
    a = coeffs[-1]
    return [c * a ** (n - 1 - k) for k, c in enumerate(coeffs[:-1])] + [1]


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_root(coeffs):
    """An integer root of a monic integer polynomial, or None: each
    divides the constant term, and 0 is one when that term is 0."""
    c0 = coeffs[0]
    if c0 == 0:
        return 0
    for k in range(1, isqrt(abs(c0)) + 1):
        if c0 % k == 0:
            for r in (k, -k, c0 // k, -(c0 // k)):
                if _eval(coeffs, r) == 0:
                    return r
    return None


def _deflate(coeffs, r):
    """The quotient of a monic polynomial by (y - r), by synthetic
    division; r must be a root."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[1:-1]):
        out.append(c + r * out[-1])
    return out[::-1]


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def oracle_group_order(coeffs):
    """|Gal| of a squarefree quadratic or cubic, ascending coefficients."""
    g = _monic(coeffs)
    r = _integer_root(g)
    if len(g) == 3:
        return 1 if r is not None else 2
    if r is not None:
        return 1 if _integer_root(_deflate(g, r)) is not None else 2
    d, c, b = g[:3]
    disc = b * b * c * c - 4 * c ** 3 - 4 * b ** 3 * d - 27 * d * d + 18 * b * c * d
    return 3 if _is_square(disc) else 6


def _text(coeffs):
    """The polynomial as galcert's input text, highest degree first."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            sign = "-" if c < 0 else "+"
            out += f" {sign} {abs(c)}x^{k}" if out else f"{c}x^{k}"
    return out


def test_oracle_on_known_groups():
    assert oracle_group_order([-2, 0, 1]) == 2
    assert oracle_group_order([-4, 0, 1]) == 1
    assert oracle_group_order([-2, 0, 0, 1]) == 6
    assert oracle_group_order([-1, -3, 0, 1]) == 3
    assert oracle_group_order([6, -7, 0, 1]) == 1          # roots 1, 2, -3
    assert oracle_group_order([-2, 2, -1, 1]) == 2         # (x - 1)(x^2 + 2)
    assert oracle_group_order([-1, 0, 0, 2]) == 6          # 2x^3 - 1
    assert oracle_group_order([3, 0, 4]) == 2              # 4x^2 + 3
    assert oracle_group_order([-1, 0, 4]) == 1             # 4x^2 - 1
    assert _text([5, 0, -3, 1]) == "1x^3 - 3x^2 + 5x^0"


_polys = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        st.one_of(st.integers(-30, -1), st.integers(1, 30)),
    )
).map(lambda t: t[0] + [t[1]])


# random draws are mostly S3 cubics and C2 quadratics: the examples
# cover A3 and split cubics too
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_polys)
@example([-1, -3, 0, 1])
@example([1, -2, -1, 1])
@example([6, -7, 0, 1])
@example([0, -4, 0, 2])
def test_group_order_matches_the_oracle(coeffs):
    try:
        report = analyze(_text(coeffs))
    except InputError:
        reject()
    assert report.group_order == oracle_group_order(coeffs)
    assert report.all_passed()


def _integer_coeffs(text):
    """The monic integral form that galcert analyses, via its parser."""
    f, _ = normalize_monic_integer(parse_poly(text))
    return f


# the oracle's draws, also where its group is smaller than S_n: there
# Dedekind's cycle types must never certify S_n, however many primes
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polys)
@example([-1, -3, 0, 1])
@example([1, -2, -1, 1])
@example([6, -7, 0, 1])
@example([-2, 2, -1, 1])
@example([-1, 0, 4])
def test_dedekind_agrees_with_the_oracle(coeffs):
    f = _integer_coeffs(_text(coeffs))
    assume(is_squarefree(f))
    n = len(coeffs) - 1
    assert certify_symmetric(f) == (oracle_group_order(coeffs) == factorial(n))


@pytest.mark.parametrize("seed", [1, 2])
def test_dedekind_certifies_every_small_warm_s_n_field(seed):
    # the benchmark's seeded quadratics and cubics at its default length:
    # 74 of the 75 squarefree ones on either seed are S_n fields, and
    # none of them falls back to the subgroup search
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    count = workloads.input_count(workloads.WORKLOADS["small_warm"], 15)
    symmetric = 0
    for text in workloads.make_inputs("small_warm", seed, count):
        f = _integer_coeffs(text)
        if not is_squarefree(f):
            continue
        coeffs = parse_poly(text).coeffs
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        expected = oracle_group_order([int(c * den) for c in coeffs]) == factorial(f.degree)
        assert certify_symmetric(f) == expected
        symmetric += expected
    assert symmetric == 74
