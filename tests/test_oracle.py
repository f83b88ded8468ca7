"""The Galois group of quadratics, cubics and quartics against a
classical oracle.

The oracle shares no code with galcert.  It scales a x^n + ... to a
monic integer polynomial with the same splitting field, substituting
x = y / a, and looks for integer roots among the divisors of the
constant term (rational roots of the input).  An irreducible cubic has
group A3 when its discriminant is a square and S3 otherwise; a cubic
with a root has group order 1 or 2 as its quadratic cofactor splits or
not.

The same oracle checks ``certify_symmetric``, Dedekind's certificate of
G = S_n, on its draws and on the benchmark's seeded small_warm inputs.

A monic integer quartic with an integer root leaves a cubic.  One that
splits into two integer quadratics has group C2 or V4 as the product of
their discriminants is a square or not.  Otherwise it is irreducible, and
its resolvent cubic, with the roots a1 a2 + a3 a4 and their conjugates,
decides: no rational root gives A4 or S4 by the discriminant, three give
V4, and one root r gives C4 or D4 by Kappe & Warren (Amer. Math. Monthly
96, 1989).  The test compares the group's order, whether it is cyclic and
whether it is transitive, and checks one-sidedly that each cycle type
mod a good prime occurs in the group: the number of roots in GF(p), and
for none Stickelberger's theorem, give the type.
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
from galcert.poly import UniPoly, is_squarefree
from galcert.resolvent import Roots, certify_symmetric, identify_galois, roots_mod, search_resolvent
from galcert.roots import isolate_roots


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
    return 3 if _is_square(_cubic_discriminant(g)) else 6


def _cubic_discriminant(g):
    """The discriminant of the monic cubic with ascending coefficients g."""
    d, c, b = g[:3]
    return b * b * c * c - 4 * c ** 3 - 4 * b ** 3 * d - 27 * d * d + 18 * b * c * d


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


# -- quartics -----------------------------------------------------------------

def _resolvent_cubic(g):
    """The resolvent cubic of the monic quartic x^4 + bx^3 + cx^2 + dx + e,
    ascending, whose roots are a1 a2 + a3 a4, a1 a3 + a2 a4 and
    a1 a4 + a2 a3; it has the quartic's discriminant."""
    e, d, c, b = g[:4]
    return [-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1]


def _rational_roots(cubic):
    """The integer roots of a squarefree monic integer cubic, ascending."""
    r = _integer_root(cubic)
    if r is None:
        return []
    q0, q1, _ = _deflate(cubic, r)
    disc = q1 * q1 - 4 * q0
    if not _is_square(disc):
        return [r]
    s = isqrt(disc)
    return sorted([r, (-q1 - s) // 2, (-q1 + s) // 2])


def _square_in(q, field_disc):
    """Whether the integer q is a square in Q(sqrt(field_disc)), for a
    field_disc that is not a square in Q."""
    return _is_square(q) or _is_square(q * field_disc)


def _quadratic_pair(g):
    """Monic integer quadratics (q, p) and (t, s), ascending, whose product
    is the monic quartic g, or None; g has no integer root."""
    e, d, c, b = g[:4]
    for k in range(1, abs(e) + 1):
        if e % k:
            continue
        for q in (k, -k):
            t = e // q
            if t != q:
                p, rest = divmod(d - q * b, t - q)
                candidates = [] if rest else [p]
            else:
                # p t + q s = q b holds for every split p + s = b
                disc = b * b - 4 * (c - 2 * q)
                candidates = [(b + isqrt(disc)) // 2] if _is_square(disc) else []
            for p in candidates:
                s = b - p
                if q + t + p * s == c and p * t + q * s == d:
                    return (q, p), (t, s)
    return None


def oracle_quartic(g):
    """(order, cyclic, transitive) of the Galois group of the squarefree
    monic integer quartic g, ascending coefficients, on its four roots."""
    r = _integer_root(g)
    if r is not None:
        order = oracle_group_order(_deflate(g, r))
        return order, order != 6, False
    pair = _quadratic_pair(g)
    if pair is not None:
        (q, p), (t, s) = pair
        same = _is_square((p * p - 4 * q) * (s * s - 4 * t))
        return (2, True, False) if same else (4, False, False)
    cubic = _resolvent_cubic(g)
    disc = _cubic_discriminant(cubic)
    roots = _rational_roots(cubic)
    if not roots:
        return (12, False, True) if _is_square(disc) else (24, False, True)
    if len(roots) == 3:
        return 4, False, True
    # Kappe & Warren: C4 exactly when x^2 - r x + e and x^2 + b x + (c - r)
    # both split over Q(sqrt(disc))
    [r] = roots
    e, _, c, b = g[:4]
    if _square_in(r * r - 4 * e, disc) and _square_in(b * b - 4 * (c - r), disc):
        return 4, True, True
    return 8, False, True


def _cycle_type_mod(g, p, disc):
    """The degrees of the factors of the quartic g mod an odd prime p that
    does not divide disc: the roots in GF(p) by evaluation, and for none
    Stickelberger's theorem, (disc / p) = (-1)^(4 - number of factors).
    Mod 2 only the count of 1s, the roots, is right."""
    roots = sum(_eval(g, x) % p == 0 for x in range(p))
    if roots:
        return {4: (1, 1, 1, 1), 2: (1, 1, 2), 1: (1, 3)}[roots]
    return (2, 2) if pow(disc, (p - 1) // 2, p) == 1 else (4,)


def _group_type(group):
    """(order, cyclic, transitive) of a permutation group, with each
    element's cycle type, from the images alone."""
    types = set()
    cyclic = False
    for s in group:
        images, seen, lengths = s.images, set(), []
        for i in range(len(images)):
            j, size = i, 0
            while j not in seen:
                seen.add(j)
                j, size = images[j], size + 1
            if size:
                lengths.append(size)
        types.add(tuple(sorted(lengths)))
        cyclic = cyclic or lcm(*lengths) == group.order
    orbit = {s.images[0] for s in group}
    return (group.order, cyclic, len(orbit) == group.n), types


def test_quartic_oracle_on_known_groups():
    assert oracle_quartic([-1, -1, 0, 0, 1]) == (24, False, True)     # x^4 - x - 1
    assert oracle_quartic([12, 8, 0, 0, 1]) == (12, False, True)      # x^4 + 8x + 12
    assert oracle_quartic([-2, 0, 0, 0, 1]) == (8, False, True)       # x^4 - 2
    assert oracle_quartic([1, 1, 1, 1, 1]) == (4, True, True)         # x^4 + ... + 1
    assert oracle_quartic([1, 0, 0, 0, 1]) == (4, False, True)        # x^4 + 1
    assert oracle_quartic([6, 0, -5, 0, 1]) == (4, False, False)      # (x^2 - 2)(x^2 - 3)
    assert oracle_quartic([16, 0, -10, 0, 1]) == (2, True, False)     # (x^2 - 2)(x^2 - 8)
    assert oracle_quartic([2, -2, 0, -1, 1]) == (6, False, False)     # (x - 1)(x^3 - 2)
    assert oracle_quartic([0, -1, 0, 0, 1]) == (2, True, False)       # x (x^3 - 1)
    assert oracle_quartic([4, 0, -5, 0, 1]) == (1, True, False)       # (x^2 - 1)(x^2 - 4)
    assert _quadratic_pair([4, 4, 5, 2, 1]) == ((2, 1), (2, 1))       # (x^2 + x + 2)^2
    assert _cycle_type_mod([-1, -1, 0, 0, 1], 3, -283) == (4,)
    assert _cycle_type_mod([-1, -1, 0, 0, 1], 7, -283) == (1, 3)
    assert _cycle_type_mod([1, 0, 0, 0, 1], 3, 256) == (2, 2)


def _quartic_discriminant(g):
    return _cubic_discriminant(_resolvent_cubic(g))


# random draws are mostly S4; the examples cover every other group, on
# four roots and on fewer orbits
@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
@example([12, 8, 0, 0])                  # A4
@example([-2, 0, 0, 0])                  # D4
@example([1, 1, 1, 1])                   # C4
@example([1, 0, 0, 0])                   # V4
@example([6, 0, -5, 0])                  # (x^2 - 2)(x^2 - 3)
@example([16, 0, -10, 0])                # (x^2 - 2)(x^2 - 8)
@example([2, -2, 0, -1])                 # (x - 1)(x^3 - 2)
@example([1, 2, -3, -1])                 # (x - 1)(x^3 - 3x - 1)
@example([0, -1, 0, 0])                  # x (x - 1)(x^2 + x + 1)
@example([4, 0, -5, 0])                  # (x^2 - 1)(x^2 - 4)
def test_quartic_group_matches_the_oracle(low):
    g = low + [1]
    disc = _quartic_discriminant(g)
    assume(disc != 0)
    group = identify_galois(search_resolvent(Roots(UniPoly(g), isolate_roots))).group
    kind, types = _group_type(group)
    assert kind == oracle_quartic(g)
    good = [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if disc % p][:8]
    for p in good:
        assert _cycle_type_mod(g, p, disc) in types


_PRIMES = [q for q in range(2, 100) if all(q % r for r in range(2, q))]


# the root count that certify_symmetric reads mod each good prime: a
# quartic's is read off its factor degrees, a cubic's by evaluation
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=4))
@example([-1, -1, 0, 0])                 # x^4 - x - 1
@example([1, 0, 0, 0])                   # x^4 + 1
@example([-4, 1, -3, 4])                 # x^4 + 4x^3 - 3x^2 + x - 4
@example([-2, 0, 0])                     # x^3 - 2
@example([-1, -3, 0])                    # x^3 - 3x - 1
def test_roots_mod_matches_the_factor_degrees(low):
    g = low + [1]
    quartic = len(g) == 5
    disc = _quartic_discriminant(g) if quartic else _cubic_discriminant(g)
    assume(disc != 0)
    for p in [p for p in _PRIMES if disc % p][:8]:
        if quartic:
            roots = _cycle_type_mod(g, p, disc).count(1)
        else:
            roots = sum(_eval(g, x) % p == 0 for x in range(p))
        assert roots_mod(UniPoly(g), p) == roots
