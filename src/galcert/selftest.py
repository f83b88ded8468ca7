"""Acceptance suite: every criterion the artifact promises, run exactly.

Each criterion function returns (passed, detail).  The CLI `selftest`
subcommand and the pytest acceptance module both drive these, so the
pipeline work per corpus polynomial is cached and shared.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from types import SimpleNamespace

from .arith import ComplexBall, abs_bound, ball_disjoint, nth_root_upper
from .cli import parse_poly
from .correspondence import (
    averaging_check,
    correspondence_lattice,
    field_from_subgroup,
    fixed_field,
    primitive_independence_check,
)
from .groups import (Arrangement, PermGroup, Permutation, all_subgroups, arrangement_array,
                     closure, substitution_group)
from .numberfield import automorphism_table, express_roots
from .poly import MultiPoly, UniPoly, gcd
from .resolvent import discriminant, identify_galois, resolvent_poly, search_resolvent
from .roots import isolate_roots, read_integers
from .sympoly import decompose, expand_elementary

CORPUS = (
    "x^2 - 2",
    "x^2 + 1",
    "x^3 - 2",
    "x^3 - 3x - 1",
    "x^4 + 1",
    "x^4 - 2",
)

EXPECTED_SUBGROUP_COUNTS = {
    "x^2 - 2": 2,
    "x^2 + 1": 2,
    "x^3 - 2": 6,
    "x^3 - 3x - 1": 2,
    "x^4 + 1": 5,
    "x^4 - 2": 10,
}


@lru_cache(maxsize=None)
def corpus_pipeline(text: str) -> SimpleNamespace:
    f = parse_poly(text)
    rs = isolate_roots(f)
    gd = identify_galois(search_resolvent(rs))
    roots = express_roots(gd)
    sf = automorphism_table(gd, roots)
    report = correspondence_lattice(sf)
    return SimpleNamespace(f=f, rs=rs, gd=gd, roots=roots, sf=sf, report=report)


def criterion_1_quartic_arrangement():
    """12 arrangements under the alternating group split into 3 blocks of
    4 by the Klein four-group, every block's substitution group being the
    Klein four-group itself."""
    a4 = closure([Permutation((1, 2, 0, 3)), Permutation((0, 2, 3, 1))])
    if a4.order != 12:
        return False, f"alternating group came out with order {a4.order}"
    klein = PermGroup(
        [
            Permutation((0, 1, 2, 3)),
            Permutation((1, 0, 3, 2)),
            Permutation((2, 3, 0, 1)),
            Permutation((3, 2, 1, 0)),
        ]
    )
    base = Arrangement((0, 1, 2, 3))
    blocks = arrangement_array(a4, klein, base)
    rows = [row for blk in blocks for row in blk.rows]
    if len(blocks) != 3 or any(len(b) != 4 for b in blocks):
        return False, f"got {len(blocks)} blocks of sizes {[len(b) for b in blocks]}"
    if len(set(rows)) != 12:
        return False, f"expected 12 distinct arrangements, got {len(set(rows))}"
    for blk in blocks:
        if substitution_group(blk) != klein:
            return False, "a block's substitution group is not the Klein four-group"
    return True, "12 arrangements, 3 blocks of 4, all substitution groups Klein"


def criterion_2_fields_coincide():
    """The symmetric-value field equals the fixed field, solved and proved
    closed on its own, for every subgroup of every corpus polynomial."""
    for text in CORPUS:
        data = corpus_pipeline(text)
        for h in all_subgroups(data.gd.group):
            if fixed_field(h, data.sf) != field_from_subgroup(h, data.sf):
                return False, f"{text}: mismatch at subgroup {h!r}"
    return True, f"all subgroups of {len(CORPUS)} polynomials"


def criterion_3_bijection_and_degree():
    """Distinct subgroups give distinct subfields, the counts match the
    known subgroup lattices, and dim * |H| equals the field degree."""
    for text in CORPUS:
        data = corpus_pipeline(text)
        entries = data.report.entries
        expected = EXPECTED_SUBGROUP_COUNTS[text]
        if len(entries) != expected:
            return False, f"{text}: {len(entries)} subgroups, expected {expected}"
        seen = {e.subfield.rows for e in entries}
        if len(seen) != len(entries):
            return False, f"{text}: subfields are not pairwise distinct"
        d = data.gd.min_poly.degree
        for e in entries:
            if e.dim * e.subgroup.order != d:
                return False, (
                    f"{text}: dim {e.dim} * order {e.subgroup.order} != degree {d}"
                )
    return True, "counts " + ", ".join(
        f"{t}: {EXPECTED_SUBGROUP_COUNTS[t]}" for t in CORPUS
    )


def criterion_4_generator_independence():
    """Two distinct certified weight vectors give identical subfields
    after transport along the verified isomorphism."""
    for text in ("x^2 - 2", "x^3 - 2"):
        data = corpus_pipeline(text)
        ladder2 = search_resolvent(data.rs, skip=1)
        if ladder2.weights == data.gd.weights:
            return False, f"{text}: second search returned the same weights"
        gd2 = identify_galois(ladder2)
        if gd2.group != data.gd.group:
            return False, f"{text}: the group changed with the weights"
        roots2 = express_roots(gd2)
        sf2 = automorphism_table(gd2, roots2)
        for h in all_subgroups(data.gd.group):
            if not primitive_independence_check(h, data.sf, sf2):
                return False, f"{text}: subgroup {h!r} fields differ across generators"
    return True, "x^2 - 2 and x^3 - 2, every subgroup, both generators"


def criterion_5_distinctness_certificates():
    """The pipeline's resolvent, from the roots' power sums, equals the
    symbolic resolvent, which never forms a power sum, and is squarefree
    on the whole corpus; on degrees <= 3 the symbolic resolvent's
    discriminant, the product of the squared differences of the n!
    values, must be nonzero too."""
    for text in CORPUS:
        data = corpus_pipeline(text)
        resolvent = data.gd.resolvent
        symbolic = resolvent_poly(data.f, data.gd.weights)
        if resolvent != symbolic:
            return False, f"{text}: resolvent differs from the symbolic one"
        if gcd(resolvent, resolvent.derivative()).degree != 0:
            return False, f"{text}: resolvent is not squarefree"
        if data.f.degree <= 3 and discriminant(symbolic) == 0:
            return False, f"{text}: exact certificate vanishes"
    return True, "ball and exact certificates agree on the corpus"


def _random_symmetric_poly(rng: random.Random):
    n = rng.randint(2, 4)
    acc = MultiPoly(n)
    for _ in range(rng.randint(1, 3)):
        total = rng.randint(1, 8)
        exps = [0] * n
        for _ in range(total):
            exps[rng.randrange(n)] += 1
        coeff = rng.choice([c for c in range(-5, 6) if c])
        orbit = set(permutations(exps))
        mono = MultiPoly(n, {e: coeff for e in orbit})
        acc = acc + mono
    return acc


def criterion_6_symmetric_roundtrip():
    """200 randomized symmetric polynomials round-trip through
    decompose/expand; the two pinned identities come out exactly."""
    rng = random.Random(20260809)
    count = 0
    while count < 200:
        p = _random_symmetric_poly(rng)
        if p.is_zero():
            continue
        if expand_elementary(decompose(p)) != p:
            return False, f"round-trip failed on {p!r}"
        count += 1
    sum_sq = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    if decompose(sum_sq).poly != MultiPoly(2, {(2, 0): 1, (0, 1): -2}):
        return False, "x1^2 + x2^2 did not decompose to E1^2 - 2 E2"
    diff_sq = MultiPoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    if decompose(diff_sq).poly != MultiPoly(2, {(2, 0): 1, (0, 1): -4}):
        return False, "(x1 - x2)^2 did not decompose to E1^2 - 4 E2"
    return True, "200 round-trips plus both pinned identities"


def criterion_7_averaging_witness():
    """The orbit-average witness holds for a spanning set of every fixed
    field in the corpus."""
    checked = 0
    for text in CORPUS:
        data = corpus_pipeline(text)
        for h in all_subgroups(data.gd.group):
            for b in fixed_field(h, data.sf).basis:
                if not averaging_check(b, h, data.sf):
                    return False, f"{text}: witness failed for subgroup {h!r}"
                checked += 1
    return True, f"{checked} spanning elements across the corpus"


def _random_squarefree(rng: random.Random, planted: bool):
    while True:
        if planted:
            deg = rng.randint(2, 6)
            roots = rng.sample(range(-9, 10), deg)
            f = UniPoly([1])
            for r in roots:
                f = f * UniPoly([-r, 1])
            return f, sorted(roots)
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
        f = UniPoly(coeffs)
        if f.degree == deg and gcd(f, f.derivative()).degree == 0:
            return f, None


def criterion_8_root_certification():
    """100 random squarefree monic integer polynomials: recomputed
    nearest-root bounds stay within target and pairwise disjoint, and
    planted integer roots are recovered exactly."""
    rng = random.Random(97)
    bits = 64
    target = Fraction(1, 1 << bits)
    for trial in range(100):
        planted = trial >= 70
        f, known = _random_squarefree(rng, planted)
        n = f.degree
        rs = isolate_roots(f, bits)
        prec = n * bits + 96
        fresh = []
        for b in rs.enclosures:
            val = f.eval_ball(ComplexBall.from_ints(b.x, b.y, 0, b.exp), prec)
            r = nth_root_upper(abs_bound(val.x, val.y) + val.r, val.exp, n)
            ball = ComplexBall.from_parts((b.x, b.exp), (b.y, b.exp), r)
            if ball.rad > target:
                return False, f"{f.render()}: recomputed bound exceeds target"
            fresh.append(ball)
        for i in range(n):
            for j in range(i + 1, n):
                if not ball_disjoint(fresh[i], fresh[j]):
                    return False, f"{f.render()}: recomputed balls overlap"
        if known is not None:
            hits = [read_integers([b]) for b in rs.enclosures]
            got = sorted(h[0] for h in hits if h)
            if got != known:
                return False, f"{f.render()}: recovered {got}, expected {known}"
    return True, "100 polynomials certified, 30 with planted roots recovered"


CRITERIA = (
    ("quartic arrangement blocks", criterion_1_quartic_arrangement),
    ("symmetric field equals fixed field", criterion_2_fields_coincide),
    ("bijection and degree identity", criterion_3_bijection_and_degree),
    ("generator independence", criterion_4_generator_independence),
    ("injectivity certificates", criterion_5_distinctness_certificates),
    ("symmetric engine round-trip", criterion_6_symmetric_roundtrip),
    ("averaging witness", criterion_7_averaging_witness),
    ("certified root isolation", criterion_8_root_certification),
)


def run_selftest() -> int:
    failures = 0
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn()
        status = "PASS" if ok else "FAIL"
        print(f"{status}  criterion {i}: {name} ({detail})")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 4
