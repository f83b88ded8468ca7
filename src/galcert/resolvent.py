"""Resolvent machinery: the degree-n! resolvent, the injective weight
search, and identification of the Galois group.

A weight vector turns the roots into n! linear-combination values, one per
permutation.  The resolvent R is the product of x minus each value.  Its
coefficients are symmetric in the roots, so by the main theorem of
symmetric polynomials they are integers when f is monic and integral.
The pipeline reads R off the certified root balls (Stauduhar's approach):
the ball product is refined, skipping precisions too low for the size of
its coefficients, until every coefficient ball is narrower than 1/2, and
each ball's unique integer is the exact coefficient.

Injectivity is then an exact decision: the n! values are pairwise
distinct exactly when R is squarefree, i.e. gcd(R, R') is constant.  Any
one value of an injective weight vector generates the splitting field.
Permuting the weights only permutes the n! factors, so R and the decision
depend on the multiset of weights alone, and the search decides each
multiset once.
``resolvent_poly`` keeps the symbolic route (multiply the linear forms,
decompose into elementary symmetric polynomials, evaluate at the input's
coefficients) as the reference that the tests and the selftest compare
against.

The group is found without factoring over Q: subgroups are enumerated by
ascending order and each candidate product of linear factors is read off
as an integer polynomial the same way as R, checked to divide R exactly,
and each claimed root is certified via the cofactor (if the cofactor
provably misses a value that the full product kills, the candidate must
kill it).  Any subgroup passing all of that contains the Galois group, so
the first hit is the group and its candidate is the minimal polynomial,
irreducible by minimality.  The conjugate balls are computed once per
precision and shared by the resolvent and every subgroup test.
"""

from __future__ import annotations

from itertools import product as iter_product

from .arith import ComplexBall, abs_bound, fixed_mul, round_sig
from .errors import CertificationError, InputError
from .groups import PermGroup, Permutation, all_subgroups, symmetric_group
from .poly import MultiPoly, UniPoly, gcd
from .record import Frozen, Record
from .roots import PREC_CAP, RootSystem, precisions, read_integers
from .sympoly import decompose, substitute_elementary


class ResolventSpec(Frozen):
    """Integer weights making the root combination injective over all
    permutations (certified by the producer); immutable."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple):
        Record.__init__(self, tuple(int(w) for w in weights))


class GaloisData(Frozen):
    """The certified Galois group with the resolvent data that found it;
    immutable."""

    __slots__ = ("spec", "min_poly", "gen_ball", "group", "resolvent")

    def __init__(self, spec: ResolventSpec, min_poly: UniPoly, gen_ball: ComplexBall,
                 group: PermGroup, resolvent: UniPoly):
        Record.__init__(self, spec, min_poly, gen_ball, group, resolvent)


def _round_sig_at(v: int, prec: int):
    """v rounded to prec significant bits (``arith.round_sig``), in v's
    own units, and a bound on the error in those units."""
    k, s = round_sig(v, 0, prec)
    return k << s, (1 << s) >> 1


def conjugate_balls(spec: ResolventSpec, rs: RootSystem):
    """Ball of the weighted root combination for every permutation,
    keyed by permutation, at the root system's precision.  In ints over
    the root balls' common exponent, each part of each term w * root and
    of each partial sum is rounded to prec significant bits, the error
    folded into the radius.  The rounding is relative, so a part whose
    terms cancel below 2**-prec of their size prints as 0 in ``--array``."""
    n = len(spec.weights)
    prec = rs.precision_bits + 32
    e = min(b.exp for b in rs.enclosures)
    terms = [i for i, w in enumerate(spec.weights) if w]
    scaled = {}
    for j, b in enumerate(rs.enclosures):
        rx, ry, rr = b.fixed(-e)
        for i in terms:
            w = spec.weights[i]
            tx, ex = _round_sig_at(w * rx, prec)
            ty, ey = _round_sig_at(w * ry, prec)
            scaled[i, j] = tx, ty, abs(w) * rr + ex + ey
    out = {}
    for sigma in symmetric_group(n):
        x = y = r = 0
        for i in terms:
            tx, ty, tr = scaled[i, sigma(i)]
            x, sx = _round_sig_at(x + tx, prec)
            y, sy = _round_sig_at(y + ty, prec)
            r += tr + sx + sy
        out[sigma] = ComplexBall.from_ints(x, y, r, e)
    return out


def certify_distinct_values(weights, rs: RootSystem) -> bool:
    """True if all n! weighted root combinations are pairwise distinct,
    decided exactly: the resolvent read off the balls is squarefree."""
    r = read_resolvent(ResolventSpec(weights), rs)
    return gcd(r, r.derivative()).degree == 0


def search_resolvent(rs: RootSystem, max_norm: int = 8, skip: int = 0) -> ResolventSpec:
    """Smallest weight vector (by max-norm, then lexicographically) whose
    n! values are certified pairwise distinct.  skip returns later hits.

    The decision depends only on the multiset of weights, so each multiset
    is decided once: with w'_i = w_pi(i), sum_i w'_i alpha_sigma(i) =
    sum_j w_j alpha_(sigma pi^-1)(j), and sigma pi^-1 runs over S_n with
    sigma, so w and w' have the same n! values and the same resolvent."""
    n = rs.poly.degree
    found = 0
    decided = {}
    for norm in range(1, max_norm + 1):
        for weights in iter_product(range(norm + 1), repeat=n):
            if max(weights) != norm:
                continue
            # a repeated weight makes two permutations collide for sure
            if len(set(weights)) != n:
                continue
            key = tuple(sorted(weights))
            if key not in decided:
                decided[key] = certify_distinct_values(weights, rs)
            if decided[key]:
                if found == skip:
                    return ResolventSpec(weights)
                found += 1
    raise CertificationError(
        f"no injective weight vector with max-norm <= {max_norm}"
    )


def resolvent_poly(f: UniPoly, spec: ResolventSpec) -> UniPoly:
    """The exact degree-n! product of (x - weighted root combination)
    over all permutations, with the roots eliminated symbolically."""
    n = f.degree
    if n is None or n < 1:
        raise InputError("degree must be at least 1")
    if n > 4:
        raise InputError("resolvent construction is limited to degree <= 4")
    if len(spec.weights) != n:
        raise InputError("weight count must match the degree")
    if not f.is_monic():
        raise InputError("polynomial must be monic")

    nv = n + 1  # variable 0 is the resolvent indeterminate
    acc = MultiPoly.const(nv, 1)
    x0 = (1,) + (0,) * n
    for sigma in symmetric_group(n):
        terms = {x0: 1}
        for i, w in enumerate(spec.weights):
            if w:
                e = [0] * nv
                e[sigma(i) + 1] = 1
                key = tuple(e)
                terms[key] = terms.get(key, 0) - w
        acc = acc * MultiPoly(nv, terms)

    e_values = [(-1) ** j * f[n - j] for j in range(1, n + 1)]
    coeffs = []
    for piece in acc.coefficients_in_first_var():
        if piece.is_zero():
            coeffs.append(0)
        elif piece.total_degree() == 0:
            coeffs.append(piece.terms[(0,) * n])
        else:
            coeffs.append(substitute_elementary(decompose(piece), e_values))
    return UniPoly(coeffs)


def _ball_poly_product(balls, prec):
    """Coefficient balls of the monic product of (x - b) over the given
    balls, ascending order.  Runs on (x, y, r) ints over 2**-prec: each
    step c(x) * (x - b) adds exactly and rounds only the products c_i * b."""
    cs = [(1 << prec, 0, 0)]
    for ball in balls:
        b = ball.fixed(prec)
        nxt = [(0, 0, 0)] + cs
        for i, c in enumerate(cs):
            px, py, pr = fixed_mul(c, b, prec)
            x, y, r = nxt[i]
            nxt[i] = (x - px, y - py, r + pr)
        cs = nxt
    return [ComplexBall.from_ints(x, y, r, -prec) for x, y, r in cs]


def _integer_products(spec, perms, rs, balls):
    """The monic product of (x - value) over the conjugate values of
    ``perms``, read off its coefficient balls along the precision schedule.

    Yields (poly, vals, prec) at each precision where every ball is
    narrower than 1/2, so holds at most one integer; poly is None as soon
    as some such ball holds none, which proves the product not integral.

    ``balls`` maps precision bits to the conjugate balls of ``rs`` refined
    to them, and gains each precision computed here, so callers that share
    it compute them once per precision.

    Attempts below log2(2 * len(perms) * sum|w| * B) bits are skipped,
    except the schedule's last: every coefficient is at most
    B = prod(1 + |value|), and moving the roots by 2**-bits moves a
    coefficient by up to about len(perms) * sum|w| * B * 2**-bits, so
    such attempts are not expected to narrow the balls enough.
    """
    vals = _balls_at(spec, rs, rs.precision_bits, balls)
    # the bound as an int over 2**(t * len(perms)): t is at most 0 and at
    # most every ball's exponent, so each factor 1 + |value| is an int
    # over 2**t
    t = min([0] + [vals[s].exp for s in perms])
    bound = 2 * len(perms) * sum(map(abs, spec.weights)) + 1
    for s in perms:
        b = vals[s]
        bound *= ((abs_bound(b.x, b.y) + b.r) << (b.exp - t)) + (1 << -t)
    needed = bound.bit_length() + t * len(perms)
    for bits in precisions(rs.precision_bits):
        if bits < needed and 2 * bits <= PREC_CAP:
            continue
        vals = _balls_at(spec, rs, bits, balls)
        prec = bits + 32
        product = _ball_poly_product([vals[s] for s in perms], prec)[:-1]
        ints = read_integers(product)
        if ints is False:
            yield None, vals, prec
        elif ints is not None:
            yield UniPoly(ints + [1]), vals, prec


def _balls_at(spec, rs, bits, balls):
    if bits not in balls:
        balls[bits] = conjugate_balls(spec, rs.refine(bits))
    return balls[bits]


def read_resolvent(spec: ResolventSpec, rs: RootSystem) -> UniPoly:
    """The resolvent, the product of (x - value) over all n! conjugate
    values.  Its coefficients are symmetric in the roots, so for monic
    integral f they are integers, and the ball product pins each down."""
    return _read_resolvent(spec, rs, {})


def _read_resolvent(spec, rs, balls):
    if not rs.poly.has_integer_coeffs():
        raise InputError(
            "integer coefficients required; scale the variable first"
        )
    perms = symmetric_group(rs.poly.degree)
    for poly, _, _ in _integer_products(spec, perms, rs, balls):
        if poly is None:
            break
        return poly
    raise CertificationError(
        "the resolvent coefficients could not be read off as integers"
    )


def identify_galois(f: UniPoly, spec: ResolventSpec, rs: RootSystem) -> GaloisData:
    """Minimal-subgroup search for the Galois group with exact division
    and cofactor certificates; returns group, minimal polynomial and the
    ball of the distinguished generator value."""
    n = f.degree
    if n is None or n < 1 or n > 4:
        raise InputError("degree must be between 1 and 4")
    balls = {}  # conjugate balls by precision, shared by every read
    resolvent = _read_resolvent(spec, rs, balls)
    identity = Permutation.identity(n)

    for sub in all_subgroups(symmetric_group(n)):
        result = _test_subgroup(resolvent, sub, spec, rs, balls)
        if result is None:
            continue
        min_poly, vals = result
        return GaloisData(
            spec=spec,
            min_poly=min_poly,
            gen_ball=vals[identity],
            group=sub,
            resolvent=resolvent,
        )
    raise CertificationError(
        "no subgroup produced a certified rational factor; "
        "this indicates a bug or insufficient precision"
    )


def _test_subgroup(resolvent, sub, spec, rs, balls):
    """None if the subgroup is rejected; else (min_poly, conjugate balls)."""
    for candidate, vals, prec in _integer_products(spec, sub, rs, balls):
        if candidate is None:
            return None
        quotient, remainder = divmod(resolvent, candidate)
        if not remainder.is_zero():
            return None
        # cofactor certificate: resolvent kills each claimed value and
        # the cofactor provably does not, so the candidate must
        if not any(quotient.eval_ball(vals[s], prec).contains_zero() for s in sub):
            return candidate, vals
    return None
