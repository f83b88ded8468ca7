"""Resolvent machinery: the degree-n! resolvent, the injective weight
search, and identification of the Galois group.

A weight vector turns the roots into n! linear-combination values, one per
permutation.  The resolvent R is the product of x minus each value.  Its
coefficients are symmetric in the roots, so by the main theorem of
symmetric polynomials they are integers when f is monic and integral.
The pipeline reads R off the certified root balls (Stauduhar's approach):
the ball product is refined until every coefficient ball is narrower
than 1/2, and each ball's unique integer is the exact coefficient.

Injectivity is then an exact decision: the n! values are pairwise
distinct exactly when R is squarefree, i.e. gcd(R, R') is constant,
decided mod a prime when it is (``poly.is_squarefree``).  Any one value
of an injective weight vector generates the splitting field.

The search needs no bound (Galois's Lemma II: suitable integer weights
always exist).  Permuting the weights only permutes the n! values, and
adding c to every weight moves every value by c * (alpha_1 + ... +
alpha_n), so neither changes which values coincide: the search tries
only sorted vectors whose least weight is 0, in order of their largest
weight, the norm.  It ends: for sigma != tau the weights (0, 1, t, ..., t^(n-2))
give equal values only when t is a root of the nonzero polynomial
sum_(i>=1) t^(i-1) (alpha_sigma(i) - alpha_tau(i)) of degree at most
n - 2, so some t <= 2 + (n - 2) * C(n!, 2) is injective, and its vector
has norm t^(n-2).  That needs n distinct roots, which the search checks.
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
irreducible by minimality.  Each weight vector's conjugate balls climb
one ``Ladder``, which reads the resolvent once; the winning ladder goes
on to ``identify_galois``, the root expressions and the automorphisms.
``Ladder.read`` starts every read at the finest root system built, so
each precision is refined once and no read goes back to a coarser one.
That changes no decision: each read feeds an exact one, a finer system
only narrows the balls, and the root order is the first isolation's.
"""

from __future__ import annotations

from itertools import combinations, count

from .arith import ComplexBall, fixed_mul, round_sig
from .errors import CertificationError, InputError
from .groups import PermGroup, Permutation, all_subgroups, symmetric_group
from .poly import MultiPoly, UniPoly, is_squarefree
from .record import Frozen, Record
from .roots import RootSystem, precisions, read_integers
from .sympoly import decompose, substitute_elementary


class GaloisData(Frozen):
    """The certified Galois group with the resolvent data that found it;
    immutable.  ``ladder`` carries the conjugate balls on to the later
    stages and is left out of equality and hashing."""

    __slots__ = ("weights", "min_poly", "ladder", "group", "resolvent")
    _compared = ("weights", "min_poly", "group", "resolvent")

    def __init__(self, weights: tuple, min_poly: UniPoly, ladder: Ladder,
                 group: PermGroup, resolvent: UniPoly):
        Record.__init__(self, weights, min_poly, ladder, group, resolvent)


def _round_sig_at(v: int, prec: int):
    """v rounded to prec significant bits (``arith.round_sig``), in v's
    own units, and a bound on the error in those units."""
    k, s = round_sig(v, 0, prec)
    return k << s, (1 << s) >> 1


def conjugate_balls(weights: tuple, rs: RootSystem):
    """Ball of the weighted root combination for every permutation,
    keyed by permutation, at the root system's precision.  In ints over
    the root balls' common exponent, each part of each term w * root and
    of each partial sum is rounded to prec significant bits, the error
    folded into the radius.  The rounding is relative, so a part whose
    terms cancel below 2**-prec of their size prints as 0 in ``--array``."""
    n = len(weights)
    prec = rs.precision_bits + 32
    e = min(b.exp for b in rs.enclosures)
    terms = [i for i, w in enumerate(weights) if w]
    scaled = {}
    for j, b in enumerate(rs.enclosures):
        rx, ry, rr = b.fixed(-e)
        for i in terms:
            w = weights[i]
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


class Ladder:
    """The conjugate balls of one weight vector, a tuple of ints, along
    the precision schedule of one root system.  Rung ``bits`` is (the
    system refined to bits, its conjugate balls, the working precision
    bits + 32), built on first use and kept.  Each rung refines the
    original system, so ladders of one system share the refined systems
    through ``systems``, a dict by bits.  ``read`` starts at the finest:
    a finer system only narrows the balls, and every read feeds an exact
    decision, so none changes.  The resolvent read is kept here too."""

    __slots__ = ("weights", "rs", "_systems", "_rungs", "_resolvent")

    def __init__(self, weights: tuple, rs: RootSystem, systems: dict | None = None):
        self.weights = weights
        self.rs = rs
        self._systems = {} if systems is None else systems
        self._rungs = {}
        self._resolvent = None

    @property
    def resolvent(self) -> UniPoly:
        """``read_resolvent`` of this ladder, read on first use."""
        if self._resolvent is None:
            self._resolvent = read_resolvent(self)
        return self._resolvent

    def rung(self, bits: int):
        if bits not in self._rungs:
            cur = self._systems.get(bits)
            if cur is None:
                cur = self._systems[bits] = self.rs.refine(bits)
            self._rungs[bits] = cur, conjugate_balls(self.weights, cur), bits + 32
        return self._rungs[bits]

    @property
    def base(self):
        """The rung of the unrefined system."""
        return self.rung(self.rs.precision_bits)

    def read(self, balls_at):
        """(ints, rung) at each rung where ``read_integers(balls_at(*rung))``
        is not None, from the finest system built up ``precisions``.  After
        a rung whose widest ball has radius below 2**k, the climb goes on
        at the first rung of at least bits + k + 2 bits, where the radius,
        about halved per bit, should be below 1/4; the last rung is always
        tried."""
        schedule = list(precisions(self.rs.precision_bits))
        need = max(self._systems, default=0)
        for bits in schedule:
            if bits < need and bits != schedule[-1]:
                continue
            rung = self.rung(bits)
            balls = balls_at(*rung)
            ints = read_integers(balls)
            if ints is None:
                need = bits + 2 + max(b.r.bit_length() + b.exp for b in balls)
            else:
                yield ints, rung


def certify_distinct_values(ladder: Ladder) -> bool:
    """True if all n! weighted root combinations of the ladder's weights
    are pairwise distinct, decided exactly: the resolvent read off the
    balls is squarefree."""
    return is_squarefree(ladder.resolvent)


def search_resolvent(rs: RootSystem, skip: int = 0) -> Ladder:
    """The ladder of the first weight vector (0, *rest, norm), by norm,
    then lexicographically, whose n! values are certified pairwise
    distinct, with the resolvent that decided it; skip returns later
    hits.  The module docstring shows why these vectors suffice and why
    the search ends; every candidate's ladder shares one dict of refined
    root systems."""
    if skip < 0:
        raise InputError("skip must be at least 0")
    n = rs.poly.degree
    if n is None or n < 2 or not is_squarefree(rs.poly):
        raise InputError("the weight search needs a squarefree polynomial "
                         "of degree at least 2")
    systems = {}
    for norm in count(1):
        for rest in combinations(range(1, norm), n - 2):
            ladder = Ladder((0, *rest, norm), rs, systems)
            if certify_distinct_values(ladder):
                if not skip:
                    return ladder
                skip -= 1


def resolvent_poly(f: UniPoly, weights: tuple) -> UniPoly:
    """The exact degree-n! product of (x - weighted root combination)
    over all permutations, with the roots eliminated symbolically."""
    n = f.degree
    if n is None or n < 1:
        raise InputError("degree must be at least 1")
    if n > 4:
        raise InputError("resolvent construction is limited to degree <= 4")
    if len(weights) != n:
        raise InputError("weight count must match the degree")
    if not f.is_monic():
        raise InputError("polynomial must be monic")

    nv = n + 1  # variable 0 is the resolvent indeterminate
    acc = MultiPoly.const(nv, 1)
    x0 = (1,) + (0,) * n
    for sigma in symmetric_group(n):
        terms = {x0: 1}
        for i, w in enumerate(weights):
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


def _integer_products(ladder: Ladder, perms):
    """The monic product of (x - value) over the conjugate values of
    ``perms``, read off its coefficient balls by ``ladder.read``.

    Yields (poly, vals, prec) at each rung where every ball is narrower
    than 1/2, so holds at most one integer; poly is None as soon as some
    such ball holds none, which proves the product not integral.
    """
    def coefficients(cur, vals, prec):
        return _ball_poly_product([vals[s] for s in perms], prec)[:-1]

    for ints, (_, vals, prec) in ladder.read(coefficients):
        yield (None if ints is False else UniPoly(ints + [1])), vals, prec


def read_resolvent(ladder: Ladder) -> UniPoly:
    """The resolvent, the product of (x - value) over all n! conjugate
    values.  Its coefficients are symmetric in the roots, so for monic
    integral f they are integers, and the ball product pins each down."""
    poly = ladder.rs.poly
    if not poly.has_integer_coeffs():
        raise InputError("integer coefficients required; scale the variable first")
    r = next(_integer_products(ladder, symmetric_group(poly.degree)), (None,))[0]
    if r is None:
        raise CertificationError("the resolvent coefficients could not be read off as integers")
    return r


def identify_galois(ladder: Ladder) -> GaloisData:
    """Minimal-subgroup search for the Galois group with exact division
    and cofactor certificates, on the ladder of an injective weight
    vector and its resolvent; returns group, minimal polynomial and the
    ladder, which every subgroup test climbed, for the later stages to
    climb on."""
    n = ladder.rs.poly.degree
    if n is None or n < 1 or n > 4:
        raise InputError("degree must be between 1 and 4")
    resolvent = ladder.resolvent
    for sub in all_subgroups(symmetric_group(n)):
        min_poly = _test_subgroup(resolvent, sub, ladder)
        if min_poly is not None:
            return GaloisData(ladder.weights, min_poly, ladder, sub, resolvent)
    raise CertificationError(
        "no subgroup produced a certified rational factor; "
        "this indicates a bug or insufficient precision"
    )


def _test_subgroup(resolvent, sub, ladder):
    """The subgroup's minimal polynomial, or None if it is rejected."""
    for candidate, vals, prec in _integer_products(ladder, sub):
        if candidate is None:
            return None
        quotient, remainder = divmod(resolvent, candidate)
        if not remainder.is_zero():
            return None
        # cofactor certificate: resolvent kills each claimed value and
        # the cofactor provably does not, so the candidate must
        if not any(quotient.eval_ball(vals[s], prec).contains_zero() for s in sub):
            return candidate
    return None
