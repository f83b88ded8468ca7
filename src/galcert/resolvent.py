"""Resolvent machinery: the degree-n! resolvent from power sums, the
injective weight search, and identification of the Galois group.

A weight vector turns the roots into n! linear-combination values, one per
permutation.  The resolvent R is the product of x minus each value.  Its
coefficients are symmetric in the roots, so by the main theorem of
symmetric polynomials they are integers when f is monic and integral, and
f's coefficients give them exactly (Casperson & McKay, Math. Comp. 63,
1994).  Newton's identities give the power sums p_k of f's roots, with
p_0 = n.  The power sums of the values, P_k = sum over sigma of
theta_sigma^k, come from the exponential generating series
sum_k P_k t^k / k! = sum over sigma of prod_i exp(t w_i alpha_sigma(i)).
A sum over the injective maps sigma is, by Moebius inversion on the set
partitions of the n weight positions, an alternating sum over the
partitions, each block B with sign and weight (-1)^(|B|-1) (|B|-1)!, of
products over the blocks of the series sum_m W_B^m p_m t^m / m!, W_B the
block's weight sum (``orbit_sums``).  Newton's identities turn P_1, ...,
P_(n!) back into R.

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

The group is first tested for all of S_n (``certify_symmetric``).  By
Dedekind's theorem, for a prime p that does not divide d = disc(f), the
degrees of f's irreducible factors mod p are the cycle type of an
element of G, the Frobenius of p.  The discriminant is a norm read off
power sums, as R is: (-1)^(n(n-1)/2) times the product of the values
f'(alpha_i), whose power sums come from f's, and Newton's identities
(``from_power_sums``, R's own) give the product.  A square discriminant
puts G inside A_n; otherwise an odd element is in G, which settles
n = 2.  For n = 3 and 4 each prime p from 2 up that does not divide d
gives one fact (``roots_mod``): the number of roots of f mod p, the
fixed points of its Frobenius.  A cubic with no root mod p is
irreducible mod p: a 3-cycle, so 3 divides |G| and G = S3.  For a
quartic, one root gives the type (1, 3), a 3-cycle fixing one root, and
no root a fixed-point-free element, of type (4) or (2, 2), which moves
that root into the 3-cycle's orbit: G is transitive, so 4 and 3 divide
|G|, G is A4 or S4, and the odd element leaves S4.  The square test
alone carries parity.  Then the minimal polynomial is R itself, and
nothing is read off balls.  When no
certificate appears within ``DEDEKIND_PRIMES`` good primes, subgroups
are enumerated by ascending order and each candidate product of linear
factors is read off the certified root balls as an integer polynomial
(Stauduhar's approach), checked to divide R exactly, and each claimed
root is certified via the cofactor (if the cofactor provably misses a
value that the full product kills, the candidate must kill it).  Any
subgroup passing all of that contains the Galois group, so the first hit
is the group and its candidate is the minimal polynomial, irreducible by
minimality.  None of this factors over Q.

Each weight vector's conjugate balls climb one ``Ladder``, built on the
``Roots`` of f, which decide that f is squarefree and isolate on first
use: an S_n field never needs them.  Only the winning ladder reads
balls.  The subgroup search climbs its rungs, each test from the finest
one built, so each precision is refined once and no test goes back to a
coarser one; the arrangement arrays print its unrefined rung.  That
changes no decision: each read feeds an exact one, a finer system only
narrows the balls, and the root order is the first isolation's.  The
root expressions and the automorphisms are exact.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, count
from math import factorial, isqrt

from .arith import ComplexBall, fixed_mul, round_sig
from .errors import CertificationError, InputError
from .groups import PermGroup, Permutation, all_subgroups, symmetric_group
from .poly import MultiPoly, UniPoly, is_squarefree
from .record import Frozen, Record
from .roots import RootSystem, not_squarefree, precisions, read_integers
from .sympoly import decompose, substitute_elementary

# the good primes ``certify_symmetric`` reads before the subgroup
# search; the S_n inputs of the benchmark corpus, small_warm seeds 1 and 2
# and tests/test_oracle.py read at most 20, up to 71
# (83/4x^3 - 7x^2 + 23/2x - 57/4)
DEDEKIND_PRIMES = 40


class GaloisData(Frozen):
    """The certified Galois group with the resolvent data that found it;
    immutable.  ``ladder`` carries the polynomial on, and its unrefined
    conjugate balls to the arrangement arrays; it is left out of equality
    and hashing."""

    __slots__ = ("weights", "min_poly", "ladder", "group", "resolvent")
    _compared = ("weights", "min_poly", "group", "resolvent")

    def __init__(self, weights: tuple, min_poly: UniPoly, ladder: Ladder,
                 group: PermGroup, resolvent: UniPoly):
        Record.__init__(self, weights, min_poly, ladder, group, resolvent)


# -- symmetric functions of the roots ----------------------------------------

def power_sums(f: UniPoly, top: int) -> list:
    """[p_0, ..., p_top]: p_k is the sum of the k-th powers of the roots
    of the monic integral f, p_0 its degree, by Newton's identities."""
    c = f.num
    n = len(c) - 1
    p = [n]
    for k in range(1, top + 1):
        s = k * c[n - k] if k <= n else 0
        for j in range(1, min(k - 1, n) + 1):
            s += c[n - j] * p[k - j]
        p.append(-s)
    return p


@cache
def _binomial_rows(top: int) -> tuple:
    rows = [(1,)]
    for _ in range(top):
        last = rows[-1]
        rows.append((1, *map(sum, zip(last, last[1:])), 1))
    return tuple(rows)


def _egf_mul(a, b, rows):
    """The product of two exponential generating series, truncated to
    len(rows) terms: c_m = sum_k C(m, k) a_k b_(m-k)."""
    terms = [(k, x) for k, x in enumerate(a) if x]
    return [sum(row[k] * x * b[m - k] for k, x in terms if k <= m)
            for m, row in enumerate(rows)]


def orbit_sums(f: UniPoly, weights: tuple, top: int, marks) -> list:
    """For each mark, the integers S_0, ..., S_top over the n! values
    theta_sigma = sum_i w_i alpha_sigma(i) of the monic integral f: for
    the mark None, S_k = P_k = sum over sigma of theta_sigma^k; for a
    weight position i, S_k = T_(i,k) = sum over sigma of
    alpha_sigma(i) theta_sigma^k.

    These are exponential generating series: sum_k P_k t^k / k! is the
    sum over sigma of prod_l g_l(alpha_sigma(l)), g_l(y) = exp(t w_l y).
    Summing a product over the injective sigma is, by Moebius inversion
    on the set partitions of the positions, the alternating sum over the
    partitions of the products, over the blocks B, of
    sum_j prod_(l in B) g_l(alpha_j) = sum_m W_B^m p_m t^m / m!, with
    p_(m+1) in the block of a marked position i, whose factor
    alpha_sigma(i) raises the power.
    The partitions are taken block by block: the block of one position,
    then a partition of the rest, which is shared (``joint``)."""
    n = len(weights)
    p = power_sums(f, top + 1)
    rows = _binomial_rows(top)

    def series(block, shift):
        w = sum(weights[i] for i in range(n) if block >> i & 1)
        if not w:
            return [p[shift]] + [0] * top
        out, wm = [], 1
        for m in range(top + 1):
            out.append(wm * p[m + shift])
            wm *= w
        return out

    @cache
    def joint(mask):
        """The series over the injections of mask's positions; None for
        the empty mask, whose series is 1."""
        return split(mask, mask & -mask, 0) if mask else None

    def split(mask, first, shift):
        acc = [0] * (top + 1)
        rest = mask ^ first
        sub = rest
        while True:
            block = sub | first
            term = series(block, shift)
            other = joint(mask ^ block)
            if other is not None:
                term = _egf_mul(term, other, rows)
            size = block.bit_count()
            sign = (-1) ** (size - 1) * factorial(size - 1)
            acc = [a + sign * t for a, t in zip(acc, term)]
            if not sub:
                return acc
            sub = (sub - 1) & rest

    full = (1 << n) - 1
    return [split(full, 1, 0) if i is None else split(full, 1 << i, 1) for i in marks]


def power_sum_resolvent(f: UniPoly, weights: tuple) -> UniPoly:
    """The resolvent, the product of (x - theta_sigma) over all n!
    values, exactly: its roots' power sums P_1, ..., P_(n!) from
    ``orbit_sums``, then Newton's identities (``from_power_sums``) for
    its coefficients (-1)^k e_k."""
    if len(weights) != f.degree:
        raise InputError("weight count must match the degree")
    if not f.is_monic():
        raise InputError("polynomial must be monic")
    if f.den != 1:
        raise InputError("integer coefficients required; scale the variable first")
    [ps] = orbit_sums(f, weights, factorial(f.degree), (None,))
    return UniPoly([-c if k % 2 else c for k, c in enumerate(from_power_sums(ps))][::-1])


def from_power_sums(ps) -> list:
    """[e_0, ..., e_N], the elementary symmetric functions of N numbers
    whose power sums are ps = [p_0, ..., p_N] (p_0 unread), by Newton's
    identities k e_k = sum_(i<=k) (-1)^(i-1) e_(k-i) p_i; each division
    by k must be exact."""
    e = [1]
    for k in range(1, len(ps)):
        s = 0
        for i in range(1, k + 1):
            s += e[k - i] * ps[i] if i % 2 else -e[k - i] * ps[i]
        q, r = divmod(s, k)
        if r:
            raise CertificationError("the resolvent's power sums are not those of an integer polynomial")
        e.append(q)
    return e


# -- Dedekind's certificate of G = S_n ---------------------------------------

def discriminant(f: UniPoly) -> int:
    """disc(f) = prod_(i<j) (alpha_i - alpha_j)^2 for monic integral f, a
    norm read off power sums: (-1)^(n(n-1)/2) times prod_i f'(alpha_i),
    the e_n of the values f'(alpha_i), whose k-th power sum is
    sum_m [x^m](f'^k) p_m."""
    n = f.degree
    p = power_sums(f, n * (n - 1))
    df, g, qs = f.derivative(), UniPoly([1]), [n]
    for _ in range(n):
        g = g * df
        qs.append(sum(c * p[m] for m, c in enumerate(g.num)))
    return (-1) ** (n * (n - 1) // 2) * from_power_sums(qs)[n]


def roots_mod(f: UniPoly, p: int) -> int:
    """The number of roots of f mod the prime p, by evaluating f at the p
    residues."""
    cs = [c % p for c in reversed(f.num)]
    roots = 0
    for x in range(p):
        v = 0
        for c in cs:
            v = v * x + c
        roots += not v % p
    return roots


def _primes():
    """The primes, ascending."""
    found = []
    for q in count(2):
        if all(q % r for r in found if r * r <= q):
            found.append(q)
            yield q


def certify_symmetric(f: UniPoly) -> bool:
    """True if the Galois group of the monic integral squarefree f of
    degree 2 to 4 is proved to be all of S_n (see the module docstring):
    a discriminant d that is not a square, and ``roots_mod`` read mod the
    primes p from 2 up that do not divide d.  For n = 3 it waits for a
    prime with no root, a 3-cycle; for n = 4 for one with no root, of type
    (4) or (2, 2), and one with one root, of type (1, 3).  False when d
    is a square, or when ``DEDEKIND_PRIMES`` such primes leave a root
    count unseen."""
    n = f.degree
    d = discriminant(f)
    if d >= 0 and isqrt(d) ** 2 == d:
        return False
    if n == 2:
        return True
    wanted = {0} if n == 3 else {0, 1}
    good = 0
    for p in _primes():
        if not d % p:
            continue
        wanted.discard(roots_mod(f, p))
        if not wanted:
            return True
        good += 1
        if good == DEDEKIND_PRIMES:
            return False


# -- the conjugate balls ------------------------------------------------------

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


class Roots:
    """The roots of one monic squarefree polynomial: ``rs``, the first
    isolation, made by ``isolate(poly)`` on first use.  Building one
    decides that poly is squarefree; ``of`` takes a system whose
    polynomial is already decided."""

    __slots__ = ("poly", "_isolate", "_rs")

    def __init__(self, poly: UniPoly, isolate):
        if not is_squarefree(poly):
            raise not_squarefree(poly)
        self.poly = poly
        self._isolate = isolate
        self._rs = None

    @classmethod
    def of(cls, rs: RootSystem) -> Roots:
        """The roots of a system already isolated."""
        roots = cls.__new__(cls)
        roots.poly, roots._isolate, roots._rs = rs.poly, None, rs
        return roots

    @property
    def rs(self) -> RootSystem:
        if self._rs is None:
            self._rs = self._isolate(self.poly)
        return self._rs


class Ladder:
    """The conjugate balls of one weight vector, a tuple of ints, along
    the precision schedule of one polynomial's ``Roots`` (a ``RootSystem``
    is taken as its roots).  Rung ``bits`` is (the system refined to bits,
    its conjugate balls, the working precision bits + 32), built on first
    use and kept; the roots are isolated at the first rung.  Only the
    subgroup search climbs the rungs; ``base`` is the unrefined one,
    which the arrangement arrays print.  The resolvent,
    ``power_sum_resolvent``, is kept here too."""

    __slots__ = ("weights", "roots", "_rungs", "_resolvent")

    def __init__(self, weights: tuple, roots):
        self.weights = weights
        self.roots = roots if isinstance(roots, Roots) else Roots.of(roots)
        self._rungs = {}
        self._resolvent = None

    @property
    def poly(self) -> UniPoly:
        return self.roots.poly

    @property
    def rs(self) -> RootSystem:
        return self.roots.rs

    @property
    def resolvent(self) -> UniPoly:
        """``power_sum_resolvent`` of the ladder's weights, on first use."""
        if self._resolvent is None:
            self._resolvent = power_sum_resolvent(self.poly, self.weights)
        return self._resolvent

    def rung(self, bits: int):
        if bits not in self._rungs:
            cur = self.rs.refine(bits)
            self._rungs[bits] = cur, conjugate_balls(self.weights, cur), bits + 32
        return self._rungs[bits]

    @property
    def base(self):
        """The rung of the unrefined system."""
        return self.rung(self.rs.precision_bits)


def certify_distinct_values(ladder: Ladder) -> bool:
    """True if all n! weighted root combinations of the ladder's weights
    are pairwise distinct, decided exactly: the resolvent is squarefree."""
    return is_squarefree(ladder.resolvent)


def search_resolvent(roots, skip: int = 0) -> Ladder:
    """The ladder of the first weight vector (0, *rest, norm), by norm,
    then lexicographically, whose n! values are certified pairwise
    distinct, with the resolvent that decided it; skip returns later
    hits.  ``roots`` is a ``Roots``, squarefree by construction, or a
    ``RootSystem``, whose polynomial is decided squarefree here.  The
    module docstring shows why these vectors suffice and why the search
    ends; every candidate's ladder shares the one ``Roots``."""
    if skip < 0:
        raise InputError("skip must be at least 0")
    n = roots.poly.degree
    decided = isinstance(roots, Roots)
    if n is None or n < 2 or not (decided or is_squarefree(roots.poly)):
        raise InputError("the weight search needs a squarefree polynomial "
                         "of degree at least 2")
    if not decided:
        roots = Roots.of(roots)
    for norm in count(1):
        for rest in combinations(range(1, norm), n - 2):
            ladder = Ladder((0, *rest, norm), roots)
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


def identify_galois(ladder: Ladder) -> GaloisData:
    """The Galois group and the generator's minimal polynomial, on the
    ladder of an injective weight vector and its resolvent: S_n with R
    itself when ``certify_symmetric`` proves it, else the minimal-subgroup
    search with exact division and cofactor certificates, which climbs
    the ladder that it returns."""
    n = ladder.poly.degree
    if n is None or n < 1 or n > 4:
        raise InputError("degree must be between 1 and 4")
    resolvent = ladder.resolvent
    full = symmetric_group(n)
    if n > 1 and certify_symmetric(ladder.poly):
        return GaloisData(ladder.weights, resolvent, ladder, full, resolvent)
    for sub in all_subgroups(full):
        min_poly = _test_subgroup(resolvent, sub, ladder)
        if min_poly is not None:
            return GaloisData(ladder.weights, min_poly, ladder, sub, resolvent)
    raise CertificationError(
        "no subgroup produced a certified rational factor; "
        "this indicates a bug or insufficient precision"
    )


def _test_subgroup(resolvent, sub, ladder):
    """The subgroup's minimal polynomial, or None if it is proved not to
    contain G; ``CertificationError`` when the last rung leaves it undecided.

    The monic product of (x - value) over the subgroup's conjugate values
    is read off its coefficient balls by ``read_integers``, up the
    ladder's ``precisions`` from its finest rung: a finer system only
    narrows the balls, and each read feeds an exact decision, so none
    changes.  After a rung whose widest ball has radius below 2**k, the
    climb goes on at the first rung of at least bits + k + 2 bits, where
    the radius, about halved per bit, should be below 1/4; the last rung
    is always tried.  A ball that holds no integer, or a product that
    does not divide the resolvent, rejects the subgroup.  So does a value
    where the cofactor's ball holds 0 and the candidate's does not: the
    candidate is not 0 there, so it is not the product over the subgroup.
    R is squarefree, so each value is a root of exactly one of the two,
    and a wrong candidate that divides R is rejected as soon as its ball
    at such a value excludes 0, instead of on the last rung.  Nothing
    else rejects: rejecting a subgroup without a proof would break
    ``identify_galois``'s argument that its first hit is G.
    """
    schedule = list(precisions(ladder.rs.precision_bits))
    need = max(ladder._rungs, default=0)
    for bits in schedule:
        if bits < need and bits != schedule[-1]:
            continue
        _, vals, prec = ladder.rung(bits)
        balls = _ball_poly_product([vals[s] for s in sub], prec)[:-1]
        ints = read_integers(balls)
        if ints is None:
            need = bits + 2 + max(b.r.bit_length() + b.exp for b in balls)
            continue
        if ints is False:
            return None
        candidate = UniPoly(ints + [1])
        quotient, remainder = divmod(resolvent, candidate)
        if not remainder.is_zero():
            return None
        # cofactor certificate: resolvent kills each claimed value and
        # the cofactor provably does not, so the candidate must
        doubt = [vals[s] for s in sub if quotient.eval_ball(vals[s], prec).contains_zero()]
        if not doubt:
            return candidate
        if any(not candidate.eval_ball(v, prec).contains_zero() for v in doubt):
            return None
    raise CertificationError(f"the subgroup {sub!r} stays undecided at {bits} bits")
