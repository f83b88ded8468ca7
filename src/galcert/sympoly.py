"""Symmetric polynomial engine.

Symmetry testing, decomposition into elementary symmetric polynomials by
the classical lex leading-term algorithm, and exact evaluation of
elementary symmetric values over any exact commutative ring.  The
decomposition loop subtracts c * e1^(a1-a2) * e2^(a2-a3) * ... each round;
the lex leading monomial strictly decreases, which both terminates the
loop and makes intermediate states easy to assert on.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .poly import MultiPoly


@lru_cache(maxsize=None)
def elementary_polynomial(n: int, k: int) -> MultiPoly:
    """The k-th elementary symmetric polynomial in n variables."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    if k == 0:
        return MultiPoly.const(n, 1)
    terms = {}
    for subset in combinations(range(n), k):
        e = [0] * n
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = 1
    return MultiPoly(n, terms)


@lru_cache(maxsize=None)
def _e_product(n: int, exps: tuple) -> MultiPoly:
    """Expansion of e1^exps[0] * e2^exps[1] * ... * en^exps[n-1].

    Multiplying by en^k just shifts every exponent by k, so the last
    entry is peeled off first; the rest is built incrementally, one
    memoized multiplication per step.
    """
    if all(x == 0 for x in exps):
        return MultiPoly.const(n, 1)
    if exps[-1]:
        base = _e_product(n, exps[:-1] + (0,))
        k = exps[-1]
        res = MultiPoly(n)
        res.terms = {tuple(p + k for p in e): c for e, c in base.terms.items()}
        return res
    j = max(i for i, x in enumerate(exps) if x)
    prev = list(exps)
    prev[j] -= 1
    return _e_product(n, tuple(prev)) * elementary_polynomial(n, j + 1)


def _violating_transposition(p: MultiPoly):
    """Index i if swapping x_{i+1} and x_{i+2} changes p, else None."""
    for i in range(p.n - 1):
        images = list(range(p.n))
        images[i], images[i + 1] = images[i + 1], images[i]
        if p.permute_vars(images) != p:
            return i
    return None


class ElementarySymmetricExpression:
    """Polynomial in formal variables standing for e1..en."""

    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly):
        self.poly = poly

    @property
    def n(self):
        return self.poly.n

    def __eq__(self, other):
        return (
            isinstance(other, ElementarySymmetricExpression)
            and self.poly == other.poly
        )

    def __repr__(self):
        if self.poly.is_zero():
            return "ESE(0)"
        bits = []
        for e in sorted(self.poly.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.poly.terms[e]
            mon = "*".join(
                f"E{i + 1}" if p == 1 else f"E{i + 1}^{p}"
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" if not mon else f"{c}*{mon}")
        return "ESE(" + " + ".join(bits) + ")"


def decompose(p: MultiPoly) -> ElementarySymmetricExpression:
    """Write a symmetric polynomial as a polynomial in e1..en."""
    bad = _violating_transposition(p)
    if bad is not None:
        raise ValueError(
            f"not symmetric: swapping x{bad + 1} and x{bad + 2} changes the polynomial"
        )
    n = p.n
    out = {}
    rem = p
    prev_lead = None
    while not rem.is_zero():
        exps, c = rem.lex_leading()
        if prev_lead is not None and not exps < prev_lead:
            raise RuntimeError("leading monomial failed to decrease")
        prev_lead = exps
        e_exps = tuple(
            exps[i] - exps[i + 1] if i + 1 < n else exps[i] for i in range(n)
        )
        if any(x < 0 for x in e_exps):
            raise RuntimeError("leading exponent not weakly decreasing")
        out[e_exps] = out.get(e_exps, 0) + c
        rem = rem - _e_product(n, e_exps).scale(c)
    return ElementarySymmetricExpression(MultiPoly(n, out))


def expand_elementary(q: ElementarySymmetricExpression) -> MultiPoly:
    """Expand back into the original variables (inverse of decompose)."""
    n = q.n
    acc = MultiPoly(n)
    for exps, c in q.poly.terms.items():
        acc = acc + _e_product(n, exps).scale(c)
    return acc


def elementary_values(values):
    """All of e1..em evaluated at the given scalars, by the recurrence of
    the product expansion of (t + v1)...(t + vm): one more value v takes
    e_j to e_j + v * e_(j-1), with e_0 = 1 and e_(k+1) = 0 left out, so
    no product by 1 or sum with 0 is formed.  Works over any exact ring
    whose elements support + and *."""
    es = []
    for v in values:
        if es:
            es = [es[0] + v] + [a + v * b for a, b in zip(es[1:], es)] + [v * es[-1]]
        else:
            es = [v]
    return es


def substitute_elementary(q: ElementarySymmetricExpression, e_values):
    """Evaluate the expression at given elementary symmetric values."""
    if len(e_values) != q.n:
        raise ValueError(f"expected {q.n} values, got {len(e_values)}")
    return q.poly.eval(list(e_values))
