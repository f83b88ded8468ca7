"""Benchmark inputs: the fixed corpus with hand-checked answers, and the
seeded generators for the warm workloads.

Every generator draws from ``random.Random(f"{workload}:{seed}")``, whose
string seeding is stable across processes and Python hash seeds, so the
same seed always gives the same inputs.

small_warm draws polynomials the natural way, every coefficient uniform
in [-100, 100] with a nonzero leading one, and stratifies them so that
every run of a given length has the same mix of input kinds.  Shares of
that natural draw, measured over 100,000 cubics and 100,000 quadratics
(``random.Random("shares")``, classified by ``cubic_discriminant`` and
``has_rational_root`` below, or the quadratic discriminant):

    cubic      one real root 77.63%, three real roots 20.61%,
               reducible (a rational root) 1.75%, repeated root 0.008%
    quadratic  irreducible 97.13%, reducible 2.86%, repeated root 0.015%
    either     monic 0.46%

Cubic slots are filled at the measured cubic shares (largest remainder),
each kind drawn from the natural draw by rejection.  Quadratic slots take
the natural draw as it comes.  Three shares are policy, not measurement:

* one input in five is a quadratic.  A quadratic takes about 9 ms and an
  irreducible cubic about 0.25 s (S3, a degree-6 field), so quadratics
  stay a minority and the median input stays an irreducible cubic;
* one input in twenty has a repeated root (built, not drawn: its natural
  share is too small to show up in a run), so every run checks that
  galcert rejects it with InputError as the oracle predicts;
* each input is written with rational coefficients with probability 1/3,
  the integer ones over a common denominator, for the parser's
  normalisation path.  The field is the same; a median cubic took
  0.249 s written so and 0.246 s not.

Monic inputs are left at their natural share; making a cubic monic did
not change its cost (0.247 s against 0.246 s).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cold: bool            # each input in a fresh CLI process
    deadline_s: float     # per-input deadline; a miss is a failure
    # cost of one warm input on a 2-vCPU x86 box; sizes a warm run
    nominal_input_s: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus_cold",
            "one CLI process per corpus polynomial (C2..A4 and a reducible "
            "V4): import and cold group/sympoly caches are paid every time",
            cold=True, deadline_s=60.0,
        ),
        Workload(
            "small_warm",
            "seeded |coeff|<=100 quadratics and cubics in one warm process: "
            "many small fields; the quartic resolvent and cold caches are bypassed",
            cold=False, deadline_s=10.0, nominal_input_s=0.19,
        ),
    )
}


@dataclass(frozen=True)
class Known:
    """Hand-checked answer for a corpus polynomial."""

    poly: str
    group: str
    order: int
    subgroups: int


CORPUS = (
    Known("x^2 - 2", "C2", 2, 2),
    Known("x^3 - 3x - 1", "C3", 3, 2),
    Known("x^3 - 2", "S3", 6, 6),
    Known("x^4 + x^3 + x^2 + x + 1", "C4", 4, 3),
    Known("x^4 + 1", "V4", 4, 5),
    Known("x^4 - 2", "D4", 8, 10),
    Known("x^4 + 8x + 12", "A4", 12, 10),
    # reducible: (x^2 - 2)(x^2 - 3), an intransitive Klein four-group
    Known("x^4 - 5x^2 + 6", "V4", 4, 5),
)

# inputs run once before timing in warm workloads, so the group and
# symmetric-polynomial caches for degrees 2 and 3 are filled
WARMUP = ("x^2 - 2", "x^3 - 2")

# measured shares of the natural cubic draw, repeated roots left out
# (see the module docstring)
CUBIC_SHARES = (("one_real", 0.7763), ("three_real", 0.2061), ("reducible", 0.0175))
QUADRATIC_SHARE = 1 / 5      # policy
REPEATED_ROOT_SHARE = 1 / 20  # policy
RATIONAL_SHARE = 1 / 3        # policy


def input_count(workload: Workload, seconds: float) -> int:
    """Inputs in one run: enough for ``seconds`` at the nominal cost.
    The count depends only on the arguments, so two runs with the same
    arguments do exactly the same work."""
    if workload.cold:
        return len(CORPUS)
    return max(2, round(seconds / workload.nominal_input_s))


def make_inputs(workload: str, seed: int, count: int) -> list[str]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus_cold":
        polys = [k.poly for k in CORPUS]
        rng.shuffle(polys)
        return polys
    if workload == "small_warm":
        return _small_inputs(rng, count)
    raise ValueError(f"unknown workload {workload!r}")


# -- polynomials as coefficient lists, ascending -----------------------------

def render(coeffs) -> str:
    """Expression text the galcert parser accepts, e.g. '-3x^3 + 5/7x - 2'."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if (k == 0 or mag != 1) else ""
        body += var
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def has_rational_root(coeffs) -> bool:
    """Rational root test for integer coefficients."""
    if coeffs[0] == 0:
        return True
    return any(
        _eval(coeffs, Fraction(s * p, q)) == 0
        for p in _divisors(coeffs[0])
        for q in _divisors(coeffs[-1])
        for s in (1, -1)
    )


def cubic_discriminant(coeffs) -> int:
    d, c, b, a = coeffs
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def small_mix(count: int) -> dict[str, int]:
    """Number of inputs of each kind in a small_warm run of ``count``."""
    mix = {"repeated_root": round(count * REPEATED_ROOT_SHARE),
           "quadratic": round(count * QUADRATIC_SHARE)}
    cubics = count - sum(mix.values())
    exact = {kind: cubics * share for kind, share in CUBIC_SHARES}
    mix.update({kind: int(v) for kind, v in exact.items()})
    by_remainder = sorted(exact, key=lambda k: exact[k] - int(exact[k]), reverse=True)
    for kind in by_remainder[:count - sum(mix.values())]:
        mix[kind] += 1
    return mix


def _small_inputs(rng, count):
    kinds = [kind for kind, k in small_mix(count).items() for _ in range(k)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        coeffs = _repeated_root(rng) if kind == "repeated_root" else _natural(rng, kind)
        if rng.random() < RATIONAL_SHARE:
            q = rng.randint(2, 9)
            coeffs = [Fraction(c, q) for c in coeffs]
        out.append(render(coeffs))
    return out


def small_kind(coeffs) -> str:
    """Kind of a squarefree integer quadratic or cubic, as in CUBIC_SHARES."""
    if len(coeffs) == 3:
        return "quadratic"
    if has_rational_root(coeffs):
        return "reducible"
    return "one_real" if cubic_discriminant(coeffs) < 0 else "three_real"


def _natural(rng, kind):
    """The natural draw, conditioned on the kind and on no repeated root."""
    degree = 2 if kind == "quadratic" else 3
    while True:
        c = [rng.randint(-100, 100) for _ in range(degree)] + [_nonzero(rng, 100)]
        disc = c[1] ** 2 - 4 * c[0] * c[2] if degree == 2 else cubic_discriminant(c)
        if disc != 0 and small_kind(c) == kind:
            return c


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _repeated_root(rng):
    r = rng.randint(-4, 4)
    if rng.random() < 0.5:
        return _mul([-r, 1], [-r, 1])
    s = rng.choice([v for v in range(-4, 5) if v != r])
    return _mul(_mul([-r, 1], [-r, 1]), [-s, 1])
