"""In-process automorphism and lattice times: build each input's root
expressions once, then time ``automorphism_table`` and
``correspondence_lattice`` on them, each best of --repeat runs.

Run from a checkout, against that checkout's sources:

    PYTHONPATH=src python3 tools/lattice_times.py --repeat 3 "x^4 - x - 1"

Prints one line per input with its group order, subgroup count,
automorphism seconds and lattice seconds.  Root isolation, the resolvent
and the root expressions run once per input, outside the timed regions.
An input that galcert refuses ends the run with ``error: ...`` on
stderr and exit status 2, as in the CLI.
"""

from __future__ import annotations

import argparse
import sys
import time

from galcert.cli import normalize_monic_integer, parse_poly
from galcert.correspondence import correspondence_lattice
from galcert.errors import CertificationError, InputError, TheoremError
from galcert.numberfield import automorphism_table, express_roots
from galcert.resolvent import identify_galois, search_resolvent
from galcert.roots import isolate_roots


def best_of(repeat: int, fn, *args):
    """(fn(*args), the best of repeat timed runs in seconds)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return out, best


def stage_seconds(text: str, repeat: int):
    """(splitting field, best automorphism time, best lattice time, the
    lattice's report)."""
    f, _ = normalize_monic_integer(parse_poly(text))
    gd = identify_galois(search_resolvent(isolate_roots(f)))
    sf, autos = best_of(repeat, automorphism_table, gd, express_roots(gd))
    report, lattice = best_of(repeat, correspondence_lattice, sf)
    return sf, autos, lattice, report


def at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("polys", nargs="+", help="polynomials, e.g. 'x^4 - x - 1'")
    parser.add_argument("--repeat", type=at_least_one, default=3)
    args = parser.parse_args(argv)
    for text in args.polys:
        try:
            sf, autos, lattice, report = stage_seconds(text, args.repeat)
        except (InputError, CertificationError, TheoremError) as exc:
            print(f"error: {text}: {exc}", file=sys.stderr)
            return 2
        print(f"{text:<24} |G| {sf.galois.group.order:>2}  subgroups {len(report.entries):>2}  "
              f"automorphisms {autos:.3f} s  lattice {lattice:.3f} s (best of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
