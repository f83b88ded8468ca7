"""In-process lattice times: build each input's splitting field once, then
time ``correspondence_lattice`` on it, best of --repeat runs.

Run from a checkout, against that checkout's sources:

    PYTHONPATH=src python3 tools/lattice_times.py --repeat 3 "x^4 - x - 1"

Prints one line per input with its group order, subgroup count and
lattice seconds.  Root isolation, the resolvent, the root expressions and
the automorphisms run once per input, outside the timed region.
"""

from __future__ import annotations

import argparse
import time

from galcert.cli import normalize_monic_integer, parse_poly
from galcert.correspondence import correspondence_lattice
from galcert.numberfield import automorphism_table, express_roots
from galcert.resolvent import identify_galois, search_resolvent
from galcert.roots import isolate_roots


def lattice_seconds(text: str, repeat: int):
    """(splitting field, best lattice time in seconds, its report)."""
    f, _ = normalize_monic_integer(parse_poly(text))
    gd = identify_galois(search_resolvent(isolate_roots(f)))
    sf = automorphism_table(gd, express_roots(gd))
    best, report = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        report = correspondence_lattice(sf)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return sf, best, report


def at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("polys", nargs="+", help="polynomials, e.g. 'x^4 - x - 1'")
    parser.add_argument("--repeat", type=at_least_one, default=3)
    args = parser.parse_args(argv)
    for text in args.polys:
        sf, best, report = lattice_seconds(text, args.repeat)
        print(f"{text:<24} |G| {sf.galois.group.order:>2}  subgroups {len(report.entries):>2}  "
              f"lattice {best:.3f} s (best of {args.repeat})")


if __name__ == "__main__":
    main()
