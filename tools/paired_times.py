"""Paired warm times of two galcert trees, in one process.

    python3 tools/paired_times.py OLD_SRC NEW_SRC [--seed 1 --seed 2] [--passes 5]

OLD_SRC and NEW_SRC are ``src`` directories, each holding a ``galcert``
package; the same directory may be given twice.  Each is imported under
its own package name, which works because galcert imports its own
modules relatively.  Both trees run the warm-up inputs of the benchmark,
then every ``small_warm`` input of the given seeds (the count of a
default 15-second run) through ``analyze`` and ``render_json``, as the
benchmark's warm worker does.  Each input runs in both trees back to
back, and which tree goes first alternates from input to input, so both
see the same machine speed.  Times are CPU seconds of this process.

Prints, per tree, the total of each pass, and the median and quartiles
over inputs of the ratio NEW / OLD of each input's best time over the
passes; the quartiles tell a median ratio of 1.01 from noise.  A path
without ``galcert/__init__.py`` ends the run with ``error: ...`` on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WARMUP, WORKLOADS, input_count, make_inputs  # noqa: E402


def load_tree(src: Path, name: str):
    """galcert from src, imported as the package ``name``; returns (its
    cli module, the exceptions it raises for a refused input)."""
    init = src / "galcert" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    errors = importlib.import_module(f"{name}.errors")
    refused = (errors.InputError, errors.CertificationError, errors.TheoremError)
    return importlib.import_module(f"{name}.cli"), refused


def run_one(tree, poly: str) -> float:
    """CPU seconds to analyse and render one input; a refused input counts
    as the time to refuse it."""
    cli, refused = tree
    start = time.process_time()
    try:
        cli.render_json(cli.analyze(poly))
    except refused:
        pass
    return time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="src directory of the first tree")
    parser.add_argument("new", type=Path, help="src directory of the second tree")
    parser.add_argument("--seed", type=int, action="append", help="small_warm seed (repeatable; default 1)")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")
    for src in (args.old, args.new):
        if not (src / "galcert" / "__init__.py").is_file():
            print(f"error: {src}: no galcert/__init__.py", file=sys.stderr)
            return 2
    trees = [load_tree(args.old, "galcert_old"), load_tree(args.new, "galcert_new")]
    count = input_count(WORKLOADS["small_warm"], 15)
    inputs = [p for seed in args.seed or [1] for p in make_inputs("small_warm", seed, count)]
    for tree in trees:
        for poly in WARMUP:
            run_one(tree, poly)
    best = [[float("inf")] * len(inputs) for _ in trees]
    totals = [[] for _ in trees]
    for n in range(args.passes):
        spent = [0.0, 0.0]
        for i, poly in enumerate(inputs):
            order = (0, 1) if (n + i) % 2 == 0 else (1, 0)
            for t in order:
                seconds = run_one(trees[t], poly)
                spent[t] += seconds
                best[t][i] = min(best[t][i], seconds)
        for t in (0, 1):
            totals[t].append(spent[t])
    for label, src, passes in zip(("old", "new"), (args.old, args.new), totals):
        print(f"{label} {src}: pass totals " + " ".join(f"{s:.3f}" for s in passes)
              + f" s, median {statistics.median(passes):.3f} s")
    low, ratio, high = statistics.quantiles([b / a for a, b in zip(*best)], n=4)
    print(f"median per-input ratio new/old {ratio:.3f}, quartiles {low:.3f}-{high:.3f}, "
          f"over {len(inputs)} inputs (best of {args.passes} passes each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
