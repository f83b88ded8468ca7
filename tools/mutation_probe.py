"""Mutation probe: does some test fail when one certificate check is broken?

    python3 tools/mutation_probe.py

Each row of ``MUTANTS`` names a file under ``src/galcert``, one source
line in it (matched without its indentation, and found exactly once),
the line that replaces it, and the tests that should notice.  The probe
copies ``src``, ``tests``, ``perfbench``, ``tools`` and ``pyproject.toml``
to a temporary directory, runs the union of the rows' tests there once
unmutated (they must pass), then for each row writes the mutant, runs
its tests with ``pytest -x`` and restores the file.  It prints one line
per row, ``killed`` when a test fails, ``survived`` when all pass and
``error`` when the run ends otherwise (say, a selector that names no
test), and exits 1 when a row is not killed, else 0.  The full table
takes a few minutes on two cores.  A change that adds or changes a check
adds its row here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

R = "tests/test_resolvent.py::"
RO = "tests/test_roots.py::"
N = "tests/test_numberfield.py::"
C = "tests/test_correspondence.py::"

# (file in src/galcert, source line, replacement, test selectors)
MUTANTS = (
    # the Galois group: Newton's identities, Dedekind's certificate and the
    # subgroup search
    ("resolvent.py", "if r:", "if False:",
     (R + "test_newton_refuses_power_sums_of_no_integer_polynomial",)),
    ("resolvent.py", "if d >= 0 and isqrt(d) ** 2 == d:", "if False:",
     (R + "test_dedekind_certifies_only_the_symmetric_group", "tests/test_oracle.py")),
    ("resolvent.py", "if d >= 0 and isqrt(d) ** 2 == d:", "if d >= 0:",
     (R + "test_dedekind_certifies_only_the_symmetric_group", "tests/test_oracle.py")),
    ("resolvent.py", "wanted = {0} if n == 3 else {0, 1}", "wanted = {0} if n == 3 else {0}",
     (R + "test_dedekind_certifies_only_the_symmetric_group", "tests/test_oracle.py")),
    ("resolvent.py", "for x in range(p):", "for x in range(1, p):",
     (R + "test_cycle_types_mod_small_primes", R + "test_a_root_free_prime_of_type_2_2_completes_s4",
      "tests/test_oracle.py::test_roots_mod_matches_the_factor_degrees")),
    ("resolvent.py", "if not d % p:", "if False:",
     (R + "test_no_prime_dividing_the_discriminant_is_read",)),
    ("resolvent.py", "return is_squarefree(ladder.resolvent)", "return True",
     ("tests/test_resolvent.py",)),
    ("resolvent.py", "if not remainder.is_zero():", "if False:",
     (R + "test_exact_division_rejects_a_candidate_off_by_one",)),
    ("resolvent.py",
     "if any(not candidate.eval_ball(v, prec).contains_zero() for v in doubt):", "if False:",
     (R + "test_cofactor_rejects_the_other_dihedral_conjugates",)),
    ("resolvent.py",
     'raise CertificationError(f"the subgroup {sub!r} stays undecided at {bits} bits")',
     "return None",
     (R + "test_an_undecided_subgroup_is_refused_not_rejected",)),
    # the root balls
    ("roots.py", "if not all(cmath.isfinite(z) for z in zs):", "if False:",
     (RO + "test_isolation_survives_a_float_iteration_that_overflows",)),
    ("roots.py", "if all(b.rad <= target for b in balls) and pairwise_disjoint(balls):",
     "if all(b.rad <= target for b in balls):",
     (RO + "test_isolation_rejects_a_polish_that_repeats_a_point",)),
    ("roots.py", "if sorted(hits) == [[j] for j in range(len(fresh))]:", "if all(hits):",
     (RO + "test_refine_rejects_two_new_balls_meeting_one_old_ball",)),
    ("roots.py", "if dx * dx + y * y > r * r:", "if False:",
     ("tests/test_arith.py::test_read_integers_decides_like_the_exact_disk",
      "tests/test_arith.py::test_read_integers_at_the_half_integer_edge")),
    # the root expressions, the characteristic polynomial, the inverse and the
    # automorphisms
    ("numberfield.py", "if not compose_mod(f, e).is_zero():", "if False:",
     (N + "test_a_tampered_trace_fails_the_root_identity",)),
    ("numberfield.py", "if len(set(exprs)) != len(exprs):", "if False:",
     (N + "test_a_repeated_root_expression_is_refused",)),
    ("numberfield.py", "if combination(weights, exprs) != gen:", "if False:",
     (N + "test_swapped_root_expressions_are_rejected",)),
    ("numberfield.py", "if d % k:", "if False:",
     (N + "test_charpoly_refuses_a_power_that_closes_no_subfield",)),
    ("numberfield.py", "if r:", "if False:",
     (N + "test_charpoly_refuses_a_trace_of_no_subfield",)),
    ("numberfield.py", "if not chi.num[0]:", "if False:",
     (N + "test_inverse_of_zero_is_an_error",)),
    ("numberfield.py", "if self * inv != field.one():", "if False:",
     (N + "test_a_perturbed_inverse_fails_its_product_check",)),
    ("numberfield.py", "if not (top * psi + _mat_vec(field, mat, low)).is_zero():", "if False:",
     (N + "test_a_misordering_outside_the_group_is_not_a_conjugate",)),
    ("numberfield.py",
     "if any(_mat_vec(field, mat, e) != roots[s(i)] for i, e in enumerate(roots)):", "if False:",
     (N + "test_a_misordering_inside_the_group_does_not_permute_the_roots",)),
    # the subfields and the lattice
    ("correspondence.py", "if len(rows) != len(echelon([e.num for e in elements])[0]):",
     "if False:",
     (C + "test_subfield_construction_rejects_non_closed_spans",)),
    ("correspondence.py", "if r:", "if False:",
     (C + "test_a_mean_trace_that_is_not_an_integer_is_a_theorem_error",)),
    ("correspondence.py", "if not compose_mod(sf2.galois.min_poly, t).is_zero():", "if False:",
     (C + "test_an_isomorphism_off_the_conjugates_is_refused",)),
    ("correspondence.py",
     "if compose_mod(sf2.root_exprs[i].to_unipoly(), t) != sf.root_exprs[i]:", "if False:",
     (C + "test_an_isomorphism_onto_another_conjugate_is_refused",)),
    ("correspondence.py", "if not all(sf.sends(s, x, x) for s in h.generators):", "if False:",
     ("tests/test_correspondence.py",)),
    ("correspondence.py", "if rows != _fixed_space(h, sf):", "if False:",
     (C + "test_wrong_symmetric_field_is_a_theorem_error",)),
    ("correspondence.py", "if len(rows) != k:", "if False:",
     (C + "test_a_trace_one_too_many_is_a_theorem_error",)),
    ("correspondence.py", "if key in seen:", "if False:",
     (C + "test_injectivity_rejects_a_repeated_field",)),
    ("correspondence.py", "if la.dim * h.order != d:", "if False:",
     (C + "test_degree_check_rejects_fields_of_the_wrong_size",)),
    ("correspondence.py", "if not constructed[i].contains(entries[j].primitive):", "if False:",
     (C + "test_inclusion_reversal_rejects_swapped_fields",)),
    ("correspondence.py", "if any(sf.sends(s, prim, prim) for s in out):", "if False:",
     (C + "test_stabilizer_replay_rejects_a_primitive_of_another_field",)),
    ("correspondence.py", "if x * inv != 1:", "if False:",
     (C + "test_inverse_closure_rejects_a_wrong_minimal_polynomial",)),
    ("correspondence.py", "if not averaging_check(e.primitive, e.subgroup, sf):", "if False:",
     (C + "test_failed_averaging_witness_is_a_theorem_error",)),
    ("correspondence.py", "return all(sf.sends(s, x, x) for s in h)",
     "return all(sf.sends(s, x, x) for s in h.generators)",
     (C + "test_averaging_witness_reads_every_element_of_the_subgroup",)),
)


def mutate(text: str, line: str, replacement: str) -> str:
    """text with its one line that reads ``line``, indentation aside,
    replaced by ``replacement`` at the same indentation."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, s in enumerate(lines) if s.strip() == line]
    if len(hits) != 1:
        raise ValueError(f"{line!r} occurs {len(hits)} times")
    [i] = hits
    old = lines[i]
    lines[i] = old[:len(old) - len(old.lstrip())] + replacement + "\n"
    return "".join(lines)


def run_tests(tree: Path, selectors) -> str:
    """"passed", "failed" or "error" for the selectors in tree, stopping
    at the first failure; the tree's own src comes first on the path.  A
    failed test counts as failed also when pytest then ends in an
    internal error, as it does when the hypothesis plugin's failure
    report raises a warning that the suite's filters turn into an error."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selectors],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode == 0:
        return "passed"
    if run.returncode in (1, 3) and lines and re.search(r"\b\d+ failed\b", lines[-1]):
        return "failed"
    return "error"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".perfbench-*")
        for name in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        selected = sorted({s for *_, selectors in MUTANTS for s in selectors})
        if run_tests(tree, selected) != "passed":
            print("the unmutated tests do not pass; no mutant was run")
            return 1
        bad = 0
        for name, line, replacement, selectors in MUTANTS:
            path = tree / "src" / "galcert" / name
            original = path.read_text()
            path.write_text(mutate(original, line, replacement))
            start = time.perf_counter()
            try:
                outcome = run_tests(tree, selectors)
            finally:
                path.write_text(original)
            verdict = {"passed": "survived", "failed": "killed", "error": "error"}[outcome]
            bad += verdict != "killed"
            print(f"{verdict:>8}  {name}: {line} -> {replacement}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
