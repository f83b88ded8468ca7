"""Benchmark of the galcert pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the root of a checkout; the program is imported from ./src.
Each workload is a closed loop with one client: one input at a time, the
next starting when the previous one has finished, never more than two
busy processes.  ``corpus_cold`` starts ``python -m galcert.cli analyze
POLY --format json`` per input; the warm workloads run every input in one
worker process through ``galcert.cli.analyze`` and ``render_json``.

Untraced runs keep the harness and the measured processes on one core.
Each input's time is the CPU time of the process running it, scaled to
reference speed by a fixed reference computation probed on that core
every quarter second; this removes most of the host's speed drift, which
reaches 1.9x on a shared 2-vCPU machine.  So wall_s, latency_p50_s,
certified_per_s and setup_s are CPU seconds at reference speed, not
wall-clock seconds; speed.py gives the bias this leaves between kinds of
code.  The measured wall and CPU times are printed too.

Every output is checked: the outcome and the group order and subgroup
count against hand-checked answers (the corpus) or sympy (seeded inputs),
every certificate must pass, corpus JSON must match its recorded sha256,
and a traced pass must give the same digests as the untraced one.  Each
input has a deadline; a miss is a failure.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` every input is run untraced and traced at the same time,
one process per core, and the last line holds the per-layer metrics, whose
trace.overhead_ratio compares the CPU times of the two.  Human-readable
lines, with the seven-stage table, come before it.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import CORPUS, WARMUP, WORKLOADS, input_count, make_inputs  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "corpus_digests.json"
SETUP_STARTS = 9          # cold starts behind the setup_s median
RUN_BUDGET_S = 140.0      # measuring stops here; later inputs miss their deadline
CHILD_GRACE_S = 20.0      # extra time a warm worker gets before it is killed


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_children(cmds, timeout_s, tmp, speed_log=None):
    """Run the commands at the same time until all have ended or the
    timeout, taking speed probes meanwhile when given a log.  Returns per
    command a dict: code (None on timeout), out (bytes), err, start, end,
    cpu (the child's own user and system seconds) and rss_mb (its peak)."""
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(tempfile.TemporaryFile(dir=tmp)),
                  stack.enter_context(tempfile.TemporaryFile(dir=tmp))) for _ in cmds]
        start = time.perf_counter()
        procs = {}
        ended = {}
        try:
            for i, (cmd, (out, err)) in enumerate(zip(cmds, files)):
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
                procs[proc.pid] = (i, proc)
            next_probe = start
            while len(ended) < len(procs):
                pid, status, usage = os.wait4(-1, os.WNOHANG)
                now = time.perf_counter()
                if pid:
                    ended[pid] = (status, usage, now, False)
                elif now - start >= timeout_s:
                    break
                elif speed_log is not None and now >= next_probe:
                    speed_log.take()
                    next_probe = time.perf_counter() + speed_log.PROBE_EVERY_S
                else:
                    time.sleep(0.002)
        finally:
            # on a timeout, an error or a termination signal: kill and reap
            for pid, (_, proc) in procs.items():
                if pid not in ended:
                    proc.kill()
                    _, status, usage = os.wait4(pid, 0)
                    ended[pid] = (status, usage, time.perf_counter(), True)
        results = [None] * len(cmds)
        for pid, (i, proc) in procs.items():
            status, usage, end, killed = ended[pid]
            proc.returncode = os.waitstatus_to_exitcode(status)
            out, err = files[i]
            out.seek(0)
            err.seek(0)
            results[i] = {"code": None if killed else proc.returncode, "out": out.read(),
                          "err": err.read().decode(errors="replace"), "start": start,
                          "end": end, "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024}
        return results


# -- set-up ---------------------------------------------------------------------

def measure_setup(workload, tmp, speed_log):
    """Median CPU time, at reference speed, of fresh processes that import
    galcert and, for a warm workload, also run the warm-up inputs."""
    code = "import galcert"
    if not workload.cold:
        code += f"\nfor p in {list(WARMUP)!r}: galcert.analyze(p)"
    times = []
    for _ in range(SETUP_STARTS):
        speed_log.take()
        [child] = run_children([[sys.executable, "-c", code]], 60, tmp, speed_log)
        if child["code"] != 0:
            raise RuntimeError(f"set-up process failed: {child['err'].strip()}")
        speed_log.take()
        times.append(speed_log.scaled(child["cpu"], child["start"], child["end"]))
    return statistics.median(times)


# -- measuring --------------------------------------------------------------------

def run_cold(workload, inputs, traced, tmp, speed_log):
    """One fresh CLI process per input; returns (untraced records, traced
    records or None).  With tracing, the untraced and the traced process
    of an input run at the same time, one per core."""
    untraced, traced_records = [], [] if traced else None
    stop_at = time.perf_counter() + RUN_BUDGET_S
    for i, poly in enumerate(inputs):
        args = ["analyze", poly, "--format", "json"]
        cmds = [[sys.executable, "-m", "galcert.cli"] + args]
        trace_file = Path(tmp) / f"trace-{i}.json"
        if traced:
            cmds.append([sys.executable, str(HERE / "worker.py"), "cli", str(trace_file)] + args)
        left = stop_at - time.perf_counter()
        if left <= 0:
            missed = {"outcome": "deadline", "seconds": 0.0, "cpu": 0.0}
            untraced.append(missed)
            if traced:
                traced_records.append(missed)
            continue
        if speed_log is not None:
            speed_log.take()
        records = [_cold_record(child) for child in
                   run_children(cmds, min(workload.deadline_s, left), tmp, speed_log)]
        untraced.append(records[0])
        if traced:
            if trace_file.exists():
                records[1]["trace"] = json.loads(trace_file.read_text())
            traced_records.append(records[1])
    return untraced, traced_records


def _cold_record(child):
    record = {key: child[key] for key in ("start", "end", "cpu", "rss_mb")}
    record["seconds"] = child["end"] - child["start"]
    if child["code"] is None:
        record["outcome"] = "deadline"
    elif child["code"] == 0:
        data = json.loads(child["out"])
        record.update(
            outcome="ok" if all(c["pass"] for c in data["checks"]) else "checks_failed",
            order=data["group"]["order"],
            subgroups=len(data["subgroups"]),
            sha256=hashlib.sha256(child["out"]).hexdigest(),
        )
    else:
        record["outcome"] = {2: "InputError", 3: "CertificationError",
                             4: "TheoremError"}.get(child["code"], f"exit {child['code']}")
        record["stderr"] = child["err"].strip()[-300:]
    return record


def run_warm(workload, inputs, traced, tmp, speed_log):
    """All inputs in one worker process; returns (untraced records, traced
    records or None, peak RSS MB of the untraced worker).  With tracing a
    second, traced worker runs at the same time on the other core."""
    job = {"inputs": inputs, "warmup": list(WARMUP),
           "deadline_s": workload.deadline_s, "budget_s": RUN_BUDGET_S}
    job_file = Path(tmp) / "job.json"
    job_file.write_text(json.dumps(job))
    outs = [Path(tmp) / "untraced.json", Path(tmp) / "traced.json"][:2 if traced else 1]
    cmds = [[sys.executable, str(HERE / "worker.py"), "warm", str(job_file), str(out), mode]
            for out, mode in zip(outs, ("plain", "trace"))]
    results = []
    children = run_children(cmds, RUN_BUDGET_S + CHILD_GRACE_S, tmp, speed_log)
    for out, child in zip(outs, children):
        if child["code"] != 0:
            raise RuntimeError(f"warm worker failed (exit {child['code']}): "
                               f"{child['err'].strip()[-500:]}")
        results.append(json.loads(out.read_text()))
    return (results[0]["records"], results[1]["records"] if traced else None,
            results[0]["peak_rss_mb"])


# -- checking ---------------------------------------------------------------------

def expected_outcomes(workload, inputs):
    if workload.cold:
        known = {k.poly: k for k in CORPUS}
        return [("ok", known[p].group, known[p].order, known[p].subgroups) for p in inputs]
    from oracle import expected

    return [expected(p) for p in inputs]


def check(inputs, expected, records, digests):
    """Failure reasons per input (empty list: the input is correct)."""
    failures = []
    for poly, exp, rec in zip(inputs, expected, records):
        why = []
        if rec["outcome"] != exp[0]:
            detail = rec.get("error") or rec.get("stderr")
            why.append(f"outcome {rec['outcome']}, expected {exp[0]}"
                       + (f": {detail}" if detail else ""))
        elif exp[0] == "ok":
            if rec["order"] != exp[2]:
                why.append(f"group order {rec['order']}, expected {exp[2]} ({exp[1]})")
            if rec["subgroups"] != exp[3]:
                why.append(f"{rec['subgroups']} subgroups, expected {exp[3]}")
            if poly in digests and rec["sha256"] != digests[poly]:
                why.append("JSON output differs from its recorded sha256")
        failures.append(why)
    return failures


def same_digests(untraced, traced):
    return [a.get("sha256") == b.get("sha256") and a["outcome"] == b["outcome"]
            for a, b in zip(untraced, traced)]


# -- metrics ----------------------------------------------------------------------

def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it, or None."""
    for p in (99.9, 99, 95, 90, 80, 75, 50):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(times, failures, setup_s, peak_rss_mb):
    wall = sum(times)
    ok = sum(1 for why in failures if not why)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "certified_per_s": (ok / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- one workload -------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    """Measure and check one workload; returns the result object."""
    workload = WORKLOADS[name]
    inputs = make_inputs(name, seed, input_count(workload, seconds))
    expected = expected_outcomes(workload, inputs)
    digests = json.loads(DIGESTS.read_text())["sha256"] if workload.cold else {}
    # untraced runs measure on one core with speed probes; a traced run
    # puts its untraced and traced processes on both cores, unprobed
    speed_log = None if trace else speed.SpeedLog()
    if not trace:
        speed.pin_to_one_core()
    # the benchmark reads and writes only inside the checkout it runs in,
    # so its scratch files live there too (.gitignore names the pattern)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_s = measure_setup(workload, tmp, speed_log) if not trace else None
        if workload.cold:
            untraced, traced = run_cold(workload, inputs, trace, tmp, speed_log)
            peak = max(r.get("rss_mb", 0.0) for r in untraced)
        else:
            untraced, traced, peak = run_warm(workload, inputs, trace, tmp, speed_log)

    failures = check(inputs, expected, untraced, digests)
    if traced is not None:
        for why, same in zip(failures, same_digests(untraced, traced)):
            if not same:
                why.append("traced output differs from the untraced output")
        failures = [a + b for a, b in zip(failures, check(inputs, expected, traced, digests))]
    failed = sum(1 for why in failures if why)

    print(f"workload {name}: seed {seed}, {len(inputs)} inputs, "
          f"{'cold process per input' if workload.cold else 'one warm process'}, "
          "closed loop with one client")
    for poly, why in zip(inputs, failures):
        if why:
            print(f"  FAIL {poly}: {'; '.join(why)}")
    times = [speed_log.scaled(r["cpu"], r["start"], r["end"]) if "start" in r else 0.0
             for r in untraced] if speed_log else [r["cpu"] for r in untraced]
    tail = tail_percentile(len(times))
    print(f"  failed_share {failed / len(inputs):.4f} ({failed} of {len(inputs)} inputs)")
    print("  latency_tail_s " + (
        f"{percentile(times, tail):.4f} s (p{tail:g}, n={len(times)})" if tail
        else f"not reported: n={len(times)} leaves fewer than 10 samples beyond any percentile"))
    print(f"  measured: wall {sum(r['seconds'] for r in untraced):.4f} s, "
          f"CPU {sum(r['cpu'] for r in untraced):.4f} s" + (
              f"; times are CPU seconds at reference speed ({len(speed_log.samples)} "
              f"probes, median {statistics.median(p for _, p in speed_log.samples) * 1000:.3f} ms, "
              f"reference {speed.REFERENCE_S * 1000:g} ms)" if speed_log else ""))

    if traced is None:
        metrics = end_to_end(times, failures, setup_s, peak)
        for metric, (value, unit) in metrics.items():
            n = SETUP_STARTS if metric == "setup_s" else len(untraced)
            print(f"  {metric:<16} {value:.4f} {unit} (n={n})")
    else:
        summary = tr.merge(r["trace"] for r in traced if "trace" in r)
        metrics = tr.layer_metrics(summary)
        metrics[tr.OVERHEAD_METRIC[0]] = (
            sum(r["cpu"] for r in traced) / sum(times), tr.OVERHEAD_METRIC[1])
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<42} {value:.6g} {unit}")
        rows = ([(p, r["trace"]) for p, r in zip(inputs, traced) if "trace" in r]
                if workload.cold else [])
        rows.append((f"all {len(inputs)} inputs", summary))
        print(tr.stage_table(rows))
    return {
        "correct": failed == 0,
        "attempted": len(inputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its children (run_children)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "galcert" / "__init__.py").is_file():
        print(f"error: no galcert sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    final = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
