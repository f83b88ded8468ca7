"""Child processes of the benchmark; the harness starts them, never a user.

    worker.py warm JOB_FILE OUT_FILE plain|trace
        Warm workload: import galcert, run the warm-up inputs, then pass
        over the job's inputs in this one process, each under a
        ``signal.setitimer`` deadline, with the tracer installed in
        ``trace`` mode.  Results go to OUT_FILE.

    worker.py cli TRACE_FILE ARGS...
        Cold traced input: install the tracer, run ``galcert.cli.main(ARGS)``
        exactly as ``python -m galcert.cli ARGS`` would, and write the trace
        summary to TRACE_FILE.  Standard output is the CLI's own.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
import traceback


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_one(cli, errors, poly, deadline_s):
    """Analyse and render one input under a deadline; returns its record."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report = cli.analyze(poly)
        text = cli.render_json(report)
        outcome = "ok" if report.all_passed() else "checks_failed"
        record = {"outcome": outcome, "order": report.group_order,
                  "subgroups": len(report.entries),
                  "sha256": hashlib.sha256(text.encode()).hexdigest()}
    except (errors.InputError, errors.CertificationError, errors.TheoremError) as exc:
        record = {"outcome": type(exc).__name__}
    except Deadline:
        record = {"outcome": "deadline"}
    except Exception as exc:  # any other escape is a failed input, not a failed run
        record = {"outcome": f"exception {type(exc).__name__}",
                  "error": traceback.format_exc()[-500:]}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record.update(start=t0, end=time.perf_counter(), cpu=time.process_time() - c0)
    record["seconds"] = record["end"] - t0
    return record


def _pass(cli, errors, job, stop_at, tracer=None):
    """One pass over the job's inputs; each input gets its own trace
    summary when traced, so per-input stage rows can be printed."""
    records = []
    for poly in job["inputs"]:
        left = stop_at - time.perf_counter()
        if left <= 0:
            records.append({"outcome": "deadline", "seconds": 0.0, "cpu": 0.0})
            continue
        if tracer is not None:
            tracer.reset()
        record = run_one(cli, errors, poly, min(job["deadline_s"], left))
        if tracer is not None:
            record["trace"] = tracer.summarize()
        records.append(record)
    return records


def warm(job_path, out_path, mode):
    with open(job_path) as fh:
        job = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    from galcert import cli, errors

    for poly in job["warmup"]:
        cli.analyze(poly)
    stop_at = time.perf_counter() + job["budget_s"]
    if mode == "trace":
        from tracer import Tracer

        with Tracer() as tracer:
            records = _pass(cli, errors, job, stop_at, tracer)
    else:
        records = _pass(cli, errors, job, stop_at)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as fh:
        json.dump({"records": records, "peak_rss_mb": peak_mb}, fh)


def traced_cli(trace_path, argv):
    from galcert import cli
    from tracer import Tracer

    tracer = Tracer()
    try:
        with tracer:
            return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(tracer.summarize(), fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "warm":
        warm(sys.argv[2], sys.argv[3], sys.argv[4])
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
