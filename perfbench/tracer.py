"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions and methods of the galcert
modules.  A function is rebound in every loaded galcert module that
imported it (``compose_mod`` lives in both ``numberfield`` and
``correspondence``, for instance), so calls through any import path are
seen.  Timed targets record spans (name, start, end, parent) in memory;
counted targets only bump a counter, because they run millions of times.
``uninstall()`` puts every original back.

``summarize()`` turns the spans into additive totals, which can be merged
across processes; ``layer_metrics()`` and ``stage_table()`` read those
totals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAN = "span"
COUNT = "count"

# (trace name, kind, "module:attribute" or "module:Class.attribute")
TARGETS = (
    ("cli.analyze", SPAN, "cli:analyze"),
    ("cli.parse", SPAN, "cli:parse_poly"),
    ("cli.render", SPAN, "cli:render_json"),
    ("roots.isolate", SPAN, "roots:isolate_roots"),
    ("roots.refine", SPAN, "roots:RootSystem.refine"),
    ("resolvent.search", SPAN, "resolvent:search_resolvent"),
    ("resolvent.certify", SPAN, "resolvent:certify_distinct_values"),
    ("resolvent.identify", SPAN, "resolvent:identify_galois"),
    ("resolvent.poly", SPAN, "resolvent:resolvent_poly"),
    ("sympoly.decompose", SPAN, "sympoly:decompose"),
    ("sympoly.substitute", SPAN, "sympoly:substitute_elementary"),
    ("poly.multipoly_mul", SPAN, "poly:MultiPoly.__mul__"),
    ("poly.unipoly_divmod", COUNT, "poly:UniPoly.__divmod__"),
    ("groups.all_subgroups", SPAN, "groups:all_subgroups"),
    ("groups.closure", SPAN, "groups:closure"),
    ("numberfield.express", SPAN, "numberfield:express_roots"),
    ("numberfield.autos", SPAN, "numberfield:automorphism_table"),
    ("numberfield.compose_mod", SPAN, "numberfield:compose_mod"),
    ("numberfield.mul", COUNT, "numberfield:NumberFieldElement.__mul__"),
    ("numberfield.mul", COUNT, "numberfield:NumberFieldElement.__rmul__"),
    ("numberfield.matrix", SPAN, "numberfield:SplittingField.matrix"),
    ("numberfield.apply", COUNT, "numberfield:SplittingField.apply"),
    ("numberfield.inverse", SPAN, "numberfield:NumberFieldElement.inverse"),
    ("arith.ball_mul", COUNT, "arith:ComplexBall.mul"),
    ("correspondence.lattice", SPAN, "correspondence:correspondence_lattice"),
    ("correspondence.field_from_subgroup", SPAN, "correspondence:field_from_subgroup"),
    ("correspondence.fixed_field", SPAN, "correspondence:fixed_field"),
    ("correspondence.rref", SPAN, "correspondence:rref"),
    ("correspondence.nullspace", SPAN, "correspondence:nullspace"),
    ("correspondence.averaging", SPAN, "correspondence:averaging_check"),
    ("correspondence.minpoly", COUNT, "correspondence:minimal_polynomial"),
)

# a number kept on the span, taken from the call's result
_RESULT_VALUE = {
    "roots.isolate": lambda rs: rs.precision_bits,
    "roots.refine": lambda rs: rs.precision_bits,
    "groups.all_subgroups": len,
    "correspondence.lattice": lambda report: len(report.entries),
    "resolvent.search": lambda spec: 1,
}

# the ROADMAP's seven pipeline stages and the span that times each
STAGES = (
    ("isolate", "roots.isolate"),
    ("search", "resolvent.search"),
    ("resolvent", "resolvent.poly"),
    ("identify", "resolvent.identify"),
    ("express", "numberfield.express"),
    ("autos", "numberfield.autos"),
    ("lattice", "correspondence.lattice"),
)


def _resolve(spec):
    """(owner object, attribute name, defining module) for a target."""
    mod_name, attr = spec.split(":")
    module = importlib.import_module(f"galcert.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(module, cls_name), attr, module
    return module, attr, module


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index or -1, value]
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []

    def reset(self):
        """Forget recorded spans and counts; the wrappers stay installed."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        value_of = _RESULT_VALUE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    span[4] = value_of(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, kind, spec in TARGETS:
                owner, attr, module = _resolve(spec)
                original = owner.__dict__[attr]
                make = self._span_wrapper if kind == SPAN else self._count_wrapper
                wrapped = make(name, original)
                # a module-level function is rebound wherever it was imported
                homes = [owner] if owner is not module else [
                    m for m in _galcert_modules() if m.__dict__.get(attr) is original
                ]
                for home in homes:
                    self._patches.append((home, attr, original))
                    setattr(home, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            home, attr, original = self._patches.pop()
            setattr(home, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def patched_homes(self):
        """(module or class name, attribute) pairs currently wrapped."""
        return sorted((home.__name__, attr) for home, attr, _ in self._patches)

    # -- summaries -----------------------------------------------------------

    def summarize(self):
        """Additive totals of this process's spans and counters: per span
        name [calls, inclusive ns, self ns], where inclusive time skips
        calls nested in a call of the same name; per counter its calls;
        the seven stages as [inclusive ns, self ns]; and the raw numbers
        the per-layer ratios are made of."""
        spans = self.spans
        child_ns = [0] * len(spans)
        closures_under = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "groups.closure":
                    closures_under[parent] += 1

        stage_of = {span: stage for stage, span in STAGES}
        per_name = {}
        stages = {stage: [0, 0] for stage, _ in STAGES}
        extra = dict.fromkeys(_EXTRA, 0)
        for i, (name, start, end, parent, value) in enumerate(spans):
            dur, own = end - start, end - start - child_ns[i]
            rec = per_name.setdefault(name, [0, 0, 0])
            rec[0] += 1
            rec[2] += own
            if not self._nested_in_same(i):
                rec[1] += dur
            parent_name = spans[parent][0] if parent >= 0 else None
            stage = stage_of.get(name)
            # isolation also runs inside refinement; only the pipeline's
            # own call is the isolate stage
            if stage and (name != "roots.isolate" or parent_name in (None, "cli.analyze")):
                stages[stage][0] += dur
                stages[stage][1] += own
            if name in ("roots.isolate", "roots.refine") and value:
                extra["max_bits"] = max(extra["max_bits"], value)
            elif name == "groups.all_subgroups" and closures_under[i]:
                extra["closure_useful"] += value or 0
            elif name == "correspondence.lattice" and value:
                extra["primitive_hits"] += value
            elif name == "resolvent.search" and value:
                extra["search_accepts"] += 1
            elif name == "resolvent.certify" and parent_name == "resolvent.search":
                extra["candidates_tried"] += 1
        return {"spans": per_name, "counts": dict(self.counts),
                "extra": extra, "stages": stages}

    def _nested_in_same(self, i):
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


_EXTRA = ("max_bits", "closure_useful", "primitive_hits",
          "search_accepts", "candidates_tried")


def merge(summaries):
    """One summary from several (one per process or per input)."""
    out = {"spans": {}, "counts": {}, "extra": dict.fromkeys(_EXTRA, 0),
           "stages": {stage: [0, 0] for stage, _ in STAGES}}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += rec[k]
        for name, n in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        for key, v in s["extra"].items():
            out["extra"][key] = (max(out["extra"][key], v) if key == "max_bits"
                                 else out["extra"][key] + v)
        for stage, (incl, own) in s["stages"].items():
            out["stages"][stage][0] += incl
            out["stages"][stage][1] += own
    return out


# per-layer metrics: (metric name, unit, how it is read from a summary)
def _seconds(span):
    return lambda s: s["spans"].get(span, [0, 0, 0])[1] / 1e9


def _calls(name):
    return lambda s: s["spans"].get(name, [0])[0] + s["counts"].get(name, 0)


def _ratio(num, den):
    """num/den; 0 when nothing was attempted (the base is printed too)."""
    def read(s):
        d = den(s)
        return num(s) / d if d else 0.0
    return read


def _extra(key):
    return lambda s: s["extra"][key]


PER_LAYER = (
    ("groups.all_subgroups_s", "s", _seconds("groups.all_subgroups")),
    ("groups.all_subgroups_calls", "count", _calls("groups.all_subgroups")),
    ("groups.closure_calls", "count", _calls("groups.closure")),
    ("groups.closure_useful_ratio", "ratio",
     _ratio(_extra("closure_useful"), _calls("groups.closure"))),
    ("resolvent.poly_s", "s", _seconds("resolvent.poly")),
    ("resolvent.poly_calls", "count", _calls("resolvent.poly")),
    ("sympoly.decompose_s", "s", _seconds("sympoly.decompose")),
    ("sympoly.decompose_calls", "count", _calls("sympoly.decompose")),
    ("sympoly.substitute_s", "s", _seconds("sympoly.substitute")),
    ("poly.multipoly_mul_s", "s", _seconds("poly.multipoly_mul")),
    ("poly.multipoly_mul_calls", "count", _calls("poly.multipoly_mul")),
    ("resolvent.search_s", "s", _seconds("resolvent.search")),
    ("resolvent.candidates_tried", "count", _extra("candidates_tried")),
    ("resolvent.candidate_accept_ratio", "ratio",
     _ratio(_extra("search_accepts"), _extra("candidates_tried"))),
    ("resolvent.identify_s", "s", _seconds("resolvent.identify")),
    ("poly.unipoly_divmod_calls", "count", _calls("poly.unipoly_divmod")),
    ("roots.isolate_s", "s", _seconds("roots.isolate")),
    ("roots.isolate_calls", "count", _calls("roots.isolate")),
    ("roots.refine_calls", "count", _calls("roots.refine")),
    ("roots.max_bits", "bits", _extra("max_bits")),
    ("arith.ball_mul_calls", "count", _calls("arith.ball_mul")),
    ("numberfield.express_s", "s", _seconds("numberfield.express")),
    ("numberfield.autos_s", "s", _seconds("numberfield.autos")),
    ("numberfield.compose_mod_s", "s", _seconds("numberfield.compose_mod")),
    ("numberfield.compose_mod_calls", "count", _calls("numberfield.compose_mod")),
    ("numberfield.mul_calls", "count", _calls("numberfield.mul")),
    ("numberfield.matrix_s", "s", _seconds("numberfield.matrix")),
    ("numberfield.matrix_calls", "count", _calls("numberfield.matrix")),
    ("numberfield.apply_calls", "count", _calls("numberfield.apply")),
    ("numberfield.inverse_s", "s", _seconds("numberfield.inverse")),
    ("numberfield.inverse_calls", "count", _calls("numberfield.inverse")),
    ("correspondence.lattice_s", "s", _seconds("correspondence.lattice")),
    ("correspondence.field_from_subgroup_s", "s",
     _seconds("correspondence.field_from_subgroup")),
    ("correspondence.field_from_subgroup_calls", "count",
     _calls("correspondence.field_from_subgroup")),
    ("correspondence.fixed_field_s", "s", _seconds("correspondence.fixed_field")),
    ("correspondence.rref_s", "s", _seconds("correspondence.rref")),
    ("correspondence.rref_calls", "count", _calls("correspondence.rref")),
    ("correspondence.nullspace_s", "s", _seconds("correspondence.nullspace")),
    ("correspondence.averaging_s", "s", _seconds("correspondence.averaging")),
    ("correspondence.minpoly_calls", "count", _calls("correspondence.minpoly")),
    ("correspondence.primitive_hit_ratio", "ratio",
     _ratio(_extra("primitive_hits"), _calls("correspondence.minpoly"))),
    ("cli.parse_s", "s", _seconds("cli.parse")),
    ("cli.render_s", "s", _seconds("cli.render")),
)

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_metrics(summary):
    return {name: (read(summary), unit) for name, unit, read in PER_LAYER}


def stage_table(rows):
    """Text table of the seven stages; rows are (label, summary)."""
    head = f"{'input':<28}" + "".join(f"{stage:>17}" for stage, _ in STAGES)
    lines = ["stage seconds, inclusive/self:", head]
    for label, summary in rows:
        cells = "".join(
            f"{incl / 1e9:>8.3f}/{own / 1e9:<8.3f}"
            for incl, own in (summary["stages"][stage] for stage, _ in STAGES)
        )
        lines.append(f"{label[:28]:<28}{cells}")
    return "\n".join(lines)


def _galcert_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "galcert" or n.startswith("galcert."))]
