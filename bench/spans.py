"""Spans around brimlab's public functions, recorded from the benchmark.

The program has no telemetry of its own beyond a pair tally, so this
module wraps the functions listed in TRACED from the outside.  A module
that imports a function by name (rings, homology and multiplicity all do
`from .groebner import buchberger`) holds its own binding, so install()
replaces every binding of each function in every loaded brimlab module;
a binding left alone would make its calls go uncounted.  Program-side
stage telemetry is meant to replace these wrappers.

A span records name, start, end, parent span and operation id.  Spans
stay in memory; write_jsonl() writes them out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

import functools
import json
import statistics
import sys
import time

# (module, attribute) of every wrapped function, in brimlab's layer order
TRACED = (
    ("groebner", "buchberger"),
    ("groebner", "syzygy_basis"),
    ("groebner", "GroebnerBasis.contains"),
    ("rings", "make_ring"),
    ("rings", "is_parameter_module"),
    ("rings", "min_generators"),
    ("rings", "submodule_colength"),
    ("rings", "ideal_colength"),
    ("koszul", "build_koszul"),
    ("koszul", "fitting_ideal"),
    ("koszul", "verify_complex"),
    ("homology", "kernel_generators"),
    ("homology", "homology"),
    ("homology", "all_homology"),
    ("homology", "euler_characteristics"),
    ("homology", "annihilation_check"),
    ("multiplicity", "rees_power_generators"),
    ("multiplicity", "lambda_value"),
    ("multiplicity", "br_function_table"),
    ("multiplicity", "theorem_check"),
    ("dsl", "parse"),
    ("dsl", "build"),
    ("report", "build_report"),
    ("report", "to_json"),
    ("cli", "main"),
)

LAMBDA_KS = range(1, 8)

# Per-layer metrics: name -> (unit, better).  Counts repeat exactly from
# run to run; times do not.
LAYER_METRICS = {
    "groebner.buchberger.calls": ("count", "lower"),
    "groebner.buchberger.self_s": ("s", "lower"),
    "groebner.buchberger.spairs": ("count", "lower"),
    "groebner.buchberger.max_degree": ("degree", "lower"),
    "groebner.buchberger.max_basis": ("count", "lower"),
    "groebner.buchberger.repeat_calls": ("count", "lower"),
    "groebner.buchberger.unique_ratio": ("ratio", "higher"),
    "groebner.syzygy_basis.calls": ("count", "lower"),
    "groebner.syzygy_basis.self_s": ("s", "lower"),
    "groebner.GroebnerBasis.contains.calls": ("count", "lower"),
    "groebner.GroebnerBasis.contains.s": ("s", "lower"),
    "multiplicity.lambda_value.s": ("s", "lower"),
    **{"multiplicity.lambda_value.k%d.s" % k: ("s", "lower") for k in LAMBDA_KS},
    "multiplicity.rees_power_generators.self_s": ("s", "lower"),
    "multiplicity.theorem_check.s": ("s", "lower"),
    "rings.is_parameter_module.s": ("s", "lower"),
    "rings.min_generators.calls": ("count", "lower"),
    "rings.submodule_colength.calls": ("count", "lower"),
    "rings.ideal_colength.calls": ("count", "lower"),
    "rings.make_ring.s": ("s", "lower"),
    "koszul.build_koszul.s": ("s", "lower"),
    "koszul.fitting_ideal.s": ("s", "lower"),
    "koszul.verify_complex.s": ("s", "lower"),
    "homology.kernel_generators.s": ("s", "lower"),
    "homology.homology.s": ("s", "lower"),
    "homology.annihilation_check.s": ("s", "lower"),
    "homology.annihilation_check.buchberger_calls": ("count", "lower"),
    "dsl.parse.s": ("s", "lower"),
    "dsl.build.s": ("s", "lower"),
    "report.build_report.s": ("s", "lower"),
    "report.to_json.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that are counts: they must agree exactly between passes.
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "degree", "ratio")
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "self_s", "extra")

    def __init__(self, sid, parent, op, name, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.extra = None


def _gens_key(gens):
    """Exact identity of a generator list, independent of dict order."""
    return tuple(
        tuple(tuple(sorted(c.terms.items())) for c in g.components) for g in gens
    )


class Tracer:
    """Records spans for one traced pass; install() it on fresh modules."""

    def __init__(self):
        self.spans = []
        self._stack = []      # [span, child_time] of open spans
        self.op = None
        self._seen = {}       # op -> buchberger input keys already given

    def set_op(self, op):
        self.op = op

    def install(self, modules):
        """Wrap every TRACED function in the given brimlab module objects."""
        for modname, attr in TRACED:
            mod = modules[modname]
            name = "%s.%s" % (modname, attr)
            if attr == "GroebnerBasis.contains":
                cls = mod.GroebnerBasis
                cls.contains = self._wrap(name, cls.contains)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        if name == "groebner.buchberger":
            @functools.wraps(fn)
            def wrapper(gens, *args, **kwargs):
                return tracer._buchberger(fn, list(gens), args, kwargs)
        elif name == "multiplicity.lambda_value":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                k = args[1] if len(args) > 1 else kwargs["k"]
                return tracer.call(name, fn, args, kwargs, {"k": k})
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, None)
        return wrapper

    def _buchberger(self, fn, gens, args, kwargs):
        budget = args[0] if args else kwargs.get("budget")
        before = budget.pairs_used if budget is not None else 0
        seen = self._seen.setdefault(self.op, set())
        key = _gens_key(gens)
        extra = {"repeat": key in seen}
        seen.add(key)
        result = self.call("groebner.buchberger", fn, (gens,) + args, kwargs, extra)
        if budget is not None:
            extra["spairs"] = budget.pairs_used - before
            extra["max_degree"] = budget.max_degree_seen
        else:
            extra["spairs"] = result.pairs_used
        extra["basis"] = len(result.generators)
        return result

    def call(self, name, fn, args, kwargs, extra):
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        span.extra = extra
        self.spans.append(span)
        frame = [span, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.extra = dict(extra or {}, error=sys.exc_info()[0].__name__)
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            dur = span.end - span.start
            span.self_s = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def layer_metrics(self):
        """Per-layer metrics of this pass, except trace.overhead_s."""
        calls = {}
        total = {}
        self_s = {}
        out = dict.fromkeys(LAYER_METRICS, 0)
        spairs = max_degree = max_basis = repeats = ann_calls = 0
        for s in self.spans:
            dur = s.end - s.start
            calls[s.name] = calls.get(s.name, 0) + 1
            total[s.name] = total.get(s.name, 0.0) + dur
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
            if s.name == "groebner.buchberger":
                ex = s.extra
                spairs += ex.get("spairs", 0)
                max_degree = max(max_degree, ex.get("max_degree", 0))
                max_basis = max(max_basis, ex.get("basis", 0))
                repeats += ex["repeat"]
                if s.parent is not None and self.spans[s.parent].name == "homology.annihilation_check":
                    ann_calls += 1
            elif s.name == "multiplicity.lambda_value":
                key = "multiplicity.lambda_value.k%d.s" % s.extra["k"]
                if key in out:
                    out[key] += dur
        for name in LAYER_METRICS:
            head, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = calls.get(head, 0)
            elif what == "s" and head in total:
                out[name] = total[head]
            elif what == "self_s":
                out[name] = self_s.get(head, 0.0)
        nb = calls.get("groebner.buchberger", 0)
        out["groebner.buchberger.spairs"] = spairs
        out["groebner.buchberger.max_degree"] = max_degree
        out["groebner.buchberger.max_basis"] = max_basis
        out["groebner.buchberger.repeat_calls"] = repeats
        out["groebner.buchberger.unique_ratio"] = (nb - repeats) / nb if nb else 1.0
        out["homology.annihilation_check.buchberger_calls"] = ann_calls
        del out["trace.overhead_s"]
        return out

    def write_jsonl(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                       "start": round(s.start - t0, 9), "end": round(s.end - t0, 9),
                       "self_s": round(s.self_s, 9)}
                if s.extra:
                    rec.update(s.extra)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def median_metrics(passes):
    """Median of each metric over the per-pass dicts."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
