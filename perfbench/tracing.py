"""Outside-in span tracer for the loopcorr layers.

The tracer wraps public functions of ``loopcorr.diagrams``, ``renorm``,
``distributions`` and ``verify`` after the package is imported.  A wrapper
is installed on every module attribute that callers look the function up
by (``canonicalize`` lives in four namespaces, ``loop_components`` in three),
so no call path can bypass a span.  Nothing in the program changes.

Each span records a name, a start, an end and its parent span.  Spans are
kept in flat arrays and written out when the run ends.  Time spent in the
tracer's own bookkeeping (counting terms, appending spans) is excluded from
the span clock, so self times are those of the program; the traced run's
total wall time still includes it, and the difference to an untraced run is
the tracing overhead.

No wrapped function calls itself, so the inclusive time of a name is the sum
of its spans' durations.
"""

from __future__ import annotations

import array
import functools
import json
import os
import statistics
import sys
from time import perf_counter_ns

NS = 1e-9

# (label, module, attribute, kind).  kind "gen" times every step of a
# generator; "method" wraps a class attribute.
TARGETS = (
    ("diagrams.enumerate_diagrams", "loopcorr.diagrams", "enumerate_diagrams", "gen"),
    ("diagrams.diagram_weight", "loopcorr.diagrams", "diagram_weight", "fn"),
    ("diagrams.correlator_terms", "loopcorr.diagrams", "correlator_terms", "fn"),
    ("diagrams.loop_components", "loopcorr.diagrams", "loop_components", "fn"),
    ("diagrams.loop_census", "loopcorr.diagrams", "loop_census", "fn"),
    ("renorm.evaluate_correlator", "loopcorr.renorm", "evaluate_correlator", "fn"),
    ("renorm.renormalize_diagram", "loopcorr.renorm", "renormalize_diagram", "fn"),
    ("renorm.renormalize_loop", "loopcorr.renorm", "renormalize_loop", "fn"),
    ("distributions.canonicalize", "loopcorr.distributions", "canonicalize", "fn"),
    ("distributions.smear", "loopcorr.distributions", "smear", "fn"),
    ("distributions.to_json", "loopcorr.distributions", "Expression.to_json", "method"),
    ("verify.gaussian_oracle", "loopcorr.verify", "gaussian_oracle", "fn"),
    ("verify.expression_value", "loopcorr.verify", "expression_value", "fn"),
    ("verify.commutator_in_correlator", "loopcorr.verify", "commutator_in_correlator", "fn"),
    ("verify.relation_rhs", "loopcorr.verify", "relation_rhs", "fn"),
    ("verify.check_affine_relations", "loopcorr.verify", "check_affine_relations", "fn"),
    ("verify.mu_independence", "loopcorr.verify", "mu_independence", "fn"),
)

ITEM = "bench.item"

# per-layer metric -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "distributions.canonicalize_s": ("s", "lower"),
    "distributions.canonicalize_self_s": ("s", "lower"),
    "distributions.canonicalize_calls": ("count", "lower"),
    "distributions.raw_terms": ("count", "lower"),
    "distributions.distinct_raw_keys": ("count", "lower"),
    "distributions.canonical_terms": ("count", "lower"),
    "distributions.canonical_per_raw": ("ratio", "higher"),
    "distributions.to_json_s": ("s", "lower"),
    "distributions.json_bytes": ("bytes", "lower"),
    "distributions.smear_s": ("s", "lower"),
    "distributions.smear_calls": ("count", "lower"),
    "renorm.evaluate_s": ("s", "lower"),
    "renorm.evaluate_self_s": ("s", "lower"),
    "renorm.evaluate_calls": ("count", "lower"),
    "renorm.cache_hits": ("count", "higher"),
    "renorm.cache_hit_share": ("ratio", "higher"),
    "renorm.renormalize_s": ("s", "lower"),
    "renorm.renormalized_terms": ("count", "lower"),
    "renorm.loops": ("count", "lower"),
    "diagrams.enumerate_s": ("s", "lower"),
    "diagrams.diagrams": ("count", "lower"),
    "diagrams.weight_s": ("s", "lower"),
    "diagrams.loop_components_s": ("s", "lower"),
    "diagrams.loop_components_calls": ("count", "lower"),
    "diagrams.census_s": ("s", "lower"),
    "diagrams.structures": ("count", "lower"),
    "diagrams.looped_structures": ("count", "lower"),
    "verify.commutator_s": ("s", "lower"),
    "verify.relation_rhs_s": ("s", "lower"),
    "verify.relation_cases": ("count", "lower"),
    "verify.mu_independence_s": ("s", "lower"),
    "verify.oracle_s": ("s", "lower"),
    "verify.oracle_calls": ("count", "lower"),
    "verify.expression_value_s": ("s", "lower"),
    "items": ("count", "lower"),
    "item_p50_s": ("s", "lower"),
    "item_tail_s": ("s", "lower"),
    "traced_wall_s": ("s", "lower"),
}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten items beyond
    it; 50 (the median alone) below forty items."""
    if n >= 40:
        for p in TAIL_LADDER:
            if n * (1 - p / 100) >= 10:
                return p
    return 50.0


def nearest_rank(sorted_values, p: float) -> float:
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.labels: list = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list = []
        self.skip = 0          # ns of bookkeeping excluded from the span clock
        self.active = False
        self.counts = {"raw_terms": 0, "distinct_raw_keys": 0, "canonical_terms": 0,
                       "json_bytes": 0, "cache_hits": 0, "renormalized_terms": 0,
                       "diagrams": 0, "structures": 0, "looped_structures": 0}
        self._seen_eval: set = set()

    # -- spans --------------------------------------------------------------

    def label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _open(self, nid: int, b0: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        now = perf_counter_ns()
        self.skip += now - b0
        self.start.append(now - self.skip)
        return idx

    def _close(self, idx: int) -> int:
        e = perf_counter_ns()
        self.end[idx] = e - self.skip
        self.stack.pop()
        return e

    def item(self, fn):
        """Run one benchmark item inside a span of its own."""
        if not self.active:
            return fn()
        idx = self._open(self.label_id(ITEM), perf_counter_ns())
        try:
            return fn()
        finally:
            self.skip += perf_counter_ns() - self._close(idx)

    # -- wrapping -----------------------------------------------------------

    def _measure(self, label, args, result):
        c = self.counts
        if label == "distributions.canonicalize":
            terms = args[0].terms
            c["raw_terms"] += len(terms)
            c["distinct_raw_keys"] += len({t.key() for t in terms})
            c["canonical_terms"] += len(result.terms)
        elif label == "distributions.to_json":
            c["json_bytes"] += len(result)
        elif label == "renorm.renormalize_diagram":
            c["renormalized_terms"] += len(result)
        elif label == "diagrams.loop_census":
            c["structures"] += result.diagrams
            c["looped_structures"] += result.looped

    def _wrap_fn(self, label, fn):
        nid = self.label_id(label)
        tracer = self
        counted = label in ("distributions.canonicalize", "distributions.to_json",
                            "renorm.renormalize_diagram", "diagrams.loop_census")
        is_eval = label == "renorm.evaluate_correlator"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            b0 = perf_counter_ns()
            if is_eval:
                key = (args[0], args[1] if len(args) > 1 else kwargs["scheme"])
                if key in tracer._seen_eval:
                    tracer.counts["cache_hits"] += 1
                else:
                    tracer._seen_eval.add(key)
            idx = tracer._open(nid, b0)
            try:
                result = fn(*args, **kwargs)
            finally:
                e = tracer._close(idx)
            if counted:
                tracer._measure(label, args, result)
            tracer.skip += perf_counter_ns() - e
            return result

        return wrapper

    def _wrap_gen(self, label, fn):
        nid = self.label_id(label)
        tracer = self

        def steps(gen):
            while True:
                idx = tracer._open(nid, perf_counter_ns())
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.skip += perf_counter_ns() - tracer._close(idx)
                    return
                except BaseException:
                    tracer._close(idx)
                    raise
                e = tracer._close(idx)
                tracer.counts["diagrams"] += 1
                tracer.skip += perf_counter_ns() - e
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return steps(gen) if tracer.active else gen

        return wrapper

    def install(self, *callers):
        """Wrap every target under every loopcorr namespace that holds it,
        and under the given caller modules."""
        import loopcorr  # noqa: F401  (the modules below must be loaded)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "loopcorr" or n.startswith("loopcorr.")) and m is not None]
        namespaces += callers
        for label, module, attr, kind in TARGETS:
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                setattr(cls, meth, self._wrap_fn(label, cls.__dict__[meth]))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapped = (self._wrap_gen if kind == "gen" else self._wrap_fn)(label, orig)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, name, wrapped)

    # -- results ------------------------------------------------------------

    def per_name(self):
        """label -> (calls, inclusive ns, self ns)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {label: [0, 0, 0] for label in self.labels}
        for i in range(n):
            rec = out[self.labels[self.name[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return out

    def durations(self, label: str):
        if label not in self.labels:
            return []
        nid = self.labels.index(label)
        return [(self.end[i] - self.start[i]) * NS
                for i in range(len(self.name)) if self.name[i] == nid]

    def metrics(self, item_label: str, traced_wall_s: float):
        agg = self.per_name()
        c = self.counts

        def s(label, which=1):
            return agg.get(label, (0, 0, 0))[which] * NS

        def calls(label):
            return agg.get(label, (0, 0, 0))[0]

        items = sorted(self.durations(item_label))
        tail = tail_percentile(len(items))
        p50 = statistics.median(items) if items else 0.0
        eval_calls = calls("renorm.evaluate_correlator")
        m = {
            "distributions.canonicalize_s": s("distributions.canonicalize"),
            "distributions.canonicalize_self_s": s("distributions.canonicalize", 2),
            "distributions.canonicalize_calls": calls("distributions.canonicalize"),
            "distributions.raw_terms": c["raw_terms"],
            "distributions.distinct_raw_keys": c["distinct_raw_keys"],
            "distributions.canonical_terms": c["canonical_terms"],
            "distributions.canonical_per_raw":
                c["canonical_terms"] / c["raw_terms"] if c["raw_terms"] else 0.0,
            "distributions.to_json_s": s("distributions.to_json"),
            "distributions.json_bytes": c["json_bytes"],
            "distributions.smear_s": s("distributions.smear"),
            "distributions.smear_calls": calls("distributions.smear"),
            "renorm.evaluate_s": s("renorm.evaluate_correlator"),
            "renorm.evaluate_self_s": s("renorm.evaluate_correlator", 2),
            "renorm.evaluate_calls": eval_calls,
            "renorm.cache_hits": c["cache_hits"],
            "renorm.cache_hit_share": c["cache_hits"] / eval_calls if eval_calls else 0.0,
            "renorm.renormalize_s": s("renorm.renormalize_diagram"),
            "renorm.renormalized_terms": c["renormalized_terms"],
            "renorm.loops": calls("renorm.renormalize_loop"),
            "diagrams.enumerate_s": s("diagrams.enumerate_diagrams"),
            "diagrams.diagrams": c["diagrams"],
            "diagrams.weight_s": s("diagrams.diagram_weight"),
            "diagrams.loop_components_s": s("diagrams.loop_components"),
            "diagrams.loop_components_calls": calls("diagrams.loop_components"),
            "diagrams.census_s": s("diagrams.loop_census"),
            "diagrams.structures": c["structures"],
            "diagrams.looped_structures": c["looped_structures"],
            "verify.commutator_s": s("verify.commutator_in_correlator"),
            "verify.relation_rhs_s": s("verify.relation_rhs"),
            "verify.relation_cases": calls("verify.relation_rhs"),
            "verify.mu_independence_s": s("verify.mu_independence"),
            "verify.oracle_s": s("verify.gaussian_oracle"),
            "verify.oracle_calls": calls("verify.gaussian_oracle"),
            "verify.expression_value_s": s("verify.expression_value"),
            "items": len(items),
            "item_p50_s": p50,
            "item_tail_s": nearest_rank(items, tail) if tail > 50 else p50,
            "traced_wall_s": traced_wall_s,
        }
        extra = {"item_label": item_label, "item_tail_pct": tail,
                 "spans": len(self.name),
                 "per_name": {k: {"calls": v[0], "s": v[1] * NS, "self_s": v[2] * NS}
                              for k, v in sorted(agg.items())}}
        return m, extra

    def write(self, directory: str, summary: dict):
        """Spans as raw little-endian arrays plus a JSON header and summary."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "parent", "start", "end"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        header = {"labels": self.labels, "spans": len(self.name),
                  "fields": {"name": "i32 label index", "parent": "i32 span index or -1",
                             "start": "i64 ns", "end": "i64 ns"}}
        with open(os.path.join(directory, "summary.json"), "w") as fh:
            json.dump({"header": header, **summary}, fh, indent=1, sort_keys=True)
