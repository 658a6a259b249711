"""Per-layer tracing for the benchmark.

The tracer wraps the public functions of each dipa layer at the place where
their callers look them up (a module attribute, or a method on its class),
so nothing in the dipa package is edited. ``Tracer.installed()`` swaps the
attributes in and restores them on exit.

Every wrapped call records one span ``(id, name, start, end, parent id,
instance)``. A layer's self time is its span time minus the time of its
child spans. Counts are kept at the same boundaries, so the ratios below are
measured where the work happens.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import time

# (metric prefix, owner of the lookup, attribute). An owner is a module, or
# "module:Class" for a method. step_once and newton_polish are looked up both
# by dipa.outer (the main loop) and by dipa.inner (minimize_phase), so both
# sites are wrapped. minimize_phase is looked up only by dipa.outer: nothing
# inside dipa.inner calls it, so a wrapper there could never fire.
SITES = (
    ("graph.deflate", "dipa.outer", "deflate"),
    ("graph.delete_arc", "dipa.outer", "delete_arc"),
    ("detfun.value_grad_hess", "dipa.detfun", "value_grad_hess"),
    ("detfun.value_only", "dipa.detfun", "value_only"),
    ("detfun.hess", "dipa.detfun", "hess"),
    ("nullspace.build_Z", "dipa.outer", "build_Z"),
    ("nullspace.build_A", "dipa.outer", "build_A"),
    ("nullspace.NullSpaceRep.reduce_hessian", "dipa.nullspace:NullSpaceRep", "reduce_hessian"),
    ("nullspace.NullSpaceRep.reduce_diag_quadform", "dipa.nullspace:NullSpaceRep", "reduce_diag_quadform"),
    ("lp.lp_solve", "dipa.outer", "lp_solve"),
    ("lp.qp_least_distance", "dipa.outer", "qp_least_distance"),
    ("inner.step_once", "dipa.outer", "step_once"),
    ("inner.step_once", "dipa.inner", "step_once"),
    ("inner.newton_polish", "dipa.outer", "newton_polish"),
    ("inner.newton_polish", "dipa.inner", "newton_polish"),
    ("inner.minimize_phase", "dipa.outer", "minimize_phase"),
    ("inner.modified_cholesky", "dipa.inner", "modified_cholesky"),
    ("inner.improve_negcurv", "dipa.inner", "improve_negcurv"),
    ("inner.linesearch", "dipa.inner", "linesearch"),
    ("outer.dipa_solve", "dipa.outer", "dipa_solve"),
    ("outer.initial_interior", "dipa.outer", "initial_interior"),
    ("outer.forced_zero_arcs", "dipa.outer", "forced_zero_arcs"),
    ("outer.restore_DS", "dipa.outer", "restore_DS"),
    ("outer.restore_DS_qp", "dipa.outer", "restore_DS_qp"),
    ("outer.restore_S", "dipa.outer", "restore_S"),
    ("outer.round_to_hc", "dipa.outer", "round_to_hc"),
    ("outer.mu_trigger", "dipa.outer", "mu_trigger"),
)

NAMES = tuple(dict.fromkeys(name for name, _, _ in SITES))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order. Each
    ratio's base is the ".calls" count of the function it is named after;
    trace.overhead_frac is traced over untraced wall time, minus 1."""
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.raised"] = "count"
    out["inner.linesearch.trials_per_call"] = "count/call"
    out["outer.round_to_hc.hit_frac"] = "frac"
    out["lp.qp_least_distance.optimal_frac"] = "frac"
    out["trace.overhead_frac"] = "frac"
    return out


def _owner(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters for every call through a wrapped site."""

    def __init__(self) -> None:
        self.spans: list = []
        # name -> [calls, self seconds, raised]
        self.stats = {name: [0, 0.0, 0] for name in NAMES}
        self.site_calls = {(target, attr): 0 for _, target, attr in SITES}
        self.linesearch_trials = 0
        self.round_hits = 0
        self.qp_optimal = 0
        self.instance = None
        self._stack: list = []
        self._next_id = 0

    def _observe(self, name: str, parent, result) -> None:
        if name == "detfun.value_only":
            if parent is not None and parent[1] == "inner.linesearch":
                self.linesearch_trials += 1
        elif name == "outer.round_to_hc":
            self.round_hits += result is not None
        elif name == "lp.qp_least_distance":
            self.qp_optimal += result[1] == "optimal"

    def _wrap(self, name: str, site: tuple, fn):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        clock = time.perf_counter
        observed = name in ("detfun.value_only", "outer.round_to_hc", "lp.qp_least_distance")

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            self.site_calls[site] += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]  # id, name, child seconds
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[2]
                stat[2] += raised
                if parent is not None:
                    parent[2] += took
                spans.append(
                    (sid, name, start, end, parent[0] if parent else -1, self.instance)
                )
            if observed:
                self._observe(name, parent, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for name, target, attr in SITES:
                owner = _owner(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, (target, attr), original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer values keyed like metric_units(). A ratio whose base
        count is zero reads 0; its base is the matching ".calls" metric."""
        out = {}
        for name in NAMES:
            calls, self_s, raised = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.raised"] = raised

        def ratio(num: int, base: str) -> float:
            calls = self.stats[base][0]
            return num / calls if calls else 0.0

        out["inner.linesearch.trials_per_call"] = ratio(self.linesearch_trials, "inner.linesearch")
        out["outer.round_to_hc.hit_frac"] = ratio(self.round_hits, "outer.round_to_hc")
        out["lp.qp_least_distance.optimal_frac"] = ratio(self.qp_optimal, "lp.qp_least_distance")
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("id", "name", "start", "end", "parent", "instance"))
            for sid, name, start, end, parent, inst in self.spans:
                w.writerow((sid, name, f"{start:.9f}", f"{end:.9f}", parent, inst))
