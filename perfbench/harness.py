"""Workloads, checked solves, outcome digests and end-to-end metrics.

Importing this module imports numpy through dipa, so the caller pins the
BLAS thread count first (see run.py).

Each workload is a fixed family of planted instances: one cell of the
repository's own grids (dipa.bench.BenchSetting) at one size over a run of
consecutive instance seeds. Solve outcomes are instance specific (a family
mixes quick solves with long crawls that give up), so a family drawn afresh
from every run seed would swing solved_frac and s_per_hc far beyond any
useful bound. The run seed instead fixes the order of the solves and which
instances are repeated to fill the measuring window.
"""

from __future__ import annotations

import csv
import io
import os
import platform
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy

import dipa.outer as outer
from dipa.bench import SUPPRESS_DEFLATION, SUPPRESS_DELETION, BenchSetting, grid_paper_def
from dipa.graph import gen_random_graph

# Well above the slowest solve in any family (about 15 s on one core), so
# the wall clock never decides a status; a solve that still reaches it fails.
TIME_LIMIT = 120.0
TIME_LIMIT_MESSAGE = "time limit"

DIGEST_FIELDS = ("seed", "status", "iterations", "deflations", "deletions", "message")


@dataclass(frozen=True)
class Workload:
    name: str
    setting: BenchSetting
    n: int
    seeds: tuple

    def graphs(self) -> dict:
        return {s: gen_random_graph(self.n, 3, 6, seed=s, plant=True) for s in self.seeds}

    def params(self, seed: int):
        return self.setting.params(time_limit=TIME_LIMIT, seed=seed)


def _paper_def(name: str) -> BenchSetting:
    return {s.name: s for s in grid_paper_def()}[name]


# the why of each workload is in BENCHMARK.json and perfbench/README.md
_S_NO_SURGERY = BenchSetting(
    name="s-nodef", mode="s", deflation=SUPPRESS_DEFLATION, deletion=SUPPRESS_DELETION
)
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("ds-lp", _paper_def("lp-0.9"), 30, tuple(range(200, 218))),
        Workload("ds-qp", _paper_def("qp-0.9"), 20, tuple(range(100, 110))),
        Workload("s-crawl", _S_NO_SURGERY, 20, (100, 101)),
        Workload("ds-n60", _paper_def("lp-0.9"), 60, tuple(range(0, 5))),
    )
}


def environment(blas_threads: int) -> dict:
    """The numeric environment solve outcomes depend on."""
    def blas_version(mod) -> str:
        try:
            return str(mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except Exception:
            return "unknown"

    return {
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy),
    }


@dataclass(frozen=True)
class Outcome:
    """One solve's deterministic record (the digest row) and its checks."""

    seed: int
    status: str
    iterations: int
    deflations: int
    deletions: int
    message: str
    failed: bool   # raised, hit the time limit, or gave a wrong answer
    wrong: bool    # invalid certificate or a no-HC claim on a planted graph

    def row(self) -> tuple:
        return (self.seed, self.status, self.iterations, self.deflations,
                self.deletions, self.message)


def solve(graph, params) -> tuple:
    """Solve one instance and check the answer against the input graph.
    Returns (Outcome, wall seconds of the dipa_solve call)."""
    seed = params.seed
    t0 = time.perf_counter()
    try:
        rep = outer.dipa_solve(graph, params)
    except Exception as exc:
        took = time.perf_counter() - t0
        msg = f"{type(exc).__name__}: {exc}"
        return Outcome(seed, "raised", 0, 0, 0, msg, failed=True, wrong=False), took
    took = time.perf_counter() - t0
    wrong = False
    message = rep.message
    if rep.cycle is not None:
        try:
            rep.cycle.validate(graph)
        except Exception as exc:
            wrong = True
            message = f"invalid certificate: {exc}"
    elif rep.status == outer.HC_FOUND:
        wrong = True
        message = "HC-found without a certificate"
    if rep.status == outer.NO_HC_DISCONNECTED:
        wrong = True  # every benchmark graph has a planted cycle
    failed = wrong or rep.message == TIME_LIMIT_MESSAGE
    out = Outcome(seed, rep.status, rep.iterations, rep.deflations, rep.deletions,
                  message, failed=failed, wrong=wrong)
    return out, took


def warm_up(wl: Workload) -> None:
    """One small untimed solve in the workload's cell, so lazy set-up inside
    numpy, scipy and HiGHS is done before timing starts."""
    g = gen_random_graph(10, 3, 6, seed=1, plant=True)
    outer.dipa_solve(g, wl.params(1))


def solve_order(wl: Workload, seed: int) -> list:
    order = list(wl.seeds)
    random.Random(seed).shuffle(order)
    return order


# --- digests ---------------------------------------------------------------


def digest_text(outcomes) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(DIGEST_FIELDS)
    for o in sorted(outcomes, key=lambda o: o.seed):
        w.writerow(o.row())
    return buf.getvalue()


def read_digest(path) -> dict:
    """seed -> digest row as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {int(r[0]): tuple(r) for r in rows[1:]}


def digest_diff(outcomes, reference: dict) -> list:
    """One line per instance whose record differs from the reference."""
    def fmt(row) -> str:
        if row is None:
            return "absent"
        return "/".join(row[1:5]) + (f" ({row[5]})" if row[5] else "")

    now = {o.seed: tuple(str(v) for v in o.row()) for o in outcomes}
    lines = []
    for seed in sorted(set(now) | set(reference)):
        a, b = reference.get(seed), now.get(seed)
        if a != b:
            lines.append(f"seed {seed}: {fmt(a)} -> {fmt(b)}")
    return lines


# --- end-to-end metrics ----------------------------------------------------


def tail_index(k: int) -> int:
    """Index into k ascending per-instance times of the tail value: the
    highest percentile with at least ten instances beyond it. Below 21
    instances no percentile above the median qualifies, and the tail is the
    slowest instance."""
    return k - 11 if k >= 21 else k - 1


def end_to_end(times: dict, outcomes: dict) -> tuple:
    """times: seed -> list of solve seconds; outcomes: seed -> Outcome.
    Every instance counts once, at the median of its solve times, so each
    metric describes one pass over the whole family whatever the run seed.
    Returns (metric values, notes for the report)."""
    per = sorted(statistics.median(ts) for ts in times.values())
    k = len(per)
    total = sum(per)
    hc = sum(o.status == outer.HC_FOUND for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    ti = tail_index(k)
    values = {
        "solves_per_s": k / total,
        "solve_s.p50": statistics.median(per),
        "solve_s.tail": per[ti],
        # time to a certified cycle; with none found it is the pass time,
        # and solved_frac (then 0) carries the loss
        "s_per_hc": total / max(hc, 1),
        "solved_frac": hc / k,
        "ok_frac": (k - failed) / k,
    }
    notes = {
        "instances": k,
        "tail_percentile": round(100.0 * (ti + 1) / k, 1),
        "pass_s": total,
        "solved": hc,
        "failed_frac": failed / k,
    }
    return values, notes
