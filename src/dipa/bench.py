"""Experiment harness: batch solves over generated instance families, the
two reported parameter grids, and profile tables for the figures.

All outputs are plain CSV. Row order, float formatting, and instance seeds
are fixed functions of the configuration, so repeated runs with the same
seed produce byte-identical result files. Wall-clock measurements are kept
in a separate timings file because they can never be reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import detfun, outer
from .graph import Graph, build_arc_map, enumerate_hc, gen_random_graph
from .outer import HC_FOUND, DipaParams, TraceRow, dipa_solve

FLOAT_FMT = "%.17g"

# status of a solve that raised instead of returning a report
ERROR = "error"

# sentinel thresholds that keep the surgery machinery from ever firing while
# staying inside the documented parameter ranges
SUPPRESS_DEFLATION = 1.0 - 1e-12
SUPPRESS_DELETION = 0.0


@dataclass(frozen=True)
class BenchSetting:
    """One column of a results table: a named solver configuration."""

    name: str
    mode: str = "ds"
    restore: str = "lp"
    deflation: float = 0.9
    deletion: float = 1e-5
    upper_log: bool = False
    drop_one_var: bool = False

    def params(self, time_limit: float, seed: int) -> DipaParams:
        return DipaParams(
            mode=self.mode,
            restore=self.restore,
            deflation_threshold=self.deflation,
            deletion_threshold=self.deletion,
            upper_log=self.upper_log,
            drop_one_var=self.drop_one_var,
            time_limit=time_limit,
            seed=seed,
        )

    def params_hash(self) -> str:
        key = "|".join(
            str(v)
            for v in (
                self.mode,
                self.restore,
                repr(self.deflation),
                repr(self.deletion),
                self.upper_log,
                self.drop_one_var,
            )
        )
        return hashlib.sha1(key.encode()).hexdigest()[:12]


def grid_paper_def() -> tuple[BenchSetting, ...]:
    """Surgery enabled: interior-point restore {lp, qp} crossed with
    deflation threshold {0.9, 0.95}; deletion fixed at 1e-5."""
    out = []
    for restore in ("lp", "qp"):
        for thr in (0.9, 0.95):
            out.append(
                BenchSetting(
                    name=f"{restore}-{thr:g}",
                    restore=restore,
                    deflation=thr,
                )
            )
    return tuple(out)


def grid_paper_nodef() -> tuple[BenchSetting, ...]:
    """Surgery suppressed: upper-bound barrier crossed with the
    drop-one-variable option."""
    out = []
    for upper in (False, True):
        for drop in (False, True):
            bits = [b for b, on in (("ulog", upper), ("dropv", drop)) if on]
            out.append(
                BenchSetting(
                    name="-".join(bits) if bits else "plain",
                    deflation=SUPPRESS_DEFLATION,
                    deletion=SUPPRESS_DELETION,
                    upper_log=upper,
                    drop_one_var=drop,
                )
            )
    return tuple(out)


GRIDS = {
    "paper-def": grid_paper_def,
    "paper-nodef": grid_paper_nodef,
}


@dataclass
class BenchConfig:
    sizes: tuple = (20,)
    count: int = 50
    dmin: int = 3
    dmax: int = 6
    grid: str = "paper-def"
    seed: int = 100
    out_dir: str | None = None
    time_limit: float = 60.0
    workers: int = 1

    def validate(self) -> None:
        if not self.sizes or len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes must be nonempty and distinct, got {self.sizes}")
        if not 2 <= self.dmin <= self.dmax < min(self.sizes):
            raise ValueError(f"need 2 <= dmin <= dmax < n, got dmin={self.dmin} dmax={self.dmax} sizes={self.sizes}")
        if self.count < 1 or self.workers < 1:
            raise ValueError(f"count and workers must be at least 1, got {self.count} and {self.workers}")
        if self.grid not in GRIDS:
            raise ValueError(f"unknown grid {self.grid!r}; choose from {sorted(GRIDS)}")
        if not self.time_limit > 0.0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit!r}")

    def settings(self) -> tuple[BenchSetting, ...]:
        return GRIDS[self.grid]()


@dataclass
class BenchResult:
    solves: list = field(default_factory=list)
    results: list = field(default_factory=list)
    combos: list = field(default_factory=list)
    certificates: list = field(default_factory=list)


def _solve_job(task: tuple) -> dict:
    n, dmin, dmax, inst_seed, setting, time_limit = task
    g = gen_random_graph(n, dmin, dmax, seed=inst_seed, plant=True)
    params = setting.params(time_limit=time_limit, seed=inst_seed)
    row = {
        "graph_id": f"n{n}-s{inst_seed}",
        "n": n,
        "mode": setting.mode,
        "setting": setting.name,
        "params_hash": setting.params_hash(),
    }
    t0 = time.monotonic()
    try:
        rep = dipa_solve(g, params)
    except Exception:
        # one instance that raises must not cost the campaign its other rows
        print(f"{row['graph_id']} {setting.name}:", file=sys.stderr)
        traceback.print_exc()
        row.update(status=ERROR, iterations=0, deflations=0, deletions=0,
                   wall_time=time.monotonic() - t0, cycle="")
        return row
    row.update(
        status=rep.status,
        iterations=rep.iterations,
        deflations=rep.deflations,
        deletions=rep.deletions,
        wall_time=time.monotonic() - t0,
        cycle="-".join(str(v) for v in rep.cycle.seq) if rep.cycle is not None else "",
    )
    return row


def _write_csv(path: Path, header: tuple, rows) -> None:
    """The header, then one line per row, floats written with FLOAT_FMT."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def _flush(result: BenchResult, out_dir: str | None) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = (
        ("solves.csv", result.solves, ("graph_id", "n", "mode", "setting", "params_hash",
                                       "status", "iterations", "deflations", "deletions")),
        ("timings.csv", result.solves, ("graph_id", "setting", "wall_time")),
        ("results.csv", result.results, ("n", "setting", "solved", "total")),
        ("combos.csv", result.combos, ("n", "combo", "solved", "total")),
        ("certificates.csv", result.certificates, ("graph_id", "setting", "cycle")),
    )
    for name, rows, header in tables:
        _write_csv(out / name, header, ([r[k] for k in header] for r in rows))


def run_bench(cfg: BenchConfig) -> BenchResult:
    """Solve every (size, setting, instance) cell of the configured grid and
    tabulate per-setting and combined solve counts.

    Results are gathered into a fixed order before any aggregation, so the
    output does not depend on worker scheduling. When the campaign raises
    (an interrupt, or a pool that loses a worker), whatever has finished is
    flushed to the output directory before the exception propagates.
    """
    cfg.validate()
    settings = cfg.settings()
    tasks = []
    for n in cfg.sizes:
        for setting in settings:
            for i in range(cfg.count):
                tasks.append(
                    (n, cfg.dmin, cfg.dmax, cfg.seed + i, setting, cfg.time_limit)
                )

    result = BenchResult()
    records: list = []
    try:
        if cfg.workers > 1:
            # imported here, the one place dipa forks: the process pool and
            # multiprocessing are a cost no other command's start pays
            from concurrent.futures import ProcessPoolExecutor

            # under fork the pool starts all its workers on the first submit
            with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
                for rec in pool.map(_solve_job, tasks, chunksize=1):
                    records.append(rec)
        else:
            for task in tasks:
                records.append(_solve_job(task))
    finally:
        _tabulate(result, records, cfg, settings)
        _flush(result, cfg.out_dir)
    return result


def _tabulate(result: BenchResult, records: list, cfg: BenchConfig, settings) -> None:
    order = {s.name: k for k, s in enumerate(settings)}
    records = sorted(
        records, key=lambda r: (r["n"], order[r["setting"]], r["graph_id"])
    )
    result.solves = records

    solved: dict = {}
    for r in records:
        key = (r["n"], r["setting"])
        solved.setdefault(key, set())
        if r["status"] == HC_FOUND:
            solved[key].add(r["graph_id"])
            result.certificates.append(r)

    result.results = []
    for n in cfg.sizes:
        for s in settings:
            result.results.append(
                {
                    "n": n,
                    "setting": s.name,
                    "solved": len(solved.get((n, s.name), ())),
                    "total": cfg.count,
                }
            )

    # a graph counts as solved by a combination when any member setting
    # solved it
    result.combos = []
    names = [s.name for s in settings]
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]
    for n in cfg.sizes:
        for a, b in pairs:
            union = solved.get((n, a), set()) | solved.get((n, b), set())
            result.combos.append(
                {"n": n, "combo": f"{a}+{b}", "solved": len(union), "total": cfg.count}
            )
        everything = set()
        for s in settings:
            everything |= solved.get((n, s.name), set())
        result.combos.append(
            {"n": n, "combo": "all", "solved": len(everything), "total": cfg.count}
        )


def neutral_point(g: Graph) -> np.ndarray:
    """The neutral start of every solve (outer.neutral_start with the
    default parameters), used as the common start of every profile, on the
    arcs of build_arc_map(g). The arcs in no perfect matching are deleted
    first, as dipa_solve deletes them, and read 0; raises NoInteriorPoint
    when g has no perfect matching or is disconnected without them."""
    m = build_arc_map(g)
    x = np.zeros(m.n_arcs)
    m, keep, _ = outer.drop_forced(m)
    x[keep], _ = outer.neutral_start(m, DipaParams())
    return x


def trace_paths(g: Graph, samples: int = 101, cap: int = 100000) -> list:
    """Objective profile along the straight segment from the neutral point to
    every Hamiltonian cycle of g: f is detfun.value_only in ds mode, the
    determinant the solver minimizes.

    Returns (hc_id, t, f) tuples on a uniform t grid over [0, 1 - eps], and
    none when g has no Hamiltonian cycle; the last grid point stops just
    short of the vertex so the segment stays strictly interior on every arc
    that lies in a perfect matching. The other arcs read 0 all along it.
    """
    if samples < 2:
        raise ValueError("need at least two sample points")
    hcs = enumerate_hc(g, cap=cap)
    if not hcs:
        return []
    m = build_arc_map(g)
    x0 = neutral_point(g)
    index = {a: k for k, a in enumerate(m.arcs)}
    eps = 1e-6
    rows = []
    for hc_id, cert in enumerate(hcs):
        xs = np.zeros(m.n_arcs)
        xs[[index[a] for a in cert.arcs()]] = 1.0
        for j in range(samples):
            t = (1.0 - eps) * j / (samples - 1)
            xt = (1.0 - t) * x0 + t * xs
            rows.append((hc_id, t, detfun.value_only(xt, m, "ds")))
    return rows


def write_paths_csv(path, rows) -> None:
    _write_csv(Path(path), ("hc_id", "t", "f"), rows)


def trace_solve(g: Graph, params: DipaParams):
    """Run one traced solve; returns (report, csv_rows) where the final row
    carries the terminating status alongside the last objective value."""
    rep = dipa_solve(g, params)
    last = TraceRow(
        it=rep.iterations, mu=0.0, f=rep.f_final, phi=0.0, merit=0.0, step=0.0,
        kind=rep.status, delta_hat=0.0, x_min=0.0, deflations=rep.deflations,
    )
    return rep, [r.csv() for r in rep.trace + [last]]
