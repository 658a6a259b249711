"""dipa benchmark: one workload per invocation, a closed loop of solves.

    python3 perfbench/run.py --blas-threads 1 --workload ds-lp --seed 0 \\
        --seconds 25 --trace 0

Run it from anywhere inside a checkout; it imports dipa from the checkout's
``src`` directory and exits with code 2 when that is missing. One client
solves one instance at a time with BLAS pinned to ``--blas-threads``.

With ``--trace 0`` every instance of the workload's family is solved once,
in an order drawn from ``--seed``, and instances whose earlier time still
fits the remaining ``--seconds`` are solved again until none fits. The
last stdout line is a JSON object with the end-to-end metrics. With
``--trace 1`` every instance is solved once untraced and once traced (the
order of the two alternates), and the JSON carries the per-layer metrics.

Every answer is checked against its input graph, and every run writes an
outcome digest (seed, status, iterations, deflations, deletions, message)
to ``perfbench/out/`` and prints its difference from
``perfbench/reference/<workload>.csv``. The run reports ``correct: false``
and exits with code 1 when a certificate fails revalidation, a planted
graph is declared disconnected, a repeated solve changes its outcome, or
tracing changes an outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

SETUP_REPEATS = 5
# no solve starts after this many seconds; keeps a runaway run under 180 s
RUN_DEADLINE = 150.0
SETUP_CODE = "import sys, dipa.cli, harness; harness.WORKLOADS[sys.argv[1]].graphs()"

E2E_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/ref_s",
    "solve_s.p50": "ref_s",
    "solve_s.tail": "ref_s",
    "s_per_hc": "ref_s",
    "solved_frac": "frac",
    "ok_frac": "frac",
}


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--blas-threads", type=int, required=True,
                   help="BLAS/OpenMP threads, set before numpy is imported")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="fixes solve order and repeats")
    p.add_argument("--seconds", type=int, required=True, help="measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        p.error(f"--blas-threads must lie in [1, {nproc}]")
    return args


def _pin_threads(n: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var] = str(n)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _setup_seconds(workload: str, env: dict) -> list:
    """Fresh interpreter to ready: import dipa.cli and build the graphs."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, workload],
                       env=env, cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


class Loop:
    """Solves, timings and checks of one run."""

    def __init__(self, harness, wl, graphs, probe=None):
        self.h, self.wl, self.graphs, self.probe = harness, wl, graphs, probe
        self.times = {s: [] for s in wl.seeds}
        self.outcomes: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.start = time.perf_counter()

    def record(self, outcome, took: float, start: float, end: float) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.times[outcome.seed].append((took, start, end))
        first = self.outcomes.setdefault(outcome.seed, outcome)
        if first.row() != outcome.row():
            self.problems.append(f"seed {outcome.seed} changed outcome on repeat: "
                                 f"{first.row()} then {outcome.row()}")
        if outcome.wrong:
            self.problems.append(f"seed {outcome.seed}: wrong answer: {outcome.status} "
                                 f"({outcome.message})")

    def run(self, seed: int) -> tuple:
        """Solve and record one instance; returns (Outcome, seconds), less
        any time the speed probe spent inside the solve."""
        start = time.perf_counter()
        if start - self.start > RUN_DEADLINE:
            raise SystemExit(f"error: run deadline of {RUN_DEADLINE:.0f} s passed")
        probed = self.probe.spent if self.probe else 0.0
        outcome, took = self.h.solve(self.graphs[seed], self.wl.params(seed))
        if self.probe:
            took -= self.probe.spent - probed
        self.record(outcome, took, start, time.perf_counter())
        return outcome, took

    def seconds(self, scale=lambda start, end: 1.0) -> dict:
        """seed -> solve seconds, each multiplied by scale(start, end)."""
        return {s: [t * scale(a, b) for t, a, b in runs] for s, runs in self.times.items()}


def _untraced(loop: Loop, order: list, seconds: float) -> None:
    with loop.probe.running():
        for s in order:
            loop.run(s)
        while True:
            ran = False
            for s in order:
                left = seconds - (time.perf_counter() - loop.start)
                if statistics.median(t for t, _, _ in loop.times[s]) <= left:
                    loop.run(s)
                    ran = True
            if not ran:
                return


def _traced(loop: Loop, order: list, tracer) -> tuple:
    """Each instance untraced and traced; returns (untraced s, traced s,
    traced outcomes)."""
    plain = with_trace = 0.0
    traced_outcomes = []
    for i, s in enumerate(order):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    tracer.instance = s
                    outcome, took = loop.run(s)
                with_trace += took
                traced_outcomes.append(outcome)
            else:
                _, took = loop.run(s)
                plain += took
    return plain, with_trace, traced_outcomes


def _compare_environment(env: dict) -> list:
    path = REFERENCE / "baseline.json"
    if not path.is_file():
        return ["no reference environment"]
    ref = json.loads(path.read_text())["environment"]
    return [f"{k}={env.get(k)} (reference {ref[k]})" for k in ref if env.get(k) != ref[k]]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "dipa" / "__init__.py").is_file():
        print(f"error: no dipa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _pin_threads(args.blas_threads)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dipa
    import harness
    import speed
    import tracing

    if Path(dipa.__file__).resolve().parent != ROOT / "src" / "dipa":
        print(f"error: dipa imported from {dipa.__file__}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    setups = _setup_seconds(wl.name, env)
    environment = harness.environment(args.blas_threads)
    graphs = wl.graphs()
    harness.warm_up(wl)
    order = harness.solve_order(wl, args.seed)
    loop = Loop(harness, wl, graphs, None if args.trace else speed.SpeedProbe())

    if args.trace:
        tracer = tracing.Tracer()
        plain, with_trace, traced_outcomes = _traced(loop, order, tracer)
        if harness.digest_text(traced_outcomes) != harness.digest_text(loop.outcomes.values()):
            loop.problems.append("traced and untraced digests differ")
        metrics = tracer.metrics(with_trace / plain - 1.0)
        units = tracing.metric_units()
    else:
        _untraced(loop, order, args.seconds)
        raw, notes = harness.end_to_end(loop.seconds(), loop.outcomes)
        metrics, _ = harness.end_to_end(loop.seconds(loop.probe.factor), loop.outcomes)
        metrics["setup_s"] = statistics.median(setups)
        units = E2E_UNITS

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}.seed{args.seed}.trace{args.trace}"
    (OUT / f"{stem}.digest.csv").write_text(harness.digest_text(loop.outcomes.values()))
    if args.trace:
        tracer.write_spans(OUT / f"{stem}.spans.csv")

    print(f"workload {wl.name}: {len(wl.seeds)} planted instances, N={wl.n}, "
          f"cell {wl.setting.name}, order seed {args.seed}, window {args.seconds} s")
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    for line in _compare_environment(environment):
        print(f"environment differs: {line}")
    print("setup_s runs: " + " ".join(f"{t:.4f}" for t in setups))
    if not args.trace:
        print(f"one pass {notes['pass_s']:.3f} s; {notes['solved']}/{notes['instances']} "
              f"solved; failed_frac {notes['failed_frac']:.4f}; solve_s.tail is "
              f"p{notes['tail_percentile']} of {notes['instances']} instances; "
              f"{loop.attempted} solves in the window")
        print(f"speed probe: {len(loop.probe.samples)} samples, "
              f"{loop.probe.factor():.4f} reference seconds per second; unscaled: "
              + " ".join(f"{k} {raw[k]:.6g}" for k in ("solves_per_s", "solve_s.p50",
                                                       "solve_s.tail", "s_per_hc")))
    ref_path = REFERENCE / f"{wl.name}.csv"
    if ref_path.is_file():
        diff = harness.digest_diff(loop.outcomes.values(), harness.read_digest(ref_path))
        print(f"digest: {len(diff)} of {len(wl.seeds)} instances differ from the reference")
        for line in diff:
            print(f"digest: {line}")
    else:
        print("digest: no reference")
    for line in loop.problems:
        print(f"problem: {line}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")

    correct = not loop.problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
