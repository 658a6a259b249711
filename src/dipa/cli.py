"""Command-line front end.

Subcommands: solve one graph file, run a benchmark grid, emit objective
profiles toward every Hamiltonian cycle, and generate random instances.

Exit codes: 0 when a cycle is found or a batch completes, 2 when the solver
finishes with any no-cycle status, 3 for unusable input.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import (
    GRIDS,
    BenchConfig,
    run_bench,
    trace_paths,
    trace_solve,
    write_paths_csv,
)
from .graph import EnumerationCapError, GraphError, gen_random_graph, read_graph, write_graph
from .outer import DipaParams, TraceRow

EXIT_FOUND = 0
EXIT_NO_HC = 2
EXIT_INPUT = 3


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dipa",
        description="Hamiltonian cycle search by barrier minimization of a "
        "determinant objective over stochastic relaxations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    defaults = DipaParams()
    ps = sub.add_parser("solve", help="solve a single graph file")
    ps.add_argument("--graph", required=True, help="instance file (header 'N M', then edge lines 'i j')")
    ps.add_argument("--mode", required=True, choices=("s", "ds"), help="stochastic or doubly stochastic relaxation")
    ps.add_argument("--mu0", type=float, default=defaults.mu_initial, help="initial barrier weight")
    ps.add_argument("--mu-shrink", type=float, default=defaults.mu_shrink, help="barrier weight reduction factor")
    ps.add_argument("--alpha", type=float, default=defaults.alpha, help="fraction of the feasible step taken by the linesearch")
    ps.add_argument("--deflate", type=float, default=defaults.deflation_threshold, help="deflation threshold")
    ps.add_argument("--delete", type=float, default=defaults.deletion_threshold, help="deletion threshold")
    ps.add_argument("--restore", choices=("lp", "qp"), default=defaults.restore, help="feasibility restoration method")
    ps.add_argument("--upper-log", action="store_true", help="add the barrier on x <= 1")
    ps.add_argument("--drop-var", action="store_true", help="remove the lowest-index arc variable before solving")
    ps.add_argument("--time-limit", type=float, default=defaults.time_limit, help="wall-clock budget in seconds")
    ps.add_argument("--trace", help="write the per-iteration trace CSV here")

    pb = sub.add_parser("bench", help="run a benchmark grid")
    pb.add_argument("--sizes", required=True, help="comma-separated node counts, e.g. 20,30")
    pb.add_argument("--count", type=int, required=True, help="instances per size")
    pb.add_argument("--dmin", type=int, default=3)
    pb.add_argument("--dmax", type=int, default=6)
    pb.add_argument("--grid", required=True, choices=sorted(GRIDS))
    pb.add_argument("--seed", type=int, required=True, help="base instance seed")
    pb.add_argument("--out", required=True, help="output directory for the CSV tables")
    pb.add_argument("--time-limit", type=float, default=60.0)
    pb.add_argument("--workers", type=int, default=1)

    pp = sub.add_parser("paths", help="objective profile toward every Hamiltonian cycle")
    pp.add_argument("--graph", required=True)
    pp.add_argument("--out", required=True, help="output CSV file")
    pp.add_argument("--cap", type=int, default=100000, help="enumeration cap on cycle count")
    pp.add_argument("--samples", type=int, default=101)

    pg = sub.add_parser("gen", help="generate a random instance file")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--dmin", type=int, default=3)
    pg.add_argument("--dmax", type=int, default=6)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--plant", action="store_true", help="embed a Hamiltonian cycle")
    pg.add_argument("--out", required=True)
    return top


def _cmd_solve(args) -> int:
    g = read_graph(args.graph)
    params = DipaParams(
        mode=args.mode,
        mu_initial=args.mu0,
        mu_shrink=args.mu_shrink,
        alpha=args.alpha,
        deflation_threshold=args.deflate,
        deletion_threshold=args.delete,
        restore=args.restore,
        upper_log=args.upper_log,
        drop_one_var=args.drop_var,
        time_limit=args.time_limit,
    )
    rep, rows = trace_solve(g, params)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(TraceRow.header() + "\n")
            for row in rows:
                fh.write(row + "\n")
    print(f"status: {rep.status}")
    print(f"iterations: {rep.iterations}  deflations: {rep.deflations}  deletions: {rep.deletions}")
    if math.isfinite(rep.f_final):
        print(f"objective: {rep.f_final:.12g}")
    if rep.cycle is not None:
        print("cycle: " + "-".join(str(v) for v in rep.cycle.seq))
        return EXIT_FOUND
    if rep.message:
        print(f"detail: {rep.message}")
    return EXIT_NO_HC


def _cmd_bench(args) -> int:
    sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok.strip())
    cfg = BenchConfig(
        sizes=sizes,
        count=args.count,
        dmin=args.dmin,
        dmax=args.dmax,
        grid=args.grid,
        seed=args.seed,
        out_dir=args.out,
        time_limit=args.time_limit,
        workers=args.workers,
    )
    res = run_bench(cfg)
    for row in res.results:
        print(f"n={row['n']:<4d} {row['setting']:<12s} {row['solved']}/{row['total']}")
    print(f"tables written to {args.out}")
    return EXIT_FOUND


def _cmd_paths(args) -> int:
    g = read_graph(args.graph)
    rows = trace_paths(g, samples=args.samples, cap=args.cap)
    write_paths_csv(args.out, rows)
    print(f"{len(rows)} rows written to {args.out}")
    return EXIT_FOUND


def _cmd_gen(args) -> int:
    g = gen_random_graph(args.n, args.dmin, args.dmax, seed=args.seed, plant=args.plant)
    write_graph(g, args.out)
    print(f"n={args.n} edges={len(g.edges)} written to {args.out}")
    return EXIT_FOUND


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which this tool reserves for
        # no-cycle outcomes; --help exits 0 and passes through
        return EXIT_INPUT if exc.code else 0
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "paths":
            return _cmd_paths(args)
        return _cmd_gen(args)
    except (GraphError, EnumerationCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
