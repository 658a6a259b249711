import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

import dipa.bench
import dipa.inner
import dipa.outer
from dipa.bench import (
    ERROR,
    GRIDS,
    BenchConfig,
    grid_paper_def,
    grid_paper_nodef,
    neutral_point,
    run_bench,
    trace_paths,
    trace_solve,
    write_paths_csv,
)
from dipa.graph import CycleCertificate, build_arc_map, gen_random_graph, make_graph
from dipa.outer import DipaParams, TraceRow


def k3():
    return make_graph(3, [(1, 2), (1, 3), (2, 3)])


class TestGrids:
    def test_paper_def_settings(self):
        names = [s.name for s in grid_paper_def()]
        assert names == ["lp-0.9", "lp-0.95", "qp-0.9", "qp-0.95"]
        for s in grid_paper_def():
            assert s.mode == "ds"
            assert s.deletion == pytest.approx(1e-5)
            assert s.deflation in (0.9, 0.95)
            assert s.restore in ("lp", "qp")

    def test_paper_nodef_settings(self):
        names = [s.name for s in grid_paper_nodef()]
        assert names == ["plain", "dropv", "ulog", "ulog-dropv"]
        for s in grid_paper_nodef():
            # surgery suppressed: thresholds no iterate can reach
            assert s.deflation > 1.0 - 1e-9
            assert s.deletion == 0.0

    def test_params_hash_distinct_and_stable(self):
        hashes = [s.params_hash() for s in grid_paper_def()]
        assert len(set(hashes)) == 4
        assert hashes == [s.params_hash() for s in grid_paper_def()]

    def test_params_roundtrip(self):
        s = grid_paper_def()[0]
        p = s.params(time_limit=30.0, seed=7)
        assert isinstance(p, DipaParams)
        assert p.restore == "lp"
        assert p.deflation_threshold == pytest.approx(0.9)
        assert p.time_limit == 30.0
        assert p.seed == 7

    def test_grid_registry(self):
        assert set(GRIDS) == {"paper-def", "paper-nodef"}


class TestConfig:
    def test_validate_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            BenchConfig(grid="nope").validate()

    def test_validate_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            BenchConfig(sizes=()).validate()



class TestRunBench:
    def test_small_run_counts_and_files(self, tmp_path):
        cfg = BenchConfig(
            sizes=(8,), count=3, grid="paper-def", seed=100, out_dir=str(tmp_path)
        )
        res = run_bench(cfg)
        assert len(res.solves) == 4 * 3
        # instance i of every setting is the graph drawn from seed + i
        assert [r["graph_id"] for r in res.solves[:3]] == ["n8-s100", "n8-s101", "n8-s102"]
        solved = {(r["n"], r["setting"]): r["solved"] for r in res.results}
        assert set(solved) == {(8, s) for s in ("lp-0.9", "lp-0.95", "qp-0.9", "qp-0.95")}
        assert all(0 <= v <= 3 for v in solved.values())
        for fname in (
            "solves.csv",
            "timings.csv",
            "results.csv",
            "combos.csv",
            "certificates.csv",
        ):
            assert (tmp_path / fname).exists()
        head = (tmp_path / "solves.csv").read_text().splitlines()[0]
        assert head == "graph_id,n,mode,setting,params_hash,status,iterations,deflations,deletions"
        assert "wall_time" not in head
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert timings[0] == "graph_id,setting,wall_time"
        assert len(timings) == 1 + 4 * 3

    def test_combos_cover_pairs_and_union(self, tmp_path):
        cfg = BenchConfig(
            sizes=(8,), count=2, grid="paper-def", seed=100, out_dir=str(tmp_path)
        )
        res = run_bench(cfg)
        combos = {r["combo"] for r in res.combos}
        assert "all" in combos
        pairs = {c for c in combos if c != "all"}
        assert len(pairs) == 6
        for r in res.combos:
            assert r["total"] == 2
            assert 0 <= r["solved"] <= 2

    def test_certificates_revalidate(self, tmp_path):
        cfg = BenchConfig(sizes=(8,), count=3, grid="paper-def", seed=100)
        res = run_bench(cfg)
        for rec in res.certificates:
            inst_seed = int(rec["graph_id"].split("-s")[1])
            g = gen_random_graph(8, 3, 6, seed=inst_seed, plant=True)
            seq = tuple(int(v) for v in rec["cycle"].split("-"))
            CycleCertificate(seq=seq).validate(g)

    def test_deterministic_csv_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            run_bench(
                BenchConfig(
                    sizes=(8,), count=2, grid="paper-nodef", seed=300, out_dir=str(out)
                )
            )
        for fname in ("solves.csv", "results.csv", "combos.csv", "certificates.csv"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        cfg = dict(sizes=(8,), count=2, grid="paper-def", seed=100)
        run_bench(BenchConfig(out_dir=str(serial), workers=1, **cfg))
        run_bench(BenchConfig(out_dir=str(pooled), workers=2, **cfg))
        for fname in ("solves.csv", "results.csv", "combos.csv", "certificates.csv"):
            assert (serial / fname).read_bytes() == (pooled / fname).read_bytes()

    def test_pool_forks_at_most_one_worker_per_task(self, monkeypatch):
        # under fork the pool starts every worker on the first submit, so
        # it must not be sized past the task count; the stand-in solves in
        # this process and starts none
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        res = run_bench(BenchConfig(sizes=(8,), count=1, grid="paper-def", seed=100, workers=500))
        assert sizes == [4]
        assert len(res.solves) == 4

    def test_raising_instance_writes_error_row(self, tmp_path, monkeypatch):
        real = dipa.bench.dipa_solve

        def raise_once(g, params):
            if (params.seed, params.restore, params.deflation_threshold) == (101, "qp", 0.95):
                raise RuntimeError("planted failure")
            return real(g, params)

        monkeypatch.setattr(dipa.bench, "dipa_solve", raise_once)
        cfg = BenchConfig(
            sizes=(8,), count=3, grid="paper-def", seed=100,
            out_dir=str(tmp_path), workers=1,
        )
        res = run_bench(cfg)
        lines = (tmp_path / "solves.csv").read_text().splitlines()[1:]
        assert len(lines) == 4 * 3
        assert sum(",error," in line for line in lines) == 1
        errors = [r for r in res.solves if r["status"] == ERROR]
        assert [(r["graph_id"], r["setting"]) for r in errors] == [("n8-s101", "qp-0.95")]
        assert (errors[0]["iterations"], errors[0]["deflations"], errors[0]["deletions"]) == (0, 0, 0)
        assert errors[0]["cycle"] == ""

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_campaign_that_raises_flushes_finished_rows(self, tmp_path, monkeypatch, error):
        # the third task raises out of the campaign loop itself, as an
        # interrupt does, or a pool that lost a worker
        real = dipa.bench._solve_job
        calls = []

        def third_raises(task):
            calls.append(task)
            if len(calls) == 3:
                raise error("planted failure")
            return real(task)

        monkeypatch.setattr(dipa.bench, "_solve_job", third_raises)
        cfg = BenchConfig(sizes=(8,), count=3, grid="paper-def", seed=100, out_dir=str(tmp_path))
        with pytest.raises(error, match="planted failure"):
            run_bench(cfg)
        lines = (tmp_path / "solves.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:4] for line in lines] == [
            ["n8-s100", "8", "ds", "lp-0.9"],
            ["n8-s101", "8", "ds", "lp-0.9"],
        ]


class TestPaths:
    def test_neutral_point_k3(self):
        x = neutral_point(k3())
        assert np.allclose(x, 0.5, atol=1e-9)

    def test_neutral_point_spends_the_solver_phase_budget(self, monkeypatch):
        # the neutral phase of the profiles and the solver share one step
        # budget, dipa.inner.MAX_PHASE_ITER
        calls = []
        real = dipa.inner.step_once

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dipa.inner, "step_once", counted)
        g = gen_random_graph(12, 3, 6, seed=1, plant=True)
        neutral_point(g)
        assert len(calls) > 3
        calls.clear()
        monkeypatch.setattr(dipa.inner, "MAX_PHASE_ITER", 3)
        neutral_point(g)
        assert len(calls) == 3

    def test_neutral_point_is_the_solve_start(self, monkeypatch):
        # the profiles start where every solve does: the barrier-only phase
        # of dipa_solve ends on the neutral point, bit for bit
        ends = []
        real = dipa.outer.minimize_phase

        def record(x0, spec, ctx):
            out = real(x0, spec, ctx)
            ends.append(out)
            return out

        monkeypatch.setattr(dipa.outer, "minimize_phase", record)
        g = gen_random_graph(10, 3, 6, seed=24, plant=True)
        dipa.outer.dipa_solve(g, DipaParams(mode="ds"))
        assert len(ends) == 1
        _, keep, forced = dipa.outer.drop_forced(build_arc_map(g))
        assert forced > 0
        x = neutral_point(g)
        assert x[keep].tobytes() == ends[0].tobytes()
        assert np.count_nonzero(x) == len(keep)

    def test_k3_profile(self):
        rows = trace_paths(k3(), samples=5)
        # two directed cycles, five samples each
        assert len(rows) == 10
        ids = {r[0] for r in rows}
        assert ids == {0, 1}
        for hid in ids:
            sub = [r for r in rows if r[0] == hid]
            assert sub[0][1] == 0.0
            assert sub[0][2] == pytest.approx(-0.75, abs=1e-12)
            assert sub[-1][1] == pytest.approx(1.0 - 1e-6)
            assert sub[-1][2] == pytest.approx(-1.0, abs=1e-5)
            fs = [r[2] for r in sub]
            assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_profile_csv(self, tmp_path):
        rows = trace_paths(k3(), samples=3)
        out = tmp_path / "p.csv"
        write_paths_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "hc_id,t,f"
        assert len(lines) == 1 + len(rows)


class TestTraceSolve:
    def test_rows_and_final_status(self):
        g = gen_random_graph(10, 3, 6, seed=50)
        rep, rows = trace_solve(g, DipaParams(mode="ds"))
        assert len(rows) == rep.iterations + 1
        header_cols = TraceRow.header().count(",") + 1
        assert header_cols == 10
        # the header names the fields in order, it as iter
        names = [f.name for f in dataclasses.fields(TraceRow)]
        assert TraceRow.header().split(",") == ["iter", *names[1:]]
        assert names[0] == "it"
        for row in rows:
            assert row.count(",") == 9
        assert rows[-1].split(",")[6] == rep.status

    def test_final_row_carries_objective(self):
        g = gen_random_graph(10, 3, 6, seed=51)
        rep, rows = trace_solve(g, DipaParams(mode="ds"))
        if math.isfinite(rep.f_final):
            assert float(rows[-1].split(",")[2]) == pytest.approx(rep.f_final)
