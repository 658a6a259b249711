import pytest

import dipa.bench
import dipa.cli
from dipa.bench import BenchConfig
from dipa.cli import main
from dipa.graph import gen_random_graph, make_graph, petersen, write_graph
from dipa.outer import GAVE_UP, DipaParams, SolveReport


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = run("gen", "--n", "10", "--seed", "3", "--plant", "--out", str(out))
        assert rc == 0
        assert out.exists()
        head = out.read_text().splitlines()[0]
        n, edges = head.split()
        assert int(n) == 10

    def test_bad_degree_range(self, tmp_path, capsys):
        rc = run(
            "gen", "--n", "5", "--dmin", "6", "--dmax", "3",
            "--seed", "1", "--out", str(tmp_path / "x.txt"),
        )
        assert rc == 3


class TestSolve:
    def test_found_exit_zero(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "10", "--seed", "3", "--plant", "--out", str(gfile))
        rc = run("solve", "--graph", str(gfile), "--mode", "ds")
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: HC-found" in out
        assert "cycle:" in out

    def test_trace_file(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "10", "--seed", "3", "--plant", "--out", str(gfile))
        tr = tmp_path / "trace.csv"
        rc = run("solve", "--graph", str(gfile), "--mode", "ds", "--trace", str(tr))
        assert rc == 0
        lines = tr.read_text().splitlines()
        assert lines[0] == "iter,mu,f,phi,merit,step,kind,delta_hat,x_min,deflations"
        assert len(lines) >= 2

    def test_no_hc_exit_two(self, tmp_path, capsys):
        gfile = tmp_path / "pet.txt"
        write_graph(petersen(), gfile)
        rc = run("solve", "--graph", str(gfile), "--mode", "ds")
        assert rc == 2
        assert "HC-found" not in capsys.readouterr().out.split("status:")[1].splitlines()[0]

    def test_missing_file_exit_three(self, capsys):
        rc = run("solve", "--graph", "/nonexistent/g.txt", "--mode", "ds")
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_one_node_graph_exit_two(self, tmp_path, capsys):
        gfile = tmp_path / "one.txt"
        gfile.write_text("1 0\n")
        assert run("solve", "--graph", str(gfile), "--mode", "ds") == 2
        assert "status: no-HC-disconnected" in capsys.readouterr().out

    @pytest.mark.parametrize("header", ["0 0", "-3 0"])
    def test_node_count_below_one_exit_three(self, tmp_path, capsys, header):
        gfile = tmp_path / "empty.txt"
        gfile.write_text(header + "\n")
        assert run("solve", "--graph", str(gfile), "--mode", "ds") == 3
        assert f"error: bad header '{header}'" in capsys.readouterr().err

    def test_bad_flag_exit_three(self, capsys):
        assert run("solve", "--graph", "x", "--mode", "zz") == 3

    def test_seed_rejected(self, tmp_path, capsys):
        # the solve is deterministic and nothing reads a seed
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        assert run("solve", "--graph", str(gfile), "--mode", "ds", "--seed", "1") == 3
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--mu-shrink"])
    def test_fixed_constant_flags_rejected(self, tmp_path, capsys, flag):
        # the step fraction and the barrier shrink are constants, not options
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        assert run("solve", "--graph", str(gfile), "--mode", "ds", flag, "0.5") == 3
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    def test_s_mode_flag(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        rc = run("solve", "--graph", str(gfile), "--mode", "s")
        assert rc in (0, 2)

    @pytest.mark.parametrize("limit", ["nan", "0", "-1"])
    def test_time_limit_not_positive_exit_three(self, tmp_path, capsys, limit):
        # a NaN limit would never compare as exceeded and leave the solve
        # without a wall clock
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        rc = run("solve", "--graph", str(gfile), "--mode", "ds", "--time-limit", limit)
        assert rc == 3
        assert "time_limit" in capsys.readouterr().err


class TestBench:
    def test_tables_written(self, tmp_path, capsys):
        out = tmp_path / "tables"
        rc = run(
            "bench", "--sizes", "8", "--count", "2", "--grid", "paper-def",
            "--seed", "100", "--out", str(out),
        )
        assert rc == 0
        assert (out / "solves.csv").exists()
        assert (out / "results.csv").exists()
        printed = capsys.readouterr().out
        assert "lp-0.9" in printed

    def test_unknown_grid(self, tmp_path, capsys):
        rc = run(
            "bench", "--sizes", "8", "--count", "1", "--grid", "bogus",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert rc == 3

    @pytest.mark.parametrize("limit", ["nan", "0"])
    def test_time_limit_not_positive_exit_three(self, tmp_path, capsys, limit):
        out = tmp_path / "tables"
        rc = run(
            "bench", "--sizes", "8", "--count", "1", "--grid", "paper-def",
            "--seed", "1", "--out", str(out), "--time-limit", limit,
        )
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sizes", "8,5"),  # dmax 6 leaves no degree room at n=5
            ("--sizes", "8,8"),
            ("--sizes", "8", "--dmin", "1"),
            ("--sizes", "8", "--workers", "0"),
        ],
    )
    def test_bad_config_exits_before_any_solve(self, tmp_path, monkeypatch, capsys, flags):
        def solve_job(task):
            raise AssertionError(f"solved {task[:4]} before rejecting the config")

        monkeypatch.setattr(dipa.bench, "_solve_job", solve_job)
        out = tmp_path / "tables"
        rc = run(
            "bench", *flags, "--count", "1", "--grid", "paper-def",
            "--seed", "1", "--out", str(out),
        )
        assert rc == 3
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


class TestPathsCmd:
    def test_profile_written(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        out = tmp_path / "profile.csv"
        rc = run("paths", "--graph", str(gfile), "--out", str(out), "--samples", "3")
        assert rc == 0
        assert out.read_text().splitlines()[0] == "hc_id,t,f"

    def test_forced_arcs(self, tmp_path, capsys):
        # six arcs of this planted graph lie in no perfect matching: the
        # neutral point is taken without them and reads 0 there
        gfile = tmp_path / "g.txt"
        write_graph(gen_random_graph(10, 3, 6, seed=24, plant=True), gfile)
        out = tmp_path / "profile.csv"
        rc = run("paths", "--graph", str(gfile), "--out", str(out), "--samples", "3")
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "hc_id,t,f" and len(rows) > 1
        # the profile starts at the neutral point, where f is the same
        # toward every cycle
        assert len({r.split(",")[2] for r in rows[1:] if r.split(",")[1] == "0"}) == 1

    def test_no_perfect_matching(self, tmp_path, capsys):
        # K_{2,3}: no perfect matching, so no Hamiltonian cycle and no
        # neutral point; the profile is empty
        gfile = tmp_path / "k23.txt"
        write_graph(make_graph(5, [(a, b) for a in (1, 2) for b in (3, 4, 5)]), gfile)
        out = tmp_path / "profile.csv"
        rc = run("paths", "--graph", str(gfile), "--out", str(out))
        assert rc == 0
        assert out.read_text().splitlines() == ["hc_id,t,f"]
        assert "0 rows" in capsys.readouterr().out

    def test_cap_exceeded(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "12", "--seed", "5", "--plant", "--out", str(gfile))
        rc = run("paths", "--graph", str(gfile), "--out", str(tmp_path / "p.csv"), "--cap", "1")
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0

    def test_no_command(self, capsys):
        assert run() == 3


class TestSolveDefaults:
    def test_defaults_are_dipa_params(self, tmp_path, monkeypatch, capsys):
        # every option left unset takes its value from DipaParams
        gfile = tmp_path / "g.txt"
        run("gen", "--n", "8", "--seed", "2", "--plant", "--out", str(gfile))
        seen = []

        def fake_trace_solve(g, params):
            seen.append(params)
            rep = SolveReport(status=GAVE_UP, cycle=None, iterations=0,
                              deflations=0, deletions=0, trace=[])
            return rep, []

        monkeypatch.setattr(dipa.cli, "trace_solve", fake_trace_solve)
        assert run("solve", "--graph", str(gfile), "--mode", "ds") == 2
        assert seen == [DipaParams(mode="ds")]


class TestBenchDefaults:
    def test_defaults_are_bench_config(self, tmp_path, monkeypatch, capsys):
        # every option left unset takes its value from BenchConfig
        seen = []

        def fake_run_bench(cfg):
            seen.append(cfg)
            return dipa.bench.BenchResult()

        monkeypatch.setattr(dipa.cli, "run_bench", fake_run_bench)
        out = str(tmp_path / "tables")
        rc = run(
            "bench", "--sizes", "8,10", "--count", "2", "--grid", "paper-nodef",
            "--seed", "7", "--out", out,
        )
        assert rc == 0
        assert seen == [
            BenchConfig(sizes=(8, 10), count=2, grid="paper-nodef", seed=7, out_dir=out)
        ]
