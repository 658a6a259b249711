import math

import numpy as np
import pytest

import dipa.outer
from dipa import detfun
from dipa.bench import SUPPRESS_DEFLATION, SUPPRESS_DELETION
from dipa.detfun import check_feasible
from dipa.graph import (
    StarvationError,
    build_arc_map,
    deflate,
    enumerate_hc,
    gen_random_graph,
    make_graph,
    petersen,
    support_graph,
)
from dipa.inner import barrier_eval
from dipa.lp import LPError
from dipa.outer import (
    GAVE_UP,
    HC_FOUND,
    NO_HC_DISCONNECTED,
    DipaParams,
    dipa_solve,
    forced_zero_arcs,
    initial_interior,
    propose_mu,
    round_to_hc,
)


def k3():
    return make_graph(3, [(1, 2), (1, 3), (2, 3)])


class TestInitialInterior:
    def test_s_mode_uniform_rows(self):
        g = gen_random_graph(12, 3, 6, seed=30)
        m = build_arc_map(g)
        x = initial_interior(m, "s")
        check_feasible(x, m, "s")
        for v in g.nodes:
            ks = m.out_arcs(v)
            assert np.allclose(x[ks], 1.0 / len(ks))

    def test_ds_mode_interior(self):
        g = gen_random_graph(12, 3, 6, seed=31)
        m = build_arc_map(g)
        x = initial_interior(m, "ds")
        check_feasible(x, m, "ds")
        assert np.min(x) > 1e-6


class TestProposeMu:
    def test_plain_shrink_when_psd(self):
        assert propose_mu(0.5, 10.0, 0.01, 0.1) == pytest.approx(0.001)

    def test_cap_by_curvature_ratio(self):
        # negative curvature -8 against barrier curvature 100: cap at 0.04
        assert propose_mu(-8.0, 100.0, 1.0, 0.5) == pytest.approx(0.04)

    def test_shrink_smaller_than_cap(self):
        assert propose_mu(-8.0, 1.0, 0.01, 0.1) == pytest.approx(0.001)


class TestForcedZeroArcs:
    def test_total_support_unchanged(self):
        g = gen_random_graph(12, 3, 6, seed=32)
        m = build_arc_map(g)
        assert forced_zero_arcs(m) == ()

    def test_known_deficient_instance(self):
        g = gen_random_graph(10, 3, 6, seed=24)
        m = build_arc_map(g)
        forced = [m.arcs[k] for k in forced_zero_arcs(m)]
        assert forced == [(1, 2), (2, 1), (2, 8), (5, 8), (8, 2), (8, 5)]


class TestRounding:
    def test_uniform_k3(self):
        g = k3()
        m = build_arc_map(g)
        c = round_to_hc(np.full(6, 0.5), m, "ds", original=g)
        assert c is not None
        assert c.canonical().seq == (1, 2, 3)

    def test_multi_cycle_rejected(self):
        # two triangles joined by light edges: mass sits on a 2-cycle cover
        g = make_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5)])
        m = build_arc_map(g)
        x = np.full(m.n_arcs, 1e-6)
        for a in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]:
            x[m.index[a]] = 1.0
        assert round_to_hc(x, m, "ds", original=g) is None

    def test_short_cycle_pick_deferred(self):
        # heaviest row would close a 2-cycle; the guard must route around it
        g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        m = build_arc_map(g)
        x = np.full(m.n_arcs, 0.1)
        x[m.index[(1, 2)]] = 0.9
        x[m.index[(2, 1)]] = 0.85
        x[m.index[(2, 3)]] = 0.5
        c = round_to_hc(x, m, "ds", original=g)
        assert c is not None
        c.validate(g)

    def test_expansion_through_history(self):
        g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        m = build_arc_map(g)
        m2, rec = deflate(m, (1, 2))
        x = np.full(m2.n_arcs, 1e-6)
        small = enumerate_hc(support_graph(m2.nodes, m2.arcs))[0]
        for a in small.arcs():
            x[m2.index[a]] = 1.0
        c = round_to_hc(x, m2, "ds", history=[rec], original=g)
        assert c is not None
        c.validate(g)
        assert g.n == len(c.seq)

    def test_invalid_expansion_returns_none(self):
        # a cycle on the reduced graph whose expansion uses a non-edge of the
        # claimed original must be rejected, not reported
        g = k3()
        m = build_arc_map(g)
        other = make_graph(3, [(1, 2), (2, 3)])  # path, no cycle possible
        assert round_to_hc(np.full(6, 0.5), m, "ds", original=other) is None


class TestSolveSmall:
    def test_c6_single_cycle(self):
        g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert rep.status == HC_FOUND
        assert rep.cycle.canonical().seq in {(1, 2, 3, 4, 5, 6), (1, 6, 5, 4, 3, 2)}

    @pytest.mark.parametrize("restore", ["lp", "qp"])
    def test_planted_instances(self, restore):
        for seed in (40, 41):
            g = gen_random_graph(12, 3, 6, seed=seed)
            rep = dipa_solve(g, DipaParams(mode="ds", restore=restore))
            assert rep.status == HC_FOUND
            rep.cycle.validate(g)

    def test_s_mode_solve(self):
        g = gen_random_graph(10, 3, 6, seed=42)
        rep = dipa_solve(g, DipaParams(mode="s"))
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)
        assert rep.status in (HC_FOUND, GAVE_UP)

    def test_petersen_never_found(self):
        rep = dipa_solve(petersen(), DipaParams(mode="ds"))
        assert rep.status != HC_FOUND
        assert rep.cycle is None

    def test_disconnected_input(self):
        g = make_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert rep.status == NO_HC_DISCONNECTED

    def test_support_reduction_recovers(self):
        g = gen_random_graph(10, 3, 6, seed=24)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert rep.status == HC_FOUND
        assert rep.deletions >= 6
        rep.cycle.validate(g)

    def test_drop_one_var(self):
        g = gen_random_graph(12, 3, 6, seed=43)
        rep = dipa_solve(g, DipaParams(mode="ds", drop_one_var=True))
        assert rep.deletions >= 1
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)

    def test_upper_log(self):
        g = gen_random_graph(12, 3, 6, seed=44)
        rep = dipa_solve(g, DipaParams(mode="ds", upper_log=True))
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)
        assert rep.status in (HC_FOUND, GAVE_UP)

    def test_time_limit_respected(self):
        g = gen_random_graph(20, 3, 6, seed=45)
        rep = dipa_solve(g, DipaParams(mode="ds", time_limit=1e-9))
        assert rep.status == GAVE_UP
        assert "time" in rep.message


class TestSurgeryDeadEnds:
    """A dead end inside surgery says nothing about the input graph: it ends
    the solve as gave-up and never raises out of dipa_solve."""

    @pytest.mark.parametrize("error", [StarvationError, LPError])
    def test_restoration_failure_gives_up(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr(dipa.outer, "restore_DS", fail)
        g = gen_random_graph(14, 3, 6, seed=1)
        rep = dipa_solve(g, DipaParams(mode="ds", restore="lp"))
        assert rep.status == GAVE_UP
        assert rep.message == "surgery dead end: planted failure"

    def test_dead_end_mid_sweep_reports_objective(self, monkeypatch):
        # the first surgery sweep on this graph makes two changes, so the
        # failure hits after one restoration already shrank the map
        real = dipa.outer.restore_DS
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise StarvationError("planted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(dipa.outer, "restore_DS", second_fails)
        g = gen_random_graph(18, 3, 6, seed=1, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds", restore="lp"))
        assert rep.status == GAVE_UP
        assert rep.message == "surgery dead end: planted failure"
        assert math.isfinite(rep.f_final)

    @pytest.mark.parametrize("n, seed", [(40, 0), (40, 7), (50, 19)])
    def test_planted_regressions_claim_no_proof(self, n, seed):
        # 40/0 and 40/7 once returned no-HC-disconnected; 50/19 raised
        # StarvationError out of restore_DS
        g = gen_random_graph(n, 3, 6, seed=seed, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert not rep.status.startswith("no-HC")
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)


class TestReportShape:
    def test_trace_consistency(self):
        g = gen_random_graph(14, 3, 6, seed=46)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert len(rep.trace) == rep.iterations
        its = [row.it for row in rep.trace]
        assert its == sorted(its)
        for row in rep.trace:
            assert row.kind in ("descent", "negcurv", "trigger", "converged", "stall")
            assert row.csv().count(",") == 9

    def test_rows_value_one_point(self):
        # f, phi and merit of a step row are all taken at the accepted point
        g = gen_random_graph(14, 3, 6, seed=46, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        rows = [r for r in rep.trace if r.kind != "trigger" and math.isfinite(r.mu)]
        assert len(rows) >= 2
        for row in rows:
            assert row.f + row.mu * row.phi == pytest.approx(row.merit, rel=1e-12, abs=0.0)

    def test_trigger_row_after_polish_values_polished_point(self, monkeypatch):
        # a trigger row after a main-loop Newton polish reports x_min of the
        # polished point, so f, phi and merit are valued there as well
        polished = []
        real = dipa.outer.newton_polish

        def record(x, spec, ctx):
            out = real(x, spec, ctx)
            polished.append((out, spec, ctx))
            return out

        monkeypatch.setattr(dipa.outer, "newton_polish", record)
        g = gen_random_graph(10, 3, 6, seed=0, plant=True)
        rep = dipa_solve(g, DipaParams(mode="s", mu_initial=1.0, grad_tol=1e-9))
        assert polished
        triggers = iter(r for r in rep.trace if r.kind == "trigger")
        for x, spec, ctx in polished:
            row = next(r for r in triggers if r.x_min == float(np.min(x)))
            assert row.f == detfun.value_only(x, ctx.m, ctx.mode)
            assert row.phi == barrier_eval(x, spec)[0]
            assert row.f + row.mu * row.phi == row.merit

    def test_report_counts(self):
        g = gen_random_graph(14, 3, 6, seed=47)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert rep.n == 14
        assert rep.mode == "ds"
        assert rep.deflations >= 0 and rep.deletions >= 0
        assert rep.wall_time > 0.0
        if rep.status == HC_FOUND:
            assert np.isfinite(rep.f_final)

    def test_suppressed_surgery_small(self):
        g = gen_random_graph(10, 3, 6, seed=48)
        rep = dipa_solve(
            g,
            DipaParams(
                mode="ds",
                deflation_threshold=1.0 - 1e-12,
                deletion_threshold=0.0,
            ),
        )
        assert rep.deflations == 0 and rep.deletions == 0
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)

    def test_iteration_cap(self):
        g = gen_random_graph(16, 3, 6, seed=49)
        rep = dipa_solve(g, DipaParams(mode="ds", max_outer=3))
        assert rep.iterations <= 3
        assert len(rep.trace) == rep.iterations


class TestProofStatuses:
    """A no-HC-* status claims the input has no Hamiltonian cycle; on small
    unplanted graphs exhaustive enumeration checks the claim."""

    @pytest.mark.parametrize("restore", ["lp", "qp"])
    def test_proofs_agree_with_enumeration(self, restore):
        proofs = 0
        for n, dmax in ((10, 4), (12, 3), (14, 3)):
            for seed in range(12):
                g = gen_random_graph(n, 2, dmax, seed=seed, plant=False)
                rep = dipa_solve(g, DipaParams(mode="ds", restore=restore))
                if rep.status.startswith("no-HC"):
                    assert enumerate_hc(g) == [], (n, seed)
                    proofs += 1
                elif rep.status == HC_FOUND:
                    rep.cycle.validate(g)
        # the families include graphs the solver proves non-Hamiltonian
        assert proofs > 0


def phase_lengths(trace) -> list:
    """step_once calls per barrier phase: the rows up to and including each
    trigger row, then the rows after the last trigger."""
    lengths, run = [], 0
    for row in trace:
        run += 1
        if row.kind == "trigger":
            lengths.append(run)
            run = 0
    return lengths + [run] if run else lengths


class TestPhaseBudget:
    """max_phase_iter bounds every barrier phase of the main loop: a phase
    that spends it ends with a trigger row, like a converged one."""

    def test_budget_ends_phases(self):
        g = gen_random_graph(14, 3, 6, seed=46, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds", max_phase_iter=3))
        assert len(rep.trace) == rep.iterations
        lengths = phase_lengths(rep.trace)
        assert max(lengths) <= 3
        # the count restarts at each trigger, so a later phase spends the
        # whole budget again
        assert 3 in lengths[1:]
        if rep.status == HC_FOUND:
            rep.cycle.validate(g)

    def test_s_mode_crawl_gives_up_within_budget(self):
        # without surgery this solve used to spend about 3,000 steps in one
        # phase at mu = 1e-5 before the barrier weight ran out
        g = gen_random_graph(20, 3, 6, seed=101, plant=True)
        params = DipaParams(
            mode="s",
            deflation_threshold=SUPPRESS_DEFLATION,
            deletion_threshold=SUPPRESS_DELETION,
        )
        rep = dipa_solve(g, params)
        assert rep.status == GAVE_UP
        assert rep.message == "barrier weight exhausted"
        assert len(rep.trace) == rep.iterations
        lengths = phase_lengths(rep.trace)
        assert max(lengths) == params.max_phase_iter
        assert rep.iterations < 2 * params.max_phase_iter
