import math
import random

import numpy as np
import pytest

import dipa.inner
import dipa.outer
from dipa import detfun
from dipa.bench import SUPPRESS_DEFLATION, SUPPRESS_DELETION, neutral_point
from dipa.detfun import check_feasible
from dipa.graph import (
    CycleCertificate,
    _try_generate,
    Graph,
    StarvationError,
    arc_map_from_arcs,
    build_arc_map,
    deflate,
    enumerate_hc,
    expand_cycle,
    gen_random_graph,
    make_graph,
    petersen,
    support_connected,
)
from dipa.inner import BarrierSpec, PhaseContext, barrier_eval
from dipa.lp import LPError, lp_solve
from dipa.nullspace import build_A, build_Z
from dipa.outer import (
    GAVE_UP,
    HC_FOUND,
    NO_HC_DISCONNECTED,
    DipaParams,
    NoInteriorPoint,
    dipa_solve,
    drop_forced,
    forced_zero_arcs,
    initial_interior,
    mu_trigger,
    propose_mu,
    round_to_hc,
)


def support_graph(nodes, arcs) -> Graph:
    """Undirected support of a directed arc set."""
    edges = frozenset((min(i, j), max(i, j)) for i, j in arcs)
    return Graph(nodes=tuple(sorted(nodes)), edges=edges)


def k3():
    return make_graph(3, [(1, 2), (1, 3), (2, 3)])


def round_to_hc_reference(x, m, mode, history=(), original=None):
    """round_to_hc as a per-row, per-column scan with a successor walk for
    the short-cycle guard, kept as the reference for its picks. In s mode
    it still rescales the pending rows after each pick; round_to_hc does
    not, since scaling a row by one positive factor cannot move its
    argmax."""
    nodes = m.nodes
    rr = len(nodes)
    work = np.zeros((rr, rr))
    work[m.row, m.col] = x
    exists = np.zeros((rr, rr), dtype=bool)
    exists[m.row, m.col] = True
    order = sorted(range(rr), key=lambda r: (-np.max(work[r][exists[r]], initial=0.0), r))
    succ: dict = {}
    used: set = set()

    def closes_short(r: int, c: int) -> bool:
        node = c
        seen = 0
        while node in succ and seen <= rr:
            node = succ[node]
            seen += 1
        return node == r and len(succ) + 1 < rr

    for r in order:
        cands = [c for c in range(rr) if exists[r, c] and c not in used]
        if not cands:
            return None
        open_c = [c for c in cands if not closes_short(r, c)]
        pool = open_c if open_c else cands
        c = max(pool, key=lambda cc: (work[r, cc], -cc))
        succ[r] = c
        used.add(c)
        if mode == "s":
            for r2 in range(rr):
                if r2 in succ:
                    continue
                v = work[r2, c]
                work[r2, c] = 0.0
                if 0.0 < v < 1.0:
                    work[r2] /= 1.0 - v
    # single cycle covering all rows?
    node = 0
    for count in range(rr):
        node = succ[node]
        if node == 0:
            if count != rr - 1:
                return None
            break
    seq = [nodes[0]]
    node = succ[0]
    while node != 0:
        seq.append(nodes[node])
        node = succ[node]
    reduced = CycleCertificate(seq=tuple(seq)).canonical()
    try:
        if history:
            return expand_cycle(list(history), reduced, original=original)
        if original is not None:
            reduced.validate(original)
        return reduced
    except Exception:
        return None


class TestInitialInterior:
    def test_s_mode_uniform_rows(self):
        g = gen_random_graph(12, 3, 6, seed=30)
        m = build_arc_map(g)
        x = initial_interior(m, "s")
        check_feasible(x, m, "s")
        for v in g.nodes:
            ks = [k for k, (i, _) in enumerate(m.arcs) if i == v]
            assert np.allclose(x[ks], 1.0 / len(ks))

    def test_ds_mode_interior(self):
        g = gen_random_graph(12, 3, 6, seed=31)
        m = build_arc_map(g)
        x = initial_interior(m, "ds")
        check_feasible(x, m, "ds")
        assert np.min(x) > 1e-6


class TestProposeMu:
    def test_plain_shrink_when_psd(self):
        assert propose_mu(0.5, 10.0, 0.01) == pytest.approx(0.001)

    def test_cap_by_curvature_ratio(self):
        # negative curvature -8 against barrier curvature 100: cap at 0.04
        assert propose_mu(-8.0, 100.0, 1.0) == pytest.approx(0.04)

    def test_shrink_smaller_than_cap(self):
        assert propose_mu(-8.0, 1.0, 0.01) == pytest.approx(0.001)

    def test_cap_keeps_merit_curvature_negative(self):
        # along the eigenvector of lam_hat the merit curvature is at most
        # lam_hat + mu2 lam_bar <= lam_hat / 2, so the smallest eigenvalue is
        # too; the allowance covers rounding in the eigenvalue solver only
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            b = rng.normal(size=(d, d))
            hz = (b + b.T) * rng.uniform(0.01, 10.0)
            lam_hat = float(np.linalg.eigvalsh(hz)[0])
            if lam_hat >= 0.0:
                hz -= (lam_hat + rng.uniform(1e-3, 1.0)) * np.eye(d)
                lam_hat = float(np.linalg.eigvalsh(hz)[0])
            c = rng.normal(size=(d, d))
            pz = c @ c.T * 10.0 ** rng.uniform(-2.0, 4.0) + 1e-6 * np.eye(d)
            lam_bar = float(np.linalg.eigvalsh(pz)[-1])
            for mu in (1.0, 0.01, 1e-5):
                # uncapped, the proposals of shrink factors 0.1, 0.5 and 0.9
                for scale in (1.0, 5.0, 9.0):
                    mu2 = propose_mu(lam_hat, lam_bar, mu * scale)
                    lam = float(np.linalg.eigvalsh(hz + mu2 * pz)[0])
                    assert lam <= 0.5 * lam_hat + 1e-12 * abs(lam_hat)


class TestMuTrigger:
    def test_two_eigensolves(self, monkeypatch):
        # the neutral point of a planted graph has negative reduced
        # curvature; the trigger needs its least and the barrier's largest
        # eigenvalue, and nothing more
        g = gen_random_graph(10, 3, 6, seed=0, plant=True)
        m = build_arc_map(g)
        x = neutral_point(g)
        ctx = PhaseContext(z=build_Z(m, mode="ds"), m=m, grad_tol=1e-6)
        spec = BarrierSpec(mu=0.01, upper_log=False)
        hz = ctx.z.reduce_hessian(detfun.hess(x, m, mode="ds"))
        assert np.linalg.eigvalsh(hz)[0] < 0.0
        calls = []
        real = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        mu2 = mu_trigger(x, spec, ctx)
        assert len(calls) == 2
        assert 0.0 < mu2 <= 0.001


def forced_zero_arcs_reference(m):
    """forced_zero_arcs as the LP it was before the matching check, kept as
    the reference: maximize sum(u) with u <= x, u <= 1/(4a) over the doubly
    stochastic points x of the support; u stays at zero exactly on the arcs
    no such point uses."""
    A = build_A(m, mode="ds")
    rows, a = A.shape
    eps = 1.0 / (4.0 * a)
    # variables [x, u, s] with u - x + s = 0
    c = np.concatenate([np.zeros(a), -np.ones(a), np.zeros(a)])
    aeq = np.block(
        [
            [A, np.zeros((rows, a)), np.zeros((rows, a))],
            [-np.eye(a), np.eye(a), np.eye(a)],
        ]
    )
    beq = np.concatenate([np.ones(rows), np.zeros(a)])
    lb = np.zeros(3 * a)
    ub = np.concatenate([np.ones(a), np.full(a, eps), np.full(a, np.inf)])
    xus, status = lp_solve(c, aeq, beq, lb, ub)
    if status != "optimal":
        raise NoInteriorPoint("no doubly stochastic point on this support")
    u = xus[a : 2 * a]
    return tuple(int(k) for k in np.flatnonzero(u <= 0.5 * eps))


def pruned_support(m, seed):
    """m without about a third of its arcs, drawn at random, skipping any
    deletion that would leave a node without an out-arc or an in-arc."""
    rng = random.Random(seed)
    arcs = list(m.arcs)
    for i, j in rng.sample(arcs, len(arcs) // 3):
        if sum(a == i for a, _ in arcs) > 1 and sum(b == j for _, b in arcs) > 1:
            arcs.remove((i, j))
    return arc_map_from_arcs(m.nodes, arcs)


class TestForcedZeroArcs:
    @staticmethod
    def verdict(fn, m):
        try:
            return fn(m)
        except NoInteriorPoint:
            return None

    def test_matches_lp_reference(self):
        # unplanted, planted and arc-pruned supports on 6 to 16 nodes
        outcomes = {"empty": 0, "non-empty": 0, "no matching": 0}
        for seed in range(400):
            n = 6 + seed % 11
            if seed % 3 == 0:
                m = build_arc_map(gen_random_graph(n, 2, 3 + seed % 2, seed=seed, plant=False))
            elif seed % 3 == 1:
                m = build_arc_map(gen_random_graph(n, 2, 3 + seed % 3, seed=seed, plant=True))
            else:
                g = gen_random_graph(n, 2, 4, seed=seed, plant=seed % 2 == 0)
                m = pruned_support(build_arc_map(g), seed)
            got = self.verdict(forced_zero_arcs, m)
            assert got == self.verdict(forced_zero_arcs_reference, m), seed
            outcomes["no matching" if got is None else "non-empty" if got else "empty"] += 1
        assert min(outcomes.values()) >= 50, outcomes

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
        c = round_to_hc(np.full(6, 0.5), m, [], g)
        assert c is not None
        assert c.canonical().seq == (1, 2, 3)

    def test_multi_cycle_rejected(self):
        # two triangles joined by light edges: mass sits on a 2-cycle cover
        g = make_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5)])
        m = build_arc_map(g)
        x = np.full(m.n_arcs, 1e-6)
        for a in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]:
            x[m.arcs.index(a)] = 1.0
        assert round_to_hc(x, m, [], g) is None

    def test_short_cycle_pick_deferred(self):
        # heaviest row would close a 2-cycle; the guard must route around it
        g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        m = build_arc_map(g)
        x = np.full(m.n_arcs, 0.1)
        x[m.arcs.index((1, 2))] = 0.9
        x[m.arcs.index((2, 1))] = 0.85
        x[m.arcs.index((2, 3))] = 0.5
        c = round_to_hc(x, m, [], g)
        assert c is not None
        c.validate(g)

    def test_expansion_through_history(self):
        g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        m = build_arc_map(g)
        m2, _, rec = deflate(m, m.arcs.index((1, 2)))
        x = np.full(m2.n_arcs, 1e-6)
        small = enumerate_hc(support_graph(m2.nodes, m2.arcs))[0]
        for a in small.arcs():
            x[m2.arcs.index(a)] = 1.0
        c = round_to_hc(x, m2, [rec], g)
        assert c is not None
        c.validate(g)
        assert g.n == len(c.seq)

    def test_invalid_expansion_returns_none(self):
        # a cycle on the reduced graph whose expansion uses a non-edge of the
        # claimed original must be rejected, not reported
        g = k3()
        m = build_arc_map(g)
        other = make_graph(3, [(1, 2), (2, 3)])  # path, no cycle possible
        assert round_to_hc(np.full(6, 0.5), m, [], other) is None


class TestRoundingMatchesReference:
    """round_to_hc against the frozen scan: the same cycle or None."""

    @staticmethod
    def same(x, m, mode, records, g):
        got = round_to_hc(x, m, records, g)
        ref = round_to_hc_reference(x, m, mode, records, g)
        assert (got is None and ref is None) or got.seq == ref.seq
        return got is not None

    @pytest.mark.parametrize("mode, n, seed", [("ds", 30, 201), ("s", 18, 1)])
    def test_solver_points(self, monkeypatch, mode, n, seed):
        # every point the solver rounds, with the records it had then; both
        # solves deflate before the last rounding finds the cycle
        calls = []
        real = dipa.outer.round_to_hc

        def record(x, m, records, original):
            calls.append((x.copy(), m, mode, list(records), original))
            return real(x, m, records, original)

        monkeypatch.setattr(dipa.outer, "round_to_hc", record)
        dipa_solve(gen_random_graph(n, 3, 6, seed=seed, plant=True), DipaParams(mode=mode))
        assert calls[-1][3]
        hits = [self.same(*call) for call in calls]
        assert hits[-1] and not any(hits[:-1])

    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_random_and_tied_points(self, mode):
        rng = np.random.default_rng(11)
        hits = 0
        for seed in range(30):
            g = gen_random_graph(int(rng.integers(5, 13)), 2, 4, seed=seed, plant=True)
            m = build_arc_map(g)
            maps = [(m, [])]
            try:
                m2, _, rec = deflate(m, seed % m.n_arcs)
                maps.append((m2, [rec]))
            except StarvationError:
                pass
            for mm, records in maps:
                a = mm.n_arcs
                for x in (
                    rng.random(a),
                    rng.integers(0, 3, a) / 2.0,
                    np.full(a, 0.5),
                ):
                    hits += self.same(x, mm, mode, records, g)
        # some points round to a cycle
        assert hits > 0


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

    @pytest.mark.parametrize("mode", ["s", "ds"])
    @pytest.mark.parametrize(
        "g",
        [
            Graph(nodes=(), edges=frozenset()),
            make_graph(1, []),
            make_graph(2, [(1, 2)]),
            make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
            make_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
            # a triangle and a 5-cycle joined at node 3, plus a pendant node
            make_graph(8, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6),
                           (6, 7), (3, 7), (7, 8)]),
        ],
        ids=["n0", "n1", "n2", "path", "star", "pendant"],
    )
    def test_too_small_or_thin_proved_up_front(self, monkeypatch, g, mode):
        # fewer than 3 nodes, or a node with fewer than two neighbours, rules
        # a Hamiltonian cycle out before any start point is sought
        def no_start(*args):
            raise AssertionError("the verdict needs no start point")

        monkeypatch.setattr(dipa.outer, "initial_interior", no_start)
        rep = dipa_solve(g, DipaParams(mode=mode))
        assert rep.status == NO_HC_DISCONNECTED
        assert rep.iterations == 0 and rep.trace == []

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

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_grad_tol_not_positive_rejected(self, tol):
        # no phase could converge: each would silently spend its budget
        g = gen_random_graph(10, 3, 6, seed=0, plant=True)
        with pytest.raises(ValueError, match="grad_tol"):
            dipa_solve(g, DipaParams(mode="ds", grad_tol=tol))


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
            assert row.f == detfun.value_only(x, ctx.m, ctx.z.mode)
            assert row.phi == barrier_eval(x, spec)[0]
            assert row.f + row.mu * row.phi == row.merit

    def test_report_counts(self):
        g = gen_random_graph(14, 3, 6, seed=47)
        rep = dipa_solve(g, DipaParams(mode="ds"))
        assert rep.deflations >= 0 and rep.deletions >= 0
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
    """MAX_PHASE_ITER bounds every barrier phase of the main loop: a phase
    that spends it ends with a trigger row, like a converged one."""

    def test_budget_ends_phases(self, monkeypatch):
        monkeypatch.setattr(dipa.inner, "MAX_PHASE_ITER", 3)
        g = gen_random_graph(14, 3, 6, seed=46, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds"))
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
        assert max(lengths) == dipa.inner.MAX_PHASE_ITER
        assert rep.iterations < 2 * dipa.inner.MAX_PHASE_ITER

    def test_nine_triggers_bound_every_solve(self, monkeypatch):
        # each trigger at least shrinks the weight tenfold, so from
        # mu_initial <= 1 the 9th proposes 1e-9 < MU_MIN at the latest, and
        # a solve spends at most 9 phase budgets; on this instance the
        # shrink, not the curvature cap, sets the weight at one trigger
        monkeypatch.setattr(dipa.inner, "MAX_PHASE_ITER", 2)
        g = gen_random_graph(20, 3, 6, seed=8, plant=True)
        rep = dipa_solve(g, DipaParams(mode="ds", mu_initial=1.0))
        assert rep.status == GAVE_UP
        assert rep.message == "barrier weight exhausted"
        mus = [row.mu for row in rep.trace if row.kind == "trigger"]
        assert all(b <= 0.1 * a for a, b in zip(mus, mus[1:]))
        assert any(b == 0.1 * a for a, b in zip(mus, mus[1:]))
        assert len(mus) <= 9
        assert rep.iterations <= 9 * dipa.inner.MAX_PHASE_ITER


# (n, graph seed, solver parameters, (status, iterations, deflations,
# deletions, message)) of small solves that go through surgery, recorded
# before deflate and delete_arc returned keep. Bookkeeping that moves a
# trajectory changes a row; the perfbench reference digests are stale and
# would not show it.
SURGERY_OUTCOMES = (
    (14, 1, dict(mode="ds", restore="lp"), (HC_FOUND, 24, 2, 0, "")),
    (14, 1, dict(mode="ds", restore="qp"), (HC_FOUND, 25, 3, 0, "")),
    (10, 3, dict(mode="s"), (HC_FOUND, 16, 4, 0, "")),
    (12, 2, dict(mode="ds", drop_one_var=True), (HC_FOUND, 26, 1, 1, "")),
    (10, 24, dict(mode="ds"), (HC_FOUND, 2, 0, 6, "")),
    (14, 9, dict(mode="ds"), (HC_FOUND, 34, 4, 8, "")),
    (12, 7, dict(mode="s"),
     (GAVE_UP, 15, 9, 0, "surgery dead end: node 5 isolated after deflation of (2, 10)")),
    (12, 9, dict(mode="s"),
     (GAVE_UP, 12, 10, 0, "surgery dead end: deflation would leave fewer than 2 nodes")),
)


@pytest.mark.parametrize("n, seed, kw, expected", SURGERY_OUTCOMES)
def test_surgery_outcomes_frozen(n, seed, kw, expected):
    rep = dipa_solve(gen_random_graph(n, 3, 6, seed=seed, plant=True), DipaParams(**kw))
    assert (rep.status, rep.iterations, rep.deflations, rep.deletions, rep.message) == expected


def planted_with_cycle(n, seed):
    """gen_random_graph(n, 3, 6, seed) and the node order of the cycle it
    planted, found by replaying the generator's draws."""
    for attempt in range(100):
        key = f"{n}/3/6/{seed}/1/{attempt}"
        g = _try_generate(n, 3, 6, random.Random(key), True)
        if g is not None:
            order = list(range(1, n + 1))
            random.Random(key).shuffle(order)
            assert g == gen_random_graph(n, 3, 6, seed=seed, plant=True)
            CycleCertificate(seq=tuple(order)).validate(g)
            return g, order
    raise AssertionError("generator gave up")


class TestPlantedCycleSurvivesChecks:
    """On planted graphs the forced-arc deletion never takes an arc of the
    planted cycle and the support stays connected: at start-up, where
    either would give the solve a no-HC status, and after each deflation of
    a planted-cycle arc with its forced-arc batch."""

    def test_family(self):
        rng = random.Random(0)
        graphs = steps = 0
        for n in range(8, 51):
            for seed in range(5):
                g, order = planted_with_cycle(n, seed)
                m, _, _ = drop_forced(build_arc_map(g))
                cycle = list(zip(order, order[1:] + order[:1]))
                assert {*cycle, *(a[::-1] for a in cycle)} <= set(m.arcs)
                assert support_connected(m)
                graphs += 1
                while len(order) > 3:
                    t = rng.randrange(len(order))
                    m, _, _ = deflate(m, m.arcs.index((order[t], order[(t + 1) % len(order)])))
                    del order[t]
                    m, _, _ = drop_forced(m)
                    cycle = list(zip(order, order[1:] + order[:1]))
                    assert set(cycle) <= set(m.arcs)
                    assert support_connected(m)
                    steps += 1
        assert graphs == 215 and steps > 5000
