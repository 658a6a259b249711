import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

import dipa.lp
import dipa.outer
from dipa.graph import (
    build_arc_map,
    deflate,
    delete_arc,
    gen_random_graph,
    make_graph,
)
from dipa.lp import (
    LPError,
    _highs_solve,
    _verify_lp,
    lp_solve,
    qp_least_distance,
)
from dipa.nullspace import build_A
from dipa.outer import (
    DipaParams,
    NoInteriorPoint,
    dipa_solve,
    drop_forced,
    forced_zero_arcs,
    initial_interior,
    restore_DS,
    restore_DS_qp,
    restore_S,
)


def verify_qp(x, xbar, a_eq, b_eq, lb, ub, tol: float = 1e-8) -> float:
    """Max KKT residual of a projection solution; raises if infeasible."""
    aeq = np.asarray(a_eq, dtype=float)
    resid = np.max(np.abs(aeq @ x - np.asarray(b_eq, dtype=float)))
    if resid > tol:
        raise LPError(f"projection equality residual {resid:.3e}")
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        raise LPError("projection bound violation")
    g = x - xbar
    atol = 1e-9
    interior = (x > lb + atol) & (x < ub - atol)
    # only interior components are free of bound multipliers, so the
    # equality multipliers must be fitted on those rows alone
    lam, *_ = np.linalg.lstsq(aeq[:, interior].T, g[interior], rcond=None)
    r = g[interior] - aeq[:, interior].T @ lam
    return float(np.max(np.abs(r), initial=0.0))


def lp_solve_reference(c, aeq, beq, lb, ub):
    """The three linprog(method="highs") rungs lp_solve ran before it drove
    the HiGHS binding itself, kept as the reference. Returns the last rung's
    OptimizeResult."""
    bounds = list(zip(lb, ub))
    res = linprog(
        c,
        A_eq=aeq,
        b_eq=beq,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    if res.status != 0:
        res = linprog(c, A_eq=aeq, b_eq=beq, bounds=bounds, method="highs")
    if res.status not in (0, 2, 3):
        res = linprog(
            c,
            A_eq=aeq,
            b_eq=beq,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )
    return res


def qp_least_distance_reference(
    xbar: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    nearest_start: bool = False,
    hi_blocks: list | None = None,
) -> tuple:
    """qp_least_distance with its active-set loop frozen as a per-index
    blocking-step scan, kept as the reference. By default it starts from an
    arbitrary feasible vertex (a zero-cost phase-one LP): the projection is
    unique, so that start must reach the same x and the same verdict as the
    1-norm nearest feasible point. With nearest_start it starts where
    qp_least_distance does, and must match it bit for bit. Every step
    blocked at an upper bound appends the blocking index to hi_blocks."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    aeq = np.asarray(a_eq, dtype=float).reshape(-1, a)
    beq = np.asarray(b_eq, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)

    if nearest_start:
        xc = np.clip(xbar, lb, ub)
        uv, status = lp_solve(
            np.ones(2 * a),
            np.hstack([aeq, -aeq]),
            beq - aeq @ xc,
            np.zeros(2 * a),
            np.concatenate([ub - xc, xc - lb]),
        )
        if status != "optimal":
            return None, "infeasible"
        x = np.clip(xc + uv[:a] - uv[a:], lb, ub)
    else:
        x0, status = lp_solve(np.zeros(a), aeq, beq, lb, ub)
        if status != "optimal":
            return None, "infeasible"
        x = np.clip(x0, lb, ub)
    # The phase-one vertex can carry solver-tolerance violations, and the LP
    # solver's default feasibility tolerance can even report "feasible" for a
    # box that admits no exact solution. Alternating least-norm equality
    # corrections with box clips either repairs the start or exposes that.
    ftol = 1e-10 * (1.0 + float(np.max(np.abs(beq), initial=0.0)))
    gap_norm = float(np.max(np.abs(beq - aeq @ x), initial=0.0))
    for _ in range(40):
        if gap_norm <= ftol:
            break
        fix, *_ = np.linalg.lstsq(aeq, beq - aeq @ x, rcond=None)
        x = np.clip(x + fix, lb, ub)
        gap_norm = float(np.max(np.abs(beq - aeq @ x), initial=0.0))
    if gap_norm > ftol:
        return None, "infeasible"

    atol = 1e-9 * (1.0 + np.max(np.abs(beq), initial=0.0))
    active_lo = np.abs(x - lb) <= atol
    active_hi = np.abs(x - ub) <= atol

    # bounds whose release produced no progress (degenerate at this vertex);
    # cleared whenever the iterate actually moves
    banned = np.zeros(a, dtype=bool)
    last_release = -1

    max_iter = 20 * (a + aeq.shape[0]) + 200
    for _ in range(max_iter):
        fixed = active_lo | active_hi
        free = ~fixed
        xfix = np.where(active_lo, lb, ub)
        rhs = beq - aeq[:, fixed] @ xfix[fixed] if fixed.any() else beq.copy()
        af = aeq[:, free]
        # minimize ||x_F - xbar_F|| s.t. af x_F = rhs. The least-norm update
        # x_F = xbar_F + pinv(af) resid is computed from af itself; forming
        # af af^T squares the condition number and the resulting multiplier
        # signs can contradict the actual projection step.
        resid = rhs - af @ xbar[free]
        corr, *_ = np.linalg.lstsq(af, resid, rcond=None)
        xt = x.copy()
        xt[free] = xbar[free] + corr
        xt[fixed] = xfix[fixed]

        step = xt - x
        if np.max(np.abs(step)) <= atol:
            # candidate stationary point; check bound multipliers with the
            # equality multipliers recovered from the same factorization
            lam, *_ = np.linalg.lstsq(af.T, corr, rcond=None)
            grad = x - xbar - aeq.T @ lam
            mult_lo = np.where(active_lo, grad, 0.0)
            mult_hi = np.where(active_hi, -grad, 0.0)
            release_tol = -1e-8 * (1.0 + float(np.max(np.abs(x - xbar), initial=0.0)))
            viol = (mult_lo < release_tol) | (mult_hi < release_tol)
            bad = np.flatnonzero(viol & ~banned)
            if bad.size == 0:
                # remove the float drift accumulated over blocked partial
                # steps with one least-norm correction; the free block alone
                # can be row-rank-deficient, so correct over all variables
                gap = beq - aeq @ x
                if float(np.max(np.abs(gap))) > 1e-12:
                    fix, *_ = np.linalg.lstsq(aeq, gap, rcond=None)
                    x = np.clip(x + fix, lb, ub)
                return x, "optimal"
            # release the lowest violating index (Bland's rule); picking the
            # most negative multiplier can cycle at degenerate vertices
            k = int(bad[0])
            if mult_lo[k] < release_tol:
                active_lo[k] = False
            else:
                active_hi[k] = False
            last_release = k
            continue

        # longest feasible step toward the equality-constrained optimum
        beta = 1.0
        block = -1
        block_hi = False
        for k in np.flatnonzero(free):
            if step[k] < -atol and x[k] + step[k] < lb[k] - atol:
                t = (lb[k] - x[k]) / step[k]
                if t < beta:
                    beta, block, block_hi = t, k, False
            elif step[k] > atol and x[k] + step[k] > ub[k] + atol:
                t = (ub[k] - x[k]) / step[k]
                if t < beta:
                    beta, block, block_hi = t, k, True
        moved = beta * float(np.max(np.abs(step)))
        x = x + beta * step
        if moved > atol:
            banned[:] = False
            last_release = -1
        elif block == last_release and block >= 0:
            # releasing this bound only re-blocked it with zero progress:
            # treat the bound as degenerately optimal and stop revisiting it
            banned[block] = True
        if block >= 0:
            if block_hi:
                if hi_blocks is not None:
                    hi_blocks.append(block)
                active_hi[block] = True
                x[block] = ub[block]
            else:
                active_lo[block] = True
                x[block] = lb[block]
    raise LPError("active-set projection did not converge")


class TestLPSolve:
    def test_known_optimum(self):
        # min x1 + 2 x2 st x1 + x2 = 1, box [0, 1]
        x, status = lp_solve(
            np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2)
        )
        assert status == "optimal"
        assert np.allclose(x, [1.0, 0.0], atol=1e-9)

    def test_infeasible_detected(self):
        _, status = lp_solve(
            np.zeros(2), np.array([[1.0, 1.0]]), np.array([5.0]), np.zeros(2), np.ones(2)
        )
        assert status != "optimal"

    def test_duality_gap_verified(self):
        rng = np.random.default_rng(3)
        n = 12
        a_eq = rng.integers(0, 2, size=(4, n)).astype(float)
        x0 = rng.uniform(0.2, 0.8, size=n)
        c = rng.uniform(-1, 1, size=n)
        _, status = lp_solve(c, a_eq, a_eq @ x0, np.zeros(n), np.ones(n))
        assert status == "optimal"


def recorded_lps(monkeypatch, fn, *args, **kwargs):
    """fn's result and the (c, a_eq, b_eq, lb, ub) of every LP it solved."""
    lps = []

    def record(*lp):
        lps.append(lp)
        return _highs_solve(*lp)

    monkeypatch.setattr(dipa.lp, "_highs_solve", record)
    try:
        out = fn(*args, **kwargs)
    finally:
        monkeypatch.undo()
    return out, lps


def without_forced(m, x=None):
    """m and x (when given) with the arcs in no perfect matching deleted, as
    dipa_solve deletes them before every start and restoration."""
    m, keep, _ = drop_forced(m)
    return m, None if x is None else x[keep]


def assert_matches_linprog(lp):
    """The direct HiGHS solve reaches linprog's verdict, x and multipliers,
    bit for bit. Returns the verdict."""
    res = _highs_solve(*lp)
    ref = lp_solve_reference(*lp)
    assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status, "failed")
    if res.status == "optimal":
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.y, ref.eqlin.marginals)
        assert np.array_equal(res.zl, ref.lower.marginals)
        assert np.array_equal(res.zu, ref.upper.marginals)
    return res.status


class TestMatchesLinprog:
    """lp_solve's HiGHS calls against the linprog rungs they replaced, on the
    LPs the solver itself builds on planted maps."""

    @staticmethod
    def planted(seed):
        n = 8 + (22 * seed) // 7
        return build_arc_map(gen_random_graph(n, 3, 6, seed=seed, plant=True))

    def test_solver_lps(self, monkeypatch):
        lps = []
        restore_lps = []
        for seed in range(8):
            m, _ = without_forced(self.planted(seed))
            x, got = recorded_lps(monkeypatch, initial_interior, m, "ds")
            lps += got
            # a deflation and a deletion leave sums that restore_DS has to
            # reconcile, on the support surgery hands it: forced arcs deleted
            m2, keep, _ = deflate(m, seed % m.n_arcs)
            x2 = x[keep]
            x2[seed % len(x2)] = 0.97
            for xbar, mm in ((x2, m2), (x[1:], delete_arc(m, [0])[0])):
                mm, xbar = without_forced(mm, xbar)
                got = recorded_lps(monkeypatch, restore_DS, xbar, mm)[1]
                restore_lps.append(len(got))
                lps += got
            box = TestQPMatchesVertexStart.planted_box(seed)
            lps += recorded_lps(monkeypatch, qp_least_distance, *box)[1]
        statuses = [assert_matches_linprog(lp) for lp in lps]
        # one LP per restore_DS, and both QP start verdicts
        assert restore_lps == [1] * 16
        assert {"optimal", "infeasible"} <= set(statuses)

    def test_infeasible_box(self):
        lp = (np.zeros(2), np.array([[1.0, 1.0]]), np.array([5.0]), np.zeros(2), np.ones(2))
        assert assert_matches_linprog(lp) == "infeasible"
        assert lp_solve(*lp) == (None, "infeasible")

    def test_unbounded(self):
        # min -x2 with x1 - x2 = 0 and no upper bounds
        lp = (np.array([0.0, -1.0]), np.array([[1.0, -1.0]]), np.zeros(1), np.zeros(2), np.full(2, np.inf))
        assert assert_matches_linprog(lp) == "unbounded"
        assert lp_solve(*lp) == (None, "unbounded")

    def test_free_variable(self):
        # x3 is free and priced, so the optimum puts it at the bound of what
        # the equality leaves it: x3 = 1 - 2 = -1
        lp = (
            np.array([0.0, 0.0, 1.0]),
            np.array([[1.0, 1.0, 1.0]]),
            np.ones(1),
            np.array([0.0, 0.0, -np.inf]),
            np.ones(3),
        )
        assert assert_matches_linprog(lp) == "optimal"
        x, status = lp_solve(*lp)
        assert status == "optimal"
        assert np.array_equal(x, [1.0, 1.0, -1.0])


class TestVerifyLP:
    """_verify_lp still rejects a wrong certificate."""

    @staticmethod
    def solved():
        # min x1 + 2 x2 st x1 + x2 = 1, box [0, 1], plus x3 in [0, 1] that
        # no equality touches
        lp = (
            np.array([1.0, 2.0, 0.0]),
            np.array([[1.0, 1.0, 0.0]]),
            np.ones(1),
            np.zeros(3),
            np.ones(3),
        )
        res = _highs_solve(*lp)
        assert res.status == "optimal"
        _verify_lp(*lp, res)
        return lp, res

    def test_corrupted_row_dual(self):
        lp, res = self.solved()
        bad = dataclasses.replace(res, y=res.y + 0.5)
        with pytest.raises(LPError, match="duality gap"):
            _verify_lp(*lp, bad)

    def test_x_outside_bound(self):
        lp, res = self.solved()
        x = res.x.copy()
        x[2] = 1.5
        with pytest.raises(LPError, match="bound violation"):
            _verify_lp(*lp, dataclasses.replace(res, x=x))


class TestQPLeastDistance:
    def test_projection_already_feasible(self):
        # a feasible xbar projects onto itself
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        mat = build_A(m)
        xbar = np.full(6, 0.5)
        x, status = qp_least_distance(
            xbar, mat, np.ones(6), np.zeros(6), np.ones(6)
        )
        assert status == "optimal"
        assert np.allclose(x, xbar, atol=1e-9)

    def test_projection_optimality(self):
        g = gen_random_graph(10, 3, 6, seed=11)
        m = build_arc_map(g)
        mat = build_A(m)
        rng = np.random.default_rng(4)
        xbar = np.clip(initial_interior(m, "ds") + rng.normal(0, 0.1, m.n_arcs), 0, 1)
        lb = np.full(m.n_arcs, 1e-4)
        ub = np.ones(m.n_arcs)
        beq = np.ones(mat.shape[0])
        x, status = qp_least_distance(xbar, mat, beq, lb, ub)
        assert status == "optimal"
        gap = verify_qp(x, xbar, mat, beq, lb, ub)
        assert gap <= 1e-7

    def test_infeasible_box_reported(self):
        # sum of two variables must be 1 but the lower bounds force 1.2
        mat = np.array([[1.0, 1.0]])
        x, status = qp_least_distance(
            np.array([0.5, 0.5]), mat, np.array([1.0]), np.full(2, 0.6), np.ones(2)
        )
        assert status == "infeasible"
        assert x is None

    def test_exactly_tight_box(self):
        # lower bounds exactly consume the budget: unique feasible point
        mat = np.array([[1.0, 1.0]])
        x, status = qp_least_distance(
            np.array([0.9, 0.1]), mat, np.array([1.0]), np.full(2, 0.5), np.ones(2)
        )
        assert status == "optimal"
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)

    def test_xbar_outside_box(self):
        # the start clips xbar into the box before the bounded-change LP
        mat = np.array([[1.0, 1.0, 1.0]])
        xbar = np.array([1.7, -0.4, 0.2])
        lb, ub = np.full(3, 0.1), np.ones(3)
        x, status = qp_least_distance(xbar, mat, np.array([1.0]), lb, ub)
        assert status == "optimal"
        assert np.allclose(x, [0.8, 0.1, 0.1], atol=1e-12)

    def test_perturbed_start_repaired(self, monkeypatch):
        # an LP start off a_eq x = b_eq by far more than the tolerance, which
        # HiGHS never hands back on the restoration boxes, goes straight into
        # the active set, whose least-norm steps close the gap, and still
        # ends at the projection: here the largest entry of xbar, well
        # inside the box, moves up by 1e-6
        real = dipa.lp.lp_solve

        def perturbed(*lp):
            uv, status = real(*lp)
            uv = uv.copy()
            uv[int(np.argmax(xbar))] += 1e-6
            starts.append(uv)
            return uv, status

        repaired = 0
        for seed in range(12):
            box = TestQPMatchesVertexStart.planted_box(seed)
            want, status = qp_least_distance(*box)
            if status != "optimal":
                continue
            xbar, mat, beq, lb, ub = box
            starts = []
            monkeypatch.setattr(dipa.lp, "lp_solve", perturbed)
            got, status = qp_least_distance(*box)
            monkeypatch.undo()
            assert status == "optimal"
            assert np.max(np.abs(got - want)) <= 1e-12, seed
            # the start the active set was handed is off the constraints
            a = len(xbar)
            xc = np.clip(xbar, lb, ub)
            start = np.clip(xc + starts[0][:a] - starts[0][a:], lb, ub)
            assert np.max(np.abs(beq - mat @ start)) > 1e-7
            repaired += 1
        assert repaired >= 6

    def test_start_off_on_many_arcs(self, monkeypatch):
        # a start moved up by 1e-6 on every 5th arc of a box with floor 0.1:
        # alternating least-norm corrections with box clips closed that gap
        # only linearly and called the box infeasible; the active set ends
        # at the projection of the unperturbed start
        box = TestQPMatchesVertexStart.planted_box(10)
        want, status = qp_least_distance(*box)
        assert status == "optimal"
        real = dipa.lp.lp_solve

        def perturbed(*lp):
            uv, status = real(*lp)
            uv = uv.copy()
            uv[: len(uv) // 2 : 5] += 1e-6
            return uv, status

        monkeypatch.setattr(dipa.lp, "lp_solve", perturbed)
        got, status = qp_least_distance(*box)
        assert status == "optimal"
        assert np.max(np.abs(got - want)) <= 1e-12
        xbar, mat, beq, lb, ub = box
        assert verify_qp(got, xbar, mat, beq, lb, ub) <= 1e-7

    @staticmethod
    def tight_floor_box(seed, monkeypatch):
        """(xbar, A, b, A's columns, t*) on a planted map with its forced
        arcs deleted: t* is the largest uniform floor of a doubly stochastic
        point, read from initial_interior's LP, and xbar is row-uniform."""
        g = gen_random_graph(12 + 2 * seed, 3, 6, seed=seed, plant=True)
        m, _ = without_forced(build_arc_map(g))
        optima = []
        real = dipa.outer.lp_solve

        def record(*lp):
            wt, status = real(*lp)
            optima.append(wt)
            return wt, status

        monkeypatch.setattr(dipa.outer, "lp_solve", record)
        initial_interior(m, "ds")
        monkeypatch.undo()
        mat = build_A(m)
        return 1.0 / np.bincount(m.row)[m.row], mat, np.ones(mat.shape[0]), m.n_arcs, optima[0][-1]

    @pytest.mark.parametrize(
        "delta, verdict",
        [(-1e-9, "optimal"), (1e-12, "optimal"), (1e-10, "infeasible"),
         (1e-9, "infeasible"), (1e-8, "infeasible"), (1e-7, "infeasible")],
    )
    def test_tight_floor_verdict(self, monkeypatch, delta, verdict):
        # a floor just above t* holds no exact point, though HiGHS's
        # tolerance can call it feasible: the check after the active set's
        # last correction says infeasible, and never hands back a point off
        # the sums. A floor at or below t* projects onto the sums, inside
        # the box: the active set's steps block only past its tolerance.
        for seed in range(6):
            xbar, mat, beq, a, t = self.tight_floor_box(seed, monkeypatch)
            lb, ub = np.full(a, t + delta), np.ones(a)
            x, status = qp_least_distance(xbar, mat, beq, lb, ub)
            assert status == verdict, seed
            if verdict == "optimal":
                assert np.max(np.abs(mat @ x - beq)) <= 1e-10, seed
                assert np.all(x >= lb) and np.all(x <= ub), seed
                assert verify_qp(x, xbar, mat, beq, lb, ub) <= 1e-7, seed


class TestQPMatchesVertexStart:
    """The nearest-point start against the frozen vertex start on the boxes
    restore_DS_qp builds: doubly stochastic sums of a planted graph, a
    uniform floor, and a noisy row-uniform xbar, left unclipped on every
    third box so that it can sit outside [lb, 1]."""

    @staticmethod
    def planted_box(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 25))
        m = build_arc_map(gen_random_graph(n, 3, 6, seed=seed, plant=True))
        mat = build_A(m)
        floor = (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2)[seed % 6]
        noise = (0.01, 0.05, 0.2, 0.5)[seed % 4]
        xbar = 1.0 / np.bincount(m.row)[m.row] + rng.normal(0.0, noise, m.n_arcs)
        if seed % 3:
            xbar = np.clip(xbar, 0.0, 1.0)
        a = m.n_arcs
        return xbar, mat, np.ones(mat.shape[0]), np.full(a, floor), np.ones(a)

    def test_same_status_and_point(self):
        statuses = []
        for seed in range(24):
            xbar, mat, beq, lb, ub = self.planted_box(seed)
            x, status = qp_least_distance(xbar, mat, beq, lb, ub)
            x_ref, status_ref = qp_least_distance_reference(xbar, mat, beq, lb, ub)
            assert status == status_ref, seed
            statuses.append(status)
            if status == "optimal":
                assert np.max(np.abs(x - x_ref)) <= 1e-12, seed
                assert verify_qp(x, xbar, mat, beq, lb, ub) <= 1e-7, seed
            else:
                assert x is None and x_ref is None
        # both verdicts are exercised
        assert "optimal" in statuses and "infeasible" in statuses


class TestQPUpperBlock:
    """Steps blocked at an upper bound, which the restoration boxes (upper
    bound 1) never reach: random boxes with upper bounds below 1 and a noisy
    xbar around an interior point, against the frozen loop from the same
    start."""

    @staticmethod
    def box(seed):
        rng = np.random.default_rng(seed)
        a = int(rng.integers(4, 13))
        rows = int(rng.integers(1, 4))
        mat = (rng.random((rows, a)) < 0.6).astype(float)
        mat[:, rng.integers(0, a, rows)] = 1.0
        ub = rng.uniform(0.1, 1.0, a)
        x0 = rng.uniform(0.3, 0.95, a) * ub
        xbar = x0 + rng.normal(0.0, 0.5, a)
        return xbar, mat, mat @ x0, np.zeros(a), ub

    def test_same_status_and_point(self):
        blocked = 0
        for seed in range(60):
            box = self.box(seed)
            hi_blocks = []
            x_ref, status_ref = qp_least_distance_reference(
                *box, nearest_start=True, hi_blocks=hi_blocks
            )
            x, status = qp_least_distance(*box)
            assert status == status_ref, seed
            assert (x is None and x_ref is None) or np.array_equal(x, x_ref), seed
            blocked += bool(hi_blocks)
        # the upper-bound block fires on a share of the boxes
        assert blocked >= 10


class TestRestoreS:
    def test_row_sums_restored(self):
        g = gen_random_graph(10, 3, 6, seed=12)
        m = build_arc_map(g)
        x = initial_interior(m, "s")
        # simulate a deletion: drop one arc and renormalize the survivor rows
        m2, keep = delete_arc(m, [0])
        xbar = x[keep]
        x2 = restore_S(xbar, m2)
        sums: dict = {}
        for k, (i, _) in enumerate(m2.arcs):
            sums[i] = sums.get(i, 0.0) + x2[k]
        assert np.allclose(sorted(sums.values()), 1.0, atol=1e-12)
        # same sums in the same order as a per-arc loop, so bit-identical
        mass: dict = {}
        for k, (i, _) in enumerate(m2.arcs):
            mass[i] = mass.get(i, 0.0) + xbar[k]
        expected = [xbar[k] / mass[i] for k, (i, _) in enumerate(m2.arcs)]
        assert x2.tolist() == expected

    def test_untouched_rows_unchanged(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        x = np.array([0.4, 0.6, 0.7, 0.3, 0.5, 0.5])
        assert np.allclose(restore_S(x, m), x, atol=1e-15)

    def test_zero_mass_row_starves(self):
        m = build_arc_map(make_graph(3, [(1, 2), (1, 3), (2, 3)]))
        x = np.array([0.4, 0.6, 0.0, 0.0, 0.5, 0.5])
        with pytest.raises(NoInteriorPoint, match="row 2"):
            restore_S(x, m)


class TestRestoreDS:
    def setup_unbalanced(self, seed):
        g = gen_random_graph(12, 3, 6, seed=seed)
        m = build_arc_map(g)
        assert forced_zero_arcs(m) == ()
        mat = build_A(m)
        rng = np.random.default_rng(seed)
        xbar = np.clip(
            initial_interior(m, "ds") + rng.normal(0, 0.05, m.n_arcs), 0.0, 1.0
        )
        return m, mat, xbar

    @pytest.mark.parametrize("which", ["lp", "qp"])
    def test_feasible_result(self, which):
        m, mat, xbar = self.setup_unbalanced(13)
        fn = restore_DS if which == "lp" else restore_DS_qp
        x = fn(xbar, m)
        r = mat @ x
        assert np.max(np.abs(r - 1.0)) <= 1e-8
        assert np.min(x) >= -1e-12
        if which == "qp":
            # x is the projection onto the box [x_min, 1]
            a = len(xbar)
            lb = np.full(a, min(max(float(np.min(xbar)), 1e-10), 1.0 / a))
            assert verify_qp(x, xbar, mat, np.ones(mat.shape[0]), lb, np.ones(a)) <= 1e-7

    def test_lp_stays_close(self):
        m, _, xbar = self.setup_unbalanced(14)
        x = restore_DS(xbar, m)
        # the one-norm objective keeps the correction moderate
        assert np.abs(x - xbar).sum() <= 2.0

    @pytest.mark.parametrize("which", ["lp", "qp"])
    def test_floor_capped_at_one_over_a(self, monkeypatch, which):
        # on the complete digraph on 4 nodes every row has 3 arcs, so with
        # min(xbar) >= 0.4 the box [min(xbar), 1] holds no point with row
        # sums 1; the floor 1/a = 1/12 admits the uniform point 1/3
        m = build_arc_map(make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
        mat = build_A(m)
        xbar = np.random.default_rng(5).uniform(0.4, 0.5, m.n_arcs)
        fn = restore_DS if which == "lp" else restore_DS_qp
        x, lps = recorded_lps(monkeypatch, fn, xbar, m)
        assert np.max(np.abs(mat @ x - 1.0)) <= 1e-8
        assert np.min(x) >= 1.0 / 12 - 1e-12
        if which == "lp":
            assert len(lps) == 1
        else:
            lb = np.full(m.n_arcs, 1.0 / 12)
            assert verify_qp(x, xbar, mat, np.ones(mat.shape[0]), lb, np.ones(m.n_arcs)) <= 1e-7

    @pytest.mark.parametrize("drift", [1e-9, 1e-11])
    def test_polish_only_off_the_constraints(self, monkeypatch, drift):
        # an LP optimum off A x = 1 by more than 1e-10 takes the
        # least-squares correction; one within it comes back unchanged
        m, mat, xbar = self.setup_unbalanced(13)
        real = dipa.outer.lp_solve
        optima = []

        def drifted(*lp):
            uvg, status = real(*lp)
            uvg = uvg.copy()
            uvg[0] += drift
            optima.append(uvg)
            return uvg, status

        monkeypatch.setattr(dipa.outer, "lp_solve", drifted)
        x = restore_DS(xbar, m)
        a = m.n_arcs
        raw = xbar + optima[0][:a] - optima[0][a : 2 * a]
        off = np.max(np.abs(mat @ raw - 1.0))
        if drift > 1e-10:
            assert off > 1e-10
            assert np.max(np.abs(mat @ x - 1.0)) <= 1e-12
        else:
            assert off <= 1e-10
            assert x.tobytes() == raw.tobytes()

    def test_qp_points_above_floor_in_solves(self, monkeypatch):
        # surgery deletes every arc at or below zero, so a QP restoration
        # that handed back an entry there would delete arcs on rounding
        # noise; over planted N=20 seeds 100-149 no entry falls below its
        # box floor, and these five seeds are the cheap guard
        real = dipa.outer.restore_DS_qp
        outs = []

        def record(xbar, m):
            x = real(xbar, m)
            outs.append(x)
            return x

        monkeypatch.setattr(dipa.outer, "restore_DS_qp", record)
        params = DipaParams(mode="ds", restore="qp", deflation_threshold=0.9)
        for seed in range(100, 105):
            dipa_solve(gen_random_graph(20, 3, 6, seed=seed, plant=True), params)
        assert len(outs) >= 10
        assert all(np.min(x) > 0.0 for x in outs)

    @pytest.mark.parametrize("which", ["lp", "qp"])
    def test_forced_arc_left_in_raises(self, which):
        # this support has arcs in no perfect matching, which no point of a
        # box with a positive floor can carry: restoration reports a dead end
        # instead of a point off the constraints
        m = build_arc_map(gen_random_graph(10, 3, 6, seed=24))
        assert forced_zero_arcs(m)
        xbar = 1.0 / np.bincount(m.row)[m.row]
        fn = restore_DS if which == "lp" else restore_DS_qp
        with pytest.raises(NoInteriorPoint, match="restoration program infeasible"):
            fn(xbar, m)
