import numpy as np
import pytest

from dipa.graph import StarvationError, build_arc_map, delete_arc, gen_random_graph, make_graph
from dipa.lp import LinearProgram, lp_solve, qp_least_distance, verify_qp
from dipa.nullspace import build_A
from dipa.outer import initial_interior, restore_DS, restore_DS_qp, restore_S


class TestLPSolve:
    def test_known_optimum(self):
        # min x1 + 2 x2 st x1 + x2 = 1, box [0, 1]
        p = LinearProgram(
            c=np.array([1.0, 2.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            lb=np.zeros(2),
            ub=np.ones(2),
        )
        res = lp_solve(p)
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-9)

    def test_infeasible_detected(self):
        p = LinearProgram(
            c=np.zeros(2),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            lb=np.zeros(2),
            ub=np.ones(2),
        )
        res = lp_solve(p, verify=False)
        assert res.status != "optimal"

    def test_duality_gap_verified(self):
        rng = np.random.default_rng(3)
        n = 12
        a_eq = rng.integers(0, 2, size=(4, n)).astype(float)
        x0 = rng.uniform(0.2, 0.8, size=n)
        p = LinearProgram(
            c=rng.uniform(-1, 1, size=n),
            a_eq=a_eq,
            b_eq=a_eq @ x0,
            lb=np.zeros(n),
            ub=np.ones(n),
        )
        res = lp_solve(p, verify=True)
        assert res.status == "optimal"


class TestQPLeastDistance:
    def test_projection_already_feasible(self):
        # a feasible xbar projects onto itself
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        mat = build_A(m, mode="ds")
        xbar = np.full(6, 0.5)
        x, status = qp_least_distance(
            xbar, mat, np.ones(6), np.zeros(6), np.ones(6)
        )
        assert status == "optimal"
        assert np.allclose(x, xbar, atol=1e-9)

    def test_projection_optimality(self):
        g = gen_random_graph(10, 3, 6, seed=11)
        m = build_arc_map(g)
        mat = build_A(m, mode="ds")
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


class TestRestoreS:
    def test_row_sums_restored(self):
        g = gen_random_graph(10, 3, 6, seed=12)
        m = build_arc_map(g)
        x = initial_interior(m, "s")
        # simulate a deletion: drop one arc and renormalize the survivor rows
        m2 = delete_arc(m, m.arcs[0])
        xbar = np.array([x[m.index[a]] for a in m2.arcs])
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
        with pytest.raises(StarvationError, match="row 2"):
            restore_S(x, m)


class TestRestoreDS:
    def setup_unbalanced(self, seed):
        g = gen_random_graph(12, 3, 6, seed=seed)
        m = build_arc_map(g)
        mat = build_A(m, mode="ds")
        rng = np.random.default_rng(seed)
        xbar = np.clip(
            initial_interior(m, "ds") + rng.normal(0, 0.05, m.n_arcs), 0.0, 1.0
        )
        return mat, xbar

    @pytest.mark.parametrize("which", ["lp", "qp"])
    def test_feasible_result(self, which):
        mat, xbar = self.setup_unbalanced(13)
        fn = restore_DS if which == "lp" else restore_DS_qp
        x, forced = fn(xbar, mat)
        assert forced == ()
        r = mat @ x
        assert np.max(np.abs(r - 1.0)) <= 1e-8
        assert np.min(x) >= -1e-12

    def test_lp_stays_close(self):
        mat, xbar = self.setup_unbalanced(14)
        x, _ = restore_DS(xbar, mat)
        # the one-norm objective keeps the correction moderate
        assert np.abs(x - xbar).sum() <= 2.0

    def test_forced_zero_diagnosis(self):
        # a 2x2 exchange where one variable must hit zero exactly: the
        # diagnosis returns it instead of pretending the floor is feasible
        mat = np.array(
            [
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        xbar = np.array([1.0, 0.3, 0.7])
        x, forced = restore_DS(xbar, mat, x_min=1e-3)
        if forced:
            assert all(x[k] <= 1e-3 for k in forced)
        else:
            assert np.max(np.abs(mat @ x - 1.0)) <= 1e-8
