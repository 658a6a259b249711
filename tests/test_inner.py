import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, solve_triangular

import dipa.detfun
import dipa.inner
from dipa.detfun import value_grad_hess
from dipa.graph import build_arc_map, gen_random_graph, make_graph
from dipa.inner import (
    ALPHA,
    BarrierSpec,
    LinesearchStall,
    PhaseContext,
    barrier_eval,
    barrier_value,
    descent_direction,
    improve_negcurv,
    linesearch,
    max_boundary_step,
    minimize_phase,
    modified_cholesky,
    negcurv_direction,
    newton_polish,
    step_once,
)
from dipa.inner import _default_delta, _factor_with_policy
from dipa.nullspace import build_Z
from dipa.outer import DipaParams, dipa_solve, initial_interior


def phase_context(g, m, mode, grad_tol=1e-9):
    return PhaseContext(z=build_Z(m, mode=mode), m=m, grad_tol=grad_tol)


class TestBarrier:
    def test_values(self):
        x = np.array([0.25, 0.5])
        phi, g, h = barrier_eval(x, BarrierSpec(mu=0.5, upper_log=False))
        assert phi == pytest.approx(-(math.log(0.25) + math.log(0.5)))
        assert np.allclose(g, -1.0 / x)
        assert np.allclose(h, 1.0 / x**2)

    def test_upper_log_adds_terms(self):
        x = np.array([0.25, 0.5])
        phi, g, h = barrier_eval(x, BarrierSpec(mu=0.5, upper_log=True))
        assert phi == pytest.approx(
            -(math.log(0.25) + math.log(0.5)) - (math.log(0.75) + math.log(0.5))
        )
        assert np.allclose(g, -1.0 / x + 1.0 / (1.0 - x))
        assert np.allclose(h, 1.0 / x**2 + 1.0 / (1.0 - x) ** 2)

    @pytest.mark.parametrize("upper_log", [False, True])
    def test_value_alone_matches_bytes(self, upper_log):
        # a linesearch trial values phi alone; it is barrier_eval's phi
        spec = BarrierSpec(mu=0.5, upper_log=upper_log)
        rng = np.random.default_rng(4)
        for size in (1, 7, 60, 400):
            x = rng.uniform(1e-9, 1.0 - 1e-9, size=size)
            got = np.float64(barrier_value(x, spec))
            assert got.tobytes() == np.float64(barrier_eval(x, spec)[0]).tobytes()

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            barrier_eval(np.array([0.0, 0.5]), BarrierSpec(mu=1.0, upper_log=False))
        with pytest.raises(ValueError):
            barrier_eval(np.array([1.0, 0.5]), BarrierSpec(mu=1.0, upper_log=True))


class TestModifiedCholesky:
    def test_pd_unmodified(self):
        M = np.array([[4.0, 1.0], [1.0, 3.0]])
        res = modified_cholesky(M, 0.0)
        assert not res.modified
        assert np.allclose(res.r.T @ res.r, M, atol=1e-12)

    def test_indefinite_diag(self):
        M = np.diag([1.0, -2.0])
        res = modified_cholesky(M, 0.0)
        assert res.modified
        assert res.j == 1
        assert np.allclose(res.r, np.diag([1.0, math.sqrt(2.0)]), atol=1e-12)
        E = res.r.T @ res.r - M
        assert np.allclose(E, np.diag([0.0, 4.0]), atol=1e-12)

    def test_factor_reproduces_shifted_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8))
        M = (A + A.T) / 2
        res = modified_cholesky(M, 0.0)
        assert res.modified
        E = res.r.T @ res.r - M
        # the modification is diagonal and nonnegative
        assert np.allclose(E - np.diag(np.diag(E)), 0.0, atol=1e-9)
        assert np.min(np.diag(E)) >= -1e-12

    def test_descent_direction_solves(self):
        M = np.array([[4.0, 1.0], [1.0, 3.0]])
        res = modified_cholesky(M, 0.0)
        g = np.array([1.0, -2.0])
        d = descent_direction(res.r, g)
        assert np.allclose(M @ d, -g, atol=1e-12)


class TestCholeskyFastPath:
    """modified_cholesky returns the LAPACK factor only where the GMW loop
    would add nothing, and otherwise is the loop."""

    @staticmethod
    def loop_only(monkeypatch, M, delta):
        def no_lapack(*args, **kwargs):
            raise LinAlgError("forced")

        with monkeypatch.context() as mp:
            mp.setattr(dipa.inner, "_cholesky", no_lapack)
            return modified_cholesky(M, delta)

    @staticmethod
    def count_loop_calls(monkeypatch):
        calls = []
        loop = dipa.inner._gmw_loop

        def spy(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(dipa.inner, "_gmw_loop", spy)
        return calls

    def test_positive_definite_matches_loop(self, monkeypatch):
        rng = np.random.default_rng(11)
        for n in range(81):
            A = rng.standard_normal((n, n))
            M = A @ A.T + n * np.eye(n)
            ref = self.loop_only(monkeypatch, M, -1e-8)
            calls = self.count_loop_calls(monkeypatch)
            res = modified_cholesky(M, -1e-8)
            monkeypatch.undo()
            assert not calls
            assert (res.modified, res.j) == (ref.modified, ref.j)
            assert res.r.shape == (n, n)
            scale = float(np.max(np.abs(ref.r), initial=0.0))
            np.testing.assert_allclose(res.r, ref.r, rtol=1e-12, atol=1e-12 * scale)

    def test_pivot_below_small_takes_loop(self, monkeypatch):
        M = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1e-17]])
        ref = self.loop_only(monkeypatch, M, 0.0)
        calls = self.count_loop_calls(monkeypatch)
        res = modified_cholesky(M, 0.0)
        assert len(calls) == 1
        # the loop raised the tiny pivot, by less than counts as a modification
        assert not res.modified and res.r[2, 2] ** 2 > M[2, 2]
        assert (res.modified, res.j) == (ref.modified, ref.j)
        assert np.array_equal(res.r, ref.r)

    def test_zero_rows_past_the_diagonal(self, monkeypatch):
        # a decoupled index gives a row of R that is zero past the diagonal,
        # where theta is 0 and only small bounds the pivot: the positive
        # definite matrix keeps LAPACK's factor, the tiny pivot takes the loop
        rng = np.random.default_rng(13)
        A = rng.standard_normal((6, 6))
        pd = A @ A.T + 6 * np.eye(6)
        pd[2, :] = pd[:, 2] = 0.0
        pd[2, 2] = 3.0
        tiny = np.diag([2.0, 1e-17, 3.0])
        for M, j, loop in ((pd, 2, False), (tiny, 1, True)):
            R = dipa.inner._cholesky(M)
            assert not R[j, j + 1 :].any()
            ref = self.loop_only(monkeypatch, M, 0.0)
            calls = self.count_loop_calls(monkeypatch)
            res = modified_cholesky(M, 0.0)
            monkeypatch.undo()
            assert len(calls) == loop
            assert (res.modified, res.j) == (ref.modified, ref.j)
            if loop:
                assert np.array_equal(res.r, ref.r)
            else:
                assert res.r.tobytes() == R.tobytes()
                np.testing.assert_allclose(res.r, ref.r, rtol=1e-12, atol=1e-12)

    def test_indefinite_is_the_loop(self, monkeypatch):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((12, 12))
        M = (A + A.T) / 2
        ref = self.loop_only(monkeypatch, M, -1e-8)
        calls = self.count_loop_calls(monkeypatch)
        res = modified_cholesky(M, -1e-8)
        assert len(calls) == 1
        assert res.modified
        assert (res.modified, res.j) == (ref.modified, ref.j)
        assert np.array_equal(res.r, ref.r)


class TestLapackDirect:
    """potrf and trtrs called without scipy's wrappers give the wrappers'
    bytes and raise their errors."""

    @staticmethod
    def factors():
        """(matrix, Fortran-ordered factor) for n = 0..80: potrf's factor of
        a positive definite matrix, and the GMW loop's of an indefinite one."""
        rng = np.random.default_rng(51)
        for n in range(81):
            A = rng.standard_normal((n, n))
            M = A @ A.T + n * np.eye(n)
            yield M, dipa.inner._cholesky(M)
            C, beta2, small = gmw_preamble_reference((A + A.T) / 2, -1e-8)
            yield C, dipa.inner._gmw_loop(C, beta2, small).r

    def test_cholesky_matches_wrapper_bytes(self):
        # the loop's inputs are indefinite: both refuse them
        for M, _ in self.factors():
            try:
                ref = cholesky(M, lower=False, check_finite=False)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    dipa.inner._cholesky(M)
                continue
            got = dipa.inner._cholesky(M)
            assert got.tobytes() == ref.tobytes()
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            assert got.flags.f_contiguous == ref.flags.f_contiguous

    def test_solves_match_wrapper_bytes(self):
        rng = np.random.default_rng(52)
        for _, R in self.factors():
            n = R.shape[0]
            assert R.flags.f_contiguous
            g = rng.standard_normal(n)
            w = solve_triangular(R, -g, trans="T", lower=False)
            ref = solve_triangular(R, w, lower=False)
            assert descent_direction(R, g).tobytes() == ref.tobytes()
            if n:
                j = int(rng.integers(n))
                e = np.zeros(n)
                e[j] = 1.0
                got = negcurv_direction(R, j)
                assert got.tobytes() == solve_triangular(R, e, lower=False).tobytes()
            for trans in (0, 1):
                ref = solve_triangular(R, g, trans=trans, lower=False)
                assert dipa.inner._solve_upper(R, g, trans).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_value_error(self, bad):
        M = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        R = dipa.inner._cholesky(M)
        g = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError):
            descent_direction(R, g)
        # the solves never read the lower triangle; the check reads it all
        for pos in ((0, 2), (2, 0)):
            R_bad = R.copy(order="F")
            R_bad[pos] = bad
            with pytest.raises(ValueError):
                descent_direction(R_bad, np.ones(3))
            with pytest.raises(ValueError):
                negcurv_direction(R_bad, 1)

    def test_singular_factor_raises_linalg_error(self):
        R = np.asfortranarray(np.triu(np.ones((4, 4))))
        R[2, 2] = 0.0
        with pytest.raises(LinAlgError):
            descent_direction(R, np.ones(4))
        with pytest.raises(LinAlgError):
            negcurv_direction(R, 3)
        with pytest.raises(LinAlgError):
            solve_triangular(R, np.ones(4), lower=False)

    def test_indefinite_takes_the_loop(self, monkeypatch):
        rng = np.random.default_rng(53)
        A = rng.standard_normal((15, 15))
        M = (A + A.T) / 2
        with pytest.raises(LinAlgError):
            dipa.inner._cholesky(M)
        with pytest.raises(LinAlgError):
            cholesky(M, lower=False, check_finite=False)
        calls = TestCholeskyFastPath.count_loop_calls(monkeypatch)
        assert modified_cholesky(M, -1e-8).modified
        assert len(calls) == 1

    def test_empty(self):
        R = dipa.inner._cholesky(np.empty((0, 0)))
        ref = cholesky(np.empty((0, 0)), lower=False, check_finite=False)
        assert (R.shape, R.dtype) == (ref.shape, ref.dtype)
        res = modified_cholesky(np.empty((0, 0)), -1e-8)
        assert (res.r.shape, res.modified, res.j) == ((0, 0), False, -1)
        got = descent_direction(res.r, np.empty(0))
        ref = solve_triangular(res.r, np.empty(0), lower=False)
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)


def gmw_preamble_reference(mred, delta):
    """modified_cholesky's C = mred - delta I, beta2 and small computed
    with dense identity and off-diagonal temporaries, frozen as the oracle
    for what modified_cholesky hands the loop."""
    C = np.asarray(mred, dtype=float) - delta * np.eye(mred.shape[0])
    n = C.shape[0]
    gamma = float(np.max(np.abs(np.diag(C)), initial=0.0))
    offd = C - np.diag(np.diag(C))
    xi = float(np.max(np.abs(offd), initial=0.0))
    nu = max(1.0, math.sqrt(max(n * n - 1.0, 0.0)))
    return C, max(gamma, xi / nu, 1e-30), 2.2e-16 * max(gamma + xi, 1.0)


def gmw_loop_reference(C, beta2, small):
    """The right-looking Gill-Murray-Wright loop, which subtracts each
    column's outer product from the whole trailing block, frozen as the
    oracle the left-looking _gmw_loop must match byte for byte."""
    n = C.shape[0]
    L = np.eye(n)
    d = np.zeros(n)
    E = np.zeros(n)
    work = C.copy()
    for j in range(n):
        cjj = work[j, j]
        col = work[j + 1 :, j]
        theta = float(np.max(np.abs(col), initial=0.0))
        dj = max(abs(cjj), theta * theta / beta2, small)
        d[j] = dj
        E[j] = dj - cjj
        if j < n - 1:
            L[j + 1 :, j] = col / dj
            work[j + 1 :, j + 1 :] -= np.outer(col, col) / dj
    r = (L * np.sqrt(d)).T
    e_max = float(np.max(E, initial=0.0))
    tol = 4.0 * small
    modified = bool(e_max > tol)
    jmax = int(np.argmax(E)) if modified else -1
    return dipa.inner.CholResult(r=r, modified=modified, j=jmax)


def gmw_test_matrices():
    """For n = 0..80: a random indefinite matrix, a positive definite one
    with a tiny pivot, and an indefinite one whose upper triangle sits one
    ulp off its transpose and holds -0.0 entries."""
    rng = np.random.default_rng(31)
    for n in range(81):
        A = rng.standard_normal((n, n))
        sym = (A + A.T) / 2
        yield sym
        R = np.triu(rng.standard_normal((n, n)))
        R.flat[:: n + 1] = 1.0 + rng.random(n)
        if n:
            R[rng.integers(n), :] *= 1e-9
        yield R.T @ R
        skew = sym.copy()
        upper = np.triu_indices(n, 1)
        skew[upper] = np.nextafter(skew[upper], np.inf)
        if n > 2:
            skew[0, 2] = skew[2, 0] = -0.0
        yield skew


def same_factor(res, ref):
    return (
        res.r.tobytes() == ref.r.tobytes()
        and res.r.flags.f_contiguous == ref.r.flags.f_contiguous
        and (res.modified, res.j) == (ref.modified, ref.j)
    )


@pytest.fixture(scope="module")
def solver_gmw_inputs():
    """Every modified_cholesky and _gmw_loop input of a planted ds N=30
    solve."""
    factor_calls, loop_calls = [], []
    factor, loop = dipa.inner.modified_cholesky, dipa.inner._gmw_loop

    def spy_factor(mred, delta=0.0):
        factor_calls.append((np.array(mred), delta))
        return factor(mred, delta)

    def spy_loop(C, beta2, small):
        loop_calls.append((np.array(C), beta2, small))
        return loop(C, beta2, small)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dipa.inner, "modified_cholesky", spy_factor)
        mp.setattr(dipa.inner, "_gmw_loop", spy_loop)
        dipa_solve(gen_random_graph(30, 3, 6, seed=201, plant=True), DipaParams(mode="ds"))
    assert len(loop_calls) > 20
    return factor_calls, loop_calls


def random_loop_inputs():
    for M in gmw_test_matrices():
        for delta in (0.0, -1e-8):
            yield gmw_preamble_reference(M, delta)


class TestGmwLoopReference:
    """The left-looking loop against the frozen right-looking one: the same
    factor bytes in the same Fortran layout, pivot and modification."""

    def test_random_matrices(self):
        for C, beta2, small in random_loop_inputs():
            res = dipa.inner._gmw_loop(C, beta2, small)
            assert same_factor(res, gmw_loop_reference(C, beta2, small)), C.shape

    def test_solver_inputs(self, solver_gmw_inputs):
        for C, beta2, small in solver_gmw_inputs[1]:
            res = dipa.inner._gmw_loop(C, beta2, small)
            assert same_factor(res, gmw_loop_reference(C, beta2, small)), C.shape

    def test_inputs_are_not_symmetric(self, solver_gmw_inputs):
        # the loop reads C's columns, which is why U starts from C.T
        assert any((C != C.T).any() for C, _, _ in solver_gmw_inputs[1])

    def test_directions_from_the_factor(self, solver_gmw_inputs):
        # solve_triangular takes another LAPACK path for a C-ordered R, so
        # the directions guard R's layout as well as its values
        rng = np.random.default_rng(32)
        cases = list(random_loop_inputs()) + solver_gmw_inputs[1]
        for C, beta2, small in cases:
            res = dipa.inner._gmw_loop(C, beta2, small)
            ref = gmw_loop_reference(C, beta2, small)
            n = C.shape[0]
            if n == 0:
                continue
            g = rng.standard_normal(n)
            got = negcurv_direction(res.r, res.j)
            assert got.tobytes() == negcurv_direction(ref.r, ref.j).tobytes()
            got = descent_direction(res.r, g)
            assert got.tobytes() == descent_direction(ref.r, g).tobytes()

    def test_preamble(self, monkeypatch, solver_gmw_inputs):
        # with LAPACK refused, modified_cholesky hands the loop the frozen
        # preamble's C, beta2 and small
        cases = [(M, delta) for M in gmw_test_matrices() for delta in (0.0, -1e-8)]
        cases += solver_gmw_inputs[0]
        seen = []

        def no_lapack(*args, **kwargs):
            raise LinAlgError("forced")

        monkeypatch.setattr(dipa.inner, "_cholesky", no_lapack)
        monkeypatch.setattr(dipa.inner, "_gmw_loop", lambda *args: seen.append(args))
        for mred, delta in cases:
            dipa.inner.modified_cholesky(mred, delta)
            C, beta2, small = seen.pop()
            C_ref, beta2_ref, small_ref = gmw_preamble_reference(mred, delta)
            assert C.tobytes() == C_ref.tobytes()
            assert (beta2, small) == (beta2_ref, small_ref)


def test_subtract_reduce_runs_row_by_row():
    # _gmw_loop's bits rest on np.subtract.reduce over axis 0 of a C-ordered
    # (k, w) array subtracting row 1, then row 2, and so on from row 0
    k, w = 9, 5
    a = np.full((k, w), 1e-16)
    a[0] = 1.0
    a[:, 1] *= 3.0
    expected = a[0].copy()
    for row in a[1:]:
        expected = expected - row
    assert (a[0] - a[1:].sum(axis=0)).tobytes() != expected.tobytes()
    assert np.subtract.reduce(a, axis=0).tobytes() == expected.tobytes()
    target = np.zeros((3, w + 2))
    np.subtract.reduce(a, axis=0, out=target[1, 2:])
    assert target[1, 2:].tobytes() == expected.tobytes()


class TestNegativeCurvature:
    def test_extreme_eigenvector_on_diag(self):
        M = np.diag([1.0, -2.0])
        res = modified_cholesky(M, 0.0)
        d = negcurv_direction(res.r, res.j)
        q = d @ M @ d / (d @ d)
        assert q == pytest.approx(-2.0, abs=1e-12)

    def test_direction_is_descent_aligned(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 6))
        M = (A + A.T) / 2 - 3.0 * np.eye(6)
        res = modified_cholesky(M, 0.0)
        d = negcurv_direction(res.r, res.j)
        assert d @ M @ d < 0.0
        # negcurv_direction leaves the sign open; step_once orients the
        # refined direction, so every negcurv step moves downhill
        g = gen_random_graph(12, 3, 6, seed=23)
        m = build_arc_map(g)
        nctx = phase_context(g, m, "ds", grad_tol=1e-10)
        x = minimize_phase(initial_interior(m, "ds"), BarrierSpec(mu=math.inf, upper_log=False), nctx)
        ctx = phase_context(g, m, "ds", grad_tol=1e-9)
        spec = BarrierSpec(mu=1e-4, upper_log=False)
        delta_hat = 0.0
        negcurv = 0
        for _ in range(25):
            info = step_once(x, spec, ctx, delta_hat)
            if info.kind in ("converged", "stall"):
                break
            if info.kind == "negcurv":
                grad = value_grad_hess(x, m, "ds")[1] + spec.mu * barrier_eval(x, spec)[1]
                assert (info.x - x) @ grad <= 0.0
                negcurv += 1
            x, delta_hat = info.x, info.delta_hat
        assert negcurv

    @pytest.mark.parametrize("with_metric", [False, True])
    def test_improve_is_odd_in_its_start(self, with_metric):
        # why step_once may orient only the refined direction: a start of
        # -d returns exactly (-d', q) where d returns (d', q)
        rng = np.random.default_rng(41)
        for n in range(1, 61):
            A = rng.standard_normal((n, n))
            H = (A + A.T) / 2
            metric = np.eye(n)
            if with_metric:
                B = rng.standard_normal((n, n))
                metric = B @ B.T + np.eye(n)
            d0 = rng.standard_normal(n)
            for sweeps in (1, 3):
                d, q = improve_negcurv(H, d0, metric=metric, sweeps=sweeps)
                d_neg, q_neg = improve_negcurv(H, -d0, metric=metric, sweeps=sweeps)
                assert (-d_neg).tobytes() == d.tobytes()
                assert np.float64(q_neg).tobytes() == np.float64(q).tobytes()

    def test_improve_monotone(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((10, 10))
        M = (A + A.T) / 2 - 2.0 * np.eye(10)
        res = modified_cholesky(M, 0.0)
        d0 = negcurv_direction(res.r, res.j)
        q0 = d0 @ M @ d0 / (d0 @ d0)
        d1, q1 = improve_negcurv(M, d0.copy(), metric=np.eye(10), sweeps=1)
        d3, q3 = improve_negcurv(M, d0.copy(), metric=np.eye(10), sweeps=3)
        lam_min = float(np.linalg.eigvalsh(M)[0])
        assert q1 == pytest.approx(d1 @ M @ d1 / (d1 @ d1), abs=1e-10)
        assert q1 <= q0 + 1e-12
        assert q3 <= q1 + 1e-12
        assert q3 >= lam_min - 1e-12

    def test_improve_with_metric(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        M = (A + A.T) / 2 - 2.0 * np.eye(6)
        B = rng.standard_normal((6, 6))
        G = B @ B.T + np.eye(6)
        d0 = rng.standard_normal(6)
        d1, q1 = improve_negcurv(M, d0.copy(), metric=G, sweeps=4)
        q0 = d0 @ M @ d0 / (d0 @ G @ d0)
        assert q1 == pytest.approx(d1 @ M @ d1 / (d1 @ G @ d1), abs=1e-10)
        assert q1 <= q0 + 1e-12
        # bounded below by the smallest generalized eigenvalue
        w = np.linalg.eigvals(np.linalg.solve(G, M))
        assert q1 >= float(np.min(w.real)) - 1e-9


def improve_negcurv_reference(H, d, G, sweeps=1):
    """improve_negcurv as a per-coordinate loop over NumPy scalars, kept as
    the reference the vectorised version must match bit for bit."""
    H = np.asarray(H, dtype=float)
    d = np.asarray(d, dtype=float).copy()
    n = len(d)

    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        raise ValueError("zero start vector")
    d /= nrm
    hd = H @ d
    gd = G @ d
    num = float(d @ hd)
    den = float(d @ gd)
    for _ in range(max(sweeps, 0)):
        for i in range(n):
            b = hd[i]
            c = H[i, i]
            q = gd[i]
            r = G[i, i]
            A2 = c * q - b * r
            A1 = c * den - num * r
            A0 = b * den - num * q
            ts: list = []
            if abs(A2) > 1e-300:
                disc = A1 * A1 - 4.0 * A2 * A0
                if disc >= 0.0:
                    sq = math.sqrt(disc)
                    ts = [(-A1 + sq) / (2 * A2), (-A1 - sq) / (2 * A2)]
            elif abs(A1) > 1e-300:
                ts = [-A0 / A1]
            best_t = 0.0
            best_q = num / den
            for t in ts:
                dn = den + 2.0 * q * t + r * t * t
                if dn <= 1e-14 * den:
                    continue
                qq = (num + 2.0 * b * t + c * t * t) / dn
                if qq < best_q:
                    best_q, best_t = qq, t
            if best_t != 0.0:
                t = best_t
                d[i] += t
                hd += t * H[:, i]
                gd += t * G[:, i]
                num = float(d @ hd)
                den = float(d @ gd)
        nrm = float(np.linalg.norm(d))
        if nrm > 0:
            d /= nrm
            hd /= nrm
            gd /= nrm
            num = float(d @ hd)
            den = float(d @ gd)
    return d, num / den


class TestImproveNegcurvReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_bit_identical_to_loop(self, seed, with_metric):
        rng = np.random.default_rng(seed)
        for n in range(1, 81):
            A = rng.standard_normal((n, n))
            H = (A + A.T) / 2 - 0.5 * np.eye(n)
            # without a metric of its own the quotient is taken in the identity
            metric = np.eye(n)
            if with_metric:
                B = rng.standard_normal((n, n))
                metric = B @ B.T + np.eye(n)
            d0 = rng.standard_normal(n)
            for sweeps in (1, 3):
                d, q = improve_negcurv(H, d0, metric=metric, sweeps=sweeps)
                d_ref, q_ref = improve_negcurv_reference(H, d0, metric, sweeps=sweeps)
                assert d.tobytes() == d_ref.tobytes()
                assert np.float64(q).tobytes() == np.float64(q_ref).tobytes()

    def test_bit_identical_in_gram_metric(self):
        # the solver's own case: a reduced Hessian in the metric Z'Z
        g = gen_random_graph(14, 3, 6, seed=5, plant=True)
        m = build_arc_map(g)
        z = build_Z(m, mode="ds")
        x = initial_interior(m, "ds")
        h_red = z.reduce_hessian(value_grad_hess(x, m, "ds")[2])
        d0 = np.random.default_rng(3).standard_normal(z.dim)
        d, q = improve_negcurv(h_red, d0, metric=z.gram(), sweeps=3)
        d_ref, q_ref = improve_negcurv_reference(h_red, d0, z.gram(), sweeps=3)
        assert d.tobytes() == d_ref.tobytes()
        assert np.float64(q).tobytes() == np.float64(q_ref).tobytes()


def hessian_reference(x, m, mode):
    """detfun's Hessian as a scatter of the minor's entries into a zero
    matrix, frozen as the oracle for the bytes of the reduced Hessians."""
    det, inv, inside = dipa.detfun._core(x, m, mode)
    a = m.n_arcs
    H = np.zeros((a, a))
    ri, ci = m.row[inside], m.col[inside]
    v = inv[ci, ri]
    T = inv[np.ix_(ci, ri)]
    idx = np.flatnonzero(inside)
    H[np.ix_(idx, idx)] = -det * (np.outer(v, v) - T * T.T)
    return H


class TestReducedHessianBytes:
    """The reduced Hessians of every point a planted solve visits equal, byte
    for byte, those of the frozen scatter with the barrier Hessian added as a
    dense diagonal matrix."""

    @pytest.mark.parametrize("mode, n, seed", [("ds", 20, 101), ("s", 18, 1)])
    def test_solver_points(self, monkeypatch, mode, n, seed):
        points = []
        real = dipa.inner.reduced_model

        def record(x, spec, ctx):
            out = real(x, spec, ctx)
            if not math.isinf(spec.mu):
                points.append((x.copy(), spec, ctx, out[3]))
            return out

        monkeypatch.setattr(dipa.inner, "reduced_model", record)
        dipa_solve(gen_random_graph(n, 3, 6, seed=seed, plant=True), DipaParams(mode=mode))
        assert len({id(ctx.m) for _, _, ctx, _ in points}) > 1
        for x, spec, ctx, h_red in points:
            z, m = ctx.z, ctx.m
            h_ref = hessian_reference(x, m, mode)
            hphi = barrier_eval(x, spec)[2]
            assert h_red.tobytes() == z.reduce_hessian(h_ref + spec.mu * np.diag(hphi)).tobytes()
            got = z.reduce_hessian(dipa.detfun.hess(x, m, mode))
            assert got.tobytes() == z.reduce_hessian(h_ref).tobytes()


class TestShiftPolicy:
    """The first factorization of a step is at the carried curvature
    estimate delta_hat when that is negative, else at the default shift."""

    @pytest.mark.parametrize("delta_hat", [0.0, -0.25])
    def test_first_shift(self, monkeypatch, delta_hat):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        h_red = a + a.T
        shifts = []
        real = dipa.inner.modified_cholesky

        def record(mred, delta):
            shifts.append(delta)
            return real(mred, delta)

        monkeypatch.setattr(dipa.inner, "modified_cholesky", record)
        _factor_with_policy(h_red, delta_hat)
        assert shifts[0] == (delta_hat if delta_hat < 0.0 else _default_delta(h_red))

    def test_step_once_passes_the_estimate(self, monkeypatch):
        g = gen_random_graph(10, 3, 6, seed=22)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds")
        x = initial_interior(m, "ds")
        shifts = []
        real = dipa.inner.modified_cholesky

        def record(mred, delta):
            shifts.append(delta)
            return real(mred, delta)

        monkeypatch.setattr(dipa.inner, "modified_cholesky", record)
        step_once(x, BarrierSpec(mu=0.01, upper_log=False), ctx, -0.125)
        assert shifts[0] == -0.125


class TestLinesearch:
    def test_boundary_step_lower_only(self):
        x = np.array([0.5, 0.2])
        d = np.array([-1.0, 0.5])
        assert max_boundary_step(x, d, upper_log=False) == pytest.approx(0.5)

    def test_boundary_step_with_upper(self):
        x = np.array([0.5, 0.2])
        d = np.array([-1.0, 0.5])
        # upper bound on the second variable binds at (1-0.2)/0.5 = 1.6
        assert max_boundary_step(x, d, upper_log=True) == pytest.approx(0.5)
        d2 = np.array([0.4, 0.5])
        assert max_boundary_step(x, d2, upper_log=True) == pytest.approx(1.25)

    def test_merit_decreases(self):
        spec = BarrierSpec(mu=0.1, upper_log=False)
        x = np.array([0.3, 0.7])
        objective = lambda v: float(np.sum(v**2))
        phi0, _, _ = barrier_eval(x, spec)
        m0 = objective(x) + 0.1 * phi0
        d = np.array([-0.05, -0.3])
        res = linesearch(x, d, 0.9, spec, objective, m0)
        assert res.merit < m0
        assert res.t <= 0.9 * max_boundary_step(x, d, False) + 1e-15

    def test_stall_raises(self):
        spec = BarrierSpec(mu=1.0, upper_log=False)
        x = np.array([0.5, 0.5])
        # any nonzero move pays a huge objective penalty, so no trial step
        # can produce a strict merit decrease
        objective = lambda v: 0.0 if np.array_equal(v, x) else 1e9
        phi0, _, _ = barrier_eval(x, spec)
        m0 = objective(x) + 1.0 * phi0
        with pytest.raises(LinesearchStall):
            linesearch(x, np.array([-0.4, 0.4]), 0.9, spec, objective, m0)


def linesearch_reference(x, direction, alpha, spec, objective, m0):
    """The linesearch with np.all interior tests and np.sum barrier sums,
    frozen as the oracle for the lighter trials."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def merit(pt):
        phi = -float(np.sum(np.log(pt)))
        if spec.upper_log:
            phi -= float(np.sum(np.log(1.0 - pt)))
        if math.isinf(spec.mu):
            return None, phi, phi
        f = objective(pt)
        return f, phi, f + spec.mu * phi

    tstar = max_boundary_step(x, direction, spec.upper_log)
    if not math.isfinite(tstar):
        tstar = 1.0 / max(float(np.max(np.abs(direction))), 1e-300)
    t = alpha * tstar
    for _ in range(51):
        xt = x + t * direction
        if np.all(xt > 0.0) and (not spec.upper_log or np.all(xt < 1.0)):
            ft, phit, mt = merit(xt)
            if mt < m0:
                return dipa.inner.LsResult(x=xt, t=t, f=ft, phi=phit, merit=mt)
        t *= 0.5
    raise LinesearchStall(f"no decrease along direction (merit {m0:.6e})")


def ls_outcome(fn, *args):
    try:
        r = fn(*args)
    except LinesearchStall as exc:
        return ("stall", str(exc))
    return (r.x.tobytes(), np.float64(r.t).tobytes(), None if r.f is None else np.float64(r.f).tobytes(),
            np.float64(r.phi).tobytes(), np.float64(r.merit).tobytes())


def linesearch_cases():
    """(x, direction, alpha, spec, m0): random directions, and ladders whose
    trial points hold NaN, land exactly on 0.0, or on 1.0 under upper_log."""
    rng = np.random.default_rng(61)
    objective = lambda v: float(v @ np.linspace(-1.0, 1.0, v.size))
    for k in range(300):
        n = int(rng.integers(1, 40))
        upper = bool(k % 2)
        spec = BarrierSpec(mu=(math.inf, 0.3, 1e-3)[k % 3], upper_log=upper)
        x = rng.uniform(0.05, 0.95, size=n)
        d = rng.standard_normal(n)
        alpha = (ALPHA, 1.0, 2.0)[k % 3]
        if k % 5 == 1:
            d[rng.integers(n)] = math.nan
        if k % 5 == 2:
            # alpha 1 puts the first trial exactly on the lower bound
            x[0], d[0], alpha = 0.5, -1.0, 1.0
            d[1:] = np.clip(d[1:], -0.1, 0.1) * x[1:]
        if k % 5 == 3 and upper:
            x[0], d[0], alpha = 0.5, 1.0, 1.0
            d[1:] = np.clip(d[1:], -0.1, 0.1) * np.minimum(x[1:], 1.0 - x[1:])
        phi0 = barrier_value(x, spec)
        m0 = phi0 if math.isinf(spec.mu) else objective(x) + spec.mu * phi0
        # a merit anchor above, at and below the start
        yield x, d, alpha, spec, objective, m0 + (1.0, 0.0, -1e-3)[k % 3] * abs(m0)


@pytest.mark.filterwarnings("error")
def test_linesearch_matches_reference():
    # a trial on a bound that the interior test let through would take a
    # log of 0.0 and warn
    kinds = set()
    for case in linesearch_cases():
        got = ls_outcome(linesearch, *case)
        assert got == ls_outcome(linesearch_reference, *case)
        kinds.add(got[0] == "stall")
    assert kinds == {True, False}


class TestPhases:
    def test_neutral_phase_cubic(self):
        # cubic circulants: ring plus diameters, all degrees exactly three
        for n in (6, 8):
            edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
            edges += [(i, i + n // 2) for i in range(1, n // 2 + 1)]
            g = make_graph(n, edges)
            assert all(len(nbrs) == 3 for nbrs in g.adjacency().values())
            m = build_arc_map(g)
            ctx = phase_context(g, m, "ds", grad_tol=1e-10)
            x0 = initial_interior(m, "ds")
            spec = BarrierSpec(mu=math.inf, upper_log=False)
            x = minimize_phase(x0, spec, ctx)
            # a local minimum of the barrier: reduced gradient within tolerance
            phi, gphi, _ = barrier_eval(x, spec)
            gnorm = float(np.max(np.abs(ctx.z.rmatvec(gphi))))
            assert gnorm <= ctx.grad_tol * (1.0 + abs(phi))
            assert np.allclose(x, 1.0 / 3.0, atol=1e-8)

    def test_neutral_twin_symmetry(self):
        g = gen_random_graph(12, 3, 6, seed=21)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds", grad_tol=1e-10)
        x = minimize_phase(initial_interior(m, "ds"), BarrierSpec(mu=math.inf, upper_log=False), ctx)
        for k, (i, j) in enumerate(m.arcs):
            assert x[k] == pytest.approx(x[m.arcs.index((j, i))], abs=1e-8)

    def test_step_once_converged_at_neutral(self):
        g = gen_random_graph(10, 3, 6, seed=22)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds", grad_tol=1e-8)
        spec = BarrierSpec(mu=math.inf, upper_log=False)
        x = minimize_phase(initial_interior(m, "ds"), spec, ctx)
        info = step_once(x, spec, ctx, 0.0)
        assert info.kind == "converged"

    def test_step_once_negcurv_kind(self):
        # descend from the neutral point with a small barrier weight: the
        # reduced merit Hessian quickly turns indefinite
        g = gen_random_graph(12, 3, 6, seed=23)
        m = build_arc_map(g)
        nctx = phase_context(g, m, "ds", grad_tol=1e-10)
        start = minimize_phase(initial_interior(m, "ds"), BarrierSpec(mu=math.inf, upper_log=False), nctx)
        ctx = phase_context(g, m, "ds", grad_tol=1e-9)
        spec = BarrierSpec(mu=1e-4, upper_log=False)
        delta_hat = 0.0
        kinds = []
        x = start
        for _ in range(25):
            info = step_once(x, spec, ctx, delta_hat)
            kinds.append(info.kind)
            if info.kind in ("converged", "stall"):
                break
            x, delta_hat = info.x, info.delta_hat
        assert "negcurv" in kinds

    def test_linesearch_values_trial_points_only(self, monkeypatch):
        # step_once hands the linesearch the merit it already holds at x, so
        # every value_only call of a finite-mu step is at one trial point
        g = gen_random_graph(12, 3, 6, seed=23)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds", grad_tol=1e-10)
        x = minimize_phase(initial_interior(m, "ds"), BarrierSpec(mu=math.inf, upper_log=False), ctx)
        spec = BarrierSpec(mu=1e-2, upper_log=False)
        points = []
        real = dipa.detfun.value_only

        def spy(pt, m_, mode):
            points.append(np.array(pt))
            return real(pt, m_, mode)

        monkeypatch.setattr(dipa.detfun, "value_only", spy)
        info = step_once(x, spec, ctx, 0.0)
        assert info.kind == "descent"
        # trials halve t from ALPHA times the boundary step down to the
        # accepted step, and the last one is where the step ends
        direction = (info.x - x) / info.step
        t0 = ALPHA * max_boundary_step(x, direction, False)
        trials = round(math.log2(t0 / info.step)) + 1
        assert trials > 1
        assert len(points) == trials
        assert np.array_equal(points[-1], info.x)

    def test_barrier_only_step_values_no_objective(self, monkeypatch):
        # at mu = inf the merit is the barrier alone, so a step neither
        # values f at its trial points nor where it ends
        g = gen_random_graph(12, 3, 6, seed=23, plant=True)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds", grad_tol=1e-10)
        calls = []
        real = dipa.detfun.value_only

        def spy(pt, m_, mode):
            calls.append(1)
            return real(pt, m_, mode)

        monkeypatch.setattr(dipa.detfun, "value_only", spy)
        info = step_once(initial_interior(m, "ds"), BarrierSpec(mu=math.inf, upper_log=False), ctx, 0.0)
        assert info.kind in ("descent", "negcurv")
        assert info.f is None
        assert calls == []

    def test_newton_polish_tightens(self):
        g = gen_random_graph(10, 3, 6, seed=25)
        m = build_arc_map(g)
        ctx = phase_context(g, m, "ds", grad_tol=1e-6)
        spec = BarrierSpec(mu=math.inf, upper_log=False)
        rough = minimize_phase(initial_interior(m, "ds"), spec, ctx)
        x2 = newton_polish(rough, spec, ctx)
        _, gphi, _ = barrier_eval(x2, spec)
        gnorm = float(np.max(np.abs(ctx.z.rmatvec(gphi))))
        assert gnorm <= 1e-8
