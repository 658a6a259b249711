import numpy as np
import pytest

import dipa.detfun
from dipa.detfun import (
    assemble_P,
    check_feasible,
    f_minor,
    hess,
    lu_nopivot,
    value_grad_hess,
    value_only,
)
from dipa.graph import (
    StarvationError,
    build_arc_map,
    deflate,
    delete_arc,
    gen_random_graph,
    make_graph,
)
from dipa.outer import initial_interior


def k3_map():
    g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
    return g, build_arc_map(g)


def hc_vector(m, cycle_arcs):
    x = np.zeros(m.n_arcs)
    for a in cycle_arcs:
        x[m.arcs.index(a)] = 1.0
    return x


def random_ds_matrix(rng, n):
    """Sinkhorn-balanced positive matrix: doubly stochastic to high accuracy."""
    P = rng.uniform(0.1, 1.0, size=(n, n))
    for _ in range(2000):
        P /= P.sum(axis=1, keepdims=True)
        P /= P.sum(axis=0, keepdims=True)
    return P


class TestLU:
    def test_column_zero_sums(self):
        rng = np.random.default_rng(0)
        P = random_ds_matrix(rng, 8)
        A = np.eye(8) - P
        res = lu_nopivot(A)
        assert not res.transposed
        assert np.allclose(res.l @ res.u, A, atol=1e-12)
        # unit lower triangular with multipliers in [-1, 0]
        assert np.allclose(np.diag(res.l), 1.0)
        off = res.l[np.tril_indices(8, k=-1)]
        assert np.all(off <= 1e-12)
        assert np.all(off >= -1.0 - 1e-12)
        # rank n-1: final pivot vanishes and L^T e equals the last basis vector
        assert abs(res.u[-1, -1]) <= 1e-10
        e_n = np.zeros(8)
        e_n[-1] = 1.0
        assert np.allclose(res.l.T @ np.ones(8), e_n, atol=1e-10)

    def test_row_zero_sums_transposes(self):
        rng = np.random.default_rng(1)
        P = rng.uniform(0.1, 1.0, size=(6, 6))
        P /= P.sum(axis=1, keepdims=True)  # stochastic rows only
        A = np.eye(6) - P
        res = lu_nopivot(A)
        assert res.transposed
        assert np.allclose(res.l @ res.u, A.T, atol=1e-12)

    def test_rejects_wrong_sign_pattern(self):
        A = np.array([[1.0, 0.5], [-1.0, -0.5]])
        with pytest.raises(ValueError):
            lu_nopivot(A)

    def test_rejects_nonzero_sums(self):
        A = np.array([[1.0, -0.25], [-0.5, 1.0]])
        with pytest.raises(ValueError):
            lu_nopivot(A)

    def test_skips_dead_pivot(self):
        # block diagonal of two singletons: interior zero pivot with dead
        # row and column is skipped rather than divided through
        A = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        res = lu_nopivot(A)
        assert 1 in res.skipped
        assert np.allclose(res.l @ res.u, A, atol=1e-12)

    def test_det_of_nonsingular_principal_block(self):
        rng = np.random.default_rng(2)
        P = random_ds_matrix(rng, 7)
        A = np.eye(7) - P
        res = lu_nopivot(A)
        # leading 6x6 pivots reproduce the principal minor determinant
        minor = np.linalg.det(A[:6, :6])
        assert np.isclose(np.prod(np.diag(res.u)[:6]), minor, rtol=1e-9)


class TestObjectiveAnchors:
    def test_hc_values_k3(self):
        g, m = k3_map()
        x = hc_vector(m, [(1, 2), (2, 3), (3, 1)])
        assert f_minor(x, m) == pytest.approx(-1.0, abs=1e-12)
        assert value_only(x, m, "s") == pytest.approx(-3.0, abs=1e-9)

    def test_uniform_point_k3(self):
        g, m = k3_map()
        x = np.full(6, 0.5)
        assert f_minor(x, m) == pytest.approx(-0.75, abs=1e-12)

    def test_multi_cycle_permutation_is_zero(self):
        # two disjoint 3-cycles on 6 nodes: permutation but not Hamiltonian
        g = make_graph(
            6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5)]
        )
        m = build_arc_map(g)
        x = hc_vector(m, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert f_minor(x, m) == pytest.approx(0.0, abs=1e-10)

    def test_f_minor_needs_vanishing_row_sums(self):
        g = gen_random_graph(8, 3, 5, seed=9)
        m = build_arc_map(g)
        x = initial_interior(m, "ds")
        x[0] += 1e-6
        with pytest.raises(ValueError):
            f_minor(x, m, validate=False)

    def test_hc_values_planted_instances(self):
        from dipa.graph import enumerate_hc

        for seed in (0, 1, 2):
            g = gen_random_graph(9, 3, 5, seed=seed, plant=True)
            m = build_arc_map(g)
            for c in enumerate_hc(g):
                x = hc_vector(m, c.arcs())
                assert f_minor(x, m) == pytest.approx(-1.0, abs=1e-12)
                assert value_only(x, m, "s") == pytest.approx(-float(g.n), abs=1e-9)


class TestFeasibility:
    def test_interior_point_passes(self):
        g = gen_random_graph(10, 3, 6, seed=4)
        m = build_arc_map(g)
        x = initial_interior(m, "ds")
        check_feasible(x, m, "ds")

    def test_negative_rejected(self):
        g, m = k3_map()
        x = np.full(6, 0.5)
        x[0] = -0.1
        with pytest.raises(ValueError):
            check_feasible(x, m, "s")

    def test_row_sum_rejected(self):
        g, m = k3_map()
        with pytest.raises(ValueError):
            check_feasible(np.full(6, 0.3), m, "s")

    def test_column_sum_checked_only_in_ds(self):
        g, m = k3_map()
        x = np.zeros(6)
        # rows stochastic but columns not
        x[m.arcs.index((1, 2))] = 1.0
        x[m.arcs.index((2, 1))] = 1.0
        x[m.arcs.index((3, 1))] = 1.0
        check_feasible(x, m, "s")
        with pytest.raises(ValueError):
            check_feasible(x, m, "ds")


def central_diff_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (fun(xp) - fun(xm)) / (2 * h)
    return g


class TestDerivatives:
    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_gradient_matches_fd(self, mode):
        g = gen_random_graph(8, 3, 5, seed=7)
        m = build_arc_map(g)
        x = initial_interior(m, mode)
        fun = lambda v: value_only(v, m, mode)
        _, gd, _ = value_grad_hess(x, m, mode)
        fd = central_diff_grad(fun, x)
        assert np.allclose(gd, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_fd(self):
        g = gen_random_graph(8, 3, 5, seed=8)
        m = build_arc_map(g)
        x = initial_interior(m, "ds")
        H = hess(x, m, mode="ds")
        fd = np.zeros_like(H)
        for k in range(x.size):
            xp = x.copy()
            xm = x.copy()
            xp[k] += 1e-5
            xm[k] -= 1e-5
            fd[:, k] = (value_grad_hess(xp, m, "ds")[1] - value_grad_hess(xm, m, "ds")[1]) / 2e-5
        assert np.allclose(H, fd, rtol=1e-5, atol=1e-6)
        assert np.allclose(H, H.T, atol=1e-12)

    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_bundle_consistency(self, mode):
        # the step's f and the linesearch's f are one determinant of one
        # matrix, also at the off-manifold points finite differences probe
        g = gen_random_graph(8, 3, 5, seed=9)
        m = build_arc_map(g)
        x = initial_interior(m, mode)
        f, gd, H = value_grad_hess(x, m, mode)
        if mode == "ds":
            reference = f_minor(x, m, validate=False)
        else:
            n = len(m.nodes)
            reference = -np.linalg.det(np.eye(n) - assemble_P(m, x) + 1.0 / n)
        assert f == pytest.approx(reference, abs=1e-14)
        assert np.allclose(H, hess(x, m, mode=mode), atol=1e-14)
        points = [x]
        for k in range(x.size):
            for h in (1e-6, -1e-6):
                xp = x.copy()
                xp[k] += h
                points.append(xp)
        for pt in points:
            assert value_only(pt, m, mode) == value_grad_hess(pt, m, mode)[0]


def test_assemble_P_layout():
    g, m = k3_map()
    x = np.arange(1.0, 7.0)
    P = assemble_P(m, x)
    assert P.shape == (3, 3)
    assert P[0, 1] == x[m.arcs.index((1, 2))]
    assert P[2, 0] == x[m.arcs.index((3, 1))]
    assert np.all(np.diag(P) == 0.0)


def matrix_reference(x, m, mode):
    """The differentiated matrix built from assemble_P, frozen as the oracle
    the per-map template must match byte for byte."""
    P = assemble_P(m, x)
    nn = P.shape[0]
    if mode == "ds":
        return (np.eye(nn) - P)[: nn - 1, : nn - 1]
    return np.eye(nn) - P + np.ones((nn, nn)) / nn


def bundle_reference(x, m, mode):
    """(f, g, H) from matrix_reference, with the inside mask from its size."""
    M = matrix_reference(x, m, mode)
    k = M.shape[0]
    det, inv = float(np.linalg.det(M)), np.linalg.inv(M)
    inside = (m.row < k) & (m.col < k)
    g = np.zeros(m.n_arcs)
    g[inside] = det * inv[m.col[inside], m.row[inside]]
    return -det, g, dipa.detfun._hessian(det, inv, m)


def template_maps():
    """Planted maps, each with maps derived from it by deflate and by
    delete_arc, so templates are built for new node counts and arc sets."""
    for seed in range(4):
        m = build_arc_map(gen_random_graph(12 + 3 * seed, 3, 6, seed=seed, plant=True))
        yield m
        for k in (0, m.n_arcs // 2, m.n_arcs - 1):
            try:
                m2 = deflate(m, k)[0]
            except StarvationError:
                continue
            yield m2
            try:
                yield delete_arc(m2, [m2.n_arcs // 3])[0]
            except StarvationError:
                pass


def template_points(m, rng):
    """Interior points, and points with 0.0, -0.0 and entries above 1, where
    0.0 - x and -x part ways."""
    a = m.n_arcs
    yield rng.uniform(0.01, 0.99, size=a)
    x = rng.uniform(0.0, 1.0, size=a)
    x[rng.integers(a, size=a // 3)] = 0.0
    x[rng.integers(a, size=a // 5)] = -0.0
    yield x
    yield rng.standard_normal(a) * 3.0


class TestMatrixTemplate:
    """_matrix copies a per-map, per-mode template and writes the arc
    entries: the same bytes as the assemble_P construction."""

    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_matches_assemble_P_bytes(self, mode):
        rng = np.random.default_rng(41)
        count = 0
        for m in template_maps():
            for x in template_points(m, rng):
                got = dipa.detfun._matrix(x, m, mode)
                assert got.tobytes() == matrix_reference(x, m, mode).tobytes()
                ref = bundle_reference(x, m, mode)
                f, g, H = value_grad_hess(x, m, mode)
                assert np.float64(f).tobytes() == np.float64(ref[0]).tobytes()
                assert g.tobytes() == ref[1].tobytes()
                assert H.tobytes() == ref[2].tobytes()
                assert hess(x, m, mode).tobytes() == ref[2].tobytes()
                assert np.float64(value_only(x, m, mode)).tobytes() == np.float64(ref[0]).tobytes()
                count += 1
        assert count >= 40

    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_det_matches_np_linalg_det_bytes(self, mode):
        # value_only and value_grad_hess call the gufunc np.linalg.det calls
        # after its checks, on the matrix _matrix builds from the template
        rng = np.random.default_rng(42)
        count = 0
        for m in template_maps():
            for x in template_points(m, rng):
                want = np.float64(-float(np.linalg.det(dipa.detfun._matrix(x, m, mode))))
                assert np.float64(value_only(x, m, mode)).tobytes() == want.tobytes()
                assert np.float64(value_grad_hess(x, m, mode)[0]).tobytes() == want.tobytes()
                count += 1
        assert count >= 40

    @pytest.mark.parametrize("mode", ["ds", "s"])
    def test_wrong_shape_raises(self, mode):
        m = build_arc_map(gen_random_graph(10, 3, 5, seed=2))
        for x in (np.full(m.n_arcs - 1, 0.5), np.full((m.n_arcs, 1), 0.5)):
            for fn in (dipa.detfun._matrix, value_only, value_grad_hess, hess):
                with pytest.raises(ValueError, match="shape"):
                    fn(x, m, mode)

    def test_unknown_mode_raises(self):
        m = build_arc_map(gen_random_graph(10, 3, 5, seed=2))
        with pytest.raises(ValueError, match="unknown mode"):
            value_only(np.full(m.n_arcs, 0.5), m, "x")

    def test_template_is_cached_per_map_and_mode(self, monkeypatch):
        m = build_arc_map(gen_random_graph(10, 3, 5, seed=3, plant=True))
        x = np.full(m.n_arcs, 0.25)
        value_only(x, m, "ds")
        first = m.templates["ds"]
        assert set(m.templates) == {"ds"}
        # a second call builds nothing: np.eye is not reached again
        def no_eye(*args, **kwargs):
            raise AssertionError("template rebuilt")

        with monkeypatch.context() as mp:
            mp.setattr(np, "eye", no_eye)
            value_grad_hess(x, m, "ds")
            value_only(x, m, "ds")
        assert m.templates["ds"] is first
        value_only(x, m, "s")
        assert set(m.templates) == {"ds", "s"}
        # a derived map has a template of its own
        m2 = deflate(m, 0)[0]
        value_only(np.full(m2.n_arcs, 0.25), m2, "ds")
        assert m2.templates["ds"] is not first
        assert m.templates["ds"] is first
