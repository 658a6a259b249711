import numpy as np
import pytest

from dipa.graph import build_arc_map, gen_random_graph, make_graph
from dipa.nullspace import build_A, build_Z


def cases():
    sizes = [(6, 3, 4, 0), (10, 3, 6, 1), (20, 3, 6, 2), (35, 3, 6, 3), (50, 3, 6, 4)]
    for n, dmin, dmax, seed in sizes:
        g = gen_random_graph(n, dmin, dmax, seed=seed)
        yield g, build_arc_map(g)


class TestConstraintMatrix:
    def test_s_shape_and_row_sums(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        A = build_A(m, mode="s")
        assert A.shape == (3, 6)
        # each arc belongs to exactly one out-node row
        assert np.all(A.sum(axis=0) == 1.0)

    def test_ds_shape(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        A = build_A(m, mode="ds")
        assert A.shape == (6, 6)
        # every arc hits one row block row and one column block row
        assert np.all(A.sum(axis=0) == 2.0)


class TestNullSpace:
    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_az_zero_exact_and_dims(self, mode):
        for g, m in cases():
            A = build_A(m, mode=mode)
            Z = build_Z(m, mode=mode)
            a, n = m.n_arcs, g.n
            expected = a - n if mode == "s" else a - 2 * n + 1
            assert Z.dim == expected
            prod = A @ Z.dense()
            assert np.all(prod == 0.0)

    def test_ds_entries_integer(self):
        for g, m in cases():
            Z = build_Z(m, mode="ds")
            vals = np.unique(Z.dense())
            assert set(vals) <= {-1.0, 0.0, 1.0}

    def test_s_gram_spectrum(self):
        # Z columns for one out-node row are e_k - e_lead; the Gram matrix
        # eigenvalues are 1 (repeated) plus one value d_i per node, where
        # d_i is that node's out-degree
        for g, m in cases():
            Z = build_Z(m, mode="s")
            w = np.linalg.eigvalsh(Z.gram())
            expected = []
            for v in m.nodes:
                d = len(m.out_arcs(v))
                expected.extend([1.0] * (d - 2))
                if d >= 2:
                    expected.append(float(d))
            assert np.allclose(np.sort(w), np.sort(expected), atol=1e-8)

    def test_s_basis_led_by_first_out_arc(self):
        for g, m in cases():
            Z = build_Z(m, mode="s")
            cols, leads = [], []
            for v in m.nodes:
                first, *rest = m.out_arcs(v)
                cols.extend(rest)
                leads.extend([first] * len(rest))
            assert Z.cols.tolist() == cols
            assert Z.leads.tolist() == leads

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_basis_completes_full_rank(self, mode):
        for g, m in cases():
            A = build_A(m, mode=mode)
            Z = build_Z(m, mode=mode)
            r = np.linalg.matrix_rank(A)
            stacked = np.hstack([A.T, Z.dense()])
            assert np.linalg.matrix_rank(stacked) == m.n_arcs
            assert r + Z.dim == m.n_arcs

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_apply_matches_dense(self, mode):
        g = gen_random_graph(12, 3, 6, seed=5)
        m = build_arc_map(g)
        Z = build_Z(m, mode=mode)
        rng = np.random.default_rng(0)
        zd = Z.dense()
        v = rng.standard_normal(Z.dim)
        w = rng.standard_normal(Z.n_vars)
        assert np.allclose(Z.apply(v), zd @ v, atol=1e-13)
        assert np.allclose(Z.rmatvec(w), zd.T @ w, atol=1e-13)

    def test_reduce_helpers_match_dense(self):
        g = gen_random_graph(10, 3, 6, seed=6)
        m = build_arc_map(g)
        rng = np.random.default_rng(1)
        for mode in ("s", "ds"):
            Z = build_Z(m, mode=mode)
            zd = Z.dense()
            H = rng.standard_normal((m.n_arcs, m.n_arcs))
            H = H + H.T
            assert np.allclose(Z.reduce_hessian(H), zd.T @ H @ zd, atol=1e-11)
            d = rng.uniform(0.5, 2.0, size=m.n_arcs)
            assert np.allclose(
                Z.reduce_diag_quadform(d), zd.T @ np.diag(d) @ zd, atol=1e-11
            )
            assert np.allclose(Z.gram(), zd.T @ zd, atol=1e-13)

    def test_surgered_map_supported(self):
        # maps produced by deflation are asymmetric; the basis must still
        # annihilate the constraints exactly
        from dipa.graph import deflate

        g = gen_random_graph(12, 3, 6, seed=7)
        m = build_arc_map(g)
        arc = m.arcs[0]
        m2, _ = deflate(m, arc)
        for mode in ("s", "ds"):
            A = build_A(m2, mode=mode)
            Z = build_Z(m2, mode=mode)
            assert np.all(A @ Z.dense() == 0.0)
            rank = np.linalg.matrix_rank(A)
            assert Z.dim == m2.n_arcs - rank
