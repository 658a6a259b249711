import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from dipa.graph import (
    arc_map_from_arcs,
    build_arc_map,
    deflate,
    delete_arc,
    gen_random_graph,
    make_graph,
)
from dipa.nullspace import _retained_rows, build_A, build_Z, reorder_ds
from dipa.outer import NoInteriorPoint, drop_forced


def out_arcs(m, v):
    return [k for k, (i, _) in enumerate(m.arcs) if i == v]


def s_basis(m):
    """(cols, leads) of the s-mode basis, from the arcs: column q of Z is
    e_cols[q] - e_leads[q], one column for each out-arc of a node but its
    first, which leads them."""
    cols, leads = [], []
    for v in m.nodes:
        first, *rest = out_arcs(m, v)
        cols.extend(rest)
        leads.extend([first] * len(rest))
    return np.array(cols, dtype=np.intp), np.array(leads, dtype=np.intp)


def dense_z(Z):
    """Z as a dense matrix, one Z.apply column per reduced coordinate."""
    return np.array([Z.apply(e) for e in np.eye(Z.dim)]).reshape(Z.dim, Z.n_vars).T


def cases():
    sizes = [(6, 3, 4, 0), (10, 3, 6, 1), (20, 3, 6, 2), (35, 3, 6, 3), (50, 3, 6, 4)]
    for n, dmin, dmax, seed in sizes:
        g = gen_random_graph(n, dmin, dmax, seed=seed)
        yield g, build_arc_map(g)


def sum_constraints(m, mode):
    """The sum constraints of the relaxation: build_A's row block alone in
    s mode."""
    A = build_A(m)
    return A[: len(m.nodes)] if mode == "s" else A


class TestConstraintMatrix:
    def test_s_shape_and_row_sums(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        A = build_A(m)[: len(m.nodes)]
        assert A.shape == (3, 6)
        # each arc belongs to exactly one out-node row
        assert np.all(A.sum(axis=0) == 1.0)

    def test_ds_shape(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        m = build_arc_map(g)
        A = build_A(m)
        assert A.shape == (6, 6)
        # every arc hits one row block row and one column block row
        assert np.all(A.sum(axis=0) == 2.0)


class TestNullSpace:
    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_az_zero_exact_and_dims(self, mode):
        for g, m in cases():
            A = sum_constraints(m, mode)
            Z = build_Z(m, mode=mode)
            a, n = m.n_arcs, g.n
            expected = a - n if mode == "s" else a - 2 * n + 1
            assert Z.dim == expected
            prod = A @ dense_z(Z)
            assert np.all(prod == 0.0)

    def test_ds_entries_integer(self):
        for g, m in cases():
            Z = build_Z(m, mode="ds")
            vals = np.unique(dense_z(Z))
            assert set(vals) <= {-1.0, 0.0, 1.0}

    def test_s_gram_spectrum(self):
        # Z columns for one out-node row are e_k - e_lead; the Gram matrix
        # eigenvalues are 1 (repeated) plus one value d_i per node, where
        # d_i is that node's out-degree
        for g, m in cases():
            Z = build_Z(m, mode="s")
            w = np.linalg.eigvalsh(Z.gram)
            expected = []
            for v in m.nodes:
                d = len(out_arcs(m, v))
                expected.extend([1.0] * (d - 2))
                if d >= 2:
                    expected.append(float(d))
            assert np.allclose(np.sort(w), np.sort(expected), atol=1e-8)

    def test_s_basis_led_by_first_out_arc(self):
        for g, m in cases():
            Z = build_Z(m, mode="s")
            cols, leads = s_basis(m)
            # row q of Z.T is -1 at its lead, the lower position, then +1
            ptr, idx, val = Z.zt
            assert np.array_equal(np.diff(ptr), np.full(Z.dim, 2))
            assert val.tolist() == [-1.0, 1.0] * Z.dim
            assert idx[1::2].tolist() == cols.tolist()
            assert idx[::2].tolist() == leads.tolist()

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_basis_completes_full_rank(self, mode):
        for g, m in cases():
            A = sum_constraints(m, mode)
            Z = build_Z(m, mode=mode)
            r = np.linalg.matrix_rank(A)
            stacked = np.hstack([A.T, dense_z(Z)])
            assert np.linalg.matrix_rank(stacked) == m.n_arcs
            assert r + Z.dim == m.n_arcs

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_apply_matches_dense(self, mode):
        g = gen_random_graph(12, 3, 6, seed=5)
        m = build_arc_map(g)
        Z = build_Z(m, mode=mode)
        rng = np.random.default_rng(0)
        zd = dense_z(Z)
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
            zd = dense_z(Z)
            H = rng.standard_normal((m.n_arcs, m.n_arcs))
            H = H + H.T
            assert np.allclose(Z.reduce_hessian(H), zd.T @ H @ zd, atol=1e-11)
            d = rng.uniform(0.5, 2.0, size=m.n_arcs)
            assert np.allclose(
                Z.reduce_diag_quadform(d), zd.T @ np.diag(d) @ zd, atol=1e-11
            )
            assert np.allclose(Z.gram, zd.T @ zd, atol=1e-13)

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_reduce_hessian_wrong_shape_raises(self, mode):
        # csr_matvecs reads n_vars x n_vars entries of H whatever its shape:
        # a short H read past its buffer, and a long one returned a
        # plausible matrix from its leading entries
        m = build_arc_map(gen_random_graph(8, 3, 6, seed=0, plant=True))
        Z = build_Z(m, mode=mode)
        a = m.n_arcs
        for shape in ((a - 1, a - 1), (a + 1, a + 1), (a, a + 1), (a * a,)):
            with pytest.raises(ValueError, match="Z.T H Z needs shape"):
                Z.reduce_hessian(np.ones(shape))

    @staticmethod
    def planted_maps(rng):
        """Planted maps, each also after one deflate and one delete_arc, each
        change followed by drop_forced as in a solve; a map it rejects is
        skipped."""
        for seed in range(12):
            m = build_arc_map(gen_random_graph(8 + seed, 3, 6, seed=seed, plant=True))
            yield m
            try:
                m2 = drop_forced(deflate(m, int(rng.integers(m.n_arcs)))[0])[0]
            except NoInteriorPoint:
                continue
            yield m2
            try:
                m3 = drop_forced(delete_arc(m2, [int(rng.integers(m2.n_arcs))])[0])[0]
            except NoInteriorPoint:
                continue
            yield m3

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_reduce_helpers_match_sparse_products_bytes(self, mode):
        # the direct sparsetools calls give the bytes of scipy.sparse's
        # products on the CSC basis, on planted maps before and after
        # deflate and delete_arc; H carries -0.0 rows and columns, as
        # _hessian pads them
        rng = np.random.default_rng(11)
        checked = 0
        for mm in self.planted_maps(rng):
            Z = build_Z(mm, mode=mode)
            zs = sp.csc_matrix(dense_z(Z))
            a = mm.n_arcs
            H = rng.standard_normal((a, a))
            H = H + H.T
            pad = rng.random(a) < 0.2
            H[pad] = -0.0
            H[:, pad] = -0.0
            want = np.asarray(zs.T @ (zs.T @ H.T).T)
            assert Z.reduce_hessian(H).tobytes() == want.tobytes()
            h = 1.0 / rng.uniform(0.01, 0.99, size=a) ** 2
            want = np.asarray((zs.T.multiply(h) @ zs).todense())
            assert Z.reduce_diag_quadform(h).tobytes() == want.tobytes()
            assert Z.gram.tobytes() == (zs.T @ zs).toarray().tobytes()
            checked += 1
        assert checked >= 30

    def test_y_matches_solve_triangular_bytes(self):
        # the direct trtrs call is scipy's unit lower triangular solve
        rng = np.random.default_rng(12)
        checked = 0
        for mm in self.planted_maps(rng):
            rds = reorder_ds(mm)
            want = solve_triangular(rds.b, rds.s, lower=True, unit_diagonal=True)
            y = build_Z(mm, mode="ds").y
            assert y.flags.c_contiguous
            assert y.tobytes() == np.ascontiguousarray(want).tobytes()
            checked += 1
        assert checked >= 30

    def test_surgered_map_supported(self):
        # maps produced by deflation are asymmetric; the basis must still
        # annihilate the constraints exactly
        from dipa.graph import deflate

        g = gen_random_graph(12, 3, 6, seed=7)
        m = build_arc_map(g)
        m2 = deflate(m, 0)[0]
        for mode in ("s", "ds"):
            A = sum_constraints(m2, mode)
            Z = build_Z(m2, mode=mode)
            assert np.all(A @ dense_z(Z) == 0.0)
            rank = np.linalg.matrix_rank(A)
            assert Z.dim == m2.n_arcs - rank


def retained_rows_by_rank(mat, n_row_block):
    """The greedy _retained_rows replaced: drop column rows from the last one
    down while an SVD rank test says the rank holds."""
    target = int(np.linalg.matrix_rank(mat))
    retained = list(range(mat.shape[0]))
    idx = mat.shape[0] - 1
    while len(retained) > target and idx >= n_row_block:
        trial = [r for r in retained if r != idx]
        if np.linalg.matrix_rank(mat[trial]) == target:
            retained = trial
        idx -= 1
    if len(retained) != target:
        raise ValueError("could not reach full row rank by dropping column rows")
    return retained


def random_bipartite(n_side, extra, seed):
    """Connected bipartite graph: an even cycle through both sides plus
    random chords between the sides."""
    rng = random.Random(seed)
    n = 2 * n_side
    edges = {(min(k, k % n + 1), max(k, k % n + 1)) for k in range(1, n + 1)}
    for _ in range(extra):
        a = 2 * rng.randrange(n_side) + 1
        b = 2 * rng.randrange(n_side) + 2
        edges.add((min(a, b), max(a, b)))
    return make_graph(n, sorted(edges))


def surgery_maps(m, steps, seed):
    """Maps reached from m by random deflations and deletions, each followed
    by drop_forced as in a solve; a change it rejects is skipped."""
    rng = random.Random(seed)
    out = []
    for _ in range(steps):
        k = rng.randrange(m.n_arcs)
        try:
            m = drop_forced((deflate(m, k) if rng.random() < 0.5 else delete_arc(m, [k]))[0])[0]
        except NoInteriorPoint:
            continue
        out.append(m)
    return out


class TestRetainedRows:
    def test_matches_rank_tests(self):
        maps = []
        for seed in range(12):
            g = gen_random_graph(6 + 2 * seed, 3, 5, seed=seed)
            maps.append(build_arc_map(g))
            maps.extend(surgery_maps(maps[-1], 10, seed))
            b = random_bipartite(3 + seed % 5, 2 + seed, seed)
            maps.append(build_arc_map(b))
            maps.extend(surgery_maps(maps[-1], 6, seed))
        ranks = set()
        for m in maps:
            A = build_A(m)
            rows = _retained_rows(m)
            assert rows == retained_rows_by_rank(A, len(m.nodes))
            ranks.add(A.shape[0] - len(rows))
        # the family covers one, two and more dependencies
        assert {1, 2, 3} <= ranks

    def test_bipartite_drops_two_rows(self):
        m = build_arc_map(random_bipartite(4, 3, 0))
        A = build_A(m)
        rows = _retained_rows(m)
        assert len(rows) == A.shape[0] - 2 == np.linalg.matrix_rank(A)

    def test_empty_out_row_raises(self):
        # a node with no out-arc is a zero row in the row block, which no
        # column row can stand in for: node 2 of the single arc (1, 2)
        m = arc_map_from_arcs((1, 2), [(1, 2)])
        with pytest.raises(ValueError):
            _retained_rows(m)
        with pytest.raises(ValueError):
            retained_rows_by_rank(build_A(m), 2)


def reorder_ds_reference(mat):
    """The set-based reorder_ds the array batches replaced: the same pinning
    rule, one column at a time, on the rows the rank tests retain. Returns
    (perm, row_order, b, s)."""
    am = mat[retained_rows_by_rank(mat, mat.shape[0] // 2)]
    rank = am.shape[0]
    unpinned = set(range(rank))
    remaining = set(range(am.shape[1]))
    col_sel = []
    slot = [0] * rank
    pos = rank
    nz_rows = {c: set(np.flatnonzero(am[:, c])) for c in remaining}
    while unpinned:
        batch = []
        used = set()
        for c in sorted(remaining):
            act = nz_rows[c] & unpinned
            if len(act) == 1:
                (i,) = act
                if i not in used:
                    batch.append((c, i))
                    used.add(i)
        if not batch:
            raise ValueError("reordering stalled; constraint support degenerate")
        for c, i in batch:
            col_sel.append(c)
            remaining.discard(c)
            slot[pos - 1] = i
            unpinned.discard(i)
            pos -= 1
    perm = tuple(reversed(col_sel)) + tuple(sorted(remaining))
    bm = am[slot][:, list(perm[:rank])]
    sm = am[slot][:, list(perm[rank:])]
    return perm, tuple(slot), bm.astype(np.int64), sm.astype(np.int64)


def forward_substitute_reference(b, s):
    """The integer forward substitution the triangular solve replaced."""
    rank, width = s.shape[0], s.shape[1]
    y = np.zeros((rank, width), dtype=np.int64)
    for p in range(rank):
        y[p] = s[p]
        nz = np.flatnonzero(b[p, :p])
        if nz.size:
            y[p] -= b[p, nz] @ y[nz]
    return y


class TestRebuildMatchesReference:
    """The ds basis against the frozen set-based reordering and integer
    substitution, bit for bit, on planted maps and on maps after random
    surgery."""

    def test_basis_free_and_y(self):
        maps = []
        for seed in range(10):
            g = gen_random_graph(8 + 5 * seed, 3, 6, seed=seed, plant=True)
            maps.append(build_arc_map(g))
            maps.extend(surgery_maps(maps[-1], 12, seed))
        for m in maps:
            mat = build_A(m)
            perm, row_order, b, s = reorder_ds_reference(mat)
            rds = reorder_ds(m)
            rank = len(rds.basis)
            assert (*rds.basis.tolist(), *rds.free.tolist()) == perm
            # the rows of B and S are the retained rows in row_order, written
            # from the incidence with the bytes of the constraint rows
            for got, want in ((rds.b, b), (rds.s, s)):
                assert got.flags.c_contiguous
                assert got.tobytes() == want.astype(float).tobytes()
            y_ref = forward_substitute_reference(b, s).astype(float)
            Z = build_Z(m, mode="ds")
            assert np.array_equal(Z.basis, perm[:rank])
            assert np.array_equal(Z.free, perm[rank:])
            assert np.array_equal(Z.y, y_ref)
            # no -0.0 either, and C order, which fixes how y @ v sums
            assert Z.y.tobytes() == y_ref.tobytes()
            assert Z.y.flags.c_contiguous
        assert len(maps) > 60

    def test_stall_raises(self):
        # the incidence of a 4-node graph with a triangle has full row rank,
        # and each column has two ones: none ever has a single active row.
        # No arc map reaches this: _retained_rows drops one column row per
        # component of the row/column graph, and each component peels from
        # it, so reorder_ds has no such branch
        mat = np.zeros((4, 5))
        for k, pair in enumerate([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]):
            mat[pair, k] = 1.0
        with pytest.raises(ValueError, match="stalled"):
            reorder_ds_reference(mat)


def csr_of_dense(dense):
    """(indptr, indices, data) of the nonzeros of a dense matrix, as
    NullSpaceRep built its operators from a dense Z before: frozen as the
    oracle of their bytes."""
    rows, cols = np.nonzero(dense)
    ptr = np.zeros(dense.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=ptr[1:])
    return ptr, cols.astype(np.int32), dense[rows, cols]


def z_by_fields(Z, m):
    """The dense a x dim Z written from the ds basis fields, or in s mode
    from the arcs of m (s_basis)."""
    zm = np.zeros((Z.n_vars, Z.dim))
    if Z.mode == "ds":
        zm[Z.basis] = -Z.y
        zm[Z.free] = np.eye(Z.dim)
    else:
        cols, leads = s_basis(m)
        k = np.arange(Z.dim)
        zm[cols, k] = 1.0
        zm[leads, k] = -1.0
    return zm


class TestOperatorsWithoutDenseZ:
    """The CSR arrays of Z.T and Z, written from the nonzeros of y (ds) or
    from each row's arcs (s), against those of the dense Z, byte for byte,
    on planted maps before and after deflate and delete_arc."""

    @pytest.mark.parametrize("mode", ["s", "ds"])
    def test_csr_arrays_match_dense_z(self, mode):
        rng = np.random.default_rng(13)
        checked = 0
        for mm in TestNullSpace.planted_maps(rng):
            Z = build_Z(mm, mode=mode)
            zm = z_by_fields(Z, mm)
            assert np.array_equal(zm, dense_z(Z))
            for got, want in ((Z.zt, csr_of_dense(zm.T)), (Z.zr, csr_of_dense(zm))):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            checked += 1
        assert checked >= 30


def scatter_apply(cols, leads, n_vars, v):
    """s-mode Z @ v as NullSpaceRep scattered it before it held Z's CSR
    arrays: frozen as the byte oracle of csr_matvec."""
    out = np.zeros(n_vars)
    np.add.at(out, cols, v)
    np.subtract.at(out, leads, v)
    return out


def scatter_rmatvec(cols, leads, w):
    """s-mode Z.T @ w as NullSpaceRep formed it before, frozen the same way."""
    return w[cols] - w[leads]


class TestSModeProducts:
    """s-mode apply and rmatvec, csr_matvec on the CSR arrays of Z and Z.T,
    against the frozen scatter code and scipy.sparse's CSR product, on
    planted maps before and after deflate and delete_arc."""

    @staticmethod
    def bases(seed):
        rng = np.random.default_rng(seed)
        for mm in TestNullSpace.planted_maps(rng):
            yield rng, build_Z(mm, mode="s"), *s_basis(mm)

    def test_random_inputs_match_scatter_bytes(self):
        checked = 0
        for rng, Z, cols, leads in self.bases(14):
            for _ in range(20):
                v = rng.standard_normal(Z.dim)
                w = rng.standard_normal(Z.n_vars)
                assert Z.apply(v).tobytes() == scatter_apply(cols, leads, Z.n_vars, v).tobytes()
                assert Z.rmatvec(w).tobytes() == scatter_rmatvec(cols, leads, w).tobytes()
            checked += 1
        assert checked >= 30

    def test_signed_zeros(self):
        # both apply codes sum each variable's terms into +0.0, one term per
        # free variable and -v per column a lead leads, so their bytes match.
        # rmatvec's scatter formed w[col] - w[lead]; csr_matvec sums
        # 0.0 + -w[lead] + w[col], the lead being the lower position. Only
        # -0.0 - +0.0 gives -0.0 there and +0.0 here; every other pair of
        # entries gives the same bytes
        pool = np.array([0.0, -0.0, 1.5, -1.5, 2.25])
        moved = 0
        for rng, Z, cols, leads in self.bases(15):
            for _ in range(20):
                v = rng.choice(pool, Z.dim)
                w = rng.choice(pool, Z.n_vars)
                assert Z.apply(v).tobytes() == scatter_apply(cols, leads, Z.n_vars, v).tobytes()
                got, want = Z.rmatvec(w), scatter_rmatvec(cols, leads, w)
                differ = got.view(np.int64) != want.view(np.int64)
                expect = (w[cols] == 0.0) & np.signbit(w[cols]) & (w[leads] == 0.0) & ~np.signbit(w[leads])
                assert np.array_equal(differ, expect)
                assert (got[differ] == 0.0).all() and not np.signbit(got[differ]).any()
                assert np.signbit(want[differ]).all()
                moved += int(differ.sum())
        assert moved > 0

    def test_csr_matvec_is_scipys_csr_product(self):
        # scipy.sparse's CSR @ vector runs the same kernel on the same arrays
        pool = np.array([0.0, -0.0, 1.5, -2.25])
        checked = 0
        for rng, Z, _, _ in self.bases(16):
            zt = sp.csr_matrix(Z.zt[::-1], shape=(Z.dim, Z.n_vars))
            zr = sp.csr_matrix(Z.zr[::-1], shape=(Z.n_vars, Z.dim))
            for v, w in (
                (rng.standard_normal(Z.dim), rng.standard_normal(Z.n_vars)),
                (rng.choice(pool, Z.dim), rng.choice(pool, Z.n_vars)),
            ):
                assert Z.apply(v).tobytes() == np.asarray(zr @ v).tobytes()
                assert Z.rmatvec(w).tobytes() == np.asarray(zt @ w).tobytes()
            checked += 1
        assert checked >= 30

    def test_wrong_shapes_raise(self):
        # csr_matvec reads as many entries as the matrix has columns, so
        # the shape is checked first, as the scatter's indexing checked it
        _, Z, _, _ = next(self.bases(17))
        for v in (np.ones(Z.dim - 1), np.ones(Z.dim + 1), np.ones((Z.dim, 1))):
            with pytest.raises(ValueError):
                Z.apply(v)
        for w in (np.ones(Z.n_vars - 1), np.ones(Z.n_vars + 1)):
            with pytest.raises(ValueError):
                Z.rmatvec(w)
