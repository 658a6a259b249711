"""Equality-constraint matrices for the two relaxations and integral null
space bases built without floating-point elimination.

Row mode constrains each out-neighborhood to sum to one. In doubly
stochastic mode the in-sums join and the stacked matrix loses rank: one
dependency for each connected component of the graph that joins a row to
the columns of its arcs (one for a support with arcs both ways and an odd
cycle, two when that support is bipartite, more after surgery leaves arcs
one way only). reorder_ds drops dependent rows from the end of the column
block and permutes variables so the leading square block is unit lower
triangular over the integers; the null space basis then has entries in
{-1, 0, +1} by one exact triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dipa import scipy_ext
from dipa.graph import ArcVarMap, component_labels

# the sparse kernels behind scipy.sparse's CSR products and toarray, and
# the LAPACK triangular solve behind solve_triangular, called directly
_SPARSETOOLS = scipy_ext.load("scipy.sparse._sparsetools")
_TRTRS = scipy_ext.load("scipy.linalg._flapack").dtrtrs


def build_A(m: ArcVarMap) -> np.ndarray:
    """Dense 0/1 doubly stochastic sum constraints: the row block, then the
    column block. The row block alone is row mode's."""
    nn = len(m.nodes)
    k = np.arange(m.n_arcs)
    mat = np.zeros((2 * nn, m.n_arcs))
    mat[m.row, k] = 1.0
    mat[nn + m.col, k] = 1.0
    return mat


@dataclass(frozen=True)
class ReorderedDS:
    b: np.ndarray        # rank x rank, unit lower triangular, 0/1
    s: np.ndarray        # rank x (a - rank), 0/1
    basis: np.ndarray    # variable index per column of b
    free: np.ndarray     # variable index per column of s


def _retained_rows(m: ArcVarMap) -> list:
    """Rows of the stacked ds matrix (build_A) that are linearly
    independent and span its row space.

    Arc k = (i, j) joins row m.row[k] and column row n + m.col[k]. In each
    connected component of that graph the rows of one block sum to the rows
    of the other, and that is the component's only dependency. So the rank
    is the row count minus the component count, and dropping the highest
    column row of each component gives exactly the rows that greedy rank
    tests from the last row down would keep."""
    n = len(m.nodes)
    label = component_labels(2 * n, m.row, n + m.col)
    last = np.full(2 * n, -1)
    np.maximum.at(last, label[n:], np.arange(n, 2 * n))
    if (last[label[:n]] < 0).any():
        raise ValueError("could not reach full row rank by dropping column rows")
    kept = np.ones(2 * n, dtype=bool)
    kept[last[last >= 0]] = False
    return np.flatnonzero(kept).tolist()


def reorder_ds(m: ArcVarMap) -> ReorderedDS:
    """Permute rows and columns of the doubly stochastic constraint matrix
    (build_A) of m, on its retained rows, into [B S] with B unit lower
    triangular.

    Columns with a single one among the still-active rows are pinned in
    batches, bottom row first; each batch prefers lower variable indices.
    Every batch pins at least one row: in each component of the graph that
    joins a row to the columns of its arcs, some arc not yet pinned joins
    an active row to one pinned or dropped by _retained_rows, and that arc
    has a single active row. B and S are written from the arcs' incidence
    on the retained rows; the constraint matrix is never formed.
    """
    n, width = len(m.nodes), m.n_arcs
    retained = _retained_rows(m)
    rank = len(retained)
    # position among the retained rows of each stacked row, -1 if dropped
    where = np.full(2 * n, -1)
    where[retained] = np.arange(rank)
    # column-to-rows incidence, one entry per nonzero, columns ascending:
    # arc k meets its row-block row, then its column-block row if retained
    pair = np.stack([where[m.row], where[n + m.col]], axis=1).ravel()
    hit = pair >= 0
    inc_row = pair[hit]
    inc_col = np.repeat(np.arange(width), 2)[hit]
    active = np.ones(rank, dtype=bool)
    remaining = np.ones(width, dtype=bool)
    col_sel = []
    slot = np.zeros(rank, dtype=np.intp)
    pos = rank
    while pos:
        live = active[inc_row]
        n_act = np.bincount(inc_col, weights=live, minlength=width)
        # summed active rows: the active row itself where there is one
        act_row = np.bincount(inc_col, weights=inc_row * live, minlength=width)
        cand = np.flatnonzero(remaining & (n_act == 1))
        rows = act_row[cand].astype(np.intp)
        # the first candidate column of each row, in ascending column order
        _, first = np.unique(rows, return_index=True)
        first.sort()
        cols, rows = cand[first], rows[first]
        col_sel.append(cols)
        remaining[cols] = False
        active[rows] = False
        slot[pos - len(rows) : pos] = rows[::-1]
        pos -= len(rows)
    pinned = np.concatenate(col_sel)[::-1]
    free = np.flatnonzero(remaining)
    # row p of [B S] is retained row slot[p]; column q of B is variable
    # pinned[q], column q of S variable free[q]
    at_row = np.empty(rank, dtype=np.intp)
    at_row[slot] = np.arange(rank)
    at_col = np.empty(width, dtype=np.intp)
    at_col[pinned] = np.arange(rank)
    at_col[free] = np.arange(width - rank)
    bm = np.zeros((rank, rank))
    sm = np.zeros((rank, width - rank))
    in_b = ~remaining[inc_col]
    bm[at_row[inc_row[in_b]], at_col[inc_col[in_b]]] = 1.0
    sm[at_row[inc_row[~in_b]], at_col[inc_col[~in_b]]] = 1.0
    if not np.array_equal(np.diag(bm), np.ones(rank)) or np.any(np.triu(bm, 1) != 0):
        raise AssertionError("reordered block is not unit lower triangular")
    return ReorderedDS(b=bm, s=sm, basis=pinned, free=free)


@dataclass(frozen=True)
class NullSpaceRep:
    """Sparse-structured basis Z with A Z = 0, held as the CSR arrays of Z.T
    and Z and applied without ever forming the dense matrix."""

    mode: str
    n_vars: int
    dim: int
    # the CSR arrays (indptr, indices, data) of Z.T and of Z, each as
    # scipy.sparse stores the matrix: nonzeros in row-major order, int32
    # indices. The operands of every product with Z
    zt: tuple
    zr: tuple
    gram: np.ndarray  # Z.T Z, the reduced-space metric
    # ds fields: Z = P [-Y; I] with P placing rows at basis, then free
    basis: np.ndarray | None = None  # variable index per row of Y
    free: np.ndarray | None = None   # variable index per basis column
    y: np.ndarray | None = None      # rank x dim integer block

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Z @ v for reduced vectors v."""
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.n_vars)
        if self.mode == "ds":
            out[self.free] = v
            out[self.basis] = -(self.y @ v)
        else:
            # csr_matvec reads dim entries of v whatever its length
            if v.shape != (self.dim,):
                raise ValueError(f"Z @ v needs shape ({self.dim},), got {v.shape}")
            _SPARSETOOLS.csr_matvec(self.n_vars, self.dim, *self.zr, v, out)
        return out

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """Z.T @ w for full-space vectors w."""
        w = np.asarray(w, dtype=float)
        if self.mode == "ds":
            return w[self.free] - self.y.T @ w[self.basis]
        if w.shape != (self.n_vars,):
            raise ValueError(f"Z.T @ w needs shape ({self.n_vars},), got {w.shape}")
        out = np.zeros(self.dim)
        _SPARSETOOLS.csr_matvec(self.dim, self.n_vars, *self.zt, w, out)
        return out

    def reduce_hessian(self, H: np.ndarray) -> np.ndarray:
        """Z.T H Z, as Z.T (Z.T H.T).T: the two csr_matvecs calls of
        scipy.sparse's CSR @ dense, each on its operand raveled in C order.
        H must be bitwise symmetric, as dipa.detfun's Hessians are with the
        barrier on their diagonal: H.T is then read as H, without a copy."""
        ptr, idx, val = self.zt
        dim, a = self.dim, self.n_vars
        # csr_matvecs reads a x a entries of H whatever its shape
        if H.shape != (a, a):
            raise ValueError(f"Z.T H Z needs shape ({a}, {a}), got {H.shape}")
        half = np.zeros((dim, a))
        _SPARSETOOLS.csr_matvecs(dim, a, a, ptr, idx, val, H.ravel(), half.ravel())
        out = np.zeros((dim, dim))
        _SPARSETOOLS.csr_matvecs(dim, a, dim, ptr, idx, val, half.T.ravel(), out.ravel())
        return out

    def reduce_diag_quadform(self, d: np.ndarray) -> np.ndarray:
        """Z.T diag(d) Z without forming the full Hessian: Z.T's entries
        scaled by d at their columns, times Z."""
        ptr, idx, val = self.zt
        return _product((ptr, idx, val * d[idx]), self.zr, self.dim, self.dim)


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_rows: int, n_cols: int) -> tuple:
    """(indptr, indices, data) of the n_rows x n_cols matrix with entries
    vals at (rows, cols), no position twice, in row-major order."""
    order = np.argsort(rows * n_cols + cols)
    ptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    return ptr, cols[order].astype(np.int32), vals[order]


def _product(a: tuple, b: tuple, rows: int, cols: int) -> np.ndarray:
    """The dense rows x cols product of two CSR operands, as scipy.sparse's
    A @ B followed by toarray: csr_matmat, whose result drops exact zeros,
    summed into a zero array by csr_todense."""
    out = np.zeros((rows, cols))
    nnz = _SPARSETOOLS.csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    if nnz:
        ptr = np.empty(rows + 1, dtype=np.int32)
        idx = np.empty(nnz, dtype=np.int32)
        val = np.empty(nnz)
        _SPARSETOOLS.csr_matmat(rows, cols, *a, *b, ptr, idx, val)
        _SPARSETOOLS.csr_todense(rows, cols, ptr, idx, val, out)
    return out


def _from_nonzeros(mode: str, n_vars: int, dim: int, var, red, val, **ds) -> NullSpaceRep:
    """The basis whose Z has entry val[t] at (var[t], red[t]), no position
    twice; ds passes basis, free and y on."""
    zt = _csr(red, var, val, dim, n_vars)
    zr = _csr(var, red, val, n_vars, dim)
    return NullSpaceRep(mode, n_vars, dim, zt, zr, _product(zt, zr, dim, dim), **ds)


def build_Z(m: ArcVarMap, mode: str) -> NullSpaceRep:
    a = m.n_arcs
    if mode == "s":
        # arcs are numbered row-major, so each row's first arc leads it and
        # every other arc of the row gives one basis column, e_arc - e_lead
        lead = np.searchsorted(m.row, m.row)
        rest = lead != np.arange(a)
        if len(np.unique(m.row)) != len(m.nodes):
            raise ValueError("a node has no outgoing arc")
        cols = np.flatnonzero(rest)
        k = np.arange(len(cols))
        return _from_nonzeros("s", a, len(cols), np.concatenate([cols, lead[rest]]),
                              np.concatenate([k, k]), np.repeat([1.0, -1.0], len(cols)))
    if mode != "ds":
        raise ValueError(f"unknown mode {mode!r}")
    rds = reorder_ds(m)
    # B is unit lower triangular 0/1 and every partial sum of the forward
    # substitution is a small integer, so the float solve is exact. C order
    # keeps the summation order of y @ v that the integer solve gave.
    y, info = _TRTRS(rds.b, rds.s, lower=True, unitdiag=True)
    if info:
        raise ValueError(f"trtrs rejected argument {-info}")
    y = np.ascontiguousarray(y)
    if not ((y == 0.0) | (np.abs(y) == 1.0)).all():
        raise AssertionError(f"null space block has entries {np.unique(y).tolist()}")
    # Z's row basis[p] is -y[p], its row free[q] is e_q
    dim = len(rds.free)
    p, q = np.nonzero(y)
    return _from_nonzeros(
        "ds", a, dim, np.concatenate([rds.basis[p], rds.free]),
        np.concatenate([q, np.arange(dim)]), np.concatenate([-y[p, q], np.ones(dim)]),
        basis=rds.basis, free=rds.free, y=y,
    )
