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

from dataclasses import dataclass, field

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
    perm: tuple          # variable permutation, basis columns first
    rank: int


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
    return np.setdiff1d(np.arange(2 * n), last[last >= 0]).tolist()


def reorder_ds(m: ArcVarMap) -> ReorderedDS:
    """Permute rows and columns of the doubly stochastic constraint matrix
    (build_A) of m into [B S] with B unit lower triangular.

    Columns with a single one among the still-active rows are pinned in
    batches, bottom row first; each batch prefers lower variable indices.
    """
    am = build_A(m)[_retained_rows(m)]
    rank, width = am.shape
    # column-to-rows incidence, one entry per nonzero, columns ascending
    inc_col, inc_row = np.nonzero(am.T)
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
        if not first.size:
            raise ValueError("reordering stalled; constraint support degenerate")
        cols, rows = cand[first], rows[first]
        col_sel.append(cols)
        remaining[cols] = False
        active[rows] = False
        slot[pos - len(rows) : pos] = rows[::-1]
        pos -= len(rows)
    pinned = np.concatenate(col_sel)[::-1]
    perm = tuple(pinned.tolist()) + tuple(np.flatnonzero(remaining).tolist())
    bm = am[slot][:, pinned]
    sm = am[slot][:, np.flatnonzero(remaining)]
    if not np.array_equal(np.diag(bm), np.ones(rank)) or np.any(np.triu(bm, 1) != 0):
        raise AssertionError("reordered block is not unit lower triangular")
    return ReorderedDS(b=bm, s=sm, perm=perm, rank=rank)


@dataclass
class NullSpaceRep:
    """Sparse-structured basis Z with A Z = 0, applied without ever forming
    the dense matrix in the solve path."""

    mode: str
    n_vars: int
    dim: int
    # ds fields: Z = P [-Y; I] with P placing rows at basis, then free
    basis: np.ndarray | None = None  # variable index per row of Y
    free: np.ndarray | None = None   # variable index per basis column
    y: np.ndarray | None = None      # rank x dim integer block
    # s fields
    cols: np.ndarray | None = None   # variable index per basis column
    leads: np.ndarray | None = None  # leading variable of the same row
    # the CSR arrays (indptr, indices, data) of Z.T and of Z, made once per
    # map: the operands of the reduced products
    _zt: tuple | None = field(default=None, repr=False)
    _zr: tuple | None = field(default=None, repr=False)
    _gram: np.ndarray | None = field(default=None, repr=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Z @ v for reduced vectors v."""
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.n_vars)
        if self.mode == "ds":
            out[self.free] = v
            out[self.basis] = -(self.y @ v)
        else:
            np.add.at(out, self.cols, v)
            np.subtract.at(out, self.leads, v)
        return out

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """Z.T @ w for full-space vectors w."""
        w = np.asarray(w, dtype=float)
        if self.mode == "ds":
            return w[self.free] - self.y.T @ w[self.basis]
        return w[self.cols] - w[self.leads]

    def _operators(self) -> tuple:
        """(Z.T, Z) as CSR arrays, each as scipy.sparse stores the matrix:
        nonzeros in row-major order, int32 indices."""
        if self._zt is None:
            zm = np.zeros((self.n_vars, self.dim))
            if self.mode == "ds":
                zm[self.basis] = -self.y
                zm[self.free] = np.eye(self.dim)
            else:
                k = np.arange(self.dim)
                zm[self.cols, k] = 1.0
                zm[self.leads, k] = -1.0
            self._zt, self._zr = _csr(zm.T), _csr(zm)
        return self._zt, self._zr

    def gram(self) -> np.ndarray:
        """Z.T Z, the reduced-space metric."""
        if self._gram is None:
            zt, zr = self._operators()
            self._gram = _product(zt, zr, self.dim, self.dim)
        return self._gram

    def reduce_hessian(self, H: np.ndarray) -> np.ndarray:
        """Z.T H Z, as Z.T (Z.T H.T).T: the two csr_matvecs calls of
        scipy.sparse's CSR @ dense, each on its operand raveled in C order."""
        (ptr, idx, val), _ = self._operators()
        dim, a = self.dim, self.n_vars
        half = np.zeros((dim, a))
        _SPARSETOOLS.csr_matvecs(dim, a, a, ptr, idx, val, H.T.ravel(), half.ravel())
        out = np.zeros((dim, dim))
        _SPARSETOOLS.csr_matvecs(dim, a, dim, ptr, idx, val, half.T.ravel(), out.ravel())
        return out

    def reduce_diag_quadform(self, d: np.ndarray) -> np.ndarray:
        """Z.T diag(d) Z without forming the full Hessian: Z.T's entries
        scaled by d at their columns, times Z."""
        (ptr, idx, val), zr = self._operators()
        return _product((ptr, idx, val * d[idx]), zr, self.dim, self.dim)


def _csr(dense: np.ndarray) -> tuple:
    """(indptr, indices, data) of the nonzeros of dense."""
    rows, cols = np.nonzero(dense)
    ptr = np.zeros(dense.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=ptr[1:])
    return ptr, cols.astype(np.int32), dense[rows, cols]


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


def build_Z(m: ArcVarMap, mode: str) -> NullSpaceRep:
    a = m.n_arcs
    if mode == "s":
        # arcs are numbered row-major, so each row's first arc leads it and
        # every other arc of the row gives one basis column
        lead = np.searchsorted(m.row, m.row)
        rest = lead != np.arange(a)
        if len(np.unique(m.row)) != len(m.nodes):
            raise ValueError("a node has no outgoing arc")
        cols = np.flatnonzero(rest)
        return NullSpaceRep(mode="s", n_vars=a, dim=len(cols), cols=cols, leads=lead[rest])
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
    if not np.isin(y, (-1.0, 0.0, 1.0)).all():
        raise AssertionError(f"null space block has entries {np.unique(y).tolist()}")
    return NullSpaceRep(
        mode="ds",
        n_vars=a,
        dim=a - rds.rank,
        basis=np.asarray(rds.perm[: rds.rank], dtype=np.intp),
        free=np.asarray(rds.perm[rds.rank :], dtype=np.intp),
        y=y,
    )
