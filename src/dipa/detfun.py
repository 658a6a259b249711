"""Determinant objectives over arc-weight vectors, their derivatives, and a
pivot-free LU factorization for the structured matrices they produce.

The weight vector x assembles into a row-stochastic matrix P. Two smooth
objectives are exposed: f = -det(M) with M the leading principal minor of
I - P (doubly stochastic mode), and f = -det(I - P + J/n) with J the
all-ones matrix (row stochastic mode). Both reach their feasible minimum
exactly at Hamiltonian cycle indicators.

The solver values both modes with LAPACK: value_only and value_grad_hess
take the determinant of the one matrix that _matrix builds, so the
linesearch merit and the step's f are the same number. _matrix copies a
template kept on the map per mode and writes only the arc entries.
lu_nopivot and f_minor are the paper's pivot-free routine for the minor,
kept off the solve path for the library checks and the path profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from dipa.graph import ArcVarMap


def assemble_P(m: ArcVarMap, x: np.ndarray) -> np.ndarray:
    n = len(m.nodes)
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_arcs,):
        raise ValueError(f"x has shape {x.shape}, expected ({m.n_arcs},)")
    P = np.zeros((n, n))
    P[m.row, m.col] = x
    return P


def check_feasible(x: np.ndarray, m: ArcVarMap, mode: str, tol: float = 1e-8) -> None:
    P = assemble_P(m, x)
    if np.min(x) < -tol:
        raise ValueError(f"negative weight {np.min(x):.3e}")
    row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
    if row_err > tol:
        raise ValueError(f"row sums off by {row_err:.3e}")
    if mode == "ds":
        col_err = np.max(np.abs(P.sum(axis=0) - 1.0))
        if col_err > tol:
            raise ValueError(f"column sums off by {col_err:.3e}")


@dataclass(frozen=True)
class LUResult:
    l: np.ndarray
    u: np.ndarray
    transposed: bool
    skipped: tuple


def _has_sign_pattern(A: np.ndarray, tol: float) -> bool:
    d = np.diag(A)
    off = A - np.diag(d)
    return bool(np.all(d >= -tol) and np.all(off <= tol))


def lu_nopivot(A: np.ndarray) -> LUResult:
    """Gaussian elimination with unit lower factor and no row exchanges.

    Requires the sign pattern (nonnegative diagonal, nonpositive
    off-diagonal) together with zero column sums or zero row sums. Columns
    summing to zero are factored directly; rows summing to zero factor the
    transpose, reported via the transposed flag, so that l @ u equals A.T.
    Near-zero pivots are skipped after verifying the remaining row and
    column are negligible.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("square matrix required")
    scale = max(np.max(np.abs(A)), 1e-300)
    tol = 1e-10 * scale
    if not _has_sign_pattern(A, tol):
        raise ValueError("matrix lacks the required sign pattern")
    col_ok = np.max(np.abs(A.sum(axis=0))) <= tol * n
    row_ok = np.max(np.abs(A.sum(axis=1))) <= tol * n
    if col_ok:
        transposed = False
        u = A.copy()
    elif row_ok:
        transposed = True
        u = A.T.copy()
    else:
        raise ValueError("neither row sums nor column sums vanish")

    skip_tol = 1e-12 * scale
    verify_tol = 1e-10 * scale
    l = np.eye(n)
    skipped = []
    for k in range(n - 1):
        piv = u[k, k]
        if abs(piv) <= skip_tol:
            resid = max(np.max(np.abs(u[k, k + 1 :])), np.max(np.abs(u[k + 1 :, k])))
            if resid > verify_tol:
                raise ValueError(
                    f"zero pivot at {k} with live row/column (residual {resid:.3e})"
                )
            u[k, k + 1 :] = 0.0
            u[k + 1 :, k] = 0.0
            skipped.append(k)
            continue
        mult = u[k + 1 :, k] / piv
        l[k + 1 :, k] = mult
        u[k + 1 :, k:] -= np.outer(mult, u[k, k:])
        u[k + 1 :, k] = 0.0
    return LUResult(l=l, u=u, transposed=transposed, skipped=tuple(skipped))


def f_minor(x, m: ArcVarMap, validate: bool = True) -> float:
    """-det of the leading principal minor of I - P, by the pivot-free LU
    (the paper's routine). Equals -1 exactly at a Hamiltonian cycle
    indicator and 0 at any other permutation matrix. Raises ValueError where
    the row sums of I - P do not vanish."""
    if validate:
        check_feasible(x, m, mode="s")
    P = assemble_P(m, x)
    lu = lu_nopivot(np.eye(P.shape[0]) - P)
    return -float(np.prod(np.diag(lu.u)[:-1]))


@dataclass(frozen=True)
class _Template:
    """The differentiated matrix of one map and mode at x = 0 (base), the
    flat position in it of each arc inside it (pos), and which arcs those
    are (inside): in ds mode the arcs touching the last node fall outside
    the minor."""

    base: np.ndarray
    pos: np.ndarray
    inside: np.ndarray


def _template(m: ArcVarMap, mode: str) -> _Template:
    t = m.templates.get(mode)
    if t is not None:
        return t
    nn = len(m.nodes)
    if mode == "ds":
        k = nn - 1
        base = np.eye(k)
    elif mode == "s":
        k = nn
        base = np.eye(nn) + np.ones((nn, nn)) / nn
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # every _matrix call copies base, so nothing may write to it
    base.flags.writeable = False
    inside = (m.row < k) & (m.col < k)
    t = m.templates[mode] = _Template(base, m.row[inside] * k + m.col[inside], inside)
    return t


def _matrix(x, m: ArcVarMap, mode: str) -> np.ndarray:
    """The differentiated matrix: the leading principal minor of I - P in
    ds mode, I - P + J/n in s mode. The template holds every entry no arc
    touches; no arc lies on the diagonal, so an arc's entry is 0.0 - x, plus
    1/n in s mode, the operations of (I - P)[:k, :k] and I - P + J/n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_arcs,):
        raise ValueError(f"x has shape {x.shape}, expected ({m.n_arcs},)")
    t = _template(m, mode)
    M = t.base.copy()
    if mode == "ds":
        M.ravel()[t.pos] = 0.0 - x[t.inside]
    else:
        M.ravel()[t.pos] = (0.0 - x) + 1.0 / M.shape[0]
    return M


def _core(x, m: ArcVarMap, mode: str) -> tuple:
    """The determinant and inverse of the differentiated matrix, and which
    arcs lie inside it. The determinant is the gufunc call np.linalg.det
    makes after its checks, with the same bytes; np.linalg.inv stays,
    because its error state is what turns a singular matrix into
    LinAlgError."""
    M = _matrix(x, m, mode)
    det = float(_umath_linalg.det(M, signature="d->d"))
    return det, np.linalg.inv(M), _template(m, mode).inside


def _hessian(det: float, inv: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """H[k, l] = -det (inv[c_k, r_k] inv[c_l, r_l] - inv[c_k, r_l] inv[c_l, r_k]).
    In ds mode the inverse of the minor is padded with a zero last row and
    column, so the arcs outside the minor get zero rows and columns. Some of
    those zeros are -0.0; the reduced-Hessian products sum them into +0.0."""
    nn = len(m.nodes)
    if inv.shape[0] < nn:
        padded = np.zeros((nn, nn))
        padded[:-1, :-1] = inv
        inv = padded
    v = inv[m.col, m.row]
    T = inv[np.ix_(m.col, m.row)]
    H = np.outer(v, v)
    H -= T * T.T
    H *= -det
    return H


def hess(x, m: ArcVarMap, mode: str) -> np.ndarray:
    det, inv, _ = _core(x, m, mode)
    return _hessian(det, inv, m)


def value_grad_hess(x, m: ArcVarMap, mode: str) -> tuple:
    """One-pass f, gradient, Hessian sharing a single inversion."""
    det, inv, inside = _core(x, m, mode)
    g = np.zeros(m.n_arcs)
    g[inside] = det * inv[m.col[inside], m.row[inside]]
    return -det, g, _hessian(det, inv, m)


def value_only(x, m: ArcVarMap, mode: str) -> float:
    """f alone, from the same determinant of the same matrix as
    value_grad_hess, so the two agree to the last bit."""
    return -float(_umath_linalg.det(_matrix(x, m, mode), signature="d->d"))
