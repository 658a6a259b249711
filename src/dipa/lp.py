"""Small dense linear programs with certified solutions, plus a primal
active-set solver for least-distance projection onto {Ax = b, lb <= x <= ub}.

The LP path hands the simplex work to HiGHS and then re-verifies
feasibility, complementary slackness, and strong duality from the returned
multipliers, so a silently wrong solve cannot propagate.

lp_solve drives the HiGHS binding that scipy ships
(scipy.optimize._highspy._core) directly, not through
scipy.optimize.linprog: on these LPs the wrapper's option checks and input
cleaning took about 55% of each solve. The model, options, status table and
multipliers are the ones linprog(method="highs") passes and reads, and a
tier-1 test (tests/test_lp.py) pins x, the row duals and the bound
multipliers to linprog's, bit for bit.

The binding is loaded from its extension file by dipa.scipy_ext.load, not
imported: importing it runs the scipy.optimize package __init__, which
pulls in linprog, shgo, scipy.special, scipy.fft and scipy.spatial, 202 of
the 808 modules a dipa command loaded, and about a quarter of its cold
start. When scipy.optimize has already loaded the binding, that module
object is used, and a later import of scipy.optimize finds the same module
object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dipa import scipy_ext

highs = scipy_ext.load("scipy.optimize._highspy._core")


class LPError(RuntimeError):
    """Solver failure or a solution that failed post-verification."""


def _options(presolve: str = "on", tight: bool = False):
    opts = highs.HighsOptions()
    opts.presolve = presolve
    opts.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    if tight:
        opts.primal_feasibility_tolerance = 1e-9
        opts.dual_feasibility_tolerance = 1e-9
    return opts


# the options linprog(method="highs") sets on each of lp_solve's three rungs
_TIGHT = _options(tight=True)
_DEFAULT = _options()
_NO_PRESOLVE = _options(presolve="off")

_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)
_LOWER = highs.HighsBasisStatus.kLower.value
_UPPER = highs.HighsBasisStatus.kUpper.value
_MS = highs.HighsModelStatus
# scipy's _highs_to_scipy_status_message table, read as lp_solve reads it:
# every model status it does not list here is a failure
_STATUS = {
    _MS.kOptimal: "optimal",
    _MS.kInfeasible: "infeasible",
    _MS.kModelError: "infeasible",
    _MS.kUnbounded: "unbounded",
}


@dataclass(frozen=True)
class _Solution:
    status: str
    message: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None   # equality multipliers (row duals)
    zl: np.ndarray | None = None  # lower-bound multipliers
    zu: np.ndarray | None = None  # upper-bound multipliers


def _run(model: tuple, b_eq: np.ndarray, lb: np.ndarray, ub: np.ndarray, opts) -> _Solution:
    solver = highs._Highs()
    solver.passOptions(opts)
    if solver.passModel(*model) == highs.HighsStatus.kError:
        return _Solution("infeasible", "model error")
    solver.run()
    ms = solver.getModelStatus()
    status = _STATUS.get(ms, "failed")
    message = solver.modelStatusToString(ms)
    if ms != _MS.kOptimal:
        return _Solution(status, message)
    sol = solver.getSolution()
    x = np.array(sol.col_value)
    # linprog demotes an optimum that misses a bound or a row by more than
    # 10 sqrt(1e-9), or holds a NaN (which fails every comparison), to a
    # failure, and that sends it to the next rung
    tol = np.sqrt(1e-9) * 10
    con = b_eq - np.array(sol.row_value)
    if not (np.all((x >= lb - tol) & (x <= ub + tol)) and np.all(np.abs(con) <= tol)):
        return _Solution("failed", "solution does not satisfy the constraints")
    # a bound's multiplier is the column dual when the basis holds the
    # column at that bound, and 0 otherwise
    col_status = np.array([s.value for s in solver.getBasis().col_status])
    col_dual = np.array(sol.col_dual)
    zl = np.where(col_status == _LOWER, col_dual, 0.0)
    zu = np.where(col_status == _UPPER, col_dual, 0.0)
    return _Solution(status, message, x=x, y=np.array(sol.row_dual), zl=zl, zu=zu)


def _highs_solve(c, aeq, beq, lb, ub) -> _Solution:
    """Solve at tight tolerances. Tight tolerances can misreport problems
    whose feasible box is microscopic, so a failure there is retried at
    default tolerances; the simplex presolve occasionally exits without
    setting a model status at all, and solving the unreduced problem
    recovers those."""
    rows, cols = aeq.shape
    # column-wise, rows ascending, exact zeros dropped: the matrix linprog
    # builds with csc_array
    at = np.ascontiguousarray(aeq.T)
    nz = np.flatnonzero(at)
    start = np.concatenate(([0], np.cumsum(np.count_nonzero(at, axis=1))))
    model = (
        cols, rows, nz.size, _COLWISE, _MINIMIZE, 0.0,
        c,
        np.clip(lb, -highs.kHighsInf, highs.kHighsInf),
        np.clip(ub, -highs.kHighsInf, highs.kHighsInf),
        beq, beq,
        start.astype(np.int32), (nz % rows).astype(np.int32), at.ravel()[nz],
        np.zeros(cols, dtype=np.int32),  # every column continuous
    )
    res = _run(model, beq, lb, ub, _TIGHT)
    if res.status != "optimal":
        res = _run(model, beq, lb, ub, _DEFAULT)
    if res.status not in ("optimal", "infeasible", "unbounded"):
        res = _run(model, beq, lb, ub, _NO_PRESOLVE)
    return res


def lp_solve(c, a_eq, b_eq, lb, ub) -> tuple:
    """argmin c x subject to a_eq x = b_eq, lb <= x <= ub. Returns
    (x, "optimal") with a verified certificate, or (None, "infeasible") or
    (None, "unbounded"); raises LPError when the solve or its verification
    fails."""
    c, aeq, beq, lb, ub = (np.asarray(v, dtype=float) for v in (c, a_eq, b_eq, lb, ub))
    res = _highs_solve(c, aeq, beq, lb, ub)
    if res.status != "optimal":
        if res.status in ("infeasible", "unbounded"):
            return None, res.status
        raise LPError(f"linear program solve failed: {res.message}")
    _verify_lp(c, aeq, beq, lb, ub, res)
    return res.x, "optimal"


def _verify_lp(c, aeq, beq, lb, ub, res: _Solution, tol: float = 1e-7) -> None:
    x = res.x
    scale = 1.0 + max(np.max(np.abs(beq), initial=0.0), np.max(np.abs(x), initial=0.0))
    resid = np.max(np.abs(aeq @ x - beq)) if aeq.size else 0.0
    if resid > tol * scale:
        raise LPError(f"equality residual {resid:.3e}")
    if np.any(x < lb - tol * scale) or np.any(x > ub + tol * scale):
        raise LPError("bound violation in reported optimum")
    y, zl, zu = res.y, res.zl, res.zu
    # complementary slackness: a nonzero bound multiplier needs a tight bound
    gap_l = np.abs(zl) * np.where(np.isfinite(lb), np.abs(x - lb), 0.0)
    gap_u = np.abs(zu) * np.where(np.isfinite(ub), np.abs(ub - x), 0.0)
    big = 1.0 + np.max(np.abs(c), initial=0.0)
    if np.any(gap_l > tol * scale * big) or np.any(gap_u > tol * scale * big):
        raise LPError("complementary slackness violated")
    # strong duality
    primal = float(c @ x)
    finite_l = np.isfinite(lb)
    finite_u = np.isfinite(ub)
    dual = float(beq @ y)
    dual += float(lb[finite_l] @ zl[finite_l])
    dual += float(ub[finite_u] @ zu[finite_u])
    cmax = float(np.max(np.abs(c), initial=0.0))
    if abs(primal - dual) > tol * (1.0 + abs(primal) + cmax):
        raise LPError(f"duality gap {primal - dual:.3e}")


def qp_least_distance(
    xbar: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple:
    """argmin 0.5 ||x - xbar||^2 subject to a_eq x = b_eq, lb <= x <= ub.

    Primal active-set iteration started from the feasible point nearest to
    clip(xbar, lb, ub) in the 1-norm, found by one bounded-change LP. That
    point has few bounds active, so few releases stand between it and the
    projection; an arbitrary feasible vertex has many. Returns (x, "optimal"),
    or (None, "infeasible") when the LP or the loop's last correction fails.
    """
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    aeq = np.asarray(a_eq, dtype=float).reshape(-1, a)
    beq = np.asarray(b_eq, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)

    # x = xc + u - v with u in [0, ub - xc] and v in [0, xc - lb], minimizing
    # sum(u) + sum(v): the bounded-change LP of restore_DS without its
    # residual variable gamma. xbar may lie outside the box, hence the clip.
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
    # the active set's least-norm steps close the LP's tolerance gap themselves
    x = np.clip(xc + uv[:a] - uv[a:], lb, ub)

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
                # a step blocks only past atol, so clip back into the box; a
                # least-norm correction over all variables (the free block can
                # be row-rank-deficient) removes the drift, and a gap left
                # after its clip means an LP-feasible box with no exact point
                x = np.clip(x, lb, ub)
                gap = beq - aeq @ x
                if float(np.max(np.abs(gap))) > 1e-12:
                    fix, *_ = np.linalg.lstsq(aeq, gap, rcond=None)
                    x = np.clip(x + fix, lb, ub)
                    ftol = 1e-10 * (1.0 + float(np.max(np.abs(beq), initial=0.0)))
                    if float(np.max(np.abs(beq - aeq @ x))) > ftol:
                        return None, "infeasible"
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

        # longest feasible step toward the equality-constrained optimum: the
        # first free index with the smallest ratio below 1 blocks it
        hits_lo = free & (step < -atol) & (x + step < lb - atol)
        hits_hi = free & (step > atol) & (x + step > ub + atol)
        ratio = np.full(a, np.inf)
        ratio[hits_lo] = (lb - x)[hits_lo] / step[hits_lo]
        ratio[hits_hi] = (ub - x)[hits_hi] / step[hits_hi]
        block = int(np.argmin(ratio))
        beta, block_hi = float(ratio[block]), bool(hits_hi[block])
        if beta >= 1.0:
            beta, block = 1.0, -1
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
                active_hi[block] = True
                x[block] = ub[block]
            else:
                active_lo[block] = True
                x[block] = lb[block]
    raise LPError("active-set projection did not converge")

