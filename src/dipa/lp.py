"""Small dense linear programs with certified solutions, plus a primal
active-set solver for least-distance projection onto {Ax = b, lb <= x <= ub}.

The LP path delegates the simplex work to scipy's HiGHS backend and then
re-verifies feasibility, complementary slackness, and strong duality from
the returned multipliers, so a silently wrong solve cannot propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


class LPError(RuntimeError):
    """Solver failure or a solution that failed post-verification."""


@dataclass(frozen=True)
class LinearProgram:
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray | None
    status: str


_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded"}


def lp_solve(p: LinearProgram, verify: bool = True) -> LPResult:
    c = np.asarray(p.c, dtype=float)
    aeq = np.asarray(p.a_eq, dtype=float)
    beq = np.asarray(p.b_eq, dtype=float)
    lb = np.asarray(p.lb, dtype=float)
    ub = np.asarray(p.ub, dtype=float)
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
        # tight tolerances can misreport problems whose feasible box is
        # microscopic; accept a verdict only at default tolerances
        res = linprog(c, A_eq=aeq, b_eq=beq, bounds=bounds, method="highs")
    if res.status not in (0, 2, 3):
        # the simplex presolve occasionally exits without setting a model
        # status at all; solving the unreduced problem recovers those
        res = linprog(
            c,
            A_eq=aeq,
            b_eq=beq,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )
    status = _STATUS.get(res.status, f"failed-{res.status}")
    if status != "optimal":
        if status in ("infeasible", "unbounded"):
            return LPResult(x=None, status=status)
        raise LPError(f"linear program solve failed: {res.message}")
    x = np.asarray(res.x)
    if verify:
        _verify_lp(c, aeq, beq, lb, ub, x, res)
    return LPResult(x=x, status="optimal")


def _verify_lp(c, aeq, beq, lb, ub, x, res, tol: float = 1e-7) -> None:
    scale = 1.0 + max(np.max(np.abs(beq), initial=0.0), np.max(np.abs(x), initial=0.0))
    resid = np.max(np.abs(aeq @ x - beq)) if aeq.size else 0.0
    if resid > tol * scale:
        raise LPError(f"equality residual {resid:.3e}")
    if np.any(x < lb - tol * scale) or np.any(x > ub + tol * scale):
        raise LPError("bound violation in reported optimum")
    y = np.asarray(res.eqlin.marginals)
    zl = np.asarray(res.lower.marginals)
    zu = np.asarray(res.upper.marginals)
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
    projection; an arbitrary feasible vertex has many. Returns
    (x, "optimal") or (None, "infeasible").
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
    start = lp_solve(
        LinearProgram(
            c=np.ones(2 * a),
            a_eq=np.hstack([aeq, -aeq]),
            b_eq=beq - aeq @ xc,
            lb=np.zeros(2 * a),
            ub=np.concatenate([ub - xc, xc - lb]),
        )
    )
    if start.status != "optimal":
        return None, "infeasible"
    x = np.clip(xc + start.x[:a] - start.x[a:], lb, ub)
    # The LP optimum can carry solver-tolerance violations, and the LP
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
                active_hi[block] = True
                x[block] = ub[block]
            else:
                active_lo[block] = True
                x[block] = lb[block]
    raise LPError("active-set projection did not converge")


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