"""Interior-point inner iteration: log-barrier merit, a bounded-growth
modified Cholesky factorization in the reduced space, descent and negative
curvature directions, a crude backtracking linesearch, and the per-phase
minimization driver.

Every iterate stays strictly inside the bound constraints; the equality
constraints are eliminated exactly through the null space representation, so
steps are computed in reduced coordinates and expanded only for the line
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from dipa.nullspace import NullSpaceRep


class LinesearchStall(RuntimeError):
    """No merit decrease after the halving budget."""


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier weight and which bounds carry logarithms. mu = inf selects the
    barrier-only phase in which the objective term is dropped entirely."""

    mu: float
    upper_log: bool = False


def barrier_eval(x: np.ndarray, spec: BarrierSpec) -> tuple:
    """(phi, grad phi, diagonal of hess phi) for the log barrier."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("barrier evaluated at a non-interior point")
    phi = -float(np.sum(np.log(x)))
    g = -1.0 / x
    h = 1.0 / x**2
    if spec.upper_log:
        if np.any(x >= 1.0):
            raise ValueError("barrier evaluated at a non-interior point")
        one = 1.0 - x
        phi -= float(np.sum(np.log(one)))
        g = g + 1.0 / one
        h = h + 1.0 / one**2
    return phi, g, h


@dataclass(frozen=True)
class CholResult:
    r: np.ndarray
    modified: bool
    j: int          # 0-based index of the largest diagonal addition
    e_max: float


def modified_cholesky(mred: np.ndarray, delta: float = 0.0) -> CholResult:
    """Factor mred - delta I + E = R.T R with E >= 0 diagonal, elements grown
    only as far as a Gill-Murray-Wright style bound requires. modified is
    True exactly when E is nonzero; j reports where E is largest."""
    C = np.asarray(mred, dtype=float) - delta * np.eye(mred.shape[0])
    n = C.shape[0]
    gamma = float(np.max(np.abs(np.diag(C)), initial=0.0))
    offd = C - np.diag(np.diag(C))
    xi = float(np.max(np.abs(offd), initial=0.0))
    nu = max(1.0, math.sqrt(max(n * n - 1.0, 0.0)))
    beta2 = max(gamma, xi / nu, 1e-30)
    small = 2.2e-16 * max(gamma + xi, 1.0)

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
    return CholResult(r=r, modified=modified, j=jmax, e_max=e_max)


def descent_direction(R: np.ndarray, g_red: np.ndarray) -> np.ndarray:
    """Solve R.T R p = -g in two triangular sweeps."""
    w = solve_triangular(R, -np.asarray(g_red, dtype=float), trans="T", lower=False)
    return solve_triangular(R, w, lower=False)

def negcurv_direction(R: np.ndarray, j: int, g_red: np.ndarray) -> np.ndarray:
    """Back-substitute R d = e_j; orient downhill against the gradient."""
    e = np.zeros(R.shape[0])
    e[j] = 1.0
    d = solve_triangular(R, e, lower=False)
    if float(d @ g_red) > 0.0:
        d = -d
    return d


def improve_negcurv(
    H: np.ndarray,
    d: np.ndarray,
    metric: np.ndarray | None = None,
    sweeps: int = 1,
) -> tuple:
    """Reduce the (generalized) Rayleigh quotient d'Hd / d'Gd by cyclic
    single-coordinate moves. Each move solves a scalar quadratic exactly, so
    the quotient never increases. Returns (d, final quotient)."""
    H = np.asarray(H, dtype=float)
    d = np.asarray(d, dtype=float).copy()
    n = len(d)
    G = metric if metric is not None else None

    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        raise ValueError("zero start vector")
    d /= nrm
    hd = H @ d
    gd = G @ d if G is not None else d.copy()
    num = float(d @ hd)
    den = float(d @ gd)
    for _ in range(max(sweeps, 0)):
        for i in range(n):
            b = hd[i]
            c = H[i, i]
            q = gd[i]
            r = G[i, i] if G is not None else 1.0
            # stationary points of (num + 2bt + ct^2) / (den + 2qt + rt^2)
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
                if G is not None:
                    gd += t * G[:, i]
                else:
                    gd[i] += t
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


@dataclass
class LsResult:
    x: np.ndarray
    t: float
    merit: float


def max_boundary_step(x: np.ndarray, direction: np.ndarray, upper_log: bool) -> float:
    t = math.inf
    neg = direction < 0.0
    if np.any(neg):
        t = float(np.min(x[neg] / -direction[neg]))
    if upper_log:
        pos = direction > 0.0
        if np.any(pos):
            t = min(t, float(np.min((1.0 - x[pos]) / direction[pos])))
    return t


def linesearch(x, direction, alpha, spec: BarrierSpec, objective) -> LsResult:
    """Crude backtracking: start at alpha times the boundary step, halve until
    the merit strictly decreases. objective(x) supplies the smooth term; it
    is skipped entirely in the barrier-only phase."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def merit(pt) -> float:
        phi, _, _ = barrier_eval(pt, spec)
        if math.isinf(spec.mu):
            return phi
        return objective(pt) + spec.mu * phi

    m0 = merit(x)
    tstar = max_boundary_step(x, direction, spec.upper_log)
    if not math.isfinite(tstar):
        tstar = 1.0 / max(float(np.max(np.abs(direction))), 1e-300)
    t = alpha * tstar
    for _ in range(51):
        xt = x + t * direction
        if np.all(xt > 0.0) and (not spec.upper_log or np.all(xt < 1.0)):
            mt = merit(xt)
            if mt < m0:
                return LsResult(x=xt, t=t, merit=mt)
        t *= 0.5
    raise LinesearchStall(f"no decrease along direction (merit {m0:.6e})")


@dataclass
class PhaseContext:
    """Problem data for one barrier phase."""

    z: NullSpaceRep
    f_bundle: object        # callable x -> (f, grad, hess); ignored at mu=inf
    f_value: object         # callable x -> f
    grad_tol: float         # relative factor, scaled by 1 + |merit anchor|
    alpha: float = 0.9
    max_iter: int = 500
    neutral: bool = False


@dataclass
class InnerState:
    """Carries the curvature shift estimate between iterations."""

    delta: float | None = None


@dataclass
class StepInfo:
    kind: str               # converged | descent | negcurv | stall
    x: np.ndarray
    f: float
    phi: float
    merit: float
    step: float
    delta_hat: float
    modified: bool
    g_dot_vmin: float | None
    grad_red_norm: float


def _default_delta(h_red: np.ndarray) -> float:
    return -1e-8 * (1.0 + float(np.max(np.abs(h_red), initial=0.0)))


def _factor_with_policy(h_red: np.ndarray, state: InnerState) -> tuple:
    """Apply the shift policy: reuse the adopted estimate, and when the
    factorization comes back unmodified at a non-default shift, probe by
    halving up to three times before falling back to the default."""
    default = _default_delta(h_red)
    delta = state.delta if state.delta is not None else default
    res = modified_cholesky(h_red, delta)
    probes = 0
    while not res.modified and abs(delta) > 1.5 * abs(default) and probes < 3:
        delta *= 0.5
        if abs(delta) < abs(default):
            delta = default
        res = modified_cholesky(h_red, delta)
        probes += 1
    if not res.modified and abs(delta) > 1.5 * abs(default):
        delta = default
        res = modified_cholesky(h_red, delta)
    return res, delta


def step_once(x: np.ndarray, spec: BarrierSpec, ctx: PhaseContext, state: InnerState) -> StepInfo:
    z = ctx.z
    phi, gphi, hphi = barrier_eval(x, spec)
    if ctx.neutral or math.isinf(spec.mu):
        f = ctx.f_value(x) if ctx.f_value is not None else 0.0
        g_full = gphi
        h_red = z.reduce_diag_quadform(hphi)
        merit = phi
        anchor = abs(phi)
    else:
        f, gf, hf = ctx.f_bundle(x)
        g_full = gf + spec.mu * gphi
        h_full = hf + spec.mu * np.diag(hphi)
        h_red = z.reduce_hessian(h_full)
        merit = f + spec.mu * phi
        anchor = abs(f)

    g_red = z.rmatvec(g_full)
    gnorm = float(np.max(np.abs(g_red), initial=0.0))
    res, delta_used = _factor_with_policy(h_red, state)
    tol = ctx.grad_tol * (1.0 + anchor)

    if gnorm <= tol and not res.modified:
        state.delta = None
        return StepInfo(
            kind="converged", x=x, f=f, phi=phi, merit=merit, step=0.0,
            delta_hat=0.0, modified=False, g_dot_vmin=None, grad_red_norm=gnorm,
        )

    g_dot_vmin = None
    if res.modified:
        d_z = negcurv_direction(res.r, res.j, g_red)
        gram = z.gram()
        # Several cheap univariate sweeps pull the direction much closer to
        # the extreme eigenvector; direction quality decides which basin the
        # polarization cascade lands in, so the extra sweeps pay for
        # themselves many times over.
        d_z, q = improve_negcurv(h_red, d_z, metric=gram, sweeps=3)
        extra = 0
        while q > delta_used and extra < 4:
            d_z, q = improve_negcurv(h_red, d_z, metric=gram, sweeps=1)
            extra += 1
        if q < 0.0:
            if float(d_z @ g_red) > 0.0:
                d_z = -d_z
            kind = "negcurv"
            state.delta = q
            delta_hat = q
            g_dot_vmin = abs(float(g_red @ d_z)) / (
                float(np.linalg.norm(g_red)) * float(np.linalg.norm(d_z)) + 1e-300
            )
        else:
            # modification without usable curvature: take the regularized
            # Newton step, which the factorization makes safely positive
            d_z = descent_direction(res.r, g_red)
            kind = "descent"
            state.delta = None
            delta_hat = 0.0
    else:
        d_z = descent_direction(res.r, g_red)
        kind = "descent"
        state.delta = None
        delta_hat = 0.0

    direction = z.apply(d_z)
    if float(np.max(np.abs(direction), initial=0.0)) == 0.0:
        return StepInfo(
            kind="stall", x=x, f=f, phi=phi, merit=merit, step=0.0,
            delta_hat=delta_hat, modified=res.modified, g_dot_vmin=g_dot_vmin,
            grad_red_norm=gnorm,
        )
    try:
        ls = linesearch(x, direction, ctx.alpha, spec, ctx.f_value)
    except LinesearchStall:
        return StepInfo(
            kind="stall", x=x, f=f, phi=phi, merit=merit, step=0.0,
            delta_hat=delta_hat, modified=res.modified, g_dot_vmin=g_dot_vmin,
            grad_red_norm=gnorm,
        )
    return StepInfo(
        kind=kind, x=ls.x, f=f, phi=phi, merit=ls.merit, step=ls.t,
        delta_hat=delta_hat, modified=res.modified, g_dot_vmin=g_dot_vmin,
        grad_red_norm=gnorm,
    )


def newton_polish(x, spec: BarrierSpec, ctx: PhaseContext, max_steps: int = 8) -> tuple:
    """Endgame for when merit differences drop below float resolution while
    the reduced gradient is still above tolerance: take damped Newton steps
    and accept on gradient-norm decrease instead of merit decrease. Returns
    (x, gnorm, unmodified) at the last accepted point."""
    z = ctx.z

    def eval_at(pt):
        phi, gphi, hphi = barrier_eval(pt, spec)
        if ctx.neutral or math.isinf(spec.mu):
            g_full = gphi
            h_red = z.reduce_diag_quadform(hphi)
        else:
            _, gf, hf = ctx.f_bundle(pt)
            g_full = gf + spec.mu * gphi
            h_red = z.reduce_hessian(hf + spec.mu * np.diag(hphi))
        g_red = z.rmatvec(g_full)
        return g_red, h_red

    g_red, h_red = eval_at(x)
    gnorm = float(np.max(np.abs(g_red), initial=0.0))
    res = modified_cholesky(h_red, _default_delta(h_red))
    for _ in range(max_steps):
        if res.modified:
            break
        p = z.apply(descent_direction(res.r, g_red))
        tmax = max_boundary_step(x, p, spec.upper_log)
        t = min(1.0, 0.5 * tmax)
        if t <= 0.0:
            break
        xt = x + t * p
        gt_red, ht_red = eval_at(xt)
        gt = float(np.max(np.abs(gt_red), initial=0.0))
        if gt >= gnorm:
            break
        x, g_red, h_red, gnorm = xt, gt_red, ht_red, gt
        res = modified_cholesky(h_red, _default_delta(h_red))
    return x, gnorm, not res.modified


@dataclass
class PhaseResult:
    x: np.ndarray
    status: str             # local-min | iteration-cap | stall
    iterations: int


def minimize_phase(x0: np.ndarray, spec: BarrierSpec, ctx: PhaseContext) -> PhaseResult:
    x = np.asarray(x0, dtype=float).copy()
    state = InnerState()
    for it in range(ctx.max_iter):
        info = step_once(x, spec, ctx, state)
        if info.kind == "converged":
            return PhaseResult(x=x, status="local-min", iterations=it)
        if info.kind == "stall":
            if not info.modified:
                x2, gnorm, unmod = newton_polish(x, spec, ctx)
                anchor = abs(info.phi) if (ctx.neutral or math.isinf(spec.mu)) else abs(info.f)
                if unmod and gnorm <= ctx.grad_tol * (1.0 + anchor):
                    return PhaseResult(x=x2, status="local-min", iterations=it)
                x = x2
            return PhaseResult(x=x, status="stall", iterations=it)
        x = info.x
    return PhaseResult(x=x, status="iteration-cap", iterations=ctx.max_iter)