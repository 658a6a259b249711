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
from numpy.linalg import LinAlgError

from dipa import detfun, scipy_ext
from dipa.graph import ArcVarMap
from dipa.nullspace import NullSpaceRep


# step budget of every barrier phase; a phase that spends it ends like a
# converged one
MAX_PHASE_ITER = 500
# the fraction of the boundary step at which the linesearch starts
ALPHA = 0.9
# the double-precision routines behind scipy's cholesky and solve_triangular
# (what get_lapack_funcs returns for float64), called directly: at the
# solver's sizes their wrappers cost several times the factorization or
# solve itself
_flapack = scipy_ext.load("scipy.linalg._flapack")
_POTRF, _TRTRS = _flapack.dpotrf, _flapack.dtrtrs


class LinesearchStall(RuntimeError):
    """No merit decrease after the halving budget."""


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier weight and which bounds carry logarithms. mu = inf selects the
    barrier-only phase in which the objective term is dropped entirely."""

    mu: float
    upper_log: bool


def barrier_value(x: np.ndarray, spec: BarrierSpec) -> float:
    """phi alone, the number barrier_eval returns first; x must be
    strictly inside the bounds. np.add.reduce is the reduction np.sum
    calls, without its dispatch."""
    phi = -float(np.add.reduce(np.log(x)))
    if spec.upper_log:
        phi -= float(np.add.reduce(np.log(1.0 - x)))
    return phi


def barrier_eval(x: np.ndarray, spec: BarrierSpec) -> tuple:
    """(phi, grad phi, diagonal of hess phi) for the log barrier."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or (spec.upper_log and np.any(x >= 1.0)):
        raise ValueError("barrier evaluated at a non-interior point")
    g = -1.0 / x
    h = 1.0 / x**2
    if spec.upper_log:
        one = 1.0 - x
        g = g + 1.0 / one
        h = h + 1.0 / one**2
    return barrier_value(x, spec), g, h


@dataclass(frozen=True)
class CholResult:
    r: np.ndarray
    modified: bool
    j: int          # 0-based index of the largest diagonal addition


def modified_cholesky(mred: np.ndarray, delta: float) -> CholResult:
    """Factor mred - delta I + E = R.T R with E >= 0 diagonal, elements grown
    only as far as a Gill-Murray-Wright style bound requires. modified is
    True exactly when E is nonzero; j reports where E is largest.

    LAPACK factors C = mred - delta I first. When it succeeds and no pivot
    d_j = R[j,j]**2 falls below the growth bound theta_j**2 / beta2 or below
    small, the loop would add E = 0 and produce the same factor, so R is
    returned as it is; otherwise the loop runs."""
    # C = mred - delta I: off the diagonal each entry loses delta * 0.0,
    # which turns -0.0 into +0.0 when delta < 0, so that is subtracted too
    C = np.subtract(mred, delta * 0.0, order="C", dtype=float)
    n = C.shape[0]
    C.flat[:: n + 1] -= delta
    a = np.abs(C)
    gamma = float(np.max(a.diagonal(), initial=0.0))
    a.flat[:: n + 1] = 0.0
    xi = float(np.max(a, initial=0.0))
    nu = max(1.0, math.sqrt(max(n * n - 1.0, 0.0)))
    beta2 = max(gamma, xi / nu, 1e-30)
    small = 2.2e-16 * max(gamma + xi, 1.0)

    try:
        R = _cholesky(C)
    except LinAlgError:
        return _gmw_loop(C, beta2, small)
    rjj = np.diag(R)
    d = rjj * rjj
    # row j of R past the diagonal is the loop's column j scaled by 1/R[j,j];
    # potrf zeroed the lower triangle, so with the diagonal zeroed too the
    # row maxima of |R| are those of the strict upper triangle
    off = np.abs(R)
    off.flat[:: n + 1] = 0.0
    theta = rjj * np.max(off, axis=1, initial=0.0)
    if np.all(d >= theta * theta / beta2) and np.all(d >= small):
        return CholResult(r=R, modified=False, j=-1)
    return _gmw_loop(C, beta2, small)


def _cholesky(C: np.ndarray) -> np.ndarray:
    """cholesky(C, lower=False, check_finite=False) without the wrapper: the
    same potrf call, so the same upper factor in Fortran order (0 x 0 for an
    empty C), and LinAlgError where a leading minor is not positive
    definite."""
    R, info = _POTRF(C, lower=False, overwrite_a=False, clean=True)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    return R


def _gmw_loop(C: np.ndarray, beta2: float, small: float) -> CholResult:
    """Column-by-column Gill-Murray-Wright factorization of C: each pivot is
    raised to at least theta_j**2 / beta2 and small, and E records by how
    much.

    Left-looking: row k of U holds column k of C after the updates of steps
    0..k-1, so column j is C's column j minus (u_k * u_k[j]) / d_k for
    k = 0, 1, ..., j-1 in that order, the products, quotients and
    differences of the right-looking outer-product update on its entries.
    U starts as C.T because C need not be bitwise symmetric."""
    n = C.shape[0]
    U = np.array(C.T, order="C")
    d = np.zeros(n)
    dcol = d[:, None]
    buf = np.empty(n * n)
    maxreduce = np.maximum.reduce
    for j in range(n):
        row = U[j, j:]
        if j:
            # stack[0] is the column, stack[1 + k] what step k takes off it
            stack = buf[: (j + 1) * (n - j)].reshape(j + 1, n - j)
            stack[0] = row
            terms = stack[1:]
            np.multiply(U[:j, j:], U[:j, j : j + 1], out=terms)
            np.divide(terms, dcol[:j], out=terms)
            np.subtract.reduce(stack, axis=0, out=row)
        cjj = row.item(0)
        col = row[1:]
        theta = maxreduce(np.abs(col)) if j < n - 1 else 0.0
        dj = max(abs(cjj), theta * theta / beta2, small)
        d[j] = dj
    # U's diagonal keeps each c_jj as the loop met it
    E = d - U.diagonal()
    # R = (L sqrt(d)).T with L's column j = U[j, j+1:] / d_j below a unit
    # diagonal, in Fortran order like LAPACK's R, as _solve_upper requires
    lt = np.triu(U, 1)
    lt /= dcol
    lt.flat[:: n + 1] = 1.0
    r = np.empty((n, n), order="F")
    np.multiply(lt, np.sqrt(d)[:, None], out=r)
    modified = bool(np.max(E, initial=0.0) > 4.0 * small)
    return CholResult(r=r, modified=modified, j=int(np.argmax(E)) if modified else -1)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _solve_upper(R: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """solve_triangular(R, b, trans=trans, lower=False) without the wrapper,
    for a Fortran-ordered R the caller has checked finite; b is checked
    here. scipy solves a C-ordered R through its transpose, with other
    bits, so R's order is asserted. LinAlgError when R has a zero on its
    diagonal."""
    assert R.flags.f_contiguous
    _require_finite(b)
    if b.size == 0:
        return np.empty_like(b)
    x, info = _TRTRS(R, b, lower=False, trans=trans)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"trtrs rejected argument {-info}")
    return x


def descent_direction(R: np.ndarray, g_red: np.ndarray) -> np.ndarray:
    """Solve R.T R p = -g in two triangular sweeps."""
    _require_finite(R)
    w = _solve_upper(R, -np.asarray(g_red, dtype=float), 1)
    return _solve_upper(R, w, 0)

def negcurv_direction(R: np.ndarray, j: int) -> np.ndarray:
    """Back-substitute R d = e_j. The sign is arbitrary: step_once orients
    the refined direction."""
    e = np.zeros(R.shape[0])
    e[j] = 1.0
    _require_finite(R)
    return _solve_upper(R, e, 0)


def improve_negcurv(H: np.ndarray, d: np.ndarray, metric: np.ndarray, sweeps: int) -> tuple:
    """Reduce the generalized Rayleigh quotient d'Hd / d'Gd, G the metric,
    by cyclic single-coordinate moves. Each move solves a scalar quadratic
    exactly, so the quotient never increases. Returns (d, final quotient).
    Every operation is odd in d or even in it, so a start of -d returns
    exactly (-d', q) for a start of d returning (d', q)."""
    H = np.asarray(H, dtype=float)
    d = np.asarray(d, dtype=float).copy()
    n = len(d)
    G = np.asarray(metric, dtype=float)

    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        raise ValueError("zero start vector")
    d /= nrm
    # hd = H d and gd = G d are the rows of s, so a move on coordinate i
    # updates both with one add of cols[i] = [H[:, i], G[:, i]]
    s = np.empty((2, n))
    s[0] = H @ d
    s[1] = G @ d
    hd, gd = s
    cols = list(np.stack([H.T, G.T], axis=1))
    buf = np.empty((2, n))
    h_diag = np.diagonal(H).tolist()
    g_diag = np.diagonal(G).tolist()
    # d only changes in place, so its bound methods (dot is the ddot of
    # d @ v) stay valid, as do those of hd and gd, rows of s
    dot, add, multiply, sqrt = d.dot, np.add, np.multiply, math.sqrt
    d_item, hd_item, gd_item = d.item, hd.item, gd.item
    num = float(dot(hd))
    den = float(dot(gd))
    for _ in range(max(sweeps, 0)):
        for i in range(n):
            b = hd_item(i)
            c = h_diag[i]
            q = gd_item(i)
            r = g_diag[i]
            # stationary points of (num + 2bt + ct^2) / (den + 2qt + rt^2)
            A2 = c * q - b * r
            A1 = c * den - num * r
            A0 = b * den - num * q
            if abs(A2) > 1e-300:
                disc = A1 * A1 - 4.0 * A2 * A0
                if not disc >= 0.0:
                    continue
                sq = sqrt(disc)
                t1 = (-A1 + sq) / (2 * A2)
                t2 = (-A1 - sq) / (2 * A2)
            elif abs(A1) > 1e-300:
                # a second look at the same step cannot beat the first
                t1 = t2 = -A0 / A1
            else:
                continue
            best_t = 0.0
            best_q = num / den
            dn = den + 2.0 * q * t1 + r * t1 * t1
            if not dn <= 1e-14 * den:
                qq = (num + 2.0 * b * t1 + c * t1 * t1) / dn
                if qq < best_q:
                    best_q, best_t = qq, t1
            dn = den + 2.0 * q * t2 + r * t2 * t2
            if not dn <= 1e-14 * den:
                qq = (num + 2.0 * b * t2 + c * t2 * t2) / dn
                if qq < best_q:
                    best_q, best_t = qq, t2
            if best_t != 0.0:
                t = best_t
                d[i] = d_item(i) + t
                multiply(cols[i], t, buf)
                add(s, buf, s)
                num = float(dot(hd))
                den = float(dot(gd))
        nrm = float(np.linalg.norm(d))
        if nrm > 0:
            d /= nrm
            s /= nrm
            num = float(dot(hd))
            den = float(dot(gd))
    return d, num / den


@dataclass
class LsResult:
    x: np.ndarray
    t: float
    f: float | None         # objective at x; None when the merit skips it
    phi: float
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


def linesearch(x, direction, alpha, spec: BarrierSpec, objective, m0: float) -> LsResult:
    """Crude backtracking: start at alpha times the boundary step, halve until
    the merit strictly decreases below m0, the merit at x. objective(x)
    supplies the smooth term; it is skipped entirely in the barrier-only
    phase."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def merit(pt) -> tuple:
        phi = barrier_value(pt, spec)
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
        # min and max propagate NaN, so a NaN trial fails like np.all's
        if xt.min() > 0.0 and (not spec.upper_log or xt.max() < 1.0):
            ft, phit, mt = merit(xt)
            if mt < m0:
                return LsResult(x=xt, t=t, f=ft, phi=phit, merit=mt)
        t *= 0.5
    raise LinesearchStall(f"no decrease along direction (merit {m0:.6e})")


@dataclass
class PhaseContext:
    """Problem data for one barrier phase: the objective is f on the arc
    map m in z.mode (see dipa.detfun); z spans the null space of m's sum
    constraints."""

    z: NullSpaceRep
    m: ArcVarMap
    grad_tol: float         # relative factor, scaled by 1 + |merit anchor|


@dataclass
class StepInfo:
    """One step's outcome; f, phi and merit are all valued at x, the point
    the step ends on. At mu = inf the merit is phi and f is None."""

    kind: str               # converged | descent | negcurv | stall
    x: np.ndarray
    f: float | None
    phi: float
    merit: float
    step: float
    delta_hat: float
    modified: bool


def _default_delta(h_red: np.ndarray) -> float:
    return -1e-8 * (1.0 + float(np.max(np.abs(h_red), initial=0.0)))


def _factor_with_policy(h_red: np.ndarray, delta_hat: float) -> tuple:
    """Apply the shift policy: start from the carried estimate delta_hat when
    it is negative, else from the default shift, and when the factorization
    comes back unmodified at a non-default shift, probe by halving up to
    three times before falling back to the default."""
    default = _default_delta(h_red)
    delta = delta_hat if delta_hat < 0.0 else default
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


def reduced_model(x: np.ndarray, spec: BarrierSpec, ctx: PhaseContext) -> tuple:
    """(f, phi, reduced gradient, reduced Hessian) of the merit at x. At
    mu = inf the merit is the barrier alone and f is None: nothing values
    the objective."""
    z = ctx.z
    phi, gphi, hphi = barrier_eval(x, spec)
    if math.isinf(spec.mu):
        return None, phi, z.rmatvec(gphi), z.reduce_diag_quadform(hphi)
    f, gf, hf = detfun.value_grad_hess(x, ctx.m, z.mode)
    # hf is fresh: the barrier Hessian goes onto its diagonal in place
    hf.flat[:: hf.shape[0] + 1] += spec.mu * hphi
    return f, phi, z.rmatvec(gf + spec.mu * gphi), z.reduce_hessian(hf)


def step_once(x: np.ndarray, spec: BarrierSpec, ctx: PhaseContext, delta_hat: float) -> StepInfo:
    """One step from x. delta_hat is the previous step's curvature estimate
    (StepInfo.delta_hat), 0.0 at the start of a phase or on a new map."""
    f, phi, g_red, h_red = reduced_model(x, spec, ctx)
    if f is None:
        merit = phi
        anchor = abs(phi)
    else:
        merit = f + spec.mu * phi
        anchor = abs(f)
    gnorm = float(np.max(np.abs(g_red), initial=0.0))
    res, delta_used = _factor_with_policy(h_red, delta_hat)
    tol = ctx.grad_tol * (1.0 + anchor)
    kind, delta_hat = "descent", 0.0

    def finish(kind, ls=None) -> StepInfo:
        # without a linesearch result the step ends where it started
        if ls is None:
            pt, f_pt, phi_pt, merit_pt, t = x, f, phi, merit, 0.0
        else:
            pt, f_pt, phi_pt, merit_pt, t = ls.x, ls.f, ls.phi, ls.merit, ls.t
        return StepInfo(
            kind=kind, x=pt, f=f_pt, phi=phi_pt, merit=merit_pt, step=t,
            delta_hat=delta_hat, modified=res.modified,
        )

    if gnorm <= tol and not res.modified:
        return finish("converged")

    if res.modified:
        d_z = negcurv_direction(res.r, res.j)
        gram = ctx.z.gram()
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
            # downhill, oriented here only: improve_negcurv is odd in its start
            if float(d_z @ g_red) > 0.0:
                d_z = -d_z
            kind, delta_hat = "negcurv", q
    if kind == "descent":
        # also after a modification without usable curvature: the
        # regularized Newton step, which the factorization makes positive
        d_z = descent_direction(res.r, g_red)

    direction = ctx.z.apply(d_z)
    if float(np.max(np.abs(direction), initial=0.0)) == 0.0:
        return finish("stall")
    objective = lambda pt: detfun.value_only(pt, ctx.m, ctx.z.mode)
    try:
        ls = linesearch(x, direction, ALPHA, spec, objective, merit)
    except LinesearchStall:
        return finish("stall")
    return finish(kind, ls)


def newton_polish(x, spec: BarrierSpec, ctx: PhaseContext) -> np.ndarray:
    """Endgame for when merit differences drop below float resolution while
    the reduced gradient is still above tolerance: take up to eight damped
    Newton steps and accept on gradient-norm decrease instead of merit
    decrease. Returns the last accepted point."""
    _, _, g_red, h_red = reduced_model(x, spec, ctx)
    gnorm = float(np.max(np.abs(g_red), initial=0.0))
    for _ in range(8):
        res = modified_cholesky(h_red, _default_delta(h_red))
        if res.modified:
            break
        p = ctx.z.apply(descent_direction(res.r, g_red))
        tmax = max_boundary_step(x, p, spec.upper_log)
        t = min(1.0, 0.5 * tmax)
        if t <= 0.0:
            break
        xt = x + t * p
        _, _, gt_red, ht_red = reduced_model(xt, spec, ctx)
        gt = float(np.max(np.abs(gt_red), initial=0.0))
        if gt >= gnorm:
            break
        x, g_red, h_red, gnorm = xt, gt_red, ht_red, gt
    return x


def minimize_phase(x0: np.ndarray, spec: BarrierSpec, ctx: PhaseContext) -> np.ndarray:
    """Step at a fixed barrier weight until a step converges or stalls, or
    MAX_PHASE_ITER steps are spent. Returns where the phase ends; a stall on
    an unmodified factorization ends at the Newton-polished point."""
    x = np.asarray(x0, dtype=float).copy()
    delta_hat = 0.0
    for _ in range(MAX_PHASE_ITER):
        info = step_once(x, spec, ctx, delta_hat)
        if info.kind == "converged":
            break
        if info.kind == "stall":
            if not info.modified:
                x = newton_polish(x, spec, ctx)
            break
        x, delta_hat = info.x, info.delta_hat
    return x
