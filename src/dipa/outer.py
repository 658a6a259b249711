"""Outer solve loop: strict interior start, barrier weight reduction driven
by reduced-Hessian curvature, greedy cycle rounding every accepted step, and
graph surgery (deflation / deletion) with feasibility restoration.

Surgery works on a shrinking directed problem while a record stack remembers
how to splice removed nodes back into any cycle found later; every reported
cycle is re-validated against the original input graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from dipa import detfun
from dipa.graph import (
    ArcVarMap,
    CycleCertificate,
    Graph,
    StarvationError,
    build_arc_map,
    delete_arc,
    deflate,
    expand_cycle,
    is_connected,
    support_graph,
)
from dipa.inner import (
    BarrierSpec,
    InnerState,
    PhaseContext,
    barrier_eval,
    minimize_phase,
    newton_polish,
    step_once,
)
from dipa.lp import LinearProgram, LPError, lp_solve, qp_least_distance
from dipa.nullspace import build_A, build_Z

HC_FOUND = "HC-found"
NO_HC_DISCONNECTED = "no-HC-disconnected"
GAVE_UP = "gave-up"

# the barrier weight below which the path gives up
MU_MIN = 1e-8
# gradient tolerance of the barrier-only phase that settles the neutral point
NEUTRAL_TOL = 1e-10


class NoInteriorPoint(RuntimeError):
    """The relaxation admits no strictly positive feasible point."""


@dataclass(frozen=True)
class DipaParams:
    mode: str = "ds"
    mu_initial: float = 0.01
    mu_shrink: float = 0.1
    alpha: float = 0.9
    deflation_threshold: float = 0.9
    deletion_threshold: float = 1e-5
    restore: str = "lp"
    upper_log: bool = False
    drop_one_var: bool = False
    grad_tol: float = 1e-6
    max_outer: int = 20000
    max_phase_iter: int = 500
    time_limit: float = 60.0
    # recorded with results for provenance; every code path is deterministic,
    # so the value never changes the solve itself
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("s", "ds"):
            raise ValueError(f"mode must be 's' or 'ds', got {self.mode!r}")
        if not 0.0 < self.mu_initial <= 1.0:
            raise ValueError("mu_initial out of range")
        if not 0.0 < self.mu_shrink < 1.0:
            raise ValueError("mu_shrink out of range")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha out of range")
        if not 0.5 < self.deflation_threshold <= 1.0 - 1e-13:
            raise ValueError("deflation threshold must sit in (0.5, 1)")
        if not 0.0 <= self.deletion_threshold < 0.01:
            raise ValueError("deletion threshold must sit in [0, 0.01)")
        if self.restore not in ("lp", "qp"):
            raise ValueError(f"restore must be 'lp' or 'qp', got {self.restore!r}")


@dataclass
class TraceRow:
    it: int
    mu: float
    f: float
    phi: float
    merit: float
    step: float
    kind: str
    delta_hat: float
    x_min: float
    deflations: int

    @staticmethod
    def header() -> str:
        return "iter,mu,f,phi,merit,step,kind,delta_hat,x_min,deflations"

    def csv(self) -> str:
        mu = "inf" if math.isinf(self.mu) else f"{self.mu:.17g}"
        return ",".join(
            [
                str(self.it),
                mu,
                f"{self.f:.17g}",
                f"{self.phi:.17g}",
                f"{self.merit:.17g}",
                f"{self.step:.17g}",
                self.kind,
                f"{self.delta_hat:.17g}",
                f"{self.x_min:.17g}",
                str(self.deflations),
            ]
        )


@dataclass
class SolveReport:
    status: str
    cycle: CycleCertificate | None
    iterations: int
    deflations: int
    deletions: int
    trace: list
    message: str = ""
    wall_time: float = 0.0
    f_final: float = math.nan
    mode: str = "ds"
    n: int = 0


def initial_interior(m: ArcVarMap, mode: str) -> np.ndarray:
    """Strictly positive feasible start. Row mode spreads each row uniformly;
    doubly stochastic mode maximizes the uniform slack t with x = w + t e."""
    if mode == "s":
        return 1.0 / np.bincount(m.row)[m.row]
    a = m.n_arcs
    A = build_A(m, mode="ds")
    rows = A.shape[0]
    aeq = np.hstack([A, (A @ np.ones(a)).reshape(-1, 1)])
    c = np.zeros(a + 1)
    c[-1] = -1.0
    lb = np.zeros(a + 1)
    ub = np.concatenate([np.full(a, np.inf), [1.0]])
    res = lp_solve(LinearProgram(c=c, a_eq=aeq, b_eq=np.ones(rows), lb=lb, ub=ub))
    if res.status != "optimal" or res.x[-1] <= 1e-12:
        raise NoInteriorPoint("no strictly interior doubly stochastic point")
    x = res.x[:a] + res.x[-1]
    return _polish_equalities(x, A)


def _polish_equalities(x: np.ndarray, A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    resid = np.ones(A.shape[0]) - A @ x
    if np.max(np.abs(resid)) > tol:
        corr, *_ = np.linalg.lstsq(A, resid, rcond=None)
        x = x + corr
    return x


def propose_mu(lam_hat: float, lam_bar: float, mu: float, shrink: float) -> float:
    """Next barrier weight: geometric shrink, capped so that a known negative
    objective curvature lam_hat survives against the barrier's largest
    reduced curvature lam_bar."""
    mu2 = shrink * mu
    if lam_hat < 0.0 and lam_bar > 0.0:
        mu2 = min(mu2, 0.5 * abs(lam_hat) / lam_bar)
    return mu2


def mu_trigger(x: np.ndarray, spec: BarrierSpec, ctx: PhaseContext, shrink: float) -> float:
    """Barrier weight after the phase at spec ends at x: shrink spec.mu, then
    keep dividing by 10 while the objective's negative curvature stays
    drowned out (reduced merit Hessian still positive definite)."""
    hd = detfun.hess(x, ctx.m, mode=ctx.mode)
    hz = ctx.z.reduce_hessian(hd)
    lam_hat = float(np.linalg.eigvalsh(hz)[0]) if hz.size else 0.0
    _, _, hphi = barrier_eval(x, spec)
    pz = ctx.z.reduce_diag_quadform(hphi)
    lam_bar = float(np.linalg.eigvalsh(pz)[-1]) if pz.size else 1.0
    mu2 = propose_mu(lam_hat, lam_bar, spec.mu, shrink)
    if lam_hat < 0.0:
        while mu2 >= MU_MIN:
            w = np.linalg.eigvalsh(hz + mu2 * pz)
            if w[0] <= 0.0:
                break
            mu2 /= 10.0
    return mu2


def forced_zero_arcs(m: ArcVarMap) -> tuple:
    """Arcs that carry zero weight in every doubly stochastic point of the
    support. The polytope's vertices are permutation matrices, so any arc
    usable at all reaches value 1 at some vertex; maximizing sum(u) with
    u <= x, u <= 1/(4a) therefore saturates u at the cap exactly on the
    usable arcs and leaves it at zero on the forced ones."""
    A = build_A(m, mode="ds")
    rows, a = A.shape
    eps = 1.0 / (4.0 * a)
    # variables [x, u, s] with u - x + s = 0
    c = np.concatenate([np.zeros(a), -np.ones(a), np.zeros(a)])
    aeq = np.block(
        [
            [A, np.zeros((rows, a)), np.zeros((rows, a))],
            [-np.eye(a), np.eye(a), np.eye(a)],
        ]
    )
    beq = np.concatenate([np.ones(rows), np.zeros(a)])
    lb = np.zeros(3 * a)
    ub = np.concatenate([np.ones(a), np.full(a, eps), np.full(a, np.inf)])
    res = lp_solve(LinearProgram(c=c, a_eq=aeq, b_eq=beq, lb=lb, ub=ub))
    if res.status != "optimal":
        raise NoInteriorPoint("no doubly stochastic point on this support")
    u = res.x[a : 2 * a]
    return tuple(int(k) for k in np.flatnonzero(u <= 0.5 * eps))


def restore_S(xbar: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """Renormalize every out-neighborhood to sum one. Rows that lost exactly
    one variable of weight w are scaled by 1/(1-w); untouched rows are left
    as they were."""
    x = np.asarray(xbar, dtype=float)
    sums = np.bincount(m.row, weights=x)[m.row]
    if np.any(sums <= 0.0):
        i, _ = m.arcs[int(np.argmax(sums <= 0.0))]
        raise StarvationError(f"row {i} has zero mass after surgery")
    return x / sums


def restore_DS(
    xbar: np.ndarray,
    A: np.ndarray,
    x_min: float | None = None,
    x_min_floor: float = 1e-10,
) -> tuple:
    """Reconcile row and column sums after surgery by a bounded-change LP.

    Decision variables are an increase u in [0, 1-xbar], a decrease v in
    [0, xbar - x_min], and a scalar artificial gamma multiplying the sum
    residual s; gamma is priced at rho = 1e3 (1 + |s|_1) so any fully
    feasible reconciliation beats a residual one. When even the smallest
    x_min leaves gamma positive, the variables pinned at the floor are
    returned for deletion."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    e = np.ones(A.shape[0])
    s = e - A @ xbar
    rho = 1e3 * (1.0 + float(np.abs(s).sum()))
    if x_min is None:
        x_min = max(float(np.min(xbar)), x_min_floor)
    last = None
    for _ in range(11):
        ub_v = np.maximum(xbar - x_min, 0.0)
        ub_u = np.maximum(1.0 - xbar, 0.0)
        c = np.concatenate([np.ones(a), np.ones(a), [rho]])
        aeq = np.hstack([A, -A, s.reshape(-1, 1)])
        lb = np.zeros(2 * a + 1)
        ub = np.concatenate([ub_u, ub_v, [1.0]])
        res = lp_solve(LinearProgram(c=c, a_eq=aeq, b_eq=s, lb=lb, ub=ub))
        if res.status != "optimal":
            raise StarvationError("restoration program infeasible")
        gamma = float(res.x[-1])
        x = xbar + res.x[:a] - res.x[a : 2 * a]
        last = (x, x_min)
        if gamma <= 1e-9:
            return _polish_equalities(x, A), ()
        if x_min <= x_min_floor:
            break
        x_min = max(0.5 * x_min, x_min_floor)
    x, x_min = last
    forced = tuple(int(k) for k in np.flatnonzero(x <= x_min + 1e-9))
    return x, forced


def restore_DS_qp(
    xbar: np.ndarray,
    A: np.ndarray,
    x_min: float | None = None,
    x_min_floor: float = 1e-10,
) -> tuple:
    """Least-distance variant: project xbar onto the sum constraints with
    bounds [x_min, 1], halving x_min while that box is infeasible. Falls back
    to the LP diagnosis when no x_min works, so deletions are identified the
    same way on both paths."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    e = np.ones(A.shape[0])
    if x_min is None:
        x_min = max(float(np.min(xbar)), x_min_floor)
    for _ in range(11):
        x, status = qp_least_distance(
            xbar, A, e, np.full(a, x_min), np.ones(a)
        )
        if status == "optimal":
            return _polish_equalities(x, A), ()
        if x_min <= x_min_floor:
            break
        x_min = max(0.5 * x_min, x_min_floor)
    return restore_DS(xbar, A, x_min=x_min_floor, x_min_floor=x_min_floor)


def round_to_hc(
    x: np.ndarray,
    m: ArcVarMap,
    mode: str,
    history=(),
    original: Graph | None = None,
) -> CycleCertificate | None:
    """Greedy permutation rounding. Rows are visited once, largest mass
    first; within a row the largest entry in a still-free column wins, with
    ties to the lower column. A pick that would close a short cycle is
    deferred while any alternative column remains. Row mode rescales the
    remaining rows after every fixed column. Returns the expanded, validated
    cycle, or None."""
    nodes = m.nodes
    rr = len(nodes)
    work = np.zeros((rr, rr))
    work[m.row, m.col] = x
    exists = np.zeros((rr, rr), dtype=bool)
    exists[m.row, m.col] = True
    order = sorted(range(rr), key=lambda r: (-np.max(work[r][exists[r]], initial=0.0), r))
    succ: dict = {}
    used: set = set()

    def closes_short(r: int, c: int) -> bool:
        node = c
        seen = 0
        while node in succ and seen <= rr:
            node = succ[node]
            seen += 1
        return node == r and len(succ) + 1 < rr

    for r in order:
        cands = [c for c in range(rr) if exists[r, c] and c not in used]
        if not cands:
            return None
        open_c = [c for c in cands if not closes_short(r, c)]
        pool = open_c if open_c else cands
        c = max(pool, key=lambda cc: (work[r, cc], -cc))
        succ[r] = c
        used.add(c)
        if mode == "s":
            for r2 in range(rr):
                if r2 in succ:
                    continue
                v = work[r2, c]
                work[r2, c] = 0.0
                if 0.0 < v < 1.0:
                    work[r2] /= 1.0 - v
    # single cycle covering all rows?
    node = 0
    for count in range(rr):
        node = succ[node]
        if node == 0:
            if count != rr - 1:
                return None
            break
    seq = [nodes[0]]
    node = succ[0]
    while node != 0:
        seq.append(nodes[node])
        node = succ[node]
    reduced = CycleCertificate(seq=tuple(seq)).canonical()
    try:
        if history:
            return expand_cycle(list(history), reduced, original=original)
        if original is not None:
            reduced.validate(original)
        return reduced
    except Exception:
        return None


def _carry_values(x, m_old: ArcVarMap, m_new: ArcVarMap, redirect_map) -> np.ndarray:
    out = np.zeros(m_new.n_arcs)
    for k, arc in enumerate(m_new.arcs):
        src = redirect_map.get(arc, arc)
        out[k] = x[m_old.index[src]]
    return out


def dipa_solve(g: Graph, params: DipaParams | None = None) -> SolveReport:
    params = params or DipaParams()
    params.validate()
    t0 = time.monotonic()
    mode = params.mode
    original = g
    trace: list = []
    records: list = []
    deflations = 0
    deletions = 0
    iterations = 0

    def report(status, cycle=None, message="", x=None, m=None):
        f_final = math.nan
        if x is not None and m is not None:
            try:
                f_final = detfun.value_only(x, m, mode)
            except Exception:
                pass
        return SolveReport(
            status=status,
            cycle=cycle,
            iterations=iterations,
            deflations=deflations,
            deletions=deletions,
            trace=trace,
            message=message,
            wall_time=time.monotonic() - t0,
            f_final=f_final,
            mode=mode,
            n=g.n,
        )

    if not is_connected(g):
        return report(NO_HC_DISCONNECTED, message="input graph is disconnected")

    m = build_arc_map(g)
    if params.drop_one_var:
        try:
            m = delete_arc(m, m.arcs[0])
            deletions += 1
        except StarvationError as exc:
            return report(NO_HC_DISCONNECTED, message=str(exc))

    try:
        x = initial_interior(m, mode)
    except NoInteriorPoint as exc:
        if mode != "ds":
            return report(GAVE_UP, message=str(exc))
        # arcs no permutation can use pin part of the polytope to its
        # boundary; deleting them restores a strict interior
        try:
            forced = forced_zero_arcs(m)
        except NoInteriorPoint as exc2:
            return report(NO_HC_DISCONNECTED, message=str(exc2))
        if not forced:
            return report(GAVE_UP, message=str(exc))
        try:
            for arc in [m.arcs[k] for k in forced]:
                m = delete_arc(m, arc)
                deletions += 1
        except StarvationError as exc2:
            return report(NO_HC_DISCONNECTED, message=str(exc2))
        if not is_connected(support_graph(m.nodes, m.arcs)):
            return report(NO_HC_DISCONNECTED, message="support disconnected after reduction")
        try:
            x = initial_interior(m, mode)
        except NoInteriorPoint as exc2:
            return report(GAVE_UP, message=str(exc2))

    def make_work(m_now: ArcVarMap) -> PhaseContext:
        return PhaseContext(
            z=build_Z(m_now, mode=mode),
            m=m_now,
            mode=mode,
            grad_tol=params.grad_tol,
            alpha=params.alpha,
            max_iter=params.max_phase_iter,
        )

    work = make_work(m)

    # barrier-only phase settles the neutral analytic center
    neutral_ctx = replace(work, grad_tol=NEUTRAL_TOL)
    x = minimize_phase(x, BarrierSpec(mu=math.inf, upper_log=params.upper_log), neutral_ctx)

    mu = params.mu_initial
    state = InnerState()

    def out_of_time() -> bool:
        return time.monotonic() - t0 > params.time_limit

    def surgery(x: np.ndarray):
        """Threshold sweep: deflate any variable at or above the deflation
        threshold (lowest index first), else delete any at or below the
        deletion threshold, restoring feasibility after every change and
        rescanning until clean. Returns (x, m, dead_end): x lives on the map
        m, which is work.m when nothing changed; dead_end is None, or a
        message when a change starved or disconnected the support or its
        restoration failed, and then x and m are from before that change.
        A dead end proves nothing about the input graph."""
        nonlocal deflations, deletions
        m_now = work.m
        forced_arcs: list = []
        while True:
            action = None
            arc = None
            while forced_arcs:
                cand = forced_arcs.pop(0)
                if cand in m_now.index:
                    arc, action = cand, "delete"
                    break
            if action is None:
                high = np.flatnonzero(x >= params.deflation_threshold)
                low = np.flatnonzero(x <= params.deletion_threshold)
                if high.size:
                    arc, action = m_now.arcs[int(high[0])], "deflate"
                elif low.size:
                    arc, action = m_now.arcs[int(low[0])], "delete"
                else:
                    break
            try:
                if action == "deflate":
                    m2, rec = deflate(m_now, arc)
                    redirect_map = {new: old for old, new in rec.redirected}
                    x2 = _carry_values(x, m_now, m2, redirect_map)
                    records.append(rec)
                    deflations += 1
                else:
                    m2 = delete_arc(m_now, arc)
                    keep = [kk for kk, aa in enumerate(m_now.arcs) if aa != arc]
                    x2 = x[keep]
                    deletions += 1
                if not is_connected(support_graph(m2.nodes, m2.arcs)):
                    return x, m_now, "surgery dead end: support disconnected"
                if mode == "s":
                    x2 = restore_S(x2, m2)
                    new_forced: tuple = ()
                else:
                    a2 = build_A(m2, mode="ds")
                    if params.restore == "lp":
                        x2, nf = restore_DS(x2, a2)
                    else:
                        x2, nf = restore_DS_qp(x2, a2)
                    new_forced = tuple(m2.arcs[int(k)] for k in nf)
            except (StarvationError, LPError) as exc:
                return x, m_now, f"surgery dead end: {exc}"
            for k in np.flatnonzero(x2 <= 0.0):
                bad = m2.arcs[int(k)]
                if bad not in new_forced:
                    new_forced = new_forced + (bad,)
            m_now = m2
            x = x2
            for aa in new_forced:
                if aa not in forced_arcs:
                    forced_arcs.append(aa)
        return x, m_now, None

    spec = BarrierSpec(mu=mu, upper_log=params.upper_log)
    # step_once calls since the last trigger; surgery does not reset it
    phase_steps = 0
    while True:
        if out_of_time():
            return report(GAVE_UP, message="time limit", x=x, m=work.m)
        if iterations >= params.max_outer:
            return report(GAVE_UP, message="outer iteration cap", x=x, m=work.m)
        iterations += 1

        info = step_once(x, spec, work, state)
        x = info.x
        phase_steps += 1
        # a phase that spends its budget keeps its last step and ends like a
        # converged one
        if info.kind in ("converged", "stall") or phase_steps >= params.max_phase_iter:
            if info.kind == "stall" and not info.modified:
                x = newton_polish(x, spec, work)
            mu2 = mu_trigger(x, spec, work, params.mu_shrink)
            trace.append(
                TraceRow(
                    it=iterations, mu=mu, f=info.f, phi=info.phi, merit=info.merit,
                    step=0.0, kind="trigger", delta_hat=0.0,
                    x_min=float(np.min(x)), deflations=deflations,
                )
            )
            if mu2 < MU_MIN:
                message = "barrier weight exhausted"
                if np.all(np.minimum(x, np.abs(1.0 - x)) <= 0.25):
                    message += " at a near-binary non-cycle point"
                return report(GAVE_UP, message=message, x=x, m=work.m)
            mu = mu2
            spec = BarrierSpec(mu=mu, upper_log=params.upper_log)
            state = InnerState()
            phase_steps = 0
            continue

        trace.append(
            TraceRow(
                it=iterations, mu=mu, f=info.f, phi=info.phi, merit=info.merit,
                step=info.step, kind=info.kind, delta_hat=info.delta_hat,
                x_min=float(np.min(x)), deflations=deflations,
            )
        )

        cert = round_to_hc(x, work.m, mode, records, original)
        if cert is not None:
            return report(HC_FOUND, cycle=cert, x=x, m=work.m)

        x, m_now, dead_end = surgery(x)
        if dead_end is not None:
            return report(GAVE_UP, message=dead_end, x=x, m=m_now)
        if m_now is not work.m:
            work = make_work(m_now)
            if work.z.dim <= 0:
                cert = round_to_hc(x, work.m, mode, records, original)
                if cert is not None:
                    return report(HC_FOUND, cycle=cert, x=x, m=work.m)
                return report(
                    GAVE_UP,
                    message="reduced problem fully determined but not a cycle",
                    x=x, m=work.m,
                )
            state = InnerState()
