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
from dataclasses import astuple, dataclass, replace

import numpy as np

from dipa import detfun
from dipa.graph import (
    ArcVarMap,
    CycleCertificate,
    Graph,
    GraphError,
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
from dipa.lp import LPError, lp_solve, qp_least_distance
from dipa.nullspace import build_A, build_Z

HC_FOUND = "HC-found"
NO_HC_DISCONNECTED = "no-HC-disconnected"
GAVE_UP = "gave-up"

# the barrier weight below which the path gives up
MU_MIN = 1e-8
# gradient tolerance of the barrier-only phase that settles the neutral point
NEUTRAL_TOL = 1e-10
# step budget of every barrier phase; a phase that spends it ends like a
# converged one
MAX_PHASE_ITER = 500
# step budget of the main loop; a solve that spends it gives up
MAX_OUTER = 20000
# the smallest lower bound x_min that restoration tries before it names the
# arcs forced to zero
X_MIN_FLOOR = 1e-10


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
        """The fields in declaration order: floats as %.17g, which writes
        infinity as inf, the rest with str."""
        return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in astuple(self))


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
    wt, status = lp_solve(c, aeq, np.ones(rows), lb, ub)
    if status != "optimal" or wt[-1] <= 1e-12:
        raise NoInteriorPoint("no strictly interior doubly stochastic point")
    x = wt[:a] + wt[-1]
    return _polish_equalities(x, A)


def _polish_equalities(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    resid = np.ones(A.shape[0]) - A @ x
    if np.max(np.abs(resid)) > 1e-10:
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
    """Barrier weight after the phase at spec ends at x: propose_mu on the
    objective's least reduced curvature lam_hat and the barrier's largest
    lam_bar. When lam_hat < 0 its cap keeps the reduced merit Hessian
    indefinite: along lam_hat's eigenvector the curvature is at most
    lam_hat + mu2 lam_bar <= lam_hat / 2."""
    hd = detfun.hess(x, ctx.m, mode=ctx.mode)
    hz = ctx.z.reduce_hessian(hd)
    lam_hat = float(np.linalg.eigvalsh(hz)[0]) if hz.size else 0.0
    _, _, hphi = barrier_eval(x, spec)
    pz = ctx.z.reduce_diag_quadform(hphi)
    lam_bar = float(np.linalg.eigvalsh(pz)[-1]) if pz.size else 1.0
    return propose_mu(lam_hat, lam_bar, spec.mu, shrink)


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
    xus, status = lp_solve(c, aeq, beq, lb, ub)
    if status != "optimal":
        raise NoInteriorPoint("no doubly stochastic point on this support")
    u = xus[a : 2 * a]
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


def restore_DS(xbar: np.ndarray, A: np.ndarray, x_min: float | None = None) -> tuple:
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
        x_min = max(float(np.min(xbar)), X_MIN_FLOOR)
    # only the decrease bound ub_v changes along the x_min ladder
    c = np.concatenate([np.ones(a), np.ones(a), [rho]])
    aeq = np.hstack([A, -A, s.reshape(-1, 1)])
    lb = np.zeros(2 * a + 1)
    ub_u = np.maximum(1.0 - xbar, 0.0)
    last = None
    for _ in range(11):
        ub_v = np.maximum(xbar - x_min, 0.0)
        ub = np.concatenate([ub_u, ub_v, [1.0]])
        uvg, status = lp_solve(c, aeq, s, lb, ub)
        if status != "optimal":
            raise StarvationError("restoration program infeasible")
        gamma = float(uvg[-1])
        x = xbar + uvg[:a] - uvg[a : 2 * a]
        last = (x, x_min)
        if gamma <= 1e-9:
            return _polish_equalities(x, A), ()
        if x_min <= X_MIN_FLOOR:
            break
        x_min = max(0.5 * x_min, X_MIN_FLOOR)
    x, x_min = last
    forced = tuple(int(k) for k in np.flatnonzero(x <= x_min + 1e-9))
    return x, forced


def restore_DS_qp(xbar: np.ndarray, A: np.ndarray) -> tuple:
    """Least-distance variant: project xbar onto the sum constraints with
    bounds [x_min, 1], halving x_min while that box is infeasible. Falls back
    to the LP diagnosis when no x_min works, so deletions are identified the
    same way on both paths."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    e = np.ones(A.shape[0])
    x_min = max(float(np.min(xbar)), X_MIN_FLOOR)
    for _ in range(11):
        x, status = qp_least_distance(
            xbar, A, e, np.full(a, x_min), np.ones(a)
        )
        if status == "optimal":
            return _polish_equalities(x, A), ()
        if x_min <= X_MIN_FLOOR:
            break
        x_min = max(0.5 * x_min, X_MIN_FLOOR)
    return restore_DS(xbar, A, x_min=X_MIN_FLOOR)


def round_to_hc(
    x: np.ndarray,
    m: ArcVarMap,
    records: list,
    original: Graph,
) -> CycleCertificate | None:
    """Greedy permutation rounding. Rows are visited once, largest mass
    first; within a row the largest entry in a still-free column wins, with
    ties to the lower column. A pick that would close a short cycle is
    deferred while any alternative column remains, and ends the rounding
    when none does. Returns the cycle expanded through records and validated
    against original, or None."""
    nodes = m.nodes
    rr = len(nodes)
    work = np.zeros((rr, rr))
    work[m.row, m.col] = x
    free = np.zeros((rr, rr), dtype=bool)
    free[m.row, m.col] = True
    succ = np.full(rr, -1)
    # the picks form disjoint paths: end[c] is the last node of the path
    # starting at c, start[r] the first node of the path ending at r
    start = np.arange(rr)
    end = np.arange(rr)
    for picks, r in enumerate(np.argsort(-work.max(axis=1), kind="stable")):
        cands = np.flatnonzero(free[r])
        if not cands.size:
            return None
        closing = end[cands] == r
        if picks + 1 < rr and closing.any():
            if closing.all():
                return None
            cands = cands[~closing]
        c = int(cands[np.argmax(work[r, cands])])
        succ[r] = c
        free[:, c] = False
        head, tail = start[r], end[c]
        end[head], start[tail] = tail, head
    seq = [nodes[0]]
    node = succ[0]
    while node != 0:
        seq.append(nodes[node])
        node = succ[node]
    try:
        return expand_cycle(records, CycleCertificate(seq=tuple(seq)).canonical(), original)
    except GraphError:
        return None


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
        )

    # a Hamiltonian cycle has at least 3 nodes and leaves each node to a
    # neighbour other than the one it came from
    if g.n < 3:
        return report(NO_HC_DISCONNECTED, message=f"{g.n} nodes, fewer than 3")
    degree = dict.fromkeys(g.nodes, 0)
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
    thin = [v for v in g.nodes if degree[v] < 2]
    if thin:
        return report(NO_HC_DISCONNECTED, message=f"node {thin[0]} has fewer than two neighbours")
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
        # only the ds start can fail (the s start is 1 over each row's
        # degree). Arcs no permutation can use pin part of the polytope to
        # its boundary; deleting them restores a strict interior
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
            max_iter=MAX_PHASE_ITER,
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
                    back = {new: old for old, new in rec.redirected}
                    x2 = x[[m_now.index[back.get(a, a)] for a in m2.arcs]]
                    records.append(rec)
                    deflations += 1
                else:
                    m2 = delete_arc(m_now, arc)
                    x2 = np.delete(x, m_now.index[arc])
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
        if iterations >= MAX_OUTER:
            return report(GAVE_UP, message="outer iteration cap", x=x, m=work.m)
        iterations += 1

        info = step_once(x, spec, work, state)
        x = info.x
        phase_steps += 1
        # a phase that spends its budget keeps its last step and ends like a
        # converged one
        if info.kind in ("converged", "stall") or phase_steps >= MAX_PHASE_ITER:
            f, phi, merit = info.f, info.phi, info.merit
            if info.kind == "stall" and not info.modified:
                x = newton_polish(x, spec, work)
                # the row reports the polished point, so it values it too
                f = detfun.value_only(x, work.m, mode)
                phi, _, _ = barrier_eval(x, spec)
                merit = f + spec.mu * phi
            mu2 = mu_trigger(x, spec, work, params.mu_shrink)
            trace.append(
                TraceRow(
                    it=iterations, mu=mu, f=f, phi=phi, merit=merit,
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

        cert = round_to_hc(x, work.m, records, original)
        if cert is not None:
            return report(HC_FOUND, cycle=cert, x=x, m=work.m)

        x, m_now, dead_end = surgery(x)
        if dead_end is not None:
            return report(GAVE_UP, message=dead_end, x=x, m=m_now)
        if m_now is not work.m:
            work = make_work(m_now)
            if work.z.dim <= 0:
                cert = round_to_hc(x, work.m, records, original)
                if cert is not None:
                    return report(HC_FOUND, cycle=cert, x=x, m=work.m)
                return report(
                    GAVE_UP,
                    message="reduced problem fully determined but not a cycle",
                    x=x, m=work.m,
                )
            state = InnerState()
