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

from dipa import detfun, inner
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
    support_connected,
)
from dipa.inner import (
    BarrierSpec,
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
# the factor each trigger shrinks the barrier weight by, at least: from
# mu_initial <= 1 a solve gives up by its 9th trigger, so after at most
# 9 * inner.MAX_PHASE_ITER steps
MU_SHRINK = 0.1
# gradient tolerance of the barrier-only phase that settles the neutral point
NEUTRAL_TOL = 1e-10
# the smallest lower bound x_min of the restoration box
X_MIN_FLOOR = 1e-10


class NoInteriorPoint(RuntimeError):
    """The relaxation admits no strictly positive feasible point."""


@dataclass(frozen=True)
class DipaParams:
    mode: str = "ds"
    mu_initial: float = 0.01
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
        if not 0.5 < self.deflation_threshold <= 1.0 - 1e-13:
            raise ValueError("deflation threshold must sit in (0.5, 1)")
        if not 0.0 <= self.deletion_threshold < 0.01:
            raise ValueError("deletion threshold must sit in [0, 0.01)")
        if self.restore not in ("lp", "qp"):
            raise ValueError(f"restore must be 'lp' or 'qp', got {self.restore!r}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if not self.time_limit > 0.0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit!r}")


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
    f_final: float = math.nan


def initial_interior(m: ArcVarMap, mode: str) -> np.ndarray:
    """Strictly positive feasible start. Row mode spreads each row uniformly;
    doubly stochastic mode maximizes the uniform slack t with x = w + t e.
    Once no arc is forced to zero (forced_zero_arcs), the average of one
    perfect matching per arc gives t >= 1/a."""
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


def neutral_start(m: ArcVarMap, params: DipaParams) -> tuple:
    """(x, ctx): x is the neutral analytic center that the barrier-only
    phase settles from initial_interior at gradient tolerance NEUTRAL_TOL,
    and ctx the phase context of every solve phase on m."""
    x = initial_interior(m, params.mode)
    ctx = PhaseContext(z=build_Z(m, mode=params.mode), m=m, grad_tol=params.grad_tol)
    spec = BarrierSpec(mu=math.inf, upper_log=params.upper_log)
    return minimize_phase(x, spec, replace(ctx, grad_tol=NEUTRAL_TOL)), ctx


def propose_mu(lam_hat: float, lam_bar: float, mu: float) -> float:
    """Next barrier weight: MU_SHRINK times mu, capped so that a known
    negative objective curvature lam_hat survives against the barrier's
    largest reduced curvature lam_bar."""
    mu2 = MU_SHRINK * mu
    if lam_hat < 0.0 and lam_bar > 0.0:
        mu2 = min(mu2, 0.5 * abs(lam_hat) / lam_bar)
    return mu2


def mu_trigger(x: np.ndarray, spec: BarrierSpec, ctx: PhaseContext) -> float:
    """Barrier weight after the phase at spec ends at x: propose_mu on the
    objective's least reduced curvature lam_hat and the barrier's largest
    lam_bar. When lam_hat < 0 its cap keeps the reduced merit Hessian
    indefinite: along lam_hat's eigenvector the curvature is at most
    lam_hat + mu2 lam_bar <= lam_hat / 2."""
    hd = detfun.hess(x, ctx.m, mode=ctx.z.mode)
    hz = ctx.z.reduce_hessian(hd)
    lam_hat = float(np.linalg.eigvalsh(hz)[0]) if hz.size else 0.0
    _, _, hphi = barrier_eval(x, spec)
    pz = ctx.z.reduce_diag_quadform(hphi)
    lam_bar = float(np.linalg.eigvalsh(pz)[-1]) if pz.size else 1.0
    return propose_mu(lam_hat, lam_bar, spec.mu)


def forced_zero_arcs(m: ArcVarMap) -> tuple:
    """Indices of the arcs that carry zero weight in every doubly stochastic
    point of the support, ascending. By Birkhoff-von Neumann those points are
    the convex combinations of the perfect matchings (row i to column j for
    each arc (i, j)) inside the support, so an arc is forced exactly when it
    lies in no perfect matching. With one perfect matching in hand, an
    unmatched arc (i, j) lies in another exactly when i and the row matched
    to j share a strong component of the digraph with an edge from i to that
    row for each unmatched arc (Dulmage-Mendelsohn). Raises NoInteriorPoint
    when the support has no perfect matching."""
    n = len(m.nodes)
    succ: list = [[] for _ in range(n)]
    for i, j in zip(m.row.tolist(), m.col.tolist()):
        succ[i].append(j)
    # augmenting paths, one breadth-first search from each row
    mate = [-1] * n  # column matched to row i
    owner = [-1] * n  # row matched to column j
    for r in range(n):
        came_from = {}
        queue = [r]
        free = -1
        for i in queue:
            for j in succ[i]:
                if j not in came_from:
                    came_from[j] = i
                    if owner[j] < 0:
                        free = j
                        break
                    queue.append(owner[j])
            if free >= 0:
                break
        if free < 0:
            raise NoInteriorPoint("no perfect matching on this support")
        j = free
        while j >= 0:
            i = came_from[j]
            owner[j], mate[i], j = i, j, mate[i]
    # the edge of arc (i, j) runs from i to the row matched to j; a matched
    # arc gives the loop i -> i and always passes
    to = np.array(owner)[m.col]
    reach = np.eye(n, dtype=bool)
    reach[m.row, to] = True
    # transitive closure by repeated boolean squaring
    while True:
        closed = reach @ reach
        if np.array_equal(closed, reach):
            break
        reach = closed
    strong = reach & reach.T
    return tuple(int(k) for k in np.flatnonzero(~strong[m.row, to]))


def drop_forced(m: ArcVarMap) -> tuple:
    """m without the arcs forced_zero_arcs finds, deleted in one map
    rebuild: (reduced map, keep, number deleted), keep as delete_arc gives
    it. Raises NoInteriorPoint when the support has no perfect matching."""
    forced = forced_zero_arcs(m)
    if not forced:
        return m, np.arange(m.n_arcs), 0
    m2, keep = delete_arc(m, forced)
    return m2, keep, len(forced)


def restore_S(xbar: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """Renormalize every out-neighborhood to sum one by dividing each row by
    its sum, untouched rows too: a row that summed to one before surgery and
    lost a variable of weight w is scaled by 1/(1-w), and an untouched row
    moves only by the rounding of its sum. Raises StarvationError when a row
    has no mass left."""
    x = np.asarray(xbar, dtype=float)
    sums = np.bincount(m.row, weights=x)[m.row]
    if np.any(sums <= 0.0):
        i = m.nodes[m.row[np.argmax(sums <= 0.0)]]
        raise StarvationError(f"row {i} has zero mass after surgery")
    return x / sums


def _restore_floor(xbar: np.ndarray) -> float:
    """Lower bound x_min of the restoration box: min(xbar), kept at or above
    X_MIN_FLOOR and at or below 1/a. Once no arc is forced to zero, the
    average of one perfect matching per arc is a doubly stochastic point
    with every entry at least 1/a, so the box is never empty."""
    return min(max(float(np.min(xbar)), X_MIN_FLOOR), 1.0 / len(xbar))


def restore_DS(xbar: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Reconcile row and column sums after surgery by one bounded-change LP.

    Decision variables are an increase u in [0, 1-xbar], a decrease v in
    [0, xbar - x_min], and a scalar artificial gamma multiplying the sum
    residual s; gamma is priced at rho = 1e3 (1 + |s|_1) so any fully
    feasible reconciliation beats a residual one. The support must carry no
    arc forced to zero (forced_zero_arcs), which makes gamma = 0 feasible;
    a solve that still ends with gamma positive, or not optimal, raises
    StarvationError."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    s = np.ones(A.shape[0]) - A @ xbar
    rho = 1e3 * (1.0 + float(np.abs(s).sum()))
    x_min = _restore_floor(xbar)
    c = np.concatenate([np.ones(a), np.ones(a), [rho]])
    aeq = np.hstack([A, -A, s.reshape(-1, 1)])
    lb = np.zeros(2 * a + 1)
    ub = np.concatenate([np.maximum(1.0 - xbar, 0.0), np.maximum(xbar - x_min, 0.0), [1.0]])
    uvg, status = lp_solve(c, aeq, s, lb, ub)
    if status != "optimal" or uvg[-1] > 1e-9:
        raise StarvationError("restoration program infeasible")
    return _polish_equalities(xbar + uvg[:a] - uvg[a : 2 * a], A)


def restore_DS_qp(xbar: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Least-distance variant: the Euclidean projection of xbar onto the sum
    constraints within the box [x_min, 1], with restore_DS's x_min, by one
    qp_least_distance call. Raises StarvationError when it is not optimal."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    x, status = qp_least_distance(
        xbar, A, np.ones(A.shape[0]), np.full(a, _restore_floor(xbar)), np.ones(a)
    )
    if status != "optimal":
        raise StarvationError("restoration program infeasible")
    return _polish_equalities(x, A)


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
    trace: list = []
    # one deflation record per deflation, including one a dead end undid
    records: list = []
    deletions = 0
    iterations = 0

    def report(status, cycle=None, message="", x=None, m=None):
        return SolveReport(
            status=status,
            cycle=cycle,
            iterations=iterations,
            deflations=len(records),
            deletions=deletions,
            trace=trace,
            message=message,
            f_final=math.nan if x is None else detfun.value_only(x, m, mode),
        )

    # a Hamiltonian cycle has at least 3 nodes and leaves each node to a
    # neighbour other than the one it came from
    if g.n < 3:
        return report(NO_HC_DISCONNECTED, message=f"{g.n} nodes, fewer than 3")
    m = build_arc_map(g)
    thin = np.flatnonzero(np.bincount(m.row, minlength=g.n) < 2)
    if thin.size:
        v = m.nodes[thin[0]]
        return report(NO_HC_DISCONNECTED, message=f"node {v} has fewer than two neighbours")
    if not support_connected(m):
        return report(NO_HC_DISCONNECTED, message="input graph is disconnected")
    if params.drop_one_var:
        # every node keeps at least one out-arc and one in-arc: it has two
        # neighbours, and each edge gives both arcs
        m, _ = delete_arc(m, [0])
        deletions += 1
    if mode == "ds":
        # arcs in no perfect matching are zero at every doubly stochastic
        # point, so at every Hamiltonian cycle; deleting them leaves a
        # support with a strict interior
        try:
            m, _, forced = drop_forced(m)
        except NoInteriorPoint as exc:
            return report(NO_HC_DISCONNECTED, message=str(exc))
        deletions += forced
        if not support_connected(m):
            return report(NO_HC_DISCONNECTED, message="support disconnected after reduction")
    x, work = neutral_start(m, params)

    def surgery(x: np.ndarray):
        """Threshold sweep: deflate any variable at or above the deflation
        threshold (lowest index first), else delete any at or below the
        deletion threshold, rescanning until clean. In ds mode every change
        is followed by deleting the arcs it left in no perfect matching,
        and x moves to the reduced map once, through the composed keep.
        Then the support's connectivity is checked and feasibility restored.
        Returns (x, m, dead_end): x lives on the map m, which is work.m when
        nothing changed; dead_end is None, or a message when a change
        starved or disconnected the support, left it without a perfect
        matching, or its restoration failed, and then x and m are from
        before that change. A dead end proves nothing about the input
        graph."""
        nonlocal deletions
        m_now = work.m
        while True:
            high = np.flatnonzero(x >= params.deflation_threshold)
            low = np.flatnonzero(x <= params.deletion_threshold)
            if not (high.size or low.size):
                return x, m_now, None
            try:
                if high.size:
                    m2, keep, rec = deflate(m_now, int(high[0]))
                    records.append(rec)
                else:
                    m2, keep = delete_arc(m_now, low[:1])
                    deletions += 1
                if mode == "ds":
                    m2, keep2, forced = drop_forced(m2)
                    keep = keep[keep2]
                    deletions += forced
                if not support_connected(m2):
                    return x, m_now, "surgery dead end: support disconnected"
                x2 = x[keep]
                if mode == "s":
                    x2 = restore_S(x2, m2)
                elif params.restore == "lp":
                    x2 = restore_DS(x2, build_A(m2, mode="ds"))
                else:
                    x2 = restore_DS_qp(x2, build_A(m2, mode="ds"))
            except (StarvationError, NoInteriorPoint, LPError) as exc:
                return x, m_now, f"surgery dead end: {exc}"
            m_now = m2
            x = x2

    spec = BarrierSpec(mu=params.mu_initial, upper_log=params.upper_log)
    # the curvature estimate step_once carries from step to step
    delta_hat = 0.0
    # step_once calls since the last trigger; surgery does not reset it
    phase_steps = 0
    while True:
        if time.monotonic() - t0 > params.time_limit:
            return report(GAVE_UP, message="time limit", x=x, m=work.m)
        iterations += 1

        info = step_once(x, spec, work, delta_hat)
        x, delta_hat = info.x, info.delta_hat
        phase_steps += 1
        # a phase that spends its budget keeps its last step and ends like a
        # converged one
        if info.kind in ("converged", "stall") or phase_steps >= inner.MAX_PHASE_ITER:
            f, phi, merit = info.f, info.phi, info.merit
            if info.kind == "stall" and not info.modified:
                x = newton_polish(x, spec, work)
                # the row reports the polished point, so it values it too
                f = detfun.value_only(x, work.m, mode)
                phi, _, _ = barrier_eval(x, spec)
                merit = f + spec.mu * phi
            mu2 = mu_trigger(x, spec, work)
            trace.append(
                TraceRow(
                    it=iterations, mu=spec.mu, f=f, phi=phi, merit=merit,
                    step=0.0, kind="trigger", delta_hat=0.0,
                    x_min=float(np.min(x)), deflations=len(records),
                )
            )
            if mu2 < MU_MIN:
                message = "barrier weight exhausted"
                if np.all(np.minimum(x, np.abs(1.0 - x)) <= 0.25):
                    message += " at a near-binary non-cycle point"
                return report(GAVE_UP, message=message, x=x, m=work.m)
            spec = BarrierSpec(mu=mu2, upper_log=params.upper_log)
            delta_hat = 0.0
            phase_steps = 0
            continue

        trace.append(
            TraceRow(
                it=iterations, mu=spec.mu, f=info.f, phi=info.phi, merit=info.merit,
                step=info.step, kind=info.kind, delta_hat=info.delta_hat,
                x_min=float(np.min(x)), deflations=len(records),
            )
        )

        cert = round_to_hc(x, work.m, records, g)
        if cert is not None:
            return report(HC_FOUND, cycle=cert, x=x, m=work.m)

        x, m_now, dead_end = surgery(x)
        if dead_end is not None:
            return report(GAVE_UP, message=dead_end, x=x, m=m_now)
        if m_now is not work.m:
            work = replace(work, z=build_Z(m_now, mode=mode), m=m_now)
            if work.z.dim <= 0:
                cert = round_to_hc(x, work.m, records, g)
                if cert is not None:
                    return report(HC_FOUND, cycle=cert, x=x, m=work.m)
                return report(
                    GAVE_UP,
                    message="reduced problem fully determined but not a cycle",
                    x=x, m=work.m,
                )
            delta_hat = 0.0
