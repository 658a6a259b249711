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
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from dipa import detfun, inner
from dipa.graph import (
    ArcVarMap,
    CycleCertificate,
    Graph,
    GraphError,
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
    """The relaxation admits no strictly positive feasible point: the
    support has no perfect matching or is disconnected without the arcs in
    none (drop_forced), or a restoration after surgery found no point."""


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
        """The field names in declaration order, it written as iter."""
        return ",".join("iter" if f.name == "it" else f.name for f in fields(TraceRow))

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
    A = build_A(m)
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
    lam_hat = float(np.linalg.eigvalsh(ctx.z.reduce_hessian(hd))[0])
    _, _, hphi = barrier_eval(x, spec)
    lam_bar = float(np.linalg.eigvalsh(ctx.z.reduce_diag_quadform(hphi))[-1])
    return propose_mu(lam_hat, lam_bar, spec.mu)


def forced_zero_arcs(m: ArcVarMap) -> tuple:
    """Indices of the arcs that carry zero weight in every doubly stochastic
    point of the support, ascending. By Birkhoff-von Neumann those points are
    the convex combinations of the perfect matchings (row i to column j for
    each arc (i, j)) inside the support, so an arc is forced exactly when it
    lies in no perfect matching. With one perfect matching in hand, any one,
    an unmatched arc (i, j) lies in another exactly when i and the row
    matched to j share a strong component of the digraph with an edge from
    i to that row for each unmatched arc (Dulmage-Mendelsohn). Raises
    NoInteriorPoint when the support has no perfect matching."""
    n = len(m.nodes)
    rows, cols = m.row.tolist(), m.col.tolist()
    succ: list = [[] for _ in range(n)]
    for i, j in zip(rows, cols):
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
    comp = _strong_components([[owner[j] for j in row_cols] for row_cols in succ])
    return tuple(k for k, (i, j) in enumerate(zip(rows, cols)) if comp[i] != comp[owner[j]])


def _strong_components(succ: list) -> list:
    """Strong component label of every node of the digraph with successor
    lists succ, by one iterative Tarjan pass: linear in nodes plus edges."""
    n = len(succ)
    index = [-1] * n  # discovery order
    low = [0] * n
    comp = [-1] * n  # -1 while the node is unvisited or on the stack
    stack: list = []
    found = labels = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = found
        found += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = labels
                        if w == v:
                            break
                    labels += 1
    return comp


def drop_forced(m: ArcVarMap) -> tuple:
    """m without the arcs forced_zero_arcs finds, deleted in one map
    rebuild: (reduced map, keep, number deleted), keep as delete_arc gives
    it. The one check of every support a solve reduces to: raises
    NoInteriorPoint when the support has no perfect matching, which a node
    without an out-arc or an in-arc rules out, or when the reduced support
    is disconnected."""
    forced = forced_zero_arcs(m)
    m2, keep = delete_arc(m, forced) if forced else (m, np.arange(m.n_arcs))
    if not support_connected(m2):
        raise NoInteriorPoint("support disconnected")
    return m2, keep, len(forced)


def restore_S(xbar: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """Renormalize every out-neighborhood to sum one by dividing each row by
    its sum, untouched rows too: a row that summed to one before surgery and
    lost a variable of weight w is scaled by 1/(1-w), and an untouched row
    moves only by the rounding of its sum. Raises NoInteriorPoint when a row
    has no mass left."""
    x = np.asarray(xbar, dtype=float)
    sums = np.bincount(m.row, weights=x)[m.row]
    if np.any(sums <= 0.0):
        i = m.nodes[m.row[np.argmax(sums <= 0.0)]]
        raise NoInteriorPoint(f"row {i} has zero mass after surgery")
    return x / sums


def _restore_floor(xbar: np.ndarray) -> float:
    """Lower bound x_min of the restoration box: min(xbar), kept at or above
    X_MIN_FLOOR and at or below 1/a. Once no arc is forced to zero, the
    average of one perfect matching per arc is a doubly stochastic point
    with every entry at least 1/a, so the box is never empty."""
    return min(max(float(np.min(xbar)), X_MIN_FLOOR), 1.0 / len(xbar))


def restore_DS(xbar: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """Reconcile the row and column sums (build_A) of xbar on the map m after
    surgery by one bounded-change LP.

    Decision variables are an increase u in [0, 1-xbar], a decrease v in
    [0, xbar - x_min], and a scalar artificial gamma multiplying the sum
    residual s; gamma is priced at rho = 1e3 (1 + |s|_1) so any fully
    feasible reconciliation beats a residual one. The support must carry no
    arc forced to zero (forced_zero_arcs), which makes gamma = 0 feasible;
    a solve that still ends with gamma positive, or not optimal, raises
    NoInteriorPoint."""
    xbar = np.asarray(xbar, dtype=float)
    a = len(xbar)
    A = build_A(m)
    s = np.ones(A.shape[0]) - A @ xbar
    rho = 1e3 * (1.0 + float(np.abs(s).sum()))
    x_min = _restore_floor(xbar)
    c = np.concatenate([np.ones(a), np.ones(a), [rho]])
    aeq = np.hstack([A, -A, s.reshape(-1, 1)])
    lb = np.zeros(2 * a + 1)
    ub = np.concatenate([np.maximum(1.0 - xbar, 0.0), np.maximum(xbar - x_min, 0.0), [1.0]])
    uvg, status = lp_solve(c, aeq, s, lb, ub)
    if status != "optimal" or uvg[-1] > 1e-9:
        raise NoInteriorPoint("restoration program infeasible")
    return _polish_equalities(xbar + uvg[:a] - uvg[a : 2 * a], A)


def restore_DS_qp(xbar: np.ndarray, m: ArcVarMap) -> np.ndarray:
    """Least-distance variant: the Euclidean projection of xbar onto the sum
    constraints within the box [x_min, 1], with restore_DS's x_min, by one
    qp_least_distance call, unpolished. Raises NoInteriorPoint unless optimal."""
    xbar = np.asarray(xbar, dtype=float)
    A = build_A(m)
    x, status = qp_least_distance(
        xbar, A, np.ones(A.shape[0]), np.full_like(xbar, _restore_floor(xbar)), np.ones_like(xbar)
    )
    if status != "optimal":
        raise NoInteriorPoint("restoration program infeasible")
    return x


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
    x = np.asarray(x, dtype=float)
    # every node misses at least its own column, so a row's mass is at
    # least 0.0, as in the dense matrix of x
    top = np.zeros(rr)
    np.maximum.at(top, m.row, x)
    rows = np.argsort(-top, kind="stable").tolist()
    # the arcs of each row in turn, largest entry first, ties to the lower
    # column: row r's columns are ranked[bounds[r]:bounds[r + 1]]
    ranked = m.col[np.lexsort((m.col, -x, m.row))].tolist()
    bounds = [0, *np.cumsum(np.bincount(m.row, minlength=rr)).tolist()]
    taken = [False] * rr
    succ = [-1] * rr
    # the picks form disjoint paths: end[c] is the last node of the path
    # starting at c, start[r] the first node of the path ending at r
    start = list(range(rr))
    end = list(range(rr))
    for picks, r in enumerate(rows):
        last = picks + 1 == rr
        c = -1
        for cand in ranked[bounds[r] : bounds[r + 1]]:
            if not taken[cand] and (last or end[cand] != r):
                c = cand
                break
        if c < 0:
            return None
        succ[r] = c
        taken[c] = True
        head, tail = start[r], end[c]
        end[head], start[tail] = tail, head
    seq = [nodes[0]]
    node = succ[0]
    while node != 0:
        seq.append(nodes[node])
        node = succ[node]
    try:
        return expand_cycle(records, CycleCertificate(seq=tuple(seq)), original)
    except GraphError:
        return None


def dipa_solve(g: Graph, params: DipaParams | None = None) -> SolveReport:
    params = params or DipaParams()
    params.validate()
    t0 = time.monotonic()
    mode = params.mode
    trace: list = []
    # one deflation record per deflation kept
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
    # a Hamiltonian cycle is a perfect matching in either relaxation, so
    # an arc in no perfect matching lies on none; deleting those arcs
    # leaves a support with a strict doubly stochastic interior
    try:
        m, _, forced = drop_forced(m)
    except NoInteriorPoint as exc:
        return report(NO_HC_DISCONNECTED, message=str(exc))
    deletions += forced
    try:
        x, work = neutral_start(m, params)
    except (NoInteriorPoint, LPError) as exc:
        return report(GAVE_UP, message=f"start failed: {exc}")

    def surgery(x: np.ndarray):
        """Threshold sweep: deflate any variable at or above the deflation
        threshold (lowest index first), else delete any at or below the
        deletion threshold, rescanning until clean. Every change is
        followed by drop_forced, which deletes the arcs it left in no
        perfect matching and checks the support, and x moves to the
        reduced map once, through the composed keep; then feasibility is
        restored. Returns (x, m, dead_end): x lives on the map m, which is
        work.m when nothing changed; dead_end is None, or a message when
        drop_forced or the restoration raised, and then x and m, the
        records and the deletion count are from before that change. A
        dead end proves nothing about the input graph."""
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
                    new_records, cut = [rec], 0
                else:
                    m2, keep = delete_arc(m_now, low[:1])
                    new_records, cut = [], 1
                m2, keep2, forced = drop_forced(m2)
                keep = keep[keep2]
                x2 = x[keep]
                if mode == "s":
                    x2 = restore_S(x2, m2)
                elif params.restore == "lp":
                    x2 = restore_DS(x2, m2)
                else:
                    x2 = restore_DS_qp(x2, m2)
            except (NoInteriorPoint, LPError) as exc:
                return x, m_now, f"surgery dead end: {exc}"
            # a change counts once it is kept, so the records describe m_now
            m_now, x = m2, x2
            records.extend(new_records)
            deletions += cut + forced

    spec = BarrierSpec(mu=params.mu_initial, upper_log=params.upper_log)
    # the curvature estimate step_once carries from step to step
    delta_hat = 0.0
    # step_once calls since the last trigger; surgery does not reset it
    phase_steps = 0
    dead_end = None
    # the map the loop rounded last; a dead end on a sweep's first change
    # hands it back with the point already rounded
    rounded = None
    while dead_end is None and work.z.dim > 0:
        if time.monotonic() - t0 > params.time_limit:
            return report(GAVE_UP, message="time limit", x=x, m=m)
        iterations += 1

        info = step_once(x, spec, work, delta_hat)
        x, delta_hat = info.x, info.delta_hat
        phase_steps += 1
        # a phase that spends its budget keeps its last step and ends like a
        # converged one
        phase_end = info.kind in ("converged", "stall") or phase_steps >= inner.MAX_PHASE_ITER
        if phase_end and info.kind == "stall" and not info.modified:
            x = newton_polish(x, spec, work)
            # the row reports the polished point, so it values it too
            f = detfun.value_only(x, m, mode)
            phi, _, _ = barrier_eval(x, spec)
            info = replace(info, x=x, f=f, phi=phi, merit=f + spec.mu * phi)
        row = TraceRow(
            it=iterations, mu=spec.mu, f=info.f, phi=info.phi, merit=info.merit,
            step=info.step, kind=info.kind, delta_hat=info.delta_hat,
            x_min=float(np.min(x)), deflations=len(records),
        )
        if phase_end:
            # a trigger row is the phase's last step, relabelled
            row = replace(row, kind="trigger", step=0.0, delta_hat=0.0)
        trace.append(row)
        if phase_end:
            mu2 = mu_trigger(x, spec, work)
            if mu2 < MU_MIN:
                message = "barrier weight exhausted"
                if np.all(np.minimum(x, np.abs(1.0 - x)) <= 0.25):
                    message += " at a near-binary non-cycle point"
                return report(GAVE_UP, message=message, x=x, m=m)
            spec = BarrierSpec(mu=mu2, upper_log=params.upper_log)
            delta_hat = 0.0
            phase_steps = 0
            continue

        cert = round_to_hc(x, m, records, g)
        if cert is not None:
            return report(HC_FOUND, cycle=cert, x=x, m=m)
        rounded = m

        x, m, dead_end = surgery(x)
        if dead_end is None and m is not work.m:
            work = replace(work, z=build_Z(m, mode=mode), m=m)
            delta_hat = 0.0

    # on a map with no free direction, the start's included, or on the last
    # map a surgery dead end kept, only the rounding is left to try, unless
    # the loop already rounded that point
    cert = None if m is rounded else round_to_hc(x, m, records, g)
    if cert is not None:
        return report(HC_FOUND, cycle=cert, x=x, m=m)
    return report(
        GAVE_UP,
        message=dead_end or "reduced problem fully determined but not a cycle",
        x=x, m=m,
    )
