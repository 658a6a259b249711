"""Graph types, directed-arc variable numbering, instance generation, and the
graph surgery (deflation / deletion) used by the solver.

Node labels are 1-based integers and survive surgery unchanged; a reduced
graph simply has fewer labels. The undirected edge set tracks connectivity
support (an edge remains while either direction survives); the directed arcs
live in ArcVarMap as matrix positions, their labels derived on demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or an operation violating graph invariants."""


class StarvationError(GraphError):
    """Surgery left a node without an outgoing or incoming arc."""


class EnumerationCapError(RuntimeError):
    """enumerate_hc found more cycles than the caller allowed."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over explicit node labels."""

    nodes: tuple[int, ...]
    edges: frozenset

    @property
    def n(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> dict:
        adj: dict = {v: [] for v in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        return adj


def make_graph(n: int, edges) -> Graph:
    """Build a graph on nodes 1..n, validating simplicity."""
    if n < 1:
        raise GraphError(f"node count {n} is below 1")
    es = set()
    for a, b in edges:
        if a == b:
            raise GraphError(f"self-loop at node {a}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphError(f"edge ({a},{b}) outside node range 1..{n}")
        e = (min(a, b), max(a, b))
        if e in es:
            raise GraphError(f"duplicate edge {e}")
        es.add(e)
    return Graph(nodes=tuple(range(1, n + 1)), edges=frozenset(es))


@dataclass(frozen=True, eq=False)
class ArcVarMap:
    """Row-major numbering of directed arcs: all arcs out of the smallest
    node first (ordered by target), then the next node, and so on.

    row[k] and col[k] are the matrix positions of arc k = (i, j): the
    indices of i and j in the sorted nodes. Every matrix built from the arc
    variables (P(x), the sum constraints, the rounding grid) is laid out
    from them; arcs gives the label pairs, built on first use. No arc is a
    self-loop: graphs have none, and deflation drops (j,i) with (i,j)."""

    nodes: tuple[int, ...]
    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        # every layer reads the same two arrays; the map is frozen, so are they
        self.row.flags.writeable = self.col.flags.writeable = False

    @property
    def n_arcs(self) -> int:
        return len(self.row)

    @cached_property
    def arcs(self) -> tuple:
        nodes = self.nodes
        return tuple((nodes[i], nodes[j]) for i, j in zip(self.row.tolist(), self.col.tolist()))

    @cached_property
    def templates(self) -> dict:
        """dipa.detfun's determinant-matrix templates, one per mode, each
        built on first use."""
        return {}


def arc_map_from_arcs(nodes, arcs) -> ArcVarMap:
    nodes = tuple(sorted(nodes))
    arcs = sorted(arcs)
    pos = {v: t for t, v in enumerate(nodes)}
    row = np.array([pos[i] for i, _ in arcs], dtype=np.intp)
    col = np.array([pos[j] for _, j in arcs], dtype=np.intp)
    return ArcVarMap(nodes=nodes, row=row, col=col)


def build_arc_map(g: Graph) -> ArcVarMap:
    """Both directions of every edge, row-major order."""
    arcs = []
    for a, b in g.edges:
        arcs.append((a, b))
        arcs.append((b, a))
    return arc_map_from_arcs(g.nodes, arcs)


@dataclass(frozen=True)
class DeflationRecord:
    """Everything needed to splice the removed node back into a cycle."""

    fixed_arc: tuple  # (i, j): node i is removed, j takes its in-arcs
    sources: frozenset  # every h whose arc (h, i) became (h, j)


@dataclass(frozen=True)
class CycleCertificate:
    """Closed node sequence v1..vN, vN+1 = v1."""

    seq: tuple

    def arcs(self) -> list:
        s = self.seq
        return [(s[t], s[(t + 1) % len(s)]) for t in range(len(s))]

    def canonical(self) -> "CycleCertificate":
        s = self.seq
        t = s.index(min(s))
        return CycleCertificate(seq=s[t:] + s[:t])

    def validate(self, g: Graph) -> None:
        if len(self.seq) < 3:
            raise GraphError(f"cycle of {len(self.seq)} nodes; a cycle needs at least 3")
        if len(self.seq) != g.n:
            raise GraphError(f"cycle length {len(self.seq)} != node count {g.n}")
        if len(set(self.seq)) != len(self.seq):
            raise GraphError("repeated node in cycle")
        if set(self.seq) != set(g.nodes):
            raise GraphError("cycle does not cover the node set")
        for a, b in self.arcs():
            if (min(a, b), max(a, b)) not in g.edges:
                raise GraphError(f"cycle uses non-edge ({a},{b})")


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's connected component, for the graph
    on vertices 0..n-1 with edges (u[e], v[e]). Each round every edge hooks
    the larger of its two end labels onto the smaller, and pointer jumping
    then flattens the label forest (Shiloach & Vishkin 1982). A label only
    ever falls to a smaller vertex of its own component, so once every edge
    joins equal labels, each component carries its least vertex."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def is_connected(g: Graph) -> bool:
    return support_connected(build_arc_map(g))


def support_connected(m: ArcVarMap) -> bool:
    """Whether the undirected support of m's arcs is connected."""
    return not component_labels(len(m.nodes), m.row, m.col).any()


def enumerate_hc(g: Graph, cap: int | None = None, node_limit: int = 32) -> list:
    """All directed Hamiltonian cycles by backtracking, each starting at the
    smallest node; a cycle and its reverse are listed separately."""
    if g.n > node_limit:
        raise GraphError(f"{g.n} nodes exceeds enumeration limit {node_limit}")
    if g.n < 3:
        return []
    adj = g.adjacency()
    start = min(g.nodes)
    found: list = []
    path = [start]
    on_path = {start}

    def extend() -> None:
        v = path[-1]
        if len(path) == g.n:
            if start in adj[v]:
                found.append(CycleCertificate(seq=tuple(path)))
                if cap is not None and len(found) > cap:
                    raise EnumerationCapError(f"more than {cap} cycles")
            return
        for w in adj[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                extend()
                path.pop()
                on_path.remove(w)

    extend()
    return found


def deflate(m: ArcVarMap, k: int) -> tuple:
    """Fix the arc (i,j) at position k to 1: remove node i, redirect arcs
    (h,i) to (h,j), and zero the companions (i,h) h!=j, (h,j) h!=i, (j,i).
    Returns the reduced map, keep (the position in m of each of its arcs;
    for a redirected (h,j), that of (h,i)) and the record that splices i
    back into a cycle."""
    nodes, row, col = m.nodes, m.row, m.col
    if len(nodes) < 3:
        raise StarvationError("deflation would leave fewer than 2 nodes")
    ri, cj = row[k], col[k]
    i, j = nodes[ri], nodes[cj]
    # the fixed arc and the companions it zeroes leave; (j,i) leaves too, so
    # no redirect forms a self-loop (j,j)
    keep = np.flatnonzero((row != ri) & (col != cj) & ((row != cj) | (col != ri)))
    col2 = np.where(col[keep] == ri, cj, col[keep])
    order = np.lexsort((col2, row[keep]))
    keep, row2, col2 = keep[order], row[keep][order], col2[order]
    n = len(nodes)
    bare = (np.bincount(row2, minlength=n) == 0) | (np.bincount(col2, minlength=n) == 0)
    bare[ri] = False
    if bare.any():
        v = nodes[int(np.argmax(bare))]
        raise StarvationError(f"node {v} isolated after deflation of {(i, j)}")
    sources = frozenset(nodes[a] for a in row2[col[keep] == ri].tolist())
    # node i leaves: the positions above its own move down by one
    m2 = ArcVarMap(nodes[:ri] + nodes[ri + 1 :], row2 - (row2 > ri), col2 - (col2 > ri))
    return m2, keep, DeflationRecord(fixed_arc=(i, j), sources=sources)


def delete_arc(m: ArcVarMap, ks) -> tuple:
    """Fix the directed arc variables at positions ks (a sequence) to 0;
    their reverse arcs are untouched. Returns the reduced map and keep, the
    position in m of each arc it retains."""
    nodes, row, col = m.nodes, m.row, m.col
    keep = np.delete(np.arange(m.n_arcs), ks)
    for side, pos in (("out", row), ("in", col)):
        left = np.bincount(pos[keep], minlength=len(nodes))
        for k in ks:
            if not left[pos[k]]:
                arc = (nodes[row[k]], nodes[col[k]])
                raise StarvationError(f"node {nodes[pos[k]]} starved: no {side}-arc after deleting {arc}")
    return ArcVarMap(nodes, row[keep], col[keep]), keep


def expand_cycle(records, c: CycleCertificate, original: Graph) -> CycleCertificate:
    """Replay deflation records in reverse, splicing each removed node back in
    front of its merge target, and validate the result against original."""
    seq = list(c.seq)
    for rec in reversed(records):
        i, j = rec.fixed_arc
        if j not in seq:
            raise GraphError(f"merge target {j} missing from cycle during expansion")
        t = seq.index(j)
        pred = seq[t - 1]
        if len(seq) > 1 and pred not in rec.sources:
            raise GraphError(
                f"cycle enters {j} from {pred}, which was not redirected when "
                f"node {i} was deflated (corrupt record or cycle)"
            )
        seq.insert(t, i)
    out = CycleCertificate(seq=tuple(seq)).canonical()
    out.validate(original)
    return out


def gen_random_graph(n: int, dmin: int, dmax: int, seed: int, plant: bool = True) -> Graph:
    """Connected simple graph with all degrees in [dmin, dmax]; with plant=True
    a Hamiltonian cycle over a random node permutation is embedded first.
    Deterministic per (n, dmin, dmax, seed, plant)."""
    if not (2 <= dmin <= dmax < n):
        raise GraphError(f"need 2 <= dmin <= dmax < n, got dmin={dmin} dmax={dmax} n={n}")
    for attempt in range(100):
        # string seeding hashes through sha512, which is documented behavior
        # and stable across platforms and interpreter versions
        rng = random.Random(f"{n}/{dmin}/{dmax}/{seed}/{int(plant)}/{attempt}")
        g = _try_generate(n, dmin, dmax, rng, plant)
        if g is not None:
            return g
    raise GraphError(f"no graph with degrees in [{dmin},{dmax}] found for n={n}, seed={seed}")


def _try_generate(n, dmin, dmax, rng, plant):
    nodes = list(range(1, n + 1))
    edges = set()
    deg = {v: 0 for v in nodes}

    def add(a, b):
        e = (min(a, b), max(a, b))
        edges.add(e)
        deg[a] += 1
        deg[b] += 1

    if plant:
        perm = nodes[:]
        rng.shuffle(perm)
        for t in range(n):
            a, b = perm[t], perm[(t + 1) % n]
            if (min(a, b), max(a, b)) in edges:
                return None  # n == 2 style degeneracy; retry
            add(a, b)

    # every node draws a target degree, so instances spread over the whole
    # [dmin, dmax] range instead of clustering at the minimum
    target = {v: rng.randint(dmin, dmax) for v in nodes}

    for _ in range(20 * n * dmax):
        deficient = [v for v in nodes if deg[v] < target[v]]
        if not deficient:
            break
        u = rng.choice(deficient)
        partners = [
            w
            for w in deficient
            if w != u and (min(u, w), max(u, w)) not in edges
        ]
        if not partners:
            partners = [
                w
                for w in nodes
                if w != u and deg[w] < dmax and (min(u, w), max(u, w)) not in edges
            ]
        if not partners:
            # u cannot reach its draw; settle for the hard floor
            if deg[u] >= dmin:
                target[u] = deg[u]
                continue
            return None
        add(u, rng.choice(partners))
    else:
        return None
    if any(deg[v] < dmin for v in nodes):
        return None

    g = Graph(nodes=tuple(nodes), edges=frozenset(edges))
    if not is_connected(g):
        return None
    return g


def petersen() -> Graph:
    """The Petersen graph: the standard 10-node non-Hamiltonian instance."""
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return make_graph(10, outer + spokes + inner)


def parse_graph(text: str) -> Graph:
    """Parse the text format: a header line "N M" then M lines "i j" with
    1-based endpoints and i < j; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header {lines[0]!r}, expected 'N M'")
    try:
        n, mcount = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad header {lines[0]!r}") from exc
    if n < 1:
        raise GraphError(f"bad header {lines[0]!r}: node count {n} is below 1")
    body = lines[1:]
    if len(body) != mcount:
        raise GraphError(f"header says {mcount} edges, file has {len(body)}")
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"bad edge line {line!r}") from exc
        if not a < b:
            raise GraphError(f"edge line {line!r} must satisfy i < j")
        edges.append((a, b))
    return make_graph(n, edges)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path) -> None:
    lines = [f"{g.n} {len(g.edges)}"]
    for a, b in sorted(g.edges):
        lines.append(f"{a} {b}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
