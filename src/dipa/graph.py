"""Graph types, directed-arc variable numbering, instance generation, and the
graph surgery (deflation / deletion) used by the solver.

Node labels are 1-based integers and survive surgery unchanged; a reduced
graph simply has fewer labels. The undirected edge set tracks connectivity
support (an edge remains while either direction survives); the authoritative
directed arc list lives in ArcVarMap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> list[int]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        out.sort()
        return out

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


@dataclass(frozen=True)
class ArcVarMap:
    """Row-major numbering of directed arcs: all arcs out of the smallest
    node first (ordered by target), then the next node, and so on.

    row[k] and col[k] are the matrix positions of arc k = (i, j): the
    indices of i and j in nodes. Every matrix built from the arc variables
    (P(x), the sum constraints, the rounding grid) is laid out from them."""

    nodes: tuple[int, ...]
    arcs: tuple
    index: dict = field(compare=False)
    row: np.ndarray = field(compare=False)
    col: np.ndarray = field(compare=False)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)


def arc_map_from_arcs(nodes, arcs) -> ArcVarMap:
    nodes = tuple(sorted(nodes))
    arcs = tuple(sorted(arcs))
    index = {a: k for k, a in enumerate(arcs)}
    pos = {v: t for t, v in enumerate(nodes)}
    row = np.array([pos[i] for i, _ in arcs], dtype=np.intp)
    col = np.array([pos[j] for _, j in arcs], dtype=np.intp)
    # every layer reads the same two arrays; the map is frozen, so are they
    row.flags.writeable = col.flags.writeable = False
    return ArcVarMap(nodes=nodes, arcs=arcs, index=index, row=row, col=col)


def build_arc_map(g: Graph) -> ArcVarMap:
    """Both directions of every edge, row-major order."""
    arcs = []
    for a, b in g.edges:
        arcs.append((a, b))
        arcs.append((b, a))
    return arc_map_from_arcs(g.nodes, arcs)


def support_graph(nodes, arcs) -> Graph:
    """Undirected support of a directed arc set."""
    edges = frozenset((min(i, j), max(i, j)) for i, j in arcs)
    return Graph(nodes=tuple(sorted(nodes)), edges=edges)


@dataclass(frozen=True)
class DeflationRecord:
    """Everything needed to splice the removed node back into a cycle."""

    fixed_arc: tuple  # (i, j): node i is removed, j takes its in-arcs
    redirected: tuple  # pairs ((k, i), (k, j))

    @property
    def redirect_sources(self) -> frozenset:
        return frozenset(old[0] for old, _ in self.redirected)


@dataclass(frozen=True)
class CycleCertificate:
    """Closed node sequence v1..vN, vN+1 = v1."""

    seq: tuple

    def __len__(self) -> int:
        return len(self.seq)

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


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    adj = g.adjacency()
    seen = {g.nodes[0]}
    stack = [g.nodes[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


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


def deflate(m: ArcVarMap, arc) -> tuple:
    """Fix arc (i,j) to 1: remove node i, redirect arcs (k,i) to (k,j), and
    zero the companions (i,k) k!=j, (k,j) k!=i, (j,i). Returns the reduced
    map and the record that splices i back into a cycle."""
    i, j = arc
    if arc not in m.index:
        raise GraphError(f"arc {arc} not present")
    kept = []
    redirected = []
    for a, b in m.arcs:
        if a == i or b == j or (a, b) == (j, i):
            continue  # the fixed arc and the companions it zeroes
        if b == i:
            # a != j here: (j,i) is zeroed above, so no self-loop (j,j) forms
            redirected.append(((a, b), (a, j)))
            kept.append((a, j))
        else:
            kept.append((a, b))
    nodes2 = tuple(v for v in m.nodes if v != i)
    if len(nodes2) < 2:
        raise StarvationError("deflation would leave fewer than 2 nodes")
    out_deg = {v: 0 for v in nodes2}
    in_deg = {v: 0 for v in nodes2}
    for a, b in kept:
        out_deg[a] += 1
        in_deg[b] += 1
    for v in nodes2:
        if out_deg[v] == 0 or in_deg[v] == 0:
            raise StarvationError(f"node {v} isolated after deflation of {arc}")
    m2 = arc_map_from_arcs(nodes2, kept)
    return m2, DeflationRecord(fixed_arc=(i, j), redirected=tuple(redirected))


def delete_arc(m: ArcVarMap, arc) -> ArcVarMap:
    """Fix one directed arc variable to 0. The reverse arc is untouched."""
    i, j = arc
    if arc not in m.index:
        raise GraphError(f"arc {arc} not present")
    kept = [a for a in m.arcs if a != arc]
    if not any(a == i for a, _ in kept):
        raise StarvationError(f"node {i} starved: no out-arc after deleting {arc}")
    if not any(b == j for _, b in kept):
        raise StarvationError(f"node {j} starved: no in-arc after deleting {arc}")
    return arc_map_from_arcs(m.nodes, kept)


def expand_cycle(records, c: CycleCertificate, original: Graph | None = None) -> CycleCertificate:
    """Replay deflation records in reverse, splicing each removed node back in
    front of its merge target."""
    seq = list(c.seq)
    for rec in reversed(records):
        i, j = rec.fixed_arc
        if j not in seq:
            raise GraphError(f"merge target {j} missing from cycle during expansion")
        t = seq.index(j)
        pred = seq[t - 1]
        if len(seq) > 1 and pred not in rec.redirect_sources:
            raise GraphError(
                f"cycle enters {j} from {pred}, which was not redirected when "
                f"node {i} was deflated (corrupt record or cycle)"
            )
        seq.insert(t, i)
    out = CycleCertificate(seq=tuple(seq)).canonical()
    if original is not None:
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
