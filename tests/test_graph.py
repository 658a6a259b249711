import random

import numpy as np
import pytest

from dipa.graph import (
    CycleCertificate,
    EnumerationCapError,
    Graph,
    GraphError,
    arc_map_from_arcs,
    build_arc_map,
    component_labels,
    deflate,
    delete_arc,
    enumerate_hc,
    expand_cycle,
    gen_random_graph,
    is_connected,
    make_graph,
    parse_graph,
    petersen,
    read_graph,
    support_connected,
    write_graph,
)
from dipa.outer import NoInteriorPoint, drop_forced


def support_graph(nodes, arcs) -> Graph:
    """Undirected support of a directed arc set."""
    edges = frozenset((min(i, j), max(i, j)) for i, j in arcs)
    return Graph(nodes=tuple(sorted(nodes)), edges=edges)


def k3():
    return make_graph(3, [(1, 2), (1, 3), (2, 3)])


def c4():
    return make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


class TestMakeGraph:
    def test_basic(self):
        g = k3()
        assert g.n == 3
        assert len(g.adjacency()[1]) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 4)])

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_node_count_below_one(self, n):
        with pytest.raises(GraphError, match="below 1"):
            make_graph(n, [])
        with pytest.raises(GraphError, match=f"bad header '{n} 0'"):
            parse_graph(f"{n} 0\n")


class TestArcVarMap:
    def test_k3_ordering_and_twins(self):
        m = build_arc_map(k3())
        assert m.arcs == ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
        assert [m.arcs.index((j, i)) for i, j in m.arcs] == [2, 4, 0, 5, 1, 3]
        assert m.row.tolist() == [0, 0, 1, 1, 2, 2]
        assert m.col.tolist() == [1, 2, 0, 2, 0, 1]

    def test_positions_follow_surgery(self):
        # on the full map and on the maps deletion and deflation produce,
        # the positions index the sorted nodes, carry no self-loop and run
        # strictly row-major, so re-encoding the labels gives them back
        m = build_arc_map(gen_random_graph(15, 3, 6, seed=5))
        maps = [m, delete_arc(m, [3])[0]]
        maps.append(deflate(maps[-1], 0)[0])
        for mm in maps:
            n = len(mm.nodes)
            assert list(mm.nodes) == sorted(mm.nodes)
            assert mm.row.min() >= 0 and max(mm.row.max(), mm.col.max()) < n
            assert not (mm.row == mm.col).any()
            assert (np.diff(mm.row * n + mm.col) > 0).all()
            ref = arc_map_from_arcs(mm.nodes, mm.arcs)
            assert np.array_equal(mm.row, ref.row) and np.array_equal(mm.col, ref.col)


def components_reference(n, u, v):
    """The least vertex of each vertex's component, by depth-first search."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u, v):
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    for root in range(n):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for w in adj[stack.pop()]:
                    if label[w] < 0:
                        label[w] = root
                        stack.append(w)
    return label


class TestConnectivity:
    def test_connected(self):
        assert is_connected(k3())

    def test_disconnected(self):
        g = make_graph(4, [(1, 2), (3, 4)])
        assert not is_connected(g)

    def test_labels_match_dfs(self):
        rng = random.Random(0)
        cases = [(0, [], []), (1, [], []), (6, [], [])]
        # a path numbered against the hooking order, which takes the most
        # rounds to settle
        cases.append((40, list(range(39, 0, -1)), list(range(38, -1, -1))))
        for _ in range(300):
            n = rng.randint(1, 60)
            # edges touch a random subset only, so most graphs keep isolated
            # vertices; repeats and both directions of one pair occur
            touched = rng.sample(range(n), rng.randint(1, n))
            e = rng.randint(0, 2 * n)
            cases.append((n, rng.choices(touched, k=e), rng.choices(touched, k=e)))
        sizes = set()
        for n, u, v in cases:
            got = component_labels(n, np.array(u, dtype=np.intp), np.array(v, dtype=np.intp))
            ref = components_reference(n, u, v)
            assert got.tolist() == ref
            sizes.add(min(len(set(ref)), 3))
        # graphs with one, two and many components
        assert sizes == {0, 1, 2, 3}

    def test_support_connected(self):
        m = build_arc_map(make_graph(4, [(1, 2), (3, 4)]))
        assert not support_connected(m)
        m = arc_map_from_arcs((1, 2, 3), [(1, 2), (3, 2)])
        assert support_connected(m)


class TestEnumerate:
    def test_k4_directed_count(self):
        # three undirected cycles, each reported in both orientations
        g = make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        cycles = enumerate_hc(g)
        assert len(cycles) == 6
        def undirected_key(c):
            s = c.canonical().seq
            r = CycleCertificate(seq=(s[0],) + tuple(reversed(s[1:]))).seq
            return min(s, r)
        assert len({undirected_key(c) for c in cycles}) == 3

    def test_c6_both_orientations(self):
        g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        cycles = enumerate_hc(g)
        assert len(cycles) == 2
        seqs = {c.canonical().seq for c in cycles}
        assert seqs == {(1, 2, 3, 4, 5, 6), (1, 6, 5, 4, 3, 2)}

    def test_petersen_has_none(self):
        assert enumerate_hc(petersen()) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_nodes_have_none(self, n):
        # the one edge of a 2-node graph is no cycle, in either direction
        g = make_graph(n, [(1, 2)] if n == 2 else [])
        assert enumerate_hc(g) == []

    def test_cap_raises(self):
        g = make_graph(8, [(i, j) for i in range(1, 9) for j in range(i + 1, 9)])
        with pytest.raises(EnumerationCapError):
            enumerate_hc(g, cap=2)


class TestCertificate:
    def test_validate_accepts_real_cycle(self):
        CycleCertificate(seq=(1, 2, 3)).validate(k3())

    def test_validate_rejects_non_edge(self):
        g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(GraphError):
            CycleCertificate(seq=(1, 3, 2, 4)).validate(g)

    def test_validate_rejects_short(self):
        with pytest.raises(GraphError):
            CycleCertificate(seq=(1, 2)).validate(k3())

    def test_validate_rejects_two_node_cycle(self):
        g = make_graph(2, [(1, 2)])
        with pytest.raises(GraphError, match="at least 3"):
            CycleCertificate(seq=(1, 2)).validate(g)

    def test_canonical_rotation(self):
        c = CycleCertificate(seq=(3, 1, 2))
        assert c.canonical().seq == (1, 2, 3)


class TestDeflation:
    def test_c4_record(self):
        g = c4()
        m = build_arc_map(g)
        m2, keep, rec = deflate(m, m.arcs.index((1, 2)))
        g2 = support_graph(m2.nodes, m2.arcs)
        assert g2.nodes == (2, 3, 4)
        assert sorted(g2.edges) == [(2, 3), (2, 4), (3, 4)]
        assert m2.arcs == ((2, 3), (3, 4), (4, 2), (4, 3))
        assert m2.row.tolist() == [0, 1, 2, 2]
        assert m2.col.tolist() == [1, 2, 0, 1]
        assert rec.fixed_arc == (1, 2)
        assert 1 not in m2.nodes
        assert rec.sources == {4}
        # (4,2) carries (4,1); every other arc keeps its own
        assert [m.arcs[k] for k in keep] == [(2, 3), (3, 4), (4, 1), (4, 3)]
        # the zeroed companions are gone from the map and no redirect
        # brings them back
        zeroed = {(1, 4), (2, 1), (3, 2)}
        assert not zeroed & set(m2.arcs)
        assert not zeroed & {m.arcs[k] for k in keep}
        assert set(m.arcs) - {m.arcs[k] for k in keep} - {rec.fixed_arc} == zeroed

    def test_expand_roundtrip(self):
        g = c4()
        m = build_arc_map(g)
        m2, _, rec = deflate(m, m.arcs.index((1, 2)))
        full = expand_cycle([rec], CycleCertificate(seq=(2, 3, 4)), original=g)
        assert full.canonical().seq == (1, 2, 3, 4)

    def test_chain_of_deflations(self):
        g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        m = build_arc_map(g)
        records = []
        m1, _, r1 = deflate(m, m.arcs.index((1, 2)))
        records.append(r1)
        m2, _, r2 = deflate(m1, m1.arcs.index((2, 3)))
        records.append(r2)
        small = enumerate_hc(support_graph(m2.nodes, m2.arcs))[0]
        full = expand_cycle(records, small, original=g)
        full.validate(g)
        assert full.canonical().seq == (1, 2, 3, 4, 5)

    def test_redirect_replaces_zeroed_inflow(self):
        # triangle chord case: the redirect target (3,2) coincides with an
        # original arc, which must itself have been zeroed, never duplicated
        g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        m = build_arc_map(g)
        m2, keep, rec = deflate(m, m.arcs.index((1, 2)))
        assert 3 in rec.sources
        # the original (3,2) is zeroed: the one (3,2) left carries (3,1)
        assert sum(1 for a in m2.arcs if a == (3, 2)) == 1
        assert m.arcs[keep[m2.arcs.index((3, 2))]] == (3, 1)

    def test_starvation_detected(self):
        # asymmetric arc map where deflating (1,2) zeroes every arc: deflate
        # returns the empty map, and the gate after it rejects it
        m = arc_map_from_arcs((1, 2, 3), [(1, 2), (2, 1), (1, 3), (3, 2)])
        k = m.arcs.index((1, 2))
        assert starvation_reference(m, k=k) == "node 2 isolated after deflation of (1, 2)"
        m2, keep, _ = deflate(m, k)
        assert m2.nodes == (2, 3) and m2.n_arcs == len(keep) == 0
        with pytest.raises(NoInteriorPoint, match="no perfect matching on this support"):
            drop_forced(m2)


def starvation_reference(m, k=None, ks=()):
    """The checks deflate and delete_arc made of their own result before
    drop_forced became the one check of a reduced support, frozen: the
    message of the error that deflating position k, or deleting positions
    ks, raised, or None when the change passed."""
    nodes, row, col = m.nodes, m.row, m.col
    n = len(nodes)
    if k is not None:
        if n < 3:
            return "deflation would leave fewer than 2 nodes"
        ri, cj = row[k], col[k]
        keep = np.flatnonzero((row != ri) & (col != cj) & ((row != cj) | (col != ri)))
        col2 = np.where(col[keep] == ri, cj, col[keep])
        bare = (np.bincount(row[keep], minlength=n) == 0) | (np.bincount(col2, minlength=n) == 0)
        bare[ri] = False
        if bare.any():
            return f"node {nodes[int(np.argmax(bare))]} isolated after deflation of {m.arcs[k]}"
        return None
    keep = np.delete(np.arange(m.n_arcs), ks)
    for side, pos in (("out", row), ("in", col)):
        left = np.bincount(pos[keep], minlength=n)
        for k in ks:
            if not left[pos[k]]:
                return f"node {nodes[pos[k]]} starved: no {side}-arc after deleting {m.arcs[k]}"
    return None


class TestOneGate:
    """drop_forced is the one check of every support a solve reduces to:
    each deflation or deletion that the frozen checks of deflate and
    delete_arc reject leaves a support without a perfect matching, which
    drop_forced rejects as well."""

    def test_frozen_rejections_subsumed(self):
        causes = ("fewer than 2 nodes", "isolated", "starved")
        rejected = dict.fromkeys(causes, 0)
        passed = 0
        rng = random.Random(5)
        for seed in range(60):
            g = gen_random_graph(6 + seed % 12, 2, 4, seed=seed, plant=True)
            m, _, _ = drop_forced(build_arc_map(g))
            for _ in range(40):
                if rng.random() < 0.3:
                    k = rng.randrange(m.n_arcs)
                    why = starvation_reference(m, k=k)
                    m2 = deflate(m, k)[0]
                else:
                    ks = sorted(rng.sample(range(m.n_arcs), min(m.n_arcs, rng.choice((1, 3)))))
                    why = starvation_reference(m, ks=ks)
                    m2 = delete_arc(m, ks)[0]
                try:
                    m2 = drop_forced(m2)[0]
                except NoInteriorPoint as exc:
                    if why is not None:
                        assert str(exc) == "no perfect matching on this support", why
                        rejected[next(c for c in causes if c in why)] += 1
                    continue
                assert why is None, (seed, why)
                passed += 1
                m = m2
        # each frozen check fires, on chains that also go on for a while
        assert rejected["fewer than 2 nodes"] >= 100, rejected
        assert rejected["isolated"] >= 30 and rejected["starved"] >= 800, rejected
        assert passed >= 400, passed


def remap_reference(m, x, deflated=None, deleted=()):
    """The reduced arcs and x on them, the way deflate's arc loop and
    surgery's label remap made them before deflate and delete_arc returned
    keep: deflating (i,j) drops (i,*), (*,j) and (j,i), turns each (h,i)
    into (h,j), and a label dict sends (h,j) back to (h,i) for x; deleting
    arcs drops their positions with np.delete. Returns the reduced nodes,
    arcs and x."""
    if deflated is None:
        arcs = [a for k, a in enumerate(m.arcs) if k not in deleted]
        return m.nodes, tuple(arcs), np.delete(x, deleted)
    i, j = m.arcs[deflated]
    live = [(h, b) for h, b in m.arcs if h != i and b != j and (h, b) != (j, i)]
    arcs = sorted((h, j if b == i else b) for h, b in live)
    back = {(h, j): (h, i) for h, b in m.arcs if b == i and h != j}
    nodes = tuple(v for v in m.nodes if v != i)
    return nodes, tuple(arcs), x[[m.arcs.index(back.get(a, a)) for a in arcs]]


class TestKeepMatchesRemap:
    """deflate and delete_arc against the frozen arc loop and label remap,
    on chains of random deflations, deletions and deletion batches, each
    followed by drop_forced."""

    def test_random_chains(self):
        rng = random.Random(3)
        steps = {"deflate": 0, "delete": 0, "batch": 0}
        for seed in range(40):
            m = build_arc_map(gen_random_graph(8 + seed % 15, 3, 6, seed=seed, plant=True))
            for _ in range(8):
                x = np.array([rng.random() for _ in range(m.n_arcs)])
                kind = rng.choice(tuple(steps))
                if kind == "deflate":
                    k = rng.randrange(m.n_arcs)
                    m2, keep, rec = deflate(m, k)
                    nodes, arcs, ref = remap_reference(m, x, deflated=k)
                    i, j = m.arcs[k]
                    assert rec.sources == {h for h, b in m.arcs if b == i} - {j}
                else:
                    ks = sorted(rng.sample(range(m.n_arcs), 1 if kind == "delete" else 3))
                    m2, keep = delete_arc(m, ks)
                    nodes, arcs, ref = remap_reference(m, x, deleted=ks)
                # the map built from positions is the one built from labels
                ref_map = arc_map_from_arcs(nodes, arcs)
                assert m2.nodes == ref_map.nodes
                assert m2.row.tolist() == ref_map.row.tolist()
                assert m2.col.tolist() == ref_map.col.tolist()
                assert m2.row.dtype == m2.col.dtype == np.intp
                assert not (m2.row.flags.writeable or m2.col.flags.writeable)
                assert m2.arcs == arcs
                # the entries of x are distinct, so this pins keep itself
                assert np.array_equal(x[keep], ref)
                steps[kind] += 1
                # as in a solve's surgery, the chain goes on from the support
                # drop_forced leaves, and a change it rejects is undone
                try:
                    m = drop_forced(m2)[0]
                except NoInteriorPoint:
                    pass
        assert min(steps.values()) >= 20, steps

    def test_forced_batch_read_only(self):
        # six arcs of this planted graph lie in no perfect matching
        m = build_arc_map(gen_random_graph(10, 3, 6, seed=24, plant=True))
        m2, keep, dropped = drop_forced(m)
        assert dropped == 6
        assert m2.arcs == tuple(m.arcs[k] for k in keep)
        for pos in (m2.row, m2.col):
            with pytest.raises(ValueError, match="read-only"):
                pos[0] = 0


class TestDeletion:
    def test_single_direction_removed(self):
        g = c4()
        m = build_arc_map(g)
        m2, keep = delete_arc(m, [m.arcs.index((1, 2))])
        assert [m.arcs[k] for k in keep] == list(m2.arcs)
        assert (1, 2) not in m2.arcs
        assert (2, 1) in m2.arcs
        assert (1, 2) in support_graph(m2.nodes, m2.arcs).edges

    def test_out_arc_starvation(self):
        # node 1 keeps no out-arc: delete_arc returns the map, and the gate
        # after it rejects it
        m = arc_map_from_arcs((1, 2, 3), [(1, 2), (2, 3), (3, 1), (2, 1)])
        ks = [m.arcs.index((1, 2))]
        assert starvation_reference(m, ks=ks) == "node 1 starved: no out-arc after deleting (1, 2)"
        m2, _ = delete_arc(m, ks)
        assert m2.arcs == ((2, 1), (2, 3), (3, 1))
        with pytest.raises(NoInteriorPoint, match="no perfect matching on this support"):
            drop_forced(m2)


class TestGenerator:
    def test_deterministic(self):
        a = gen_random_graph(20, 3, 6, seed=42)
        b = gen_random_graph(20, 3, 6, seed=42)
        assert a.edges == b.edges

    def test_seed_changes_instance(self):
        a = gen_random_graph(20, 3, 6, seed=1)
        b = gen_random_graph(20, 3, 6, seed=2)
        assert a.edges != b.edges

    def test_degree_bounds(self):
        for seed in range(10):
            g = gen_random_graph(24, 3, 6, seed=seed)
            degs = [len(nbrs) for nbrs in g.adjacency().values()]
            assert min(degs) >= 3
            assert max(degs) <= 6

    def test_plant_guarantees_cycle(self):
        for seed in range(5):
            g = gen_random_graph(12, 3, 6, seed=seed, plant=True)
            assert len(enumerate_hc(g, cap=100000)) >= 1

    def test_unplanted_can_miss(self):
        # with degree floor 2 a fair share of unplanted instances have no
        # Hamiltonian cycle at all
        found_nonham = False
        for seed in range(10):
            g = gen_random_graph(10, 2, 4, seed=seed, plant=False)
            if not enumerate_hc(g, cap=200000):
                found_nonham = True
                break
        assert found_nonham


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = gen_random_graph(10, 3, 6, seed=3)
        p = tmp_path / "g.txt"
        write_graph(g, p)
        assert read_graph(p).edges == g.edges

    def test_parse_rejects_bad_header(self):
        with pytest.raises(GraphError):
            parse_graph("nonsense\n1 2\n")

    def test_parse_rejects_wrong_edge_count(self):
        with pytest.raises(GraphError):
            parse_graph("3 2\n1 2\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# triangle\n3 3\n\n1 2\n1 3\n2 3\n")
        assert g.edges == k3().edges


def test_support_graph_merges_directions():
    g = support_graph((1, 2, 3), [(1, 2), (2, 1), (3, 2)])
    assert sorted(g.edges) == [(1, 2), (2, 3)]
