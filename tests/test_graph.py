import pytest

from dipa.graph import (
    CycleCertificate,
    EnumerationCapError,
    GraphError,
    StarvationError,
    arc_map_from_arcs,
    build_arc_map,
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
    support_graph,
    write_graph,
)


def k3():
    return make_graph(3, [(1, 2), (1, 3), (2, 3)])


def c4():
    return make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


class TestMakeGraph:
    def test_basic(self):
        g = k3()
        assert g.n == 3
        assert g.degree(1) == 2
        assert g.neighbors(2) == [1, 3]

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
        assert [m.index.get((j, i), -1) for i, j in m.arcs] == [2, 4, 0, 5, 1, 3]
        assert m.row.tolist() == [0, 0, 1, 1, 2, 2]
        assert m.col.tolist() == [1, 2, 0, 2, 0, 1]

    def test_positions_follow_surgery(self):
        # row/col hold each arc's endpoints as indices into m.nodes, on the
        # full map and on the maps deletion and deflation produce
        m = build_arc_map(gen_random_graph(15, 3, 6, seed=5))
        maps = [m, delete_arc(m, m.arcs[3])]
        maps.append(deflate(maps[-1], maps[-1].arcs[0])[0])
        for mm in maps:
            assert mm.row.tolist() == [mm.nodes.index(i) for i, _ in mm.arcs]
            assert mm.col.tolist() == [mm.nodes.index(j) for _, j in mm.arcs]



class TestConnectivity:
    def test_connected(self):
        assert is_connected(k3())

    def test_disconnected(self):
        g = make_graph(4, [(1, 2), (3, 4)])
        assert not is_connected(g)


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
        m2, rec = deflate(m, (1, 2))
        g2 = support_graph(m2.nodes, m2.arcs)
        assert g2.nodes == (2, 3, 4)
        assert sorted(g2.edges) == [(2, 3), (2, 4), (3, 4)]
        assert m2.arcs == ((2, 3), (3, 4), (4, 2), (4, 3))
        assert m2.row.tolist() == [0, 1, 2, 2]
        assert m2.col.tolist() == [1, 2, 0, 1]
        assert rec.fixed_arc == (1, 2)
        assert 1 not in m2.nodes
        assert rec.redirected == (((4, 1), (4, 2)),)
        # the zeroed companions are gone from the map and no redirect
        # brings them back
        zeroed = {(1, 4), (2, 1), (3, 2)}
        assert not zeroed & set(m2.arcs)
        assert not zeroed & {new for _, new in rec.redirected}
        redirect_sources = {old for old, _ in rec.redirected}
        assert set(m.arcs) - set(m2.arcs) - redirect_sources - {rec.fixed_arc} == zeroed

    def test_expand_roundtrip(self):
        g = c4()
        m = build_arc_map(g)
        m2, rec = deflate(m, (1, 2))
        full = expand_cycle([rec], CycleCertificate(seq=(2, 3, 4)), original=g)
        assert full.canonical().seq == (1, 2, 3, 4)

    def test_chain_of_deflations(self):
        g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        m = build_arc_map(g)
        records = []
        m1, r1 = deflate(m, (1, 2))
        records.append(r1)
        m2, r2 = deflate(m1, (2, 3))
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
        m2, rec = deflate(m, (1, 2))
        assert ((3, 1), (3, 2)) in rec.redirected
        # the original (3,2) is zeroed: the one (3,2) left carries (3,1)
        assert sum(1 for a in m2.arcs if a == (3, 2)) == 1
        assert {new: old for old, new in rec.redirected}[(3, 2)] == (3, 1)

    def test_starvation_detected(self):
        # asymmetric arc map where deflating (1,2) zeroes every arc
        m = arc_map_from_arcs((1, 2, 3), [(1, 2), (2, 1), (1, 3), (3, 2)])
        with pytest.raises(StarvationError):
            deflate(m, (1, 2))


class TestDeletion:
    def test_single_direction_removed(self):
        g = c4()
        m = build_arc_map(g)
        m2 = delete_arc(m, (1, 2))
        assert (1, 2) not in m2.arcs
        assert (2, 1) in m2.arcs
        assert (1, 2) in support_graph(m2.nodes, m2.arcs).edges

    def test_out_arc_starvation(self):
        m = arc_map_from_arcs((1, 2, 3), [(1, 2), (2, 3), (3, 1), (2, 1)])
        with pytest.raises(StarvationError):
            delete_arc(m, (1, 2))


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
            degs = [g.degree(v) for v in g.nodes]
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
