import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conndel.errors import ContractionError, InvalidInputError
from conndel.graphs import (
    Digraph,
    Path,
    UndirectedGraph,
    contract_sequence,
    has_path_without,
    is_biconnected,
    is_biconnected_without,
    is_strongly_connected,
    max_flow_bounded,
    path_contract,
    reachable,
)

from . import naive
from .catalog import complete, cycle
from .checks import path_in_graph
from .strategies import digraphs, ear_graphs, undirected_graphs


def path_graph(n):
    return UndirectedGraph.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


class TestBiconnectivity:
    def test_cycles_are_biconnected(self):
        for n in range(3, 9):
            assert is_biconnected(cycle(n))

    def test_path_middle_vertex_is_a_cut_vertex(self):
        g = path_graph(3)
        assert not is_biconnected(g)
        cut = {
            v
            for v in g.vertices
            if not naive.connected(g.vertices - {v}, [e for e in g.edges.values() if v not in e])
        }
        assert cut == {1}

    def test_single_edge_counts_as_biconnected(self):
        assert is_biconnected(UndirectedGraph.from_edges([0, 1], [(0, 1)]))

    def test_tiny_and_disconnected_graphs(self):
        assert not is_biconnected(UndirectedGraph([0]))
        assert not is_biconnected(UndirectedGraph([]))
        assert not is_biconnected(UndirectedGraph.from_edges(range(4), [(0, 1), (2, 3)]))

    def test_removal_views_match_real_deletion(self):
        g = complete(4)
        for eid in g.edge_ids():
            assert is_biconnected_without(g, frozenset({eid})) == is_biconnected(
                g.without_edge(eid)
            )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(undirected_graphs(min_n=2, max_n=8), ear_graphs(min_n=3, max_n=9)), st.data())
    def test_removal_views_match_definition_on_relabelled_graphs(self, g, data):
        # Names from n up, so the root min(vertices) is no fixed original
        # vertex; shuffled edge ids; up to four removed edges, which may
        # disconnect the graph or leave it empty.
        n, m = g.n, g.m
        names = data.draw(st.permutations(range(n, 3 * n + 1)))[:n]
        ids = data.draw(st.permutations(range(3 * m + 1)))[:m]
        h = UndirectedGraph(
            names, [(i, names[u], names[v]) for i, (u, v) in zip(ids, g.edges.values())]
        )
        removed = frozenset(
            data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=4)) if m else ()
        )
        kept = [pair for eid, pair in h.edges.items() if eid not in removed]
        assert is_biconnected_without(h, removed) == naive.biconnected_by_definition(
            set(h.vertices), kept
        )

    @settings(max_examples=150, deadline=None)
    @given(undirected_graphs(min_n=2, max_n=8))
    def test_matches_definition_based_check(self, g):
        edges = list(g.edges.values())
        assert is_biconnected(g) == naive.biconnected_by_definition(set(g.vertices), edges)

    def test_three_way_equivalence_on_random_graphs(self):
        # biconnected <=> connected after deleting any one vertex
        #             <=> kappa(u, v) >= 2 for every non-adjacent pair (n >= 3)
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(3, 12)
            pairs = list(itertools.combinations(range(n), 2))
            m = rng.randint(n - 1, min(len(pairs), 2 * n))
            g = UndirectedGraph.from_edges(range(n), rng.sample(pairs, m))
            by_definition = naive.biconnected_by_definition(set(g.vertices), list(g.edges.values()))
            assert is_biconnected(g) == by_definition
            if naive.connected(set(g.vertices), list(g.edges.values())):
                via_flow = all(
                    len(max_flow_bounded(g, u, v, 2)) >= 2
                    for u, v in itertools.combinations(sorted(g.vertices), 2)
                    if g.edge_between(u, v) is None
                )
                assert is_biconnected(g) == via_flow


class TestStrongConnectivity:
    def test_directed_cycle(self):
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_strongly_connected(d)

    def test_dag_is_not(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (0, 2), (1, 2)])
        assert not is_strongly_connected(d)

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph([5]))

    @given(digraphs(min_n=0, max_n=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_both_ways(self, d):
        vertices = set(d.vertices)
        arcs = d.arc_pairs()
        expect = naive.strongly_connected(vertices, arcs)
        reverse = Digraph.from_arcs(vertices, [(h, t) for t, h in arcs])
        assert is_strongly_connected(d) == expect
        assert is_strongly_connected(reverse) == expect


class TestMaxFlow:
    def test_c4_opposite_corners(self):
        assert len(max_flow_bounded(cycle(4), 0, 2)) == 2

    def test_k4_value_matches_exhaustive_family_search(self):
        g = complete(4)
        for x, y in itertools.combinations(range(4), 2):
            family = naive.max_disjoint_path_family(list(g.edges.values()), x, y)
            assert len(family) == 3
            assert len(max_flow_bounded(g, x, y)) == 3

    def test_path_endpoints(self):
        assert len(max_flow_bounded(path_graph(5), 0, 4)) == 1

    def test_bounded_variants(self):
        assert len(max_flow_bounded(complete(4), 0, 3, 2)) == 2
        assert len(max_flow_bounded(cycle(4), 0, 2, 2)) == 2
        tree = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (1, 3)])
        assert len(max_flow_bounded(tree, 0, 2, 2)) == 1

    def test_rejects_equal_endpoints(self):
        with pytest.raises(InvalidInputError):
            max_flow_bounded(cycle(4), 1, 1)

    def test_direct_edge_contributes_one_short_path(self):
        paths = max_flow_bounded(complete(4), 0, 1)
        assert Path((0, 1), (0,)) in paths or any(p.vertices == (0, 1) for p in paths)

    @settings(max_examples=120, deadline=None)
    @given(undirected_graphs(min_n=2, max_n=7), st.sampled_from([None, 1, 2, 3]), st.data())
    def test_paths_are_internally_disjoint_and_value_is_max(self, g, cap, data):
        # Shuffled edge ids, so that id order says nothing about path order.
        ids = data.draw(st.permutations(range(g.m)))
        g = UndirectedGraph(g.vertices, [(i, u, v) for i, (u, v) in zip(ids, g.edges.values())])
        vs = sorted(g.vertices)
        x = data.draw(st.sampled_from(vs))
        y = data.draw(st.sampled_from([v for v in vs if v != x]))
        paths = max_flow_bounded(g, x, y, cap)
        interiors = [set(p.interior) for p in paths]
        for a, b in itertools.combinations(range(len(interiors)), 2):
            assert not interiors[a] & interiors[b]
        for p in paths:
            assert p.vertices[0] == x and p.vertices[-1] == y
            assert len(p.edges) == len(p.vertices) - 1
            for (a, b), eid in zip(zip(p.vertices, p.vertices[1:]), p.edges):
                assert g.edge_between(a, b) == eid
        assert [p.vertices for p in paths] == sorted(p.vertices for p in paths)
        expect = naive.disjoint_paths_value(set(g.vertices), list(g.edges.values()), x, y)
        assert len(paths) == (expect if cap is None else min(cap, expect))

    @settings(max_examples=120, deadline=None)
    @given(undirected_graphs(min_n=2, max_n=8), st.sampled_from([None, 1, 2, 3]), st.data())
    def test_removed_edges_match_a_copy(self, g, cap, data):
        ids = data.draw(st.permutations(range(g.m)))
        g = UndirectedGraph(g.vertices, [(i, u, v) for i, (u, v) in zip(ids, g.edges.values())])
        removed = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.edges)))) if g.m else ())
        vs = sorted(g.vertices)
        x, y = data.draw(st.lists(st.sampled_from(vs), min_size=2, max_size=2, unique=True))
        assert max_flow_bounded(g, x, y, cap, removed_edges=removed) == max_flow_bounded(
            g.without_edges(removed), x, y, cap
        )

    def test_menger_consistency_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(3, 9)
            pairs = list(itertools.combinations(range(n), 2))
            g = UndirectedGraph.from_edges(
                range(n), rng.sample(pairs, rng.randint(n - 1, len(pairs)))
            )
            vs = sorted(g.vertices)
            x, y = rng.sample(vs, 2)
            if g.edge_between(x, y) is not None:
                continue
            sep = naive.min_vertex_separator(set(g.vertices), list(g.edges.values()), x, y)
            if not naive.connected(set(g.vertices), list(g.edges.values())):
                continue
            assert len(max_flow_bounded(g, x, y)) == len(sep)


class TestReachable:
    @settings(max_examples=200, deadline=None)
    @given(undirected_graphs(min_n=2, max_n=8), st.data())
    def test_matches_components_of_the_remaining_graph(self, g, data):
        vs = sorted(g.vertices)
        x, y = data.draw(st.lists(st.sampled_from(vs), min_size=2, max_size=2, unique=True))
        gone_v = {v for v in vs if v not in (x, y) and data.draw(st.booleans())}
        gone_e = {e for e in sorted(g.edges) if data.draw(st.booleans())}
        left = [
            uv for e, uv in g.edges.items() if e not in gone_e and not set(uv) & gone_v
        ]
        comp = next(c for c in naive.components(set(vs) - gone_v, left) if x in c)
        assert reachable(g, (x,), gone_e, gone_v) == comp
        assert has_path_without(g, x, y, gone_e, gone_v) == (y in comp)

    def test_removed_terminal_is_rejected(self):
        with pytest.raises(InvalidInputError):
            reachable(cycle(4), (0,), removed_vertices={0})


class TestPathContract:
    def test_directed_triangle_becomes_two_cycle(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 2), (2, 0)])
        out, mapping = path_contract(d, (0, 1))
        assert out.n == 2
        assert is_strongly_connected(out)
        assert mapping[0] == mapping[1]

    def test_hand_worked_example_drops_everything(self):
        # x=0, y=1, a=2 with arcs (x,y),(y,x),(x,a),(a,y): contracting (x,y)
        # keeps only in-arcs of x and out-arcs of y, which are both the
        # (y,x) arc and collapse to a removed loop, so no arcs survive.
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 0), (0, 2), (2, 1)])
        out, mapping = path_contract(d, (0, 1))
        assert sorted(out.vertices) == [2, 3]
        assert out.arc_pairs() == []
        assert not is_strongly_connected(out)

    def test_missing_arc_rejected(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ContractionError):
            path_contract(d, (1, 0))

    def test_redirection_keeps_inbound_of_tail_and_outbound_of_head(self):
        # w -> x -> y -> u plus (u, w) back arc: contract (x, y).
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        out, mapping = path_contract(d, (1, 2))
        z = mapping[1]
        assert out.arc_between(0, z) is not None
        assert out.arc_between(z, 3) is not None
        assert is_strongly_connected(out)

    @settings(max_examples=100, deadline=None)
    @given(digraphs(min_n=2, max_n=8))
    def test_direct_build_matches_the_constructor(self, d):
        # path_contract skips the constructor's checks and sorts; every
        # field it fills must be what the constructor would make.
        for t, h in d.arc_pairs():
            out, _ = path_contract(d, (t, h))
            built = Digraph(
                out.vertices,
                [(aid, a, b) for aid, (a, b) in out.arcs.items()],
                next_vertex_id=out._next_vertex_id,
            )
            for slot in Digraph.__slots__:
                assert getattr(out, slot) == getattr(built, slot), slot


class TestContractSequence:
    def test_two_disjoint_arcs_of_c5(self):
        d = Digraph.from_arcs(range(5), [(i, (i + 1) % 5) for i in range(5)])
        out = contract_sequence(d, [(0, 1), (2, 3)])
        assert out.n == 3
        assert is_strongly_connected(out)
        assert sorted(t_h for t_h in out.arc_pairs())  # still a cycle
        assert out.m == 3

    def test_empty_sequence_is_identity(self):
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert contract_sequence(d, []) == d

    def test_vanished_arc_is_reported(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ContractionError, match=r"\(2,0\)"):
            # After contracting (0,1) the (2,0) arc is redirected, and after
            # contracting its image the original pair no longer maps to an arc.
            contract_sequence(d, [(0, 1), (1, 2), (2, 0)])

    @settings(max_examples=100, deadline=None)
    @given(digraphs(min_n=2, max_n=8), st.randoms(use_true_random=False))
    def test_disjoint_sets_contract_in_any_order(self, d, rnd):
        arcs = sorted(d.arcs.values())
        rnd.shuffle(arcs)
        chosen = []
        busy = set()
        for t, h in arcs:
            if t not in busy and h not in busy:
                chosen.append((t, h))
                busy.update((t, h))
            if len(chosen) == 3:
                break
        if len(chosen) < 2:
            return
        perm = list(chosen)
        rnd.shuffle(perm)
        a = contract_sequence(d, chosen)
        b = contract_sequence(d, perm)
        assert a.n == b.n and a.m == b.m
        from .catalog import digraph_isomorphic

        assert digraph_isomorphic(a, b)


class TestGraphValue:
    def test_ids_are_stable_under_deletion(self):
        g = complete(4)
        eid = g.edge_between(1, 2)
        g2 = g.without_edge(eid)
        assert set(g2.edges) == set(g.edges) - {eid}
        g3, (new_id,) = g2.with_edges([(1, 2)])
        assert new_id not in g.edges  # tombstoned ids are never reused

    def test_rejects_self_loops_parallels_and_ghost_vertices(self):
        with pytest.raises(InvalidInputError):
            UndirectedGraph.from_edges([0, 1], [(0, 0)])
        with pytest.raises(InvalidInputError):
            UndirectedGraph.from_edges([0, 1], [(0, 1), (1, 0)])
        with pytest.raises(InvalidInputError):
            UndirectedGraph.from_edges([0, 1], [(0, 2)])
        with pytest.raises(InvalidInputError):
            Digraph.from_arcs([0, 1], [(0, 1), (0, 1)])

    def test_digraph_allows_antiparallel_arcs(self):
        d = Digraph.from_arcs([0, 1], [(0, 1), (1, 0)])
        assert d.m == 2

    def test_path_rejects_repeats(self):
        with pytest.raises(InvalidInputError):
            Path((0, 1, 0))

    def test_path_in_graph_checks_edges(self):
        g = cycle(4)
        p = path_in_graph(g, [0, 1, 2])
        assert p.edges == (g.edge_between(0, 1), g.edge_between(1, 2))
        with pytest.raises(InvalidInputError):
            path_in_graph(g, [0, 2])
