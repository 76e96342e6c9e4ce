import random

from conndel.families import (
    distinct_partner_instance,
    random_biconnected_graph,
    shared_partner_instance,
)
from conndel.graphs import Digraph, UndirectedGraph, is_biconnected

from .strategies import random_digraph
from .catalog import (
    all_graphs,
    canonical_form,
    digraph_isomorphic,
    edge_colored_canonical_form,
    graphs_isomorphic,
)


class TestCanonicalForms:
    def test_relabelings_collide(self):
        g = UndirectedGraph.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        rng = random.Random(1)
        for _ in range(10):
            perm = list(range(5))
            rng.shuffle(perm)
            h = UndirectedGraph.from_edges(
                range(5), [(perm[u], perm[v]) for u, v in g.edges.values()]
            )
            assert canonical_form(h) == canonical_form(g)
            assert graphs_isomorphic(g, h)

    def test_distinguishes_non_isomorphic(self):
        path = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
        star = UndirectedGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(path) != canonical_form(star)

    def test_edge_colors_matter(self):
        g = UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
        a = edge_colored_canonical_form(g, frozenset({0}))
        b = edge_colored_canonical_form(g, frozenset({1}))
        c = edge_colored_canonical_form(g, frozenset({0, 1}))
        assert a == b  # symmetric role
        assert a != c


class TestEnumeration:
    def test_unlabeled_graph_counts(self):
        # known values: 1, 2, 4, 11, 34
        for n, count in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
            assert len(all_graphs(n)) == count

    def test_biconnected_counts(self, catalog7):
        by_n = {}
        for g in catalog7:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        # known biconnected counts: n=4: 3, n=5: 10, n=6: 56, n=7: 468
        assert by_n == {2: 1, 3: 1, 4: 3, 5: 10, 6: 56, 7: 468}

    def test_catalog_members_are_biconnected_and_distinct(self, catalog7):
        seen = set()
        for g in catalog7:
            assert is_biconnected(g)
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)


class TestDigraphIso:
    def test_cycle_relabelings(self):
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        e = Digraph.from_arcs([5, 7, 9, 11], [(7, 5), (5, 11), (11, 9), (9, 7)])
        assert digraph_isomorphic(d, e)

    def test_orientation_matters(self):
        a = Digraph.from_arcs(range(3), [(0, 1), (0, 2)])
        b = Digraph.from_arcs(range(3), [(0, 1), (2, 0)])
        assert not digraph_isomorphic(a, b)

    def test_random_relabelings(self):
        rng = random.Random(5)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(2, 7))
            perm = sorted(d.vertices)
            rng.shuffle(perm)
            m = dict(zip(sorted(d.vertices), perm))
            e = Digraph.from_arcs(
                d.vertices, sorted((m[t], m[h]) for t, h in d.arc_pairs())
            )
            assert digraph_isomorphic(d, e)


class TestFamilies:
    def test_random_biconnected_really_is(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_biconnected_graph(rng, rng.randint(3, 10), rng.randint(0, 5))
            assert is_biconnected(g)

    def test_hub_instances_are_biconnected(self):
        for sub in (False, True):
            assert is_biconnected(shared_partner_instance(5, subdivide=sub).instance.graph)
            assert is_biconnected(distinct_partner_instance(5, subdivide=sub).instance.graph)
