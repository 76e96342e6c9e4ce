import itertools

import pytest

from conndel.errors import InvalidInputError
from conndel.graphs import UndirectedGraph, is_strongly_connected
from conndel.hardness import gen_pc_psc, gen_vd_psc
from conndel.oracles import (
    OracleBudget,
    oracle_is,
    oracle_pcpsc,
    oracle_vdpsc,
)

from .catalog import all_graphs
from .checks import in_neighbors, out_neighbors

BIG = OracleBudget(max_vertices=200, max_edges=400, max_k=3, max_candidates=10**7)


def triangle():
    return UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])


class TestPcGenerator:
    def test_triangle_vertex_count(self):
        d, gm = gen_pc_psc(triangle(), 1)
        assert d.n == 2 * 3 + (1 + 2) * 3 + 2 * 1 + 4 == 21

    def test_vertex_count_formula_various(self):
        for n, edges in [(1, []), (3, [(0, 1)]), (4, [(0, 1), (1, 2), (2, 3)])]:
            g = UndirectedGraph.from_edges(range(n), edges)
            for k in (1, 2, 3):
                d, _ = gen_pc_psc(g, k)
                assert d.n == 2 * g.n + (k + 2) * g.m + 2 * k + 4

    def test_output_strongly_connected(self):
        for g in all_graphs(4):
            d, _ = gen_pc_psc(g, 2)
            assert is_strongly_connected(d)

    def test_edgeless_input(self):
        g = UndirectedGraph(range(3))
        d, gm = gen_pc_psc(g, 1)
        assert is_strongly_connected(d)
        assert gm.hub == {}

    def test_hub_arc_counts(self):
        g = triangle()
        k = 2
        d, gm = gen_pc_psc(g, k)
        for e in g.edges:
            h = gm.hub[e]
            pendants = set(gm.hub_pendants[e])
            out = set(out_neighbors(d, h))
            into = set(in_neighbors(d, h))
            # 2(k+1) pendant arcs plus four selection-gadget arcs
            assert len(out & pendants) == k + 1
            assert len(into & pendants) == k + 1
            assert len(out - pendants) == 2
            assert len(into - pendants) == 2

    def test_solutions_live_on_vertex_arcs(self):
        # every oracle witness contracts only (v-, v+) arcs, never both
        # endpoints of one original edge
        for g in all_graphs(3):
            for k in (1, 2):
                d, gm = gen_pc_psc(g, k)
                seq = oracle_pcpsc(d, k, BIG)
                if seq is None:
                    continue
                vertex_arcs = {(gm.v_minus[v], gm.v_plus[v]): v for v in g.vertices}
                chosen = []
                for arc in seq:
                    assert arc in vertex_arcs, f"solution used gadget arc {arc}"
                    chosen.append(vertex_arcs[arc])
                for u, v in itertools.combinations(chosen, 2):
                    assert g.edge_between(u, v) is None

    def test_equivalence_with_independent_set(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for k in (1, 2):
                    want = oracle_is(g, k, BIG) is not None
                    d, _ = gen_pc_psc(g, k)
                    got = oracle_pcpsc(d, k, BIG) is not None
                    assert got == want, (n, sorted(g.edges.values()), k)

    def test_rejects_empty_graph(self):
        with pytest.raises(InvalidInputError):
            gen_pc_psc(UndirectedGraph([]), 1)


class TestVdGenerator:
    def test_single_edge_vertex_count(self):
        g = UndirectedGraph.from_edges(range(2), [(0, 1)])
        d, _ = gen_vd_psc(g, 1)
        # two originals plus two protected hubs each carrying k+1 new
        assert d.n == 2 + 2 * 3

    def test_output_strongly_connected(self):
        for g in all_graphs(4):
            d, _ = gen_vd_psc(g, 2)
            assert is_strongly_connected(d)

    def test_edgeless_two_vertices_is_yes(self):
        g = UndirectedGraph(range(2))
        d, _ = gen_vd_psc(g, 1)
        assert oracle_vdpsc(d, 1, BIG) is not None
        assert oracle_is(g, 1, BIG) is not None

    def test_solutions_never_touch_cycle_vertices(self):
        for g in all_graphs(3):
            for k in (1, 2):
                d, origin = gen_vd_psc(g, k)
                got = oracle_vdpsc(d, k, BIG)
                if got is None:
                    continue
                for v in got:
                    assert origin[v].startswith("vertex"), origin[v]

    def test_equivalence_with_independent_set(self):
        for n in range(1, 4):
            for g in all_graphs(n):
                for k in (1, 2):
                    want = oracle_is(g, k, BIG) is not None
                    d, _ = gen_vd_psc(g, k)
                    got = oracle_vdpsc(d, k, BIG) is not None
                    assert got == want, (n, sorted(g.edges.values()), k)
