import itertools
import random

import pytest

from conndel.errors import BudgetExceededError, ContractionError, InvalidInputError
from conndel.graphs import Digraph, UndirectedGraph, contract_sequence
from conndel.oracles import (
    OracleBudget,
    is_pcpsc_witness,
    is_vdpsc_witness,
    oracle_is,
    oracle_pcpsc,
    oracle_vdpsc,
    oracle_wbd,
)
from conndel.solver import WbdInstance, normalize, solve

from . import naive
from .catalog import complete, cycle
from .naive import oracle_irrelevance
from .strategies import random_digraph


def dicycle(n):
    return Digraph.from_arcs(range(n), [(i, (i + 1) % n) for i in range(n)])


def bidirected(g):
    arcs = []
    for u, v in g.edges.values():
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph.from_arcs(g.vertices, arcs)


def unit(g, k, wstar):
    return normalize(WbdInstance(g, k, float(wstar), {e: 1.0 for e in g.edges}, frozenset()))


class TestWbd:
    def test_k4_matching(self):
        sol = oracle_wbd(unit(complete(4), 2, 2))
        assert sol is not None and sol.weight == 2.0

    def test_cycle_no(self):
        assert oracle_wbd(unit(cycle(5), 1, 1)) is None

    def test_empty_solution(self):
        sol = oracle_wbd(unit(cycle(5), 0, 0))
        assert sol is not None and sol.edges == ()

    def test_monotone_in_k_antitone_in_target(self):
        g = complete(5)
        answers = {}
        for k in range(0, 4):
            for wstar in range(0, 5):
                answers[(k, wstar)] = oracle_wbd(unit(g, k, wstar)) is not None
        for k in range(0, 3):
            for wstar in range(0, 5):
                if answers[(k, wstar)]:
                    assert answers[(k + 1, wstar)]
        for k in range(0, 4):
            for wstar in range(0, 4):
                if answers[(k, wstar + 1)]:
                    assert answers[(k, wstar)]

    def test_refuses_what_solve_refuses_when_not_biconnected(self):
        # Two triangles sharing vertex 2, which is a cut-vertex.
        g = UndirectedGraph.from_edges(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        for k in (0, 1):
            inst = WbdInstance(g, k, float(k), {e: 1.0 for e in g.edges})
            for referee in (solve, oracle_wbd):
                with pytest.raises(InvalidInputError, match="not biconnected"):
                    referee(inst)

    def test_budget_refusal(self):
        tight = OracleBudget(max_vertices=3)
        with pytest.raises(BudgetExceededError):
            oracle_wbd(unit(complete(4), 1, 1), tight)
        with pytest.raises(BudgetExceededError):
            oracle_wbd(unit(complete(4), 1, 1), OracleBudget(max_candidates=2))


class TestPcPsc:
    def test_directed_cycle_contracts_freely(self):
        for n in (4, 6):
            for k in (1, 2):
                assert oracle_pcpsc(dicycle(n), k) is not None

    def test_two_cycle_contracts_to_a_point(self):
        d = Digraph.from_arcs(range(2), [(0, 1), (1, 0)])
        assert oracle_pcpsc(d, 1) is not None

    def test_order_robustness(self):
        # If some ordering of an arc set works, the set is reported feasible:
        # chained arcs (0,1),(1,2) work in either order here.
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        seq = oracle_pcpsc(d, 2)
        assert seq is not None

    def test_infeasible(self):
        # A star of 2-cycles: contracting any arc creates a dead pendant.
        d = Digraph.from_arcs(
            range(4), [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]
        )
        assert oracle_pcpsc(d, 1) is None

    def test_witness_revalidates_through_contraction(self):
        from conndel.graphs import contract_sequence, is_strongly_connected
        from conndel.hardness import gen_pc_psc

        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
        d, _ = gen_pc_psc(g, 2)
        seq = oracle_pcpsc(d, 2, OracleBudget(max_vertices=60, max_edges=120))
        assert seq is not None
        assert is_strongly_connected(contract_sequence(d, seq))


class TestVdPsc:
    def test_bidirected_k4_minus_two(self):
        assert oracle_vdpsc(bidirected(complete(4)), 2) is not None

    def test_directed_cycle_breaks(self):
        assert oracle_vdpsc(dicycle(4), 1) is None

    def test_exactly_k_semantics(self):
        d = bidirected(UndirectedGraph.from_edges(range(2), [(0, 1)]))
        assert oracle_vdpsc(d, 1) is not None
        assert oracle_vdpsc(d, 2) is None  # cannot delete everything


def small_digraphs():
    """A single vertex; directed cycles on 2-5 vertices, with and without a
    chord; and random digraphs on 2-5 vertices with at most 7 arcs (8 on
    four vertices or fewer), so that every n-sequence of arcs can be tried."""
    rng = random.Random(5)
    out = [Digraph([0])]
    for n in range(2, 6):
        out.append(dicycle(n))
        if n >= 3:
            out.append(Digraph.from_arcs(range(n), dicycle(n).arc_pairs() + [(0, 2)]))
        kept = 0
        while kept < 6:
            d = random_digraph(rng, n, 0.45)
            if d.m <= (7 if n == 5 else 8):
                out.append(d)
                kept += 1
    return out


def budgets(d):
    return sorted({0, 1, 2, d.n})


class TestWitnessChecks:
    """The two digraph witness checks against their definitions."""

    def test_vdpsc_against_definition(self):
        for d in small_digraphs():
            vertices = set(d.vertices)
            arcs = d.arc_pairs()
            for k in budgets(d):
                for combo in itertools.combinations(sorted(vertices), k):
                    rest = vertices - set(combo)
                    kept = [(t, h) for t, h in arcs if t in rest and h in rest]
                    expect = bool(rest) and naive.strongly_connected(rest, kept)
                    assert is_vdpsc_witness(d, k, combo) == expect, (arcs, combo)
                    assert not is_vdpsc_witness(d, k + 1, combo)
                    if combo:
                        assert not is_vdpsc_witness(d, k + 1, combo + combo[:1])

    def test_pcpsc_against_definition(self):
        for d in small_digraphs():
            for k in budgets(d):
                for seq in itertools.permutations(d.arc_pairs(), k):
                    try:
                        out = contract_sequence(d, seq)
                    except ContractionError:
                        expect = False
                    else:
                        expect = naive.strongly_connected(set(out.vertices), out.arc_pairs())
                    assert is_pcpsc_witness(d, k, seq) == expect, (d.arc_pairs(), seq)
                    assert not is_pcpsc_witness(d, k + 1, seq)


class TestIndependentSet:
    def test_triangle(self):
        tri = complete(3)
        assert oracle_is(tri, 1) is not None
        assert oracle_is(tri, 2) is None

    def test_c5_two(self):
        got = oracle_is(cycle(5), 2)
        assert got is not None
        u, v = sorted(got)
        assert cycle(5).edge_between(u, v) is None


class TestIrrelevance:
    def test_everything_is_irrelevant_in_a_no_instance(self):
        inst = unit(cycle(6), 1, 1)
        for e in inst.graph.edges:
            assert oracle_irrelevance(inst, e)

    def test_symmetric_alternatives_make_edges_irrelevant(self):
        inst = unit(complete(4), 1, 1)
        for e in inst.graph.edges:
            assert oracle_irrelevance(inst, e)

    def test_unique_solution_edge_is_not_irrelevant(self):
        # theta(1,2,2): the hub edge is the only deletable edge.
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
        inst = unit(g, 1, 1)
        hub = g.edge_between(0, 1)
        assert not oracle_irrelevance(inst, hub)
