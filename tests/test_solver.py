import itertools
import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conndel.criticality import find_clean_stretch
from conndel.errors import InternalInconsistencyError, InvalidInputError
from conndel.families import (
    distinct_partner_instance,
    heavy_rim_hub,
    hook_gadget,
    planted_pair,
    random_biconnected_graph,
    random_hook_gadget,
    random_weights,
    shared_partner_instance,
)
from conndel.graphs import UndirectedGraph, is_biconnected_without
from conndel import criticality as criticality_module
from conndel import kernel as kernel_module
from conndel import solver as solver_module
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import (
    RoundCache,
    SolveStats,
    WbdInstance,
    freeze_rounds,
    greedy_deletion_set,
    heavy_order,
    irrelevant_edge,
    mu,
    normalize,
    reduction_step,
    solution_from_distinct_partners,
    solve,
    validate_instance,
    verify_solution,
)

from . import naive
from .catalog import complete, cycle
from .checks import analysis_after, gammas
from .naive import oracle_irrelevance
from .strategies import ear_graphs

BIG = OracleBudget(max_vertices=16, max_edges=50, max_k=3)


def unit(g, k, wstar):
    return WbdInstance(g, k, float(wstar), {e: 1.0 for e in g.edges}, frozenset())


def ladder(m):
    """Two rails of m vertices plus rungs; interior rungs are deletable."""
    edges = []
    for i in range(m - 1):
        edges.append((i, i + 1))
        edges.append((m + i, m + i + 1))
    for i in range(m):
        edges.append((i, m + i))
    return UndirectedGraph.from_edges(range(2 * m), edges)


def greedy_miss_instance():
    """K4 at k = 2, w* = 4, pool cut to 4 by the knob: greedy deletes 01
    (3), which makes 02 and 13 critical, then 23 (0.5), and misses w*;
    the top two weights (5) do not rule the target out, so the solver
    branches and finds the matching {02, 13} (2 + 2)."""
    g = complete(4)
    by_pair = {(0, 1): 3.0, (0, 2): 2.0, (1, 3): 2.0, (2, 3): 0.5, (0, 3): 0.25, (1, 2): 0.25}
    weights = {e: by_pair[g.endpoints(e)] for e in g.edges}
    return WbdInstance(g, 2, 4.0, weights, frozenset()), lambda k: 4


def kn_gadget(n, k, h=3):
    """``hook_gadget`` on K_n less its edges 01 and 02, room for two
    chords: hooks of weight 60, 59, 58 and 57 (the first h), chords 30,
    every other edge 1.  No vertex drops to degree 2 when hooks go, so the degree rule
    lets the heavy hooks through together."""
    base = complete(n).without_edges((0, 1))
    return hook_gadget(random.Random(n), base, k, (60.0, 59.0, 58.0, 57.0)[:h], light=(1, 1))


class TestBoundaryValidation:
    def test_public_entries_reject_bad_instances(self):
        from conndel.kernel import kernelize

        g = complete(4)
        weights = {e: 1.0 for e in g.edges}
        bad = [
            unit(g, -1, 1),
            WbdInstance(g, 1, float("nan"), weights, frozenset()),
            WbdInstance(g, 1, float("inf"), weights, frozenset()),
            WbdInstance(g, 1, 1.0, {**weights, 0: float("inf")}, frozenset()),
            WbdInstance(g, 1, 1.0, {**weights, 0: float("nan")}, frozenset()),
            WbdInstance(g, 1, 1.0, {**weights, 0: -0.5}, frozenset()),
        ]
        for inst in bad:
            with pytest.raises(InvalidInputError):
                solve(inst)
            with pytest.raises(InvalidInputError):
                oracle_wbd(inst)
        with pytest.raises(InvalidInputError):
            kernelize(g, -1)

    @pytest.mark.parametrize(
        "weights, message",
        [
            # The first offender in the map's order is named, whichever
            # of the two checks it fails.
            ({0: 1.0, 1: float("nan"), 2: -1.0}, "edge 1 has non-finite weight nan"),
            ({0: 1.0, 1: -1.0, 2: float("inf")}, "edge 1 has negative weight -1.0"),
            ({0: float("-inf"), 1: 1.0}, "edge 0 has non-finite weight -inf"),
        ],
    )
    def test_refusal_names_the_first_offending_edge(self, weights, message):
        inst = WbdInstance(complete(4), 1, 1.0, weights, frozenset())
        with pytest.raises(InvalidInputError) as err:
            validate_instance(inst)
        assert str(err.value) == message

    def test_negative_zero_and_empty_weights_are_accepted(self):
        g = complete(4)
        validate_instance(WbdInstance(g, 1, 1.0, {0: -0.0, 1: 1.0}, frozenset()))
        validate_instance(WbdInstance(g, 1, 1.0, {}, frozenset()))


class TestNormalize:
    def test_cycle_freezes_everything(self):
        raw = unit(cycle(5), 1, 1)
        inst = normalize(raw)
        assert inst.potential_edges() == []
        assert inst.frozen == frozenset(raw.graph.edges)
        # The frozen set alone marks them: the weights are kept as given.
        assert inst.weights is raw.weights

    def test_k4_unchanged(self):
        inst = normalize(unit(complete(4), 1, 1))
        assert inst.frozen == frozenset()
        assert len(inst.potential_edges()) == 6

    def test_theta_keeps_only_hub_edge(self):
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
        inst = normalize(unit(g, 1, 1))
        assert inst.potential_edges() == [g.edge_between(0, 1)]

    def test_idempotent(self):
        inst = normalize(unit(complete(4), 2, 2))
        assert normalize(inst) == inst

    def test_rejects_non_biconnected(self):
        g = UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2)])
        with pytest.raises(InvalidInputError):
            normalize(unit(g, 1, 1))

    def test_tree_lives_as_long_as_the_graph(self):
        # Freezing keeps the DFS tree normalize decided on; deleting an
        # edge makes another graph and drops it.
        inst = normalize(unit(complete(5), 2, 2))
        assert inst.tree is not None and inst.tree.graph is inst.graph
        assert inst.with_frozen(frozenset((0,))).tree is inst.tree
        child = inst.child_after_deleting(0)
        assert child.tree is None
        assert normalize(child).tree.graph is child.graph

    def test_biconnectivity_is_decided_once(self, monkeypatch):
        # A DFS tree from critical_tree already proves biconnectivity, so a
        # cycle, every edge critical, makes no second pass; only a graph
        # with no tree (n < 3, or not biconnected) is checked again.
        calls = []
        original = solver_module.is_biconnected

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(solver_module, "is_biconnected", counted)
        assert normalize(unit(cycle(5), 1, 1)).potential_edges() == []
        assert calls == []
        single = UndirectedGraph.from_edges(range(2), [(0, 1)])
        assert normalize(unit(single, 1, 1)).frozen == frozenset(single.edges)
        for g in (
            UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2)]),
            UndirectedGraph(range(2)),
            UndirectedGraph(range(1)),
        ):
            with pytest.raises(InvalidInputError, match="not biconnected"):
                normalize(unit(g, 1, 1))
        assert len(calls) == 4


class TestHeavy:
    def test_ties_break_by_ascending_id(self):
        g = complete(4)
        weights = {0: 5.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 0.0, 5: 0.0}
        inst = WbdInstance(g, 2, 2.0, weights, frozenset())
        assert heavy_order(inst) == [0, 1, 2, 3, 4, 5]
        assert heavy_order(inst)[:2] == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(ear_graphs(min_n=3, max_n=9), st.data())
    def test_matches_its_definition(self, g, data):
        # Few distinct weights, so many ties; some edges frozen, some
        # missing from the weights.
        ids = sorted(g.edges)
        weighted = data.draw(st.sets(st.sampled_from(ids)))
        weights = {e: data.draw(st.sampled_from([0, 0.0, 0.5, 1, 1.0, 2.5])) for e in weighted}
        frozen = frozenset(data.draw(st.sets(st.sampled_from(ids))))
        inst = WbdInstance(g, 1, 0.0, weights, frozen)
        expect = sorted(inst.potential_edges(), key=lambda e: (-weights.get(e, 0.0), e))
        assert heavy_order(inst) == expect


class TestVerifySolution:
    def test_accepts_an_iterator(self):
        inst = unit(complete(4), 1, 1)
        assert verify_solution(inst, (0,))
        assert verify_solution(inst, (e for e in (0,)))
        assert not verify_solution(inst, (e for e in (0, 0)))


class TestEnumerateSmall:
    """Pools below mu(k): ``solve`` takes the first candidate, or branches
    over the whole normalized list."""

    def test_k4_matching(self):
        inst = normalize(unit(complete(4), 2, 2))
        sol = solve(inst)
        assert sol is not None and len(sol.edges) == 2
        u1, v1 = inst.graph.endpoints(sol.edges[0])
        u2, v2 = inst.graph.endpoints(sol.edges[1])
        assert {u1, v1} | {u2, v2} == {0, 1, 2, 3}  # a perfect matching

    def test_zero_budget_zero_target(self):
        inst = normalize(unit(cycle(5), 0, 0))
        sol = solve(inst)
        assert sol is not None and sol.edges == ()

    def test_frozen_cycle_is_no(self):
        inst = normalize(unit(cycle(6), 1, 1))
        assert solve(inst) is None

    def test_unnormalized_input_never_yields_a_critical_edge(self):
        # Two K4s joined by two disjoint edges: each joining edge is
        # critical, though both of its endpoints have degree 4.  The first
        # weighs 10, every other edge 1, so only that edge reaches w* = 5.
        pairs = list(itertools.combinations(range(4), 2))
        pairs += list(itertools.combinations(range(4, 8), 2))
        pairs += [(0, 4), (1, 5)]
        g = UndirectedGraph.from_edges(range(8), pairs)
        weights = {e: 1.0 for e in g.edges}
        weights[g.edge_between(0, 4)] = 10.0
        inst = WbdInstance(g, 1, 5.0, weights, frozenset())
        assert solve(inst) is None
        assert oracle_wbd(inst, BIG) is None


def planted_instance(rng, n, plants, k):
    """A random biconnected graph plus ``plants`` new vertices of degree 3
    whose edges carry the heaviest weights (10 to 19, base edges 0 to 5).
    At most one edge of a planted vertex can go, so the degree rule
    decides many prefixes."""
    g = random_biconnected_graph(rng, n, rng.randint(0, n))
    pairs = [g.endpoints(e) for e in g.edge_ids()]
    weights = [float(rng.randint(0, 5)) for _ in pairs]
    for p in range(n, n + plants):
        for u in rng.sample(range(n), 3):
            pairs.append((u, p))
            weights.append(float(rng.randint(10, 19)))
    g = UndirectedGraph.from_edges(range(n + plants), pairs)
    return WbdInstance(g, k, 0.0, dict(enumerate(weights)), frozenset())


class TestEnumeratorAgainstOracle:
    """The heavy order's cuts (the level cut, degree 2 in G - S) drop only
    sets that are no solutions, and the branch over a whole list searches
    the rest, so ``solve`` agrees with the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
    )
    def test_planted_degree_three_vertices(self, rng, n, plants, k):
        base = planted_instance(rng, n, plants, k)
        best = oracle_wbd(base, BIG).weight
        for w_star in (best, best + 0.5):
            inst = WbdInstance(base.graph, k, w_star, base.weights, frozenset())
            got = solve(inst)
            assert (got is None) == (w_star > best)
            if got is not None:
                assert len(got.edges) <= k and inst.reaches(got.edges)
                kept = [
                    inst.graph.endpoints(e) for e in inst.graph.edges if e not in got.edges
                ]
                assert naive.biconnected_by_definition(set(inst.graph.vertices), kept)


class TestEnumeratorAgainstNaive:
    """Below mu(k) a node's verified first candidate, or the branch over
    its whole list, each child freezing the siblings tried before it,
    returns the naive search's witness, sorted."""

    @staticmethod
    def agrees(inst):
        stats = SolveStats()
        got = solve(inst, stats=stats)
        expect = naive.first_witness(inst)
        assert (got and got.edges) == (expect and tuple(sorted(expect)))
        return stats

    @settings(max_examples=150, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=4, max_value=7),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.5, 0.7, 0.9, 1.0]),
    )
    def test_planted_instances(self, rng, n, plants, k, share):
        base = planted_instance(rng, n, plants, k)
        top = sorted(base.weights.values())[-k:]
        self.agrees(WbdInstance(base.graph, k, share * sum(top), base.weights, frozenset()))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([shared_partner_instance, distinct_partner_instance]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_subdivided_hubs(self, family, q, k, target):
        # Unit weights: only the chord and the rim can go, and after one
        # rim edge most others are critical.
        hub = family(q, k, float(min(target, k)), 1.0, [1.0] * (q + 1), subdivide=True)
        self.agrees(hub.instance)

    @settings(max_examples=100, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([3, 4]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.8, 1.0]),
    )
    def test_k4_gadgets(self, rng, hooks, k, share):
        base = random_biconnected_graph(rng, rng.randint(4, 6), rng.randint(2, 5))
        g, weights = random_hook_gadget(rng, base, hooks)
        inst = WbdInstance(g, k, 0.0, weights)
        self.agrees(replace(inst, w_star=share * oracle_wbd(inst, BIG).weight))

    def test_some_cases_branch(self):
        # On the shared-partner hubs' tight no's every rim edge can go
        # alone but no two together, and on the hot gadgets at their
        # optimum the first candidate takes too many attaching edges, so
        # each root's first candidate fails verification and the root
        # branches over its whole list, to a no on the hubs and a yes on
        # the gadgets.  This keeps the properties above from passing with
        # no branch at all.
        hubs = [
            shared_partner_instance(q, k, float(k), 1.0, [1.0] * (q + 1), subdivide=True)
            for q in range(3, 9)
            for k in (2, 3, 4)
        ]
        assert any(self.agrees(hub.instance).max_depth >= 1 for hub in hubs)
        for hooks, k in ((3, 2), (3, 3), (4, 3)):
            assert self.agrees(kn_gadget(6, k, hooks).instance).max_depth >= 1


class TestGreedy:
    def test_ladder_reaches_full_budget(self):
        inst = normalize(unit(ladder(6), 2, 2))
        pool = heavy_order(inst)[:2]
        picks, _ = greedy_deletion_set(inst, pool, RoundCache(inst.graph, inst.tree))
        assert len(picks) == 2
        assert is_biconnected_without(inst.graph, frozenset(picks))

    def test_wheel_stalls_after_the_chord(self):
        hub = shared_partner_instance(q=7, k=2)
        inst = normalize(hub.instance)
        pool = heavy_order(inst)[:9]
        picks, newly = greedy_deletion_set(inst, pool, RoundCache(inst.graph, inst.tree))
        assert picks == (hub.chord,)
        assert len(newly[0]) == len(hub.rim_edges)

    def test_frozen_graph_runs_zero_steps(self):
        inst = normalize(unit(cycle(5), 2, 1))
        pool = heavy_order(inst)[: mu(inst.k)]
        picks, newly = greedy_deletion_set(inst, pool, RoundCache(inst.graph, inst.tree))
        assert picks == () and newly == ()


class TestReductionPremise:
    """A stalled greedy run without a rich step is an internal inconsistency
    exactly when the lemma's premise len(pool) >= mu(k) >= k holds."""

    @pytest.mark.parametrize(
        "threshold, pool_size, raises",
        [(3, 3, True), (3, 4, True), (2, 2, True), (4, 3, False), (1, 3, False)],
    )
    def test_stalled_run_without_a_rich_step(self, monkeypatch, threshold, pool_size, raises):
        # K5 at k = 2: greedy is forced to stall after one pick that made
        # no marked edge critical, which the premise rules out.
        inst = normalize(unit(complete(5), 2, 2))
        pool = heavy_order(inst)[:pool_size]
        monkeypatch.setattr(
            solver_module,
            "greedy_deletion_set",
            lambda inst, pool, cache: ((pool[0],), (frozenset(),)),
        )
        step = lambda: reduction_step(inst, threshold, pool, RoundCache(inst.graph, None))
        if raises:
            with pytest.raises(InternalInconsistencyError, match="greedy stalled"):
                step()
        else:
            assert step().kind == "stuck"


class TestDistinctPartners:
    def test_staircase_seven_partners_k2(self):
        hub = distinct_partner_instance(q=6, k=2)
        g = normalize(hub.instance).graph
        pa = analysis_after(g, [hub.chord], 2)
        assert pa.distinct_partner_sets == 7
        sel = solution_from_distinct_partners(pa, 2)
        assert len(sel) == 2
        assert is_biconnected_without(g, frozenset(sel))
        # k=1 picks the first block leader
        sel1 = solution_from_distinct_partners(pa, 1)
        assert sel1 == (pa.edge(1),)

    def test_too_few_partner_sets_rejected(self):
        hub = shared_partner_instance(q=7, k=2)
        pa = analysis_after(normalize(hub.instance).graph, [hub.chord], 2)
        with pytest.raises(InvalidInputError):
            solution_from_distinct_partners(pa, 1)


def wheel_analysis(q=7, k=2, rim_weights=None):
    hub = shared_partner_instance(q=q, k=k, rim_weights=rim_weights)
    inst = normalize(hub.instance)
    return analysis_after(inst.graph, [hub.chord], k), inst


class TestIrrelevantEdge:
    def test_unit_weights_pick_lowest_id_interior_edge(self):
        pa, inst = wheel_analysis()
        stretch = find_clean_stretch(pa)
        assert stretch == (1, 8)
        ej = irrelevant_edge(pa, stretch, inst.weights)
        assert ej == pa.edge(2)

    def test_decreasing_weights_pick_the_last_interior_edge(self):
        pa, inst = wheel_analysis(rim_weights=[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0])
        stretch = find_clean_stretch(pa)
        ej = irrelevant_edge(pa, stretch, inst.weights)
        assert ej == pa.edge(stretch[1] - 1)

    def test_short_stretch_rejected(self):
        pa, inst = wheel_analysis()
        with pytest.raises(InvalidInputError):
            irrelevant_edge(pa, (1, 4), inst.weights)

    def test_declared_edge_is_irrelevant_under_oracle(self):
        pa, inst = wheel_analysis()
        ej = irrelevant_edge(pa, find_clean_stretch(pa), inst.weights)
        assert oracle_irrelevance(inst, ej, BIG)

    def test_exchange_sets_avoid_every_solution(self):
        # Every solution misses some gamma[j'-1,j'] + e_j' + gamma[j',j'+1].
        pa, inst = wheel_analysis()
        a, b = find_clean_stretch(pa)
        gamma = gammas(pa)
        pool = inst.potential_edges()
        solutions = [
            set(s)
            for size in range(inst.k + 1)
            for s in itertools.combinations(pool, size)
            if inst.weight_of(s) >= inst.w_star
            and is_biconnected_without(inst.graph, frozenset(s))
        ]
        assert solutions
        for s in solutions:
            ok = any(
                not (
                    s
                    & (
                        gamma[j - 1]
                        | {pa.edge(j)}
                        | gamma[j]
                    )
                )
                for j in range(a + 1, b)
            )
            assert ok, s


HUB = OracleBudget(max_vertices=20, max_edges=40, max_k=3)


class TestFreezeRuleAgainstOracle:
    """Freezing must keep some solution.  On ``heavy_rim_hub`` at w* = 7
    under a threshold of q or q + 1, greedy picks the chord first and
    stalls, and the rich step's clean stretch holds h inside whenever h
    is not at either end of the analysed rim edges.  Every solution holds
    h, so freezing any interior edge but the lightest (h is the heaviest)
    would turn these yes-instances into no-instances."""

    @pytest.mark.parametrize("k, q", [(2, 10), (2, 12), (3, 12), (3, 13)])
    def test_solve_agrees_with_oracle(self, k, q):
        refereed = 0
        for m in (q, q + 1):
            for pos in range(q + 1):
                hub = heavy_rim_hub(q, k, pos)
                inst = hub.at(7.0)
                stats = SolveStats()
                got = solve(inst, lambda _, m=m: m, stats) is not None
                assert got == (oracle_wbd(inst, HUB) is not None) == (hub.w_opt == 7.0), (m, pos)
                if got and stats.irrelevant_edges:
                    # h is rim edge ``pos``.
                    assert oracle_wbd(normalize(inst).with_frozen(frozenset((pos,))), HUB) is None
                    refereed += 1
        assert refereed >= q


class TestSolve:
    def test_k4_single_edge(self):
        sol = solve(unit(complete(4), 1, 1))
        assert sol is not None and len(sol.edges) == 1

    def test_cycle_is_no(self):
        for n in (3, 5, 8):
            assert solve(unit(cycle(n), 2, 1)) is None

    def test_zero_target_yes_with_empty_set(self):
        sol = solve(unit(cycle(5), 0, 0))
        assert sol is not None and sol.edges == ()

    def test_zero_budget_positive_target_no(self):
        assert solve(unit(complete(4), 0, 1)) is None

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(250):
            g = random_biconnected_graph(rng, rng.randint(3, 8), rng.randint(0, 5))
            w = random_weights(rng, g)
            inst = WbdInstance(g, rng.randint(0, 3), float(rng.randint(0, 8)), w, frozenset())
            got = solve(inst)
            expect = oracle_wbd(inst, BIG)
            assert (got is None) == (expect is None)
            if got is not None:
                assert verify_solution(inst, got.edges)

    def test_wheel_knob_fires_irrelevant_then_matches_oracle(self):
        hub = shared_partner_instance(q=7, k=2)
        stats = SolveStats()
        sol = solve(hub.instance, lambda k: 9, stats)
        assert stats.irrelevant_edges, "expected the irrelevant-edge path to fire"
        assert stats.analyses
        expect = oracle_wbd(hub.instance, BIG)
        assert (sol is None) == (expect is None)

    def test_knob_branches_when_greedy_misses_target(self):
        inst, mu_of = greedy_miss_instance()
        stats = SolveStats()
        sol = solve(inst, mu_of, stats)
        assert sol is not None and len(sol.edges) == 2
        assert stats.max_depth >= 1
        assert stats.max_branch_factor >= 1
        expect = oracle_wbd(inst, BIG)
        assert expect is not None

    def test_bound_decides_branch_children_without_normalizing(self, monkeypatch):
        # The hook gadget on K6: the best deletion set weighs 60 + 30
        # < w* = 90.5, but the degree rule lets {60, 59} through, so the
        # root's first candidate fails verification and the root is
        # normalized.  Greedy's picks (60, 30) miss w*, so the root
        # branches over its six heaviest edges.  Each child freezes the
        # siblings tried before it, so only the 60 and 59 children reach
        # w* with the k - 1 heaviest edges left to them; each one's first
        # candidate, another hot edge, fails verification, so each is
        # normalized.  The 58 child (58 + 30) misses that bound and is
        # decided without being normalized, and as no later child's bound
        # is higher, the last three are not tried.
        inst = kn_gadget(6, 2).at(90.5)
        calls = []

        def counting(i):
            calls.append(i)
            return normalize(i)

        monkeypatch.setattr(solver_module, "normalize", counting)
        stats = SolveStats()
        assert solve(inst, lambda k: 6, stats) is None
        assert stats.max_branch_factor == 6
        assert stats.nodes == 4  # the root, two hot-edge children, one failing child
        assert len(calls) == 3  # the root and the two hot-edge children
        assert stats.decided_before_dfs == 0
        assert oracle_wbd(inst, BIG) is None

    def test_structural_bounds_hold(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_biconnected_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
            k = rng.randint(0, 3)
            inst = WbdInstance(g, k, float(rng.randint(0, 5)), random_weights(rng, g), frozenset())
            stats = SolveStats()
            solve(inst, stats=stats)
            assert stats.max_depth <= k
            assert stats.max_branch_factor <= mu(k)
            assert stats.max_irrelevant_per_node <= g.m

    def test_stalled_greedy_falls_back_to_enumeration(self):
        # With a one-edge pool greedy stops after one pick, short of k = 2,
        # and no step is rich under the lowered threshold: the root falls
        # back to branching over its whole list, whose first child, one
        # edge reaching w*, is a leaf.
        g = complete(4)
        weights = {e: 5.0 for e in g.edges}
        inst = WbdInstance(g, 2, 1.0, weights, frozenset())
        stats = SolveStats()
        sol = solve(inst, lambda k: 1, stats)
        assert stats.fallbacks == 1 and stats.enumerations == 0
        assert (stats.nodes, stats.max_depth, stats.max_branch_factor) == (2, 1, 6)
        assert sol is not None and verify_solution(inst, sol.edges)
        assert oracle_wbd(inst, BIG) is not None

    def test_enumerator_passes_only_on_undecided_prefixes(self, monkeypatch):
        # K5 (edges 0-9) plus vertex 5 joined to 0, 1 and 2 by edges 10, 11
        # and 12 of weights 10, 9 and 8; every other edge weighs 1, k = 2.
        # A second edge at vertex 5 (degree 2 once 10 or 11 is gone) is
        # dropped by the degree rule, so the tight no (w* = 11.5) has no
        # candidate, and the yes (w* = 11) has {10, 0}.  At k = 3, with
        # edge 9 = (3, 4) of weight 10, edges 10 and 11 of weights 9 and 8
        # and every other edge weighing 1, the tight no (w* = 20.5) reaches
        # {9, 10}, whose only extension left by the level cut, 11, meets
        # vertex 5 at degree 2; the yes (w* = 20) takes {9, 10, 0}.  The
        # heavy order tests no prefix: each root is decided before its
        # DFS, and its one biconnectivity pass is the witness's check.
        g = UndirectedGraph.from_edges(
            range(6), list(itertools.combinations(range(5), 2)) + [(0, 5), (1, 5), (2, 5)]
        )
        weights = {e: 1.0 for e in g.edges}
        weights.update({10: 10.0, 11: 9.0, 12: 8.0})
        heavy3 = {e: 1.0 for e in g.edges}
        heavy3.update({9: 10.0, 10: 9.0, 11: 8.0})
        passes = []
        original = solver_module.is_biconnected_without

        def counted(graph, removed):
            passes.append(removed)
            return original(graph, removed)

        monkeypatch.setattr(solver_module, "is_biconnected_without", counted)
        for k, w, w_star, edges in (
            (2, weights, 11.5, None),
            (2, weights, 11.0, (0, 10)),
            (3, heavy3, 20.5, None),
            (3, heavy3, 20.0, (0, 9, 10)),
        ):
            inst = WbdInstance(g, k, w_star, w, frozenset())
            stats = SolveStats()
            passes.clear()
            sol = solve(inst, stats=stats)
            assert (stats.nodes, stats.decided_before_dfs, stats.enumerations) == (1, 1, 0)
            assert (sol and sol.edges) == edges
            assert passes == ([] if edges is None else [frozenset(edges)])
            assert (oracle_wbd(inst, BIG) is None) == (edges is None)

    def test_accepts_prefrozen_edges(self):
        g = complete(4)
        inst = WbdInstance(g, 1, 1.0, {e: 1.0 for e in g.edges}, frozenset({0, 1}))
        sol = solve(inst)
        assert sol is not None
        assert not (set(sol.edges) & {0, 1})


# Zero four times over: most edges weigh nothing, so a few decimal weights
# decide the answer.
DECIMALS = ("0", "0", "0", "0", "0.1", "0.2", "0.3", "0.4", "0.6", "0.7", "1.1", "1.3")


def desk_pair(k):
    """``planted_pair`` on a sparse ear graph of 12 vertices."""
    rng = random.Random(0)
    return planted_pair(rng, random_biconnected_graph(rng, 12, 14), k)


class TestBranchStopsAtFirstFailingBound:
    """Along the heavy order a branch child's top-k bound never rises, so
    the first child that fails it is the last one the node tries."""

    def test_hot_vertex_instance(self):
        # K28 plus vertex 29 joined to 1, 2, 3 by edges of weight 60, 59 and
        # 58, one K28 edge of weight 30, the rest 1: vertex 29 has degree
        # 3, so the degree rule lets only one of its edges go, and the
        # root's heavy order has no candidate reaching w*: a no before
        # its DFS, with no branch.
        hot = {(1, 29): 60.0, (2, 29): 59.0, (3, 29): 58.0, (4, 5): 30.0}
        pairs = list(itertools.combinations(range(1, 29), 2)) + [(1, 29), (2, 29), (3, 29)]
        g = UndirectedGraph.from_edges(range(1, 30), pairs)
        inst = WbdInstance(g, 2, 90.5, {e: hot.get(uv, 1.0) for e, uv in g.edges.items()})
        stats = SolveStats()
        assert solve(inst, stats=stats) is None
        assert (stats.nodes, stats.decided_before_dfs, stats.max_branch_factor) == (1, 1, 0)

    def test_hot_gadget_instance(self):
        # The hook gadget on K28, which the degree rule does not see: the
        # root branches over mu(2) = 346 edges, each child freezing the
        # siblings before it, and the third child (58 + 30) is the first
        # to miss the bound: the root, two hot-edge children, one leaf.
        inst = kn_gadget(28, 2).at(90.5)
        stats = SolveStats()
        assert solve(inst, stats=stats) is None
        assert stats.max_branch_factor == mu(2)
        assert (stats.nodes, stats.max_depth) == (4, 1)

    @pytest.mark.parametrize(
        "k, w_star, nodes",
        [(2, 159.5, 1), (2, 159.0, 3), (3, 189.5, 1), (3, 189.0, 3)],
    )
    def test_planted_pair(self, k, w_star, nodes):
        # The degree rule decides each tight no (w_opt + 1/2) at the root,
        # before its DFS; each yes branches over the 8 heaviest edges.
        pair = desk_pair(k)
        inst = pair.at(w_star)
        stats = SolveStats()
        sol = solve(inst, lambda k: 8, stats)
        assert stats.max_branch_factor == (8 if sol else 0)
        assert stats.nodes == nodes
        expect = oracle_wbd(inst, BIG)
        assert (sol is None) == (expect is None) == (w_star == pair.w_opt + 0.5)
        if sol is not None:
            assert verify_solution(inst, sol.edges)

    @pytest.mark.parametrize("k, w_star, nodes", [(2, 159.5, 2), (3, 189.5, 2)])
    def test_planted_pair_branch_on_tight_no(self, k, w_star, nodes):
        # The branch the root no longer reaches, driven on the normalized
        # root: the uv child is a no, and the second child, which may no
        # longer delete uv, is the first to miss the bound.
        pair = desk_pair(k)
        assert w_star == pair.w_opt + 0.5
        inst = normalize(pair.at(w_star))
        stats = SolveStats()
        assert solver_module._branch(inst, heavy_order(inst), 8, lambda k: 8, stats, 0) is None
        assert (stats.max_branch_factor, stats.nodes) == (8, nodes)


class TestBranchExclusion:
    """Each branch child freezes the siblings tried before it.  On K4
    gadgets, whose heavy attaching edges fail together, nodes under lowered
    thresholds branch, some of them twice over, and at the optimum and
    just above it the answers must be the oracle's."""

    @staticmethod
    def check(inst, k, threshold):
        mu_of = mu if threshold is None else (lambda _: threshold)
        best = oracle_wbd(replace(inst, k=k), BIG).weight
        for w_star in (best, best + 0.5):
            case = replace(inst, k=k, w_star=w_star)
            got = solve(case, mu_of)
            assert (got is None) == (w_star > best)
            assert got is None or verify_solution(case, got.edges)
        return best

    @settings(max_examples=80, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([3, 4]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([None, 2, 3, 4, 5]),
    )
    def test_sweep_gadgets(self, rng, hooks, k, threshold):
        base = random_biconnected_graph(rng, rng.randint(4, 6), rng.randint(2, 5))
        g, weights = random_hook_gadget(rng, base, hooks)
        self.check(WbdInstance(g, k, 0.0, weights), k, threshold)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=7),
        st.sampled_from([3, 4]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([None, 2, 3, 4, 5]),
    )
    def test_hot_gadgets(self, n, hooks, k, threshold):
        gadget = kn_gadget(n, k, hooks)
        assert self.check(gadget.instance, k, threshold) == gadget.w_opt


class TestNonBiconnectedInput:
    """A root decided before its DFS still refuses a graph that is not
    biconnected, as ``normalize`` does."""

    @pytest.mark.parametrize("k, w_star", [(1, 100.0), (1, 1.0), (0, 1.0), (0, 0.0)])
    def test_refused_before_or_after_a_candidate(self, k, w_star):
        # Two K4s sharing vertex 0, so no vertex has degree 2: at w* = 1 the
        # first candidate passes the degree rule and fails verification;
        # at w* = 100 no candidate reaches w* and no DFS runs; w* = 0 is
        # reached by the empty set.
        pairs = list(itertools.combinations((0, 1, 2, 3), 2))
        pairs += list(itertools.combinations((0, 4, 5, 6), 2))
        g = UndirectedGraph.from_edges(range(7), pairs)
        with pytest.raises(InvalidInputError, match="not biconnected"):
            solve(unit(g, k, w_star))


class TestDecimalWeights:
    """Decimal weights such as 0.3 + 0.7 + 0.3 = 1.3, whose float sums
    depend on the order of summation: the solver must still agree with the
    oracle and never report an inconsistency."""

    @pytest.mark.parametrize("mu_knob", [None, 2, 6])
    @settings(max_examples=500, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_solver_agrees_with_oracle(self, mu_knob, rng):
        n = rng.randint(4, 8)
        g = random_biconnected_graph(rng, n, rng.randint(n, 2 * n))
        texts = {e: rng.choice(DECIMALS) for e in g.edges}
        weights = {e: float(t) for e, t in texts.items()}
        k = rng.randint(1, 3)
        # The target is the exact decimal weight of the heaviest deletion
        # set, where rounding decides the answer.
        heaviest = oracle_wbd(WbdInstance(g, k, 0.0, weights), BIG)
        w_star = float(sum(Decimal(texts[e]) for e in heaviest.edges))
        inst = WbdInstance(g, k, w_star, weights, frozenset())
        got = solve(inst, mu if mu_knob is None else lambda _: mu_knob)
        expect = oracle_wbd(inst, BIG)
        assert (got is None) == (expect is None)
        if got is not None:
            assert verify_solution(inst, got.edges)


class TestHeavyOrderBeforeDfs:
    """A search node's first candidate, the first set its heavy order lets
    through the level cut and the degree rule, is a no when there is none,
    and the node's witness when it is feasible with at most mu(k)
    potential edges or is greedy's chain; on input-frozen edges and
    decimal weights the witness must be the naive search's on the
    normalized instance when it has at most mu(k) potential edges,
    greedy's picks when the freeze loop's first step on it is a yes, or at
    k = 1 the heaviest pool edge, and the answer the oracle's."""

    @pytest.mark.parametrize("mu_knob", [None, 3, 4, 5])
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_witness_is_the_enumerators(self, mu_knob, rng):
        n = rng.randint(4, 8)
        g = random_biconnected_graph(rng, n, rng.randint(0, 2 * n))
        texts = {e: rng.choice(DECIMALS) for e in g.edges}
        weights = {e: float(t) for e, t in texts.items()}
        frozen = frozenset(e for e in g.edges if rng.random() < 0.2)
        k = rng.randint(1, 3)
        mu_of = mu if mu_knob is None else lambda _: mu_knob
        heaviest = oracle_wbd(WbdInstance(g, k, 0.0, weights, frozen), BIG)
        best = sum(Decimal(texts[e]) for e in heaviest.edges)
        w_star = float(rng.choice([best, best + Decimal("0.1"), best * Decimal(rng.random())]))
        inst = WbdInstance(g, k, w_star, weights, frozen)
        got = solve(inst, mu_of)
        assert (got is None) == (oracle_wbd(inst, BIG) is None)
        witness = got and got.edges
        norm = normalize(inst)
        pool = heavy_order(norm)
        m = mu_of(k)
        if len(pool) <= m:
            first = naive.first_witness(norm)
            assert witness == (first and tuple(sorted(first)))
        elif not norm.reaches(()):
            step = reduction_step(norm, m, pool[:m], RoundCache(norm.graph, norm.tree))
            if step.kind == "full" and norm.reaches(step.picks):
                assert witness == tuple(sorted(step.picks))
        if k == 1 and not norm.reaches(()):
            assert witness == (tuple(pool[:1]) if pool and norm.reaches(pool[:1]) else None)


def reduction_summary(step):
    """What a reduction step found, down to the partner analysis."""
    pa = step.analysis
    found = None
    if pa is not None:
        found = (pa.edge_ids, pa.partners, pa.switches, pa.components, gammas(pa), pa.affected)
    return step.kind, step.picks, step.edge, found


@pytest.fixture
def cache_rounds(monkeypatch):
    """Every reduction step the freeze loop takes, for the solver or the
    kernel, each checked at once against a second run of it on a fresh
    cache with no DFS tree, so that every residual critical set is a fresh
    one (a wrong freeze could keep the loop from ending): (the cache the
    loop passed, what it found)."""
    rounds = []
    original = solver_module.reduction_step

    def checked(inst, m, pool, cache):
        step = original(inst, m, pool, cache)
        found = reduction_summary(step)
        assert found == reduction_summary(original(inst, m, pool, RoundCache(inst.graph, None)))
        rounds.append((cache, found))
        return step

    monkeypatch.setattr(solver_module, "reduction_step", checked)
    return rounds


class TestRoundCache:
    """One cache shared by the rounds at one graph finds what a fresh cache
    per round finds."""

    @pytest.mark.parametrize("subdivide", [False, True])
    @pytest.mark.parametrize("entry", ["solve", "kernelize"])
    def test_freeze_loops_match_fresh_caches(self, cache_rounds, entry, subdivide):
        hub = shared_partner_instance(mu(2) + 8, k=2, subdivide=subdivide)
        if entry == "solve":
            stats = SolveStats()
            sol = solve(hub.instance, stats=stats)
            assert sol is not None and verify_solution(hub.instance, sol.edges)
            freezes = len(stats.irrelevant_edges)
        else:
            res = kernel_module.kernelize(hub.instance.graph, 2)
            freezes = res.stats["irrelevant_frozen"]
        assert cache_rounds
        assert freezes == sum(1 for _, step in cache_rounds if step[0] == "freeze")
        assert freezes >= (0 if entry == "kernelize" and not subdivide else 10)
        assert len({id(cache) for cache, _ in cache_rounds}) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=2, max_value=6),
        st.randoms(use_true_random=False),
        st.data(),
    )
    def test_rounds_on_any_pools_match_fresh_caches(self, n, chords, k, rng, data):
        """A freeze loop on a sparse ear graph whose pool is drawn anew each
        round, in any order, so one pivot meets several prefixes and either
        flow path may be P1: the cache keeps only what the graph and
        greedy's picks decide."""
        g = random_biconnected_graph(rng, n, chords)
        inst = normalize(WbdInstance(g, k, float(k), {e: 1.0 for e in g.edges}))
        m = k + 1  # every marked edge makes a step rich
        cache = RoundCache(inst.graph, inst.tree)
        for _ in range(16):
            potential = inst.potential_edges()
            if not potential:
                break
            pool = data.draw(st.permutations(potential))[: data.draw(st.integers(1, len(potential)))]
            shared = reduction_step(inst, m, pool, cache)
            assert reduction_summary(shared) == reduction_summary(
                reduction_step(inst, m, pool, RoundCache(inst.graph, None))
            )
            if shared.kind == "freeze":
                inst = inst.with_frozen(frozenset((shared.edge,)))

    def test_analysis_shares_flow_and_partners(self, monkeypatch):
        # Two analyses of one rich step with nested edge sets: one flow,
        # and the second computes partner sets only for the edges the
        # first did not analyse.
        hub = shared_partner_instance(20, k=1)
        inst = normalize(hub.instance)
        cache = RoundCache(inst.graph, inst.tree)
        key = (hub.chord,)
        newly = cache.critical(key) - cache.critical(())
        flows, asked = [], []
        flow, partner_set = solver_module.max_flow_bounded, criticality_module.partner_set

        def counted_flow(*args, **kwargs):
            flows.append(args)
            return flow(*args, **kwargs)

        def counted_partners(g, pivot, p1, p2, crits, removed):
            asked.append(list(crits))
            return partner_set(g, pivot, p1, p2, crits, removed)

        monkeypatch.setattr(solver_module, "max_flow_bounded", counted_flow)
        monkeypatch.setattr(criticality_module, "partner_set", counted_partners)
        first = cache.analysis(key, frozenset(e for e in newly if e % 3 == 0), 1)
        second = cache.analysis(key, newly, 1)
        assert len(flows) == 1 and len(asked) == 2
        assert 1 < first.t < second.t
        assert asked[0] == list(first.edge_ids)
        assert asked[1] == [e for e in second.edge_ids if e not in first.edge_ids]
        monkeypatch.undo()
        assert second == analysis_after(inst.graph, key, 1)

    def test_refuses_another_graph(self):
        inst = normalize(shared_partner_instance(7, k=2).instance)
        cache = RoundCache(inst.graph, inst.tree)
        twin = WbdInstance(
            inst.graph.without_edges(()), inst.k, inst.w_star, inst.weights, inst.frozen
        )
        assert twin.graph == inst.graph
        pool = heavy_order(inst)[:9]
        for call in (
            lambda: reduction_step(twin, 9, pool, cache),
            lambda: greedy_deletion_set(twin, pool, cache),
        ):
            with pytest.raises(InternalInconsistencyError):
                call()
        assert reduction_step(inst, 9, pool, cache).kind == "freeze"

    def test_refuses_a_tree_of_another_graph(self):
        inst = normalize(shared_partner_instance(7, k=2).instance)
        twin = replace(inst, graph=inst.graph.without_edges(()))
        assert twin.graph == inst.graph and twin.tree is inst.tree
        with pytest.raises(InternalInconsistencyError, match="DFS tree of another graph"):
            RoundCache(twin.graph, twin.tree)
        with pytest.raises(InternalInconsistencyError, match="DFS tree of another graph"):
            freeze_rounds(twin, heavy_order(twin), 9, mark_all=False)

    def test_rounds_copy_only_where_they_must(self, monkeypatch):
        # A graph copy is made only for a fresh DFS of G - prefix: the
        # kernel on the subdivided hub makes none, the empty prefix is G
        # itself, and the analysis runs on G (the hub's chord is a tree
        # edge, so its own critical set takes one copy).
        copies = []
        without_edges = UndirectedGraph.without_edges

        def counted(g, eids):
            copies.append(eids)
            return without_edges(g, eids)

        big = shared_partner_instance(347, k=2, subdivide=True).instance.graph
        hub = shared_partner_instance(20, k=1)
        inst = normalize(hub.instance)
        monkeypatch.setattr(UndirectedGraph, "without_edges", counted)
        kernel_module.kernelize(big, 2)
        assert copies == []
        cache = RoundCache(inst.graph, inst.tree)
        before = cache.critical(())
        assert copies == []
        newly = cache.critical((hub.chord,)) - before
        assert copies == [(hub.chord,)]
        assert cache.analysis((hub.chord,), newly, 1).graph is inst.graph
        assert copies == [(hub.chord,)]

    def test_back_edge_pick_copies_nothing(self, monkeypatch):
        # The kernel's first round on the unit-weight subdivided
        # shared-partner hub, the whole pool marked: greedy's first pick,
        # edge 0, is a back edge of the DFS tree that normalizing built,
        # so its residual critical set is derived from that tree, the flow
        # skips it, and the analysis runs on G itself: the round copies no
        # graph and runs no fresh DFS.
        g = shared_partner_instance(mu(2) + 8, k=2, subdivide=True).instance.graph
        inst = normalize(kernel_module.unit_instance(g, 2, frozenset()))
        pool = heavy_order(inst)
        assert pool[0] == 0 and 0 not in inst.tree.tree_edge
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            UndirectedGraph, "without_edges", counted("copy", UndirectedGraph.without_edges)
        )
        monkeypatch.setattr(
            solver_module, "critical_tree", counted("critical_tree", solver_module.critical_tree)
        )
        step = reduction_step(inst, mu(2), pool, RoundCache(inst.graph, inst.tree))
        assert step.kind == "freeze" and step.analysis.graph is inst.graph
        assert calls == []
        assert reduction_summary(step) == reduction_summary(
            reduction_step(inst, mu(2), pool, RoundCache(inst.graph, None))
        )
        assert calls.count("copy") == 1 and calls.count("critical_tree") == 1


@pytest.fixture
def node_orders(monkeypatch):
    """Every search node's depth, each node checked on entry: the list it
    is handed is its own heavy order, a branch child's too."""
    depths = []
    original = solver_module._solve

    def checked(inst, order, mu_of, stats, depth):
        assert order == heavy_order(inst)
        depths.append(depth)
        return original(inst, order, mu_of, stats, depth)

    monkeypatch.setattr(solver_module, "_solve", checked)
    return depths


class TestFreezeRounds:
    @pytest.mark.parametrize("case", ["freezes", "branches", "enumerates", "decides"])
    def test_heavy_order_once_per_node(self, monkeypatch, node_orders, case):
        # ``solve`` sorts its pool once, and every node, a branch child
        # too, is handed its own heavy order (``node_orders``).  A node its
        # heavy order does not decide hands that list, less its new
        # critical edges, to the freeze loop, which drops each edge it
        # freezes from the list itself: the branch reads it after the
        # loop, and children inherit it.
        if case == "freezes":
            inst, mu_of = shared_partner_instance(mu(2) + 8, k=2).instance, mu
        elif case == "branches":
            inst, mu_of = greedy_miss_instance()
        elif case == "enumerates":
            inst, mu_of = kn_gadget(6, 2).instance, mu
        else:
            inst, mu_of = unit(complete(5), 2, 2), mu
        sorts, loops = [], []
        original_sort, original_loop = solver_module.heavy_order, solver_module.freeze_rounds

        def sorting(i):
            sorts.append(i)
            return original_sort(i)

        def looping(i, order, m, mark_all):
            assert order == original_sort(i)
            after, steps = original_loop(i, order, m, mark_all)
            assert order == original_sort(after)
            loops.append(steps)
            return after, steps

        monkeypatch.setattr(solver_module, "heavy_order", sorting)
        monkeypatch.setattr(solver_module, "freeze_rounds", looping)
        stats = SolveStats()
        assert solve(inst, mu_of, stats) is not None
        assert len(sorts) == 1
        assert len(node_orders) == len(loops) + stats.decided_before_dfs
        if case == "freezes":
            assert len(loops[0]) >= 2 and stats.irrelevant_edges
        elif case == "branches":
            assert stats.max_depth >= 1 and len(loops) == 1 and stats.decided_before_dfs == 2
        elif case == "enumerates":
            # The root and its first child each branch over their whole
            # list; the child's first child, the 30 edge, is a leaf.
            assert stats.enumerations == 2 and loops == [[], []] and stats.max_depth == 2
        else:
            assert stats.decided_before_dfs == 1 and loops == []

    @pytest.mark.parametrize("threshold", [5, 8])
    def test_children_read_their_parents_order(self, node_orders, threshold):
        # Four-hook K4 gadgets with input-frozen edges under lowered
        # thresholds, yes and tight no: every node's list is its heavy
        # order, so it holds no input-frozen edge, and the answers are the
        # oracle's.  A solution holds two hooks at most, so some searches
        # reach depth 2 even though children exclude their siblings.
        rng = random.Random(threshold)
        for n, k, _ in itertools.product((5, 6, 7), (2, 3), range(5)):
            inst = kn_gadget(n, k, 4).at(0.0)
            light = [e for e, w in inst.weights.items() if w < 57]
            inst = replace(inst, frozen=frozenset(e for e in light if rng.random() < 0.2))
            best = oracle_wbd(inst, BIG).weight
            for w_star in (best, best + 0.5):
                sol = solve(replace(inst, w_star=w_star), lambda k: threshold)
                assert (sol is not None) == (w_star == best)
        assert max(node_orders) == 2

    def test_node_freezes_then_branches(self, node_orders):
        # The shared-partner hub at q = 30, k = 2, w* = 14 (chord 10, rim
        # 5) under threshold 9: the root's loop freezes 24 irrelevant
        # edges and ends "stuck", so the root branches over the 40 edges
        # left, and its children are handed (and ``node_orders`` checks) a
        # list the loop shortened.  The chord child is a no, and the next
        # child, the chord frozen, misses the bound: two rim edges weigh 10.
        hub = shared_partner_instance(30, k=2, w_star=14.0)
        stats = SolveStats()
        assert solve(hub.instance, lambda k: 9, stats) is None
        assert len(stats.irrelevant_edges) == 24
        assert (stats.fallbacks, stats.max_branch_factor) == (1, 40)
        assert stats.max_depth >= 1 and max(node_orders) == 1
        assert oracle_wbd(hub.instance, OracleBudget(max_vertices=33, max_edges=64, max_k=2)) is None

    def test_tight_no_stops_before_any_step(self, monkeypatch):
        # A K4 on two hooks, both critical, of weight 60 and 59 on K28 with
        # two 30-chords, at k = 2: w_opt is 60, the chords.  At w* = 60.5
        # the root's first candidate, the two hooks, fails verification,
        # and once normalized, with more than mu(2) potential edges left,
        # the two heaviest weigh 60: a no that needs no reduction step.
        gadget = kn_gadget(28, 2, h=2)
        assert gadget.w_opt == 60.0
        inst = gadget.at(60.5)
        assert len(normalize(inst).potential_edges()) > mu(2)

        def refuse(*args, **kwargs):
            raise AssertionError("reduction_step called on a tight no")

        monkeypatch.setattr(solver_module, "reduction_step", refuse)
        stats = SolveStats()
        assert solve(inst, stats=stats) is None
        assert (stats.nodes, stats.decided_before_dfs, stats.enumerations) == (1, 0, 0)
