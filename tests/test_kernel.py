import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conndel.errors import BudgetExceededError, InternalInconsistencyError, InvalidInputError
from conndel import kernel as kernel_module
from conndel import solver as solver_module
from conndel.families import (
    distinct_partner_instance,
    random_biconnected_graph,
    shared_partner_instance,
)
from conndel.criticality import critical_set
from conndel.graphs import Digraph, UndirectedGraph, is_biconnected, is_biconnected_without
from conndel.kernel import (
    AuxiliaryDigraph,
    build_auxiliary_digraph,
    constant_no_instance,
    constant_yes_instance,
    cut_covering_set,
    kernelize,
    po_min_cut,
    rule_one,
    rule_two_torso,
    unit_instance,
)
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import heavy_order, mu, normalize

from . import naive
from .catalog import complete, cycle, edge_colored_canonical_form
from .checks import in_neighbors, out_neighbors
from .strategies import ear_graphs

BIG = OracleBudget(max_vertices=30, max_edges=60, max_k=3)


@pytest.fixture(scope="module")
def c8_chord_exhaustive():
    """C8 plus a chord, its exhaustive cut-covering set (one slow call) and
    the Y it gives.  ``kernelize`` decides this k = 1 instance by rule, so
    the tests apply rule one and the torso to Y themselves."""
    g = UndirectedGraph.from_edges(
        range(8), [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
    )
    inst = normalize(unit_instance(g, 1, frozenset()))
    pool = inst.potential_edges()
    aux = build_auxiliary_digraph(g, pool)
    z = cut_covering_set(aux, max_terminals=7)
    y = frozenset(z & g.vertices) | frozenset(v for e in pool for v in g.endpoints(e))
    return g, inst, z, y


def fire_rule_one(inst, y):
    """Rule one's edge on a unit instance's graph and pool, with the
    components of G - Y listed as phase two lists them."""
    g = inst.graph
    return rule_one(g, inst.potential_edges(), y, kernel_module._attachments(g, y))


def torso(inst, y):
    """The torso of a unit instance onto Y: its graph and frozen edges."""
    g = inst.graph
    return rule_two_torso(g, inst.frozen, y, kernel_module._attachments(g, y))


def torso_instance(inst, y):
    """The torso as the normalized unit instance phase two builds."""
    g, frozen = torso(inst, y)
    return normalize(unit_instance(g, inst.k, frozen))


def same_answer(g, before_inst, result):
    before = oracle_wbd(before_inst, BIG) is not None
    after = (result.answer == "yes") or (oracle_wbd(result.instance, BIG) is not None)
    return before == after


def brute_po_cut_size(d, a, b, r):
    """Minimum potentially-overlapping cut size by subset enumeration."""
    verts = sorted(v for v in d.vertices if v not in r)
    arcs = [(t, h) for t, h in d.arc_pairs() if t not in r and h not in r]
    for size in range(0, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            cs = set(combo)
            reach = {x for x in a if x in verts and x not in cs}
            stack = list(reach)
            while stack:
                v = stack.pop()
                for t, h in arcs:
                    if t == v and h not in cs and h not in reach:
                        reach.add(h)
                        stack.append(h)
            if not reach & {x for x in b if x in verts and x not in cs}:
                return size
    return len(verts)


def flow_per_triple(aux):
    """The cover by definition: one from-scratch flow per terminal triple."""
    return naive.full_cut_cover(aux.terminals, lambda a, b, r: po_min_cut(aux.digraph, a, b, r))


class TestAuxiliaryDigraph:
    def test_single_edge_has_seven_vertices(self):
        g = UndirectedGraph.from_edges([0, 1], [(0, 1)])
        aux = build_auxiliary_digraph(g, [0])
        assert aux.digraph.n == 7
        assert len(aux.terminals) == 7
        # source/sink copies have no in/out arcs respectively
        for v in (0, 1):
            assert in_neighbors(aux.digraph, aux.v_plus[v]) == []
            assert out_neighbors(aux.digraph, aux.v_minus[v]) == []

    def test_empty_f_gives_bidirected_graph(self):
        g = cycle(4)
        aux = build_auxiliary_digraph(g, [])
        assert aux.digraph.n == 4
        assert aux.digraph.m == 8
        assert aux.terminals == frozenset()

    def test_source_sink_arcs_follow_subdivided_neighborhoods(self):
        g = UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
        f = [g.edge_between(0, 1)]
        aux = build_auxiliary_digraph(g, f)
        xe = aux.x_edge[f[0]]
        assert set(out_neighbors(aux.digraph, aux.v_plus[0])) == {xe, 2}
        assert set(in_neighbors(aux.digraph, aux.v_minus[0])) == {xe, 2}

    def test_linkage_test_matches_direct_deletion_check(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_biconnected_graph(rng, rng.randint(3, 6), rng.randint(0, 3))
            inst = normalize(unit_instance(g, 2, frozenset()))
            pool = inst.potential_edges()
            aux = build_auxiliary_digraph(g, pool)
            vertices, arcs = set(aux.digraph.vertices), aux.digraph.arc_pairs()
            for size in range(0, min(3, len(pool)) + 1):
                for s in itertools.combinations(pool, size):
                    queries = [
                        ((aux.v_plus[u], u), (aux.v_minus[v], v))
                        for u, v in map(g.endpoints, s)
                    ]
                    removed = [aux.x_edge[e] for e in s]
                    assert naive.is_deletion_set_via_linkages(
                        vertices, arcs, removed, queries
                    ) == is_biconnected_without(g, frozenset(s))


@st.composite
def cut_triples(draw):
    """A random digraph on at most 7 vertices with non-empty source and
    sink sets A and B, which may overlap, and a removed set R disjoint
    from both."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    d = Digraph.from_arcs(range(n), [p for p in pairs if draw(st.booleans())])
    vertex_sets = st.sets(st.sampled_from(range(n)), min_size=1)
    a, b = draw(vertex_sets), draw(vertex_sets)
    r = draw(st.sets(st.sampled_from(range(n)))) - a - b
    return d, frozenset(a), frozenset(b), frozenset(r)


class TestPoMinCut:
    def test_directed_path(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 2)])
        cut = po_min_cut(d, [0], [2])
        assert len(cut) == 1

    def test_terminal_overlap_forces_terminal_cut(self):
        d = Digraph.from_arcs(range(3), [(0, 1), (1, 2)])
        assert po_min_cut(d, [1], [1]) == frozenset({1})

    def test_single_terminals_cost_one_even_with_disjoint_paths(self):
        # Terminals are themselves cuttable, so A = {0} caps the cut at 1.
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 3), (0, 2), (2, 3)])
        cut = po_min_cut(d, [0], [3])
        assert len(cut) == 1 == brute_po_cut_size(d, {0}, {3}, frozenset())

    def test_crossed_pairs_need_two_vertices(self):
        d = Digraph.from_arcs(range(4), [(0, 2), (0, 3), (1, 2), (1, 3)])
        cut = po_min_cut(d, [0, 1], [2, 3])
        assert len(cut) == 2 == brute_po_cut_size(d, {0, 1}, {2, 3}, frozenset())

    def test_matches_exhaustive_minimum_on_random_digraphs(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 6)
            arcs = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < 0.4
            ]
            d = Digraph.from_arcs(range(n), arcs)
            a = frozenset(rng.sample(range(n), rng.randint(1, n)))
            b = frozenset(rng.sample(range(n), rng.randint(1, n)))
            r = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
            got = po_min_cut(d, a, b, r)
            assert len(got) == brute_po_cut_size(d, a, b, r)

    @settings(max_examples=150, deadline=None)
    @given(cut_triples())
    def test_closest_cut_matches_the_definition(self, triple):
        d, a, b, r = triple
        want = naive.closest_min_cut(set(d.vertices), d.arc_pairs(), a, b, r)
        assert po_min_cut(d, a, b, r) == want

    def test_removed_set_respected(self):
        d = Digraph.from_arcs(range(4), [(0, 1), (1, 3), (0, 2), (2, 3)])
        cut = po_min_cut(d, [0], [3], r=[1])
        assert len(cut) == 1

    def test_cut_actually_cuts(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 7)
            arcs = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < 0.4
            ]
            d = Digraph.from_arcs(range(n), arcs)
            a = frozenset(rng.sample(range(n), rng.randint(1, n)))
            b = frozenset(rng.sample(range(n), rng.randint(1, n)))
            cut = po_min_cut(d, a, b)
            rest = d.without_vertices(cut)
            reach = set(x for x in a if x in rest.vertices)
            stack = list(reach)
            while stack:
                v = stack.pop()
                for u in out_neighbors(rest, v):
                    if u not in reach:
                        reach.add(u)
                        stack.append(u)
            assert not (reach & (b - cut))


class TestCutCovering:
    def test_exhaustive_refuses_beyond_cap(self):
        g = UndirectedGraph.from_edges([0, 1], [(0, 1)])
        aux = build_auxiliary_digraph(g, [0])  # seven terminals
        with pytest.raises(BudgetExceededError, match="trivial provider"):
            cut_covering_set(aux, max_terminals=5)

    def test_unknown_provider_rejected(self):
        with pytest.raises(InvalidInputError, match="provider"):
            kernelize(cycle(4), 1, provider="best-effort")

    def test_exhaustive_is_cut_covering_by_definition(self):
        # C4 plus a chord: one deletable edge, seven terminals.  Re-check
        # the definition independently: for sampled triples, the brute-force
        # minimum cut size is achieved by some subset of Z.
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inst = normalize(unit_instance(g, 1, frozenset()))
        aux = build_auxiliary_digraph(g, inst.potential_edges())
        z = cut_covering_set(aux, max_terminals=7)
        terms = sorted(aux.terminals)
        d = aux.digraph
        rng = random.Random(0)

        def is_po_cut(cs, a, b, r):
            live = set(d.vertices) - set(r) - set(cs)
            reach = {x for x in a if x in live}
            stack = list(reach)
            while stack:
                v = stack.pop()
                for u in out_neighbors(d, v):
                    if u in live and u not in reach:
                        reach.add(u)
                        stack.append(u)
            return not (reach & {x for x in b if x in live})

        for _ in range(40):
            r = frozenset(rng.sample(terms, rng.randint(0, 3)))
            rest = [t for t in terms if t not in r]
            if not rest:
                continue
            a = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
            b = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
            best = brute_po_cut_size(d, a, b, r)
            candidates = sorted(v for v in z if v not in r)
            found = any(
                is_po_cut(combo, a, b, r)
                for combo in itertools.combinations(candidates, best)
            )
            assert found, (sorted(a), sorted(b), sorted(r), best)


class TestRules:
    def test_rule_zero_fires_only_at_zero_budget(self):
        res = kernelize(complete(4), 0)
        assert res.answer == "yes" and res.instance.k == 0
        assert oracle_wbd(res.instance, BIG) is not None
        # k = 1 is decided too, by the rule for one deletable edge.
        res = kernelize(complete(4), 1)
        assert res.answer == "yes" and res.instance == constant_yes_instance()
        res = kernelize(complete(4), 2)
        assert res.answer is None and res.instance.k == 2

    def test_budget_rules_decide_before_the_cover(self):
        # One deletable edge: k = 1 is a yes and k = 2 a no, with no cover
        # built (a cap of 0 terminals would refuse any).
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        yes = kernelize(g, 1, provider="exhaustive", max_terminals=0)
        assert yes.answer == "yes" and yes.instance == constant_yes_instance()
        no = kernelize(g, 2, provider="exhaustive", max_terminals=0)
        assert no.answer == "no" and no.instance == constant_no_instance(2)
        assert oracle_wbd(no.instance, BIG) is None

    def test_rule_zero_constant_instance_is_yes(self):
        const = constant_yes_instance()
        assert is_biconnected(const.graph)
        assert oracle_wbd(const, BIG) is not None

    def test_rule_one_fires_on_triangle_detour(self):
        # deletable edge (0,1); third triangle vertex is not in Y
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inst = normalize(unit_instance(g, 1, frozenset()))
        f = inst.potential_edges()
        assert f == [g.edge_between(0, 2)]
        assert fire_rule_one(inst, frozenset({0, 2})) == f[0]

    def test_rule_one_blocked_by_y(self):
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inst = normalize(unit_instance(g, 1, frozenset()))
        assert fire_rule_one(inst, frozenset(g.vertices)) is None

    def test_torso_identity_when_y_is_everything(self):
        g = complete(4)
        inst = normalize(unit_instance(g, 1, frozenset()))
        assert torso(inst, frozenset(g.vertices)) == (g, inst.frozen)

    def test_torso_shortcuts_replace_outside_paths(self):
        # path 0-4-1 with 4 outside Y becomes a frozen shortcut edge
        g = UndirectedGraph.from_edges(
            range(5), [(0, 4), (4, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        )
        inst = normalize(unit_instance(g, 1, frozenset()))
        y_set = frozenset({0, 1, 2, 3})
        out, frozen = torso(inst, y_set)
        assert set(out.vertices) == set(y_set)
        nid = out.edge_between(0, 1)
        assert nid is not None and nid in frozen

    def test_rule_one_firing_preserves_oracle_answer(self):
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inst = normalize(unit_instance(g, 1, frozenset()))
        before = oracle_wbd(inst, BIG) is not None
        eid = fire_rule_one(inst, frozenset({0, 2}))
        assert eid is not None
        fired = normalize(unit_instance(g.without_edge(eid), inst.k - 1, inst.frozen))
        after = oracle_wbd(fired, BIG) is not None
        assert before == after

    def test_torso_firing_preserves_oracle_answer(self, c8_chord_exhaustive):
        g, inst, _, y = c8_chord_exhaustive
        reduced = torso_instance(inst, y)
        assert (oracle_wbd(inst, BIG) is None) == (oracle_wbd(reduced, BIG) is None)


@st.composite
def instances_with_y(draw):
    """A unit instance on a random biconnected graph, with some of its
    deletable edges frozen, and a random Y holding every endpoint of a
    deletable edge left, so that shortcuts and rule one both fire."""
    g = draw(ear_graphs(min_n=4, max_n=12))
    k = draw(st.integers(min_value=1, max_value=2))
    inst = normalize(unit_instance(g, k, frozenset()))
    pool = inst.potential_edges()
    keep = draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
    inst = unit_instance(g, k, inst.frozen | (frozenset(pool) - keep))
    extra = draw(st.sets(st.sampled_from(sorted(g.vertices)), max_size=g.n // 2))
    return inst, frozenset(extra) | frozenset(v for e in keep for v in g.endpoints(e))


class TestRulesAgainstDefinitions:
    """The one-pass rules and the disjoint-triple cover against the
    pairwise definitions in ``tests/naive.py``."""

    @settings(max_examples=100, deadline=None)
    @given(instances_with_y())
    def test_torso_matches_pairwise_shortcuts(self, case):
        inst, y = case
        g = inst.graph
        edges = list(g.edges.values())
        shortcuts = sorted(naive.torso_shortcuts(set(g.vertices), edges, set(y)))
        out, frozen = torso(inst, y)
        assert out.vertices == y
        kept = {e: uv for e, uv in g.edges.items() if set(uv) <= y}
        added = {e: uv for e, uv in out.edges.items() if e not in g.edges}
        assert {e: uv for e, uv in out.edges.items() if e in g.edges} == kept
        # Fresh ids above every old one, handed out in sorted pair order.
        assert [added[e] for e in sorted(added)] == shortcuts
        assert min(added, default=max(g.edges) + 1) > max(g.edges)
        assert frozen == frozenset(added) | (inst.frozen & frozenset(kept))

    @settings(max_examples=100, deadline=None)
    @given(instances_with_y())
    def test_rule_one_matches_pairwise_paths(self, case):
        inst, y = case
        g = inst.graph
        pool = [g.endpoints(e) for e in inst.potential_edges()]
        want = naive.first_rule_one_edge(set(g.vertices), list(g.edges.values()), pool, set(y))
        out = fire_rule_one(inst, y)
        assert out == (None if want is None else g.edge_between(*want))

    def test_rule_one_needs_the_pool_endpoints_in_y(self):
        g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inst = normalize(unit_instance(g, 1, frozenset()))
        with pytest.raises(InvalidInputError):
            fire_rule_one(inst, frozenset({0}))

    @pytest.mark.parametrize(
        "pairs, pool_edge",
        [
            # K5 minus an edge; C6 plus a chord; a 5-vertex ear graph.  On
            # each, dropping the triples with R non-empty loses a vertex.
            ([p for p in itertools.combinations(range(5), 2) if p != (3, 4)], (2, 3)),
            ([(i, (i + 1) % 6) for i in range(6)] + [(0, 4)], (0, 4)),
            ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)], (0, 1)),
        ],
    )
    def test_exhaustive_cover_matches_every_triple(self, pairs, pool_edge):
        g = UndirectedGraph.from_edges(range(1 + max(map(max, pairs))), pairs)
        aux = build_auxiliary_digraph(g, [g.edge_between(*pool_edge)])
        assert len(aux.terminals) == 7
        want = flow_per_triple(aux)
        assert cut_covering_set(aux, max_terminals=7) == want


@st.composite
def aux_digraphs(draw):
    """A random small digraph with 3-5 of its vertices as terminals.  Each
    ordered pair is an arc with odds of a quarter, a half or three
    quarters, drawn once per digraph.  Dense examples hold triples with a
    flow of value 2 or more and removed terminals on a flow path; sparse
    ones hold removed terminals that no search from the sources reaches."""
    n = draw(st.integers(min_value=5, max_value=7))
    density = draw(st.integers(min_value=1, max_value=3))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = [p for p in pairs if draw(st.integers(min_value=0, max_value=3)) < density]
    d = Digraph.from_arcs(range(n), arcs)
    terminals = draw(st.sets(st.sampled_from(sorted(d.vertices)), min_size=3, max_size=5))
    return AuxiliaryDigraph(d, {}, {}, {}, frozenset(terminals))


class TestCoverWalk:
    """The exhaustive provider, one flow per disjoint triple, against one
    flow per triple of every kind."""

    @settings(max_examples=200, deadline=None)
    @given(aux_digraphs())
    def test_walk_matches_a_flow_per_triple(self, aux):
        want = flow_per_triple(aux)
        assert cut_covering_set(aux) == want

    def test_removed_flow_carrier_outside_the_reach_set(self):
        # A terminal can carry flow while a search from the sources never
        # reaches it; a cover that reused flows across triples has to
        # restart when it is removed.
        arcs = [(0, 1), (1, 0), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4), (3, 0)]
        arcs += [(3, 2), (4, 0), (4, 1), (4, 2), (4, 3)]
        d = Digraph.from_arcs(range(5), arcs)
        aux = AuxiliaryDigraph(d, {}, {}, {}, frozenset({0, 2, 3, 4}))
        want = flow_per_triple(aux)
        assert cut_covering_set(aux) == want == {0, 2, 3, 4}

    def test_kept_removed_terminal_stays_blocked(self):
        # Terminal 0 is removed and carries no flow.  A search from the
        # source 3 must not walk 3 -> 0 -> 1, or the cover misses 2, the
        # closest cut of ({3, 4}, {1}, {0}).
        d = Digraph.from_arcs(range(5), [(0, 1), (2, 1), (3, 0), (3, 2), (4, 2)])
        aux = AuxiliaryDigraph(d, {}, {}, {}, frozenset({0, 1, 3, 4}))
        want = flow_per_triple(aux)
        assert cut_covering_set(aux) == want == {0, 1, 2, 3, 4}

    def test_negative_max_terminals_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="max_terminals"):
            kernelize(complete(4), 1, provider="exhaustive", max_terminals=-3)
        with pytest.raises(InvalidInputError, match="max_terminals"):
            kernelize(complete(4), 1, max_terminals=-1)
        aux = build_auxiliary_digraph(complete(4), [0])
        with pytest.raises(InvalidInputError, match="max_terminals"):
            cut_covering_set(aux, -1)


class TestTrivialPhaseTwo:
    @settings(max_examples=60, deadline=None)
    @given(ear_graphs(min_n=3, max_n=10), st.integers(min_value=0, max_value=2))
    def test_phase_two_is_the_identity(self, g, k):
        # Y = V(G) under the trivial provider, so phase two builds no
        # auxiliary digraph, runs no rule and returns its input.
        def refuse(*args, **kwargs):
            raise AssertionError("the trivial provider's phase two did work")

        inst = normalize(unit_instance(g, k, frozenset()))
        with pytest.MonkeyPatch.context() as mp:
            for name in ("build_auxiliary_digraph", "rule_one", "rule_two_torso"):
                mp.setattr(f"conndel.kernel.{name}", refuse)
            res = kernelize(g, k, provider="trivial")
        f = len(inst.potential_edges())
        if f < k:
            assert res.answer == "no" and res.instance == constant_no_instance(k)
        elif k <= 1:
            assert res.answer == "yes" and res.instance == constant_yes_instance()
        else:
            assert res.answer is None
            assert res.instance.graph == inst.graph
            assert (res.instance.frozen, res.instance.k) == (inst.frozen, inst.k)
            assert res.stats == {
                "provider": "trivial",
                "f_before": f,
                "v_before": g.n,
                "irrelevant_frozen": 0,
                "rule_one_fired": 0,
                "phase1_rounds": 0,
                "f_after": f,
                "v_after": g.n,
            }


@pytest.fixture
def outcomes(monkeypatch):
    """The kinds of the reduction steps phase one takes, in order."""
    from conndel.solver import reduction_step

    kinds = []

    def recording(*args, **kwargs):
        step = reduction_step(*args, **kwargs)
        kinds.append(step.kind)
        return step

    monkeypatch.setattr("conndel.solver.reduction_step", recording)
    return kinds


def rule_one_then_torso(monkeypatch):
    """A graph and frozen set on which, at k = 3 with the cover stubbed to
    {0, 3} (so Y is {0, 3} plus the pool's endpoints), phase two's rule
    one fires once and the torso follows."""
    g = UndirectedGraph.from_edges(
        range(7),
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (3, 5), (5, 6), (0, 6), (1, 6), (4, 5)]
        + [(4, 6)],
    )
    frozen = frozenset(
        g.edge_between(*p) for p in [(0, 1), (1, 2), (1, 6), (3, 4), (4, 5), (5, 6)]
    )
    monkeypatch.setattr(kernel_module, "cut_covering_set", lambda aux, cap: frozenset({0, 3}))
    return g, frozen


def chord_first(hub):
    """The hub's graph with the chord relabelled to edge id 0, so that the
    kernel's id-ordered greedy deletes it first, as the solver's
    heaviest-first greedy does."""
    g = hub.instance.graph
    order = [hub.chord] + [e for e in sorted(g.edges) if e != hub.chord]
    return UndirectedGraph(g.vertices, [(i, *g.endpoints(e)) for i, e in enumerate(order)])


class TestKernelize:
    def test_broken_torso_is_an_internal_inconsistency(self, monkeypatch):
        # A torso that is not biconnected is the kernel's fault, not the
        # input's: it must not reach normalize, which would refuse it as bad
        # input (exit 2) instead of an internal inconsistency (exit 4).
        path = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(kernel_module, "cut_covering_set", lambda aux, cap: frozenset())
        monkeypatch.setattr(kernel_module, "rule_one", lambda g, pool, y, att: None)
        monkeypatch.setattr(
            kernel_module, "rule_two_torso", lambda g, frozen, y, att: (path, frozenset())
        )
        with pytest.raises(InternalInconsistencyError, match="torso lost biconnectivity"):
            kernelize(complete(4), 2, provider="exhaustive")

    def test_graph_rule_one_breaks_is_an_internal_inconsistency(self, monkeypatch):
        # C5 plus the chords (0, 2) and (0, 3): the chords are deletable and
        # (0, 1) is critical.  A rule one that deletes a critical edge leaves
        # a graph that is not biconnected, which is the kernel's fault too.
        g = UndirectedGraph.from_edges(
            range(5), [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (0, 3)]
        )
        crit = g.edge_between(0, 1)
        assert crit in critical_set(g)
        monkeypatch.setattr(kernel_module, "cut_covering_set", lambda aux, cap: frozenset())
        monkeypatch.setattr(kernel_module, "rule_one", lambda g, pool, y, att: crit)
        with pytest.raises(InternalInconsistencyError, match="rule one lost biconnectivity"):
            kernelize(g, 2, provider="exhaustive")

    def test_phase1_detects_greedy_yes(self, outcomes):
        g = complete(4)
        res = kernelize(g, 2, mu_of=lambda k: 2)
        assert outcomes == ["full"]
        assert res.answer == "yes"
        assert oracle_wbd(res.instance, BIG) is not None

    def test_phase1_marks_the_whole_pool(self, outcomes):
        # The plain hub above mu(2): with every deletable edge marked,
        # greedy's first run is full.  Marking only the mu(k) heaviest, as
        # the solver does, takes 6 rounds and 5 freezes to the same yes.
        g = shared_partner_instance(q=347, k=2).instance.graph
        res = kernelize(g, 2)
        assert res.answer == "yes" and res.instance == constant_yes_instance()
        assert res.stats["phase1_rounds"] == 1 and res.stats["irrelevant_frozen"] == 0
        assert outcomes == ["full"]

    def test_budget_rules_decide_before_phase_one(self, outcomes):
        # mu(1) + 1 rim vertices: a pool of 69 deletable edges, above mu(1).
        g = shared_partner_instance(q=mu(1) + 1, k=1, subdivide=True).instance.graph
        assert len(normalize(unit_instance(g, 1, frozenset())).potential_edges()) > mu(1)
        res = kernelize(g, 1)
        assert res.answer == "yes" and res.instance == constant_yes_instance()
        assert res.stats["phase1_rounds"] == 0 and outcomes == []
        # Under a threshold below k, fewer than k deletable edges are a no
        # before phase one, too.
        res = kernelize(cycle(5), 2, mu_of=lambda k: -1)
        assert res.answer == "no" and res.stats["phase1_rounds"] == 0 and outcomes == []

    def test_phase1_wheel_freezes_irrelevant_edge(self, outcomes):
        # q=9: the rim-edge pivot's partner sets have two elements at the
        # ends, so the uniform middle needs 2k+3 = 7 clean steps on its own.
        # After the freeze no clean stretch is left: phase one is stuck.
        hub = shared_partner_instance(q=9, k=2, subdivide=True)
        g = hub.instance.graph
        res = kernelize(g, 2, mu_of=lambda k: 6)
        assert outcomes == ["freeze", "stuck"]
        assert res.stats["irrelevant_frozen"] >= 1
        # The output is a unit-weight instance: its frozen edges weigh 0.
        out = res.instance
        assert out.weights == {e: 0.0 if e in out.frozen else 1.0 for e in out.graph.edges}
        big = OracleBudget(max_vertices=40, max_edges=80, max_k=3)
        before = oracle_wbd(normalize(unit_instance(g, 2, frozenset())), big) is not None
        after = (res.answer == "yes") or (oracle_wbd(res.instance, big) is not None)
        assert before == after

    def test_rule_one_and_torso_output_weighs_frozen_edges_zero(self, monkeypatch):
        # Rule one deletes a pool edge, which leaves (0, 4) critical, and the
        # torso keeps it: the undecided output of the exhaustive path holds
        # an edge rule one froze, besides the torso's frozen shortcuts.
        g, frozen = rule_one_then_torso(monkeypatch)
        res = kernelize(g, 3, frozen, provider="exhaustive")
        assert res.answer is None and res.stats["rule_one_fired"] == 1
        out = res.instance
        # Rule one spent one budget unit; the torso spent none.
        assert out.k == 2
        newly = g.edge_between(0, 4)
        assert newly in out.frozen and newly not in normalize(unit_instance(g, 3, frozen)).frozen
        # A normalized unit instance: every critical edge is frozen, and
        # frozen edges weigh 0.
        assert critical_set(out.graph) <= out.frozen
        assert out.weights == {e: 0.0 if e in out.frozen else 1.0 for e in out.graph.edges}

    def test_phase1_staircase_detects_distinct_partner_yes(self, outcomes):
        # In id order greedy would delete two rim edges first and answer
        # from a full run; with the chord first, its deletion is the rich
        # step and the staircase gives more than 3k distinct partner sets.
        g = chord_first(distinct_partner_instance(q=7, k=2, subdivide=True))
        res = kernelize(g, 2, mu_of=lambda k: 6)
        assert outcomes == ["distinct"]
        assert res.answer == "yes"
        before = oracle_wbd(
            normalize(unit_instance(g, 2, frozenset())),
            OracleBudget(max_vertices=40, max_edges=60, max_k=3),
        )
        assert before is not None

    def test_trivial_provider_equivalence_random(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_biconnected_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
            k = rng.randint(0, 2)
            res = kernelize(g, k)
            inst = normalize(unit_instance(g, k, frozenset()))
            assert same_answer(g, inst, res)
            assert len(res.instance.potential_edges()) <= mu(k)

    def test_exhaustive_provider_shrinks_cycle_with_chord(self, c8_chord_exhaustive):
        g, inst, _, y = c8_chord_exhaustive
        assert fire_rule_one(inst, y) is None
        reduced = torso_instance(inst, y)
        assert reduced.graph.n < g.n
        assert (oracle_wbd(inst, BIG) is None) == (oracle_wbd(reduced, BIG) is None)
        assert is_biconnected(reduced.graph)

    def test_exhaustive_provider_empty_f_gives_constant_no(self):
        g = cycle(5)
        res = kernelize(g, 1, provider="exhaustive")
        assert res.answer == "no"
        assert oracle_wbd(res.instance, BIG) is None

    def test_idempotent_with_trivial_provider(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_biconnected_graph(rng, rng.randint(3, 7), rng.randint(0, 3))
            r1 = kernelize(g, 1)
            r2 = kernelize(r1.instance.graph, r1.instance.k, r1.instance.frozen)
            key1 = edge_colored_canonical_form(r1.instance.graph, r1.instance.frozen)
            key2 = edge_colored_canonical_form(r2.instance.graph, r2.instance.frozen)
            assert key1 == key2

    def test_vertex_bound_under_exhaustive_provider(self, c8_chord_exhaustive):
        g, inst, z, y = c8_chord_exhaustive
        assert fire_rule_one(inst, y) is None
        reduced = torso_instance(inst, y)
        bound = len(z & g.vertices) + 2 * len(inst.potential_edges())
        assert reduced.graph.n <= bound

    @settings(max_examples=100, deadline=None)
    @given(ear_graphs(min_n=3, max_n=9), st.integers(min_value=0, max_value=3))
    def test_few_terminals_are_decided(self, g, k):
        # Two deletable edges have at least three endpoints, so an input
        # that reaches the cover at k >= 2 has at least 2 + 3 * 3 = 11
        # terminals: every input with at most 10 is decided by rule.
        inst = normalize(unit_instance(g, k, frozenset()))
        terminals = len(build_auxiliary_digraph(g, inst.potential_edges()).terminals)
        want = "yes" if oracle_wbd(inst, BIG) is not None else "no"
        runs = [kernelize(g, k)]
        if terminals <= 7:
            runs.append(kernelize(g, k, provider="exhaustive", max_terminals=7))
        for res in runs:
            assert res.answer in (None, want)
            if terminals <= 10:
                assert res.answer is not None


class TestOnePassPerState:
    """``kernelize`` lists each instance state's pool once, builds no graph
    for a constant answer and builds a weight map only past the budget
    rules."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"pool": 0, "from_edges": 0, "weights": 0}
        pool = UndirectedGraph.edge_ids
        build = UndirectedGraph.from_edges
        weights = kernel_module.unit_weights

        def counting_pool(self, *args):
            calls["pool"] += 1
            return pool(self, *args)

        def counting_build(cls, *args, **kwargs):
            calls["from_edges"] += 1
            return build(*args, **kwargs)

        def counting_weights(*args):
            calls["weights"] += 1
            return weights(*args)

        monkeypatch.setattr(UndirectedGraph, "edge_ids", counting_pool)
        monkeypatch.setattr(UndirectedGraph, "from_edges", classmethod(counting_build))
        monkeypatch.setattr(kernel_module, "unit_weights", counting_weights)
        return calls

    def test_k1_input_lists_the_pool_once_and_builds_no_graph(self, monkeypatch):
        g = random_biconnected_graph(random.Random(23), 26, 40)
        calls = self.counted(monkeypatch)
        res = kernelize(g, 1)
        assert res.answer == "yes" and res.instance == constant_yes_instance()
        assert calls == {"pool": 1, "from_edges": 0, "weights": 0}

    def test_phase_two_lists_components_once_per_y_and_builds_one_map(self, monkeypatch):
        # Two passes, each listing G - Y's components once for both rules;
        # no map for the graph rule one makes, only the output's after
        # phase one's; and each rule's graph is checked by its one DFS.
        g, frozen = rule_one_then_torso(monkeypatch)
        calls = self.counted(monkeypatch)
        passes, checks = [], []
        attachments = kernel_module._attachments
        monkeypatch.setattr(
            kernel_module, "_attachments", lambda g, y: passes.append(y) or attachments(g, y)
        )
        for module in (kernel_module, solver_module):
            monkeypatch.setattr(
                module,
                "is_biconnected",
                lambda g: checks.append(g) or is_biconnected(g),
                raising=False,
            )
        res = kernelize(g, 3, frozen, provider="exhaustive")
        assert res.answer is None and res.stats["rule_one_fired"] == 1
        assert calls["weights"] == 2 and len(passes) == 2 and checks == []
        out = res.instance
        assert g.edge_between(0, 4) in out.frozen
        assert out.weights == {e: 0.0 if e in out.frozen else 1.0 for e in out.graph.edges}

    def test_bench_hub_makes_at_most_two_pool_passes(self, monkeypatch):
        g = shared_partner_instance(347, k=2, subdivide=True).instance.graph
        calls = self.counted(monkeypatch)
        res = kernelize(g, 2, provider="trivial")
        assert res.answer is None and res.stats["phase1_rounds"] == 3
        assert calls["pool"] == 1 and calls["weights"] == 1

    @pytest.mark.parametrize(
        "pairs, k, message",
        [
            (list(itertools.combinations(range(4), 2)), -1, "k must be non-negative, got -1"),
            ([(0, 1), (1, 2), (2, 3)], 1, "instance graph is not biconnected"),
            (
                [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                1,
                "instance graph is not biconnected",
            ),
        ],
        ids=["negative-k", "path", "two-components"],
    )
    def test_refused_input_builds_no_weight_map(self, monkeypatch, pairs, k, message):
        g = UndirectedGraph.from_edges(range(1 + max(map(max, pairs))), pairs)
        calls = self.counted(monkeypatch)
        with pytest.raises(InvalidInputError, match=message):
            kernelize(g, k)
        assert calls["weights"] == 0

    def test_constants_share_no_mutable_state(self):
        first = kernelize(complete(4), 1)
        assert first.answer == "yes"
        first.instance.weights[0] = 7.0
        first.instance.weights[99] = 1.0
        second = kernelize(complete(5), 1)
        assert second.answer == "yes" and second.instance == constant_yes_instance()
        assert second.instance.weights is not first.instance.weights
        no = constant_no_instance(2)
        no.weights.clear()
        assert constant_no_instance(2).weights == {e: 0.0 for e in range(4)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_no_instance_carries_its_budget(self, k):
        no = constant_no_instance(k)
        assert no.k == k and no.w_star == float(k)

    def test_constant_frozen_edges_weigh_zero(self):
        for const in [constant_yes_instance()] + [constant_no_instance(k) for k in (1, 2, 3, 4)]:
            assert const.frozen == frozenset(const.graph.edges)
            assert all(const.weights[e] == 0.0 for e in const.frozen)
            assert const.potential_edges() == []

    def test_pool_is_the_unit_heavy_order(self):
        # Phase one passes the pool list as its heavy order: with unit
        # weights every potential edge weighs 1, so the two agree.
        rng = random.Random(17)
        graphs = [random_biconnected_graph(rng, rng.randint(4, 20), rng.randint(0, 12))
                  for _ in range(30)]
        for family in (shared_partner_instance, distinct_partner_instance):
            for subdivide in (False, True):
                graphs.append(family(q=9, k=2, subdivide=subdivide).instance.graph)
        for g in graphs:
            ids = sorted(g.edges)
            for frozen in (frozenset(), frozenset(rng.sample(ids, len(ids) // 3))):
                inst = normalize(unit_instance(g, 2, frozen))
                assert heavy_order(inst) == inst.potential_edges()
