"""Kernelization for unweighted biconnectivity deletion.

Phase 1 bounds the number of potential solution edges with the solver's
freeze loop on unit weights (``freeze_rounds``): a full greedy run or
many distinct partner sets certifies a yes-instance, a clean stretch
yields an irrelevant edge to freeze.  Before phase one, and on every
pass of phase two, three rules decide what needs no work: k = 0 is a
yes, fewer than k deletable edges a no, and k = 1 with a deletable edge
a yes, since every critical edge is frozen first (``kernelize`` says
where), so no deletable edge is critical.  Otherwise phase two's
auxiliary digraph reduces deletion-set feasibility to linkage questions
(flows in its ``graphs.FlowNetwork``), a cut-covering set of that
digraph plus the deletable edges' endpoints gives Y, the vertices worth
keeping, and rule one and the torso contract the graph onto Y.  Both read
one pass over the components C of G - Y and their attachment sets N(C)
in Y, and both edit the graph alone: one ``critical_tree`` call per graph
they make freezes its critical edges, and phase two's undecided output
is the only instance it builds.

The cut-covering set construction is pluggable, and ``_phase_two`` is
the one place that reads the provider.  Under ``trivial`` Y is every
vertex, so past those rules phase two is the identity and returns before
building anything.  ``exhaustive`` (``cut_covering_set``) is the cover by
its definition: X plus one closest minimum cut per disjoint terminal
triple.  Its cost is exponential in the number of terminals, so it
refuses beyond a cap.  Every instance that phase two brings to it has
k >= 2 and at least two deletable edges, hence at least 11 terminals:
one subdivision vertex per deletable edge and three copies of each of at
least three endpoints.  So under the default cap it refuses them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .criticality import critical_tree
from .errors import BudgetExceededError, InternalInconsistencyError, InvalidInputError
from .graphs import Digraph, UndirectedGraph, reachable
from .solver import (
    WbdInstance,
    checked_critical_tree,
    freeze_rounds,
    mu,
    solution_from_distinct_partners,
)

PROVIDERS = ("trivial", "exhaustive")
DEFAULT_MAX_TERMINALS = 5


def unit_weights(graph: UndirectedGraph, pool: Iterable[int]) -> Dict[int, float]:
    """The unit weight map: 1 on the edges in ``pool``, 0 on all others."""
    return dict.fromkeys(graph.edges, 0.0) | dict.fromkeys(pool, 1.0)


def unit_instance(graph: UndirectedGraph, k: int, frozen: FrozenSet[int]) -> WbdInstance:
    """Unweighted instance: unit weight on deletable edges, 0 on frozen
    ones, target k.  Normalized when ``frozen`` holds the critical edges."""
    return WbdInstance(graph, k, float(k), unit_weights(graph, graph.edge_ids(frozen)), frozen)


# The constant answers' graphs and zero weight maps, built once: every
# constant instance shares an immutable graph and copies its map.
_K4 = UndirectedGraph.from_edges(range(4), itertools.combinations(range(4), 2))
_C4 = UndirectedGraph.from_edges(range(4), [(i, (i + 1) % 4) for i in range(4)])
_K4_ZERO = unit_weights(_K4, ())
_C4_ZERO = unit_weights(_C4, ())


def constant_yes_instance() -> WbdInstance:
    """K4 with k=0 and everything frozen: the empty set is a valid solution
    and no potential solution edges remain.  The graph is shared; the
    instance and its weight map are new on every call."""
    return WbdInstance(_K4, 0, 0.0, dict(_K4_ZERO), frozenset(_K4_ZERO))


def constant_no_instance(k: int) -> WbdInstance:
    """A 4-cycle with every edge frozen: nothing is deletable, k >= 1
    fails.  The graph is shared; the instance and its weight map are new
    on every call."""
    return WbdInstance(_C4, k, float(k), dict(_C4_ZERO), frozenset(_C4_ZERO))


# ---------------------------------------------------------------------------
# auxiliary digraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Digraph encoding deletion-set feasibility as linkage questions.

    Every deletable edge e is subdivided by a vertex x_e, every edge
    becomes an arc pair, and every endpoint v of a deletable edge gains a
    source copy v+ (arcs to all neighbors) and a sink copy v- (arcs from
    all neighbors).  Terminals X = subdivision vertices plus all three
    copies of each endpoint.
    """

    digraph: Digraph
    x_edge: Dict[int, int] = field(repr=False)
    v_plus: Dict[int, int] = field(repr=False)
    v_minus: Dict[int, int] = field(repr=False)
    terminals: FrozenSet[int] = frozenset()


def build_auxiliary_digraph(g: UndirectedGraph, f_edges: Iterable[int]) -> AuxiliaryDigraph:
    f_ids = sorted(set(f_edges))
    for e in f_ids:
        if not g.has_edge(e):
            raise InvalidInputError(f"no edge with id {e}")
    f_set = set(f_ids)
    nxt = max(g.vertices, default=-1) + 1
    x_edge = {e: nxt + i for i, e in enumerate(f_ids)}
    nxt += len(f_ids)
    endpoints = sorted({v for e in f_ids for v in g.endpoints(e)})
    v_plus = {v: nxt + 2 * i for i, v in enumerate(endpoints)}
    v_minus = {v: x + 1 for v, x in v_plus.items()}

    # Subdivided undirected graph, as neighbor lists.
    neigh: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for xe in x_edge.values():
        neigh[xe] = []
    for e in sorted(g.edges):
        u, v = g.endpoints(e)
        if e in f_set:
            xe = x_edge[e]
            neigh[u].append(xe)
            neigh[xe].append(u)
            neigh[v].append(xe)
            neigh[xe].append(v)
        else:
            neigh[u].append(v)
            neigh[v].append(u)

    arcs = {(v, u) for v, us in neigh.items() for u in us}
    arcs |= {(v_plus[v], u) for v in endpoints for u in neigh[v]}
    arcs |= {(u, v_minus[v]) for v in endpoints for u in neigh[v]}
    copies = [*v_plus.values(), *v_minus.values()]
    d = Digraph.from_arcs([*neigh, *copies], sorted(arcs))
    terminals = frozenset([*x_edge.values(), *copies, *endpoints])
    return AuxiliaryDigraph(d, x_edge, v_plus, v_minus, terminals)


# ---------------------------------------------------------------------------
# linkages and cuts
# ---------------------------------------------------------------------------


def _vertex_flow(
    d: Digraph,
    sources: Iterable[int],
    sinks: Iterable[int],
    removed: Iterable[int] = (),
) -> Tuple[int, FrozenSet[int]]:
    """Vertex-disjoint source-to-sink paths in D - removed (terminals count
    as capacity-1 too), on D's split network, which is built once per
    digraph: the value and the minimum cut closest to the sources."""
    return d.flow_network().min_cut(sources, sinks, removed)


def po_min_cut(
    d: Digraph,
    a: Iterable[int],
    b: Iterable[int],
    r: Iterable[int] = (),
) -> FrozenSet[int]:
    """Minimum potentially-overlapping A-B vertex cut in D - R.

    The cut may contain terminals; removing it leaves no directed path
    from the surviving A-vertices to the surviving B-vertices.
    """
    return _vertex_flow(d, a, b, r)[1]


# ---------------------------------------------------------------------------
# cut-covering providers
# ---------------------------------------------------------------------------


def cut_covering_set(
    aux: AuxiliaryDigraph, max_terminals: int = DEFAULT_MAX_TERMINALS
) -> FrozenSet[int]:
    """The ``exhaustive`` provider: a vertex set containing, for every
    terminal triple (A, B, R), some minimum potentially-overlapping A-B cut
    of D - R.

    X plus the closest minimum cut of every disjoint triple with A and B
    non-empty, one ``po_min_cut`` each: 4^|X| - 2*3^|X| + 2^|X| flows,
    12,138 at 7 terminals.  Disjoint triples suffice: R meeting A or B
    cuts like its R-disjoint projection; if A and B meet in C, every cut
    holds C (a vertex of C is a path), the closest minimum cut is C plus
    that of (A - C, B - C, R | C), or just C, and X covers C.
    """
    if max_terminals < 0:
        raise InvalidInputError(f"max_terminals must be non-negative, got {max_terminals}")
    terms = sorted(aux.terminals)
    if len(terms) > max_terminals:
        raise BudgetExceededError(
            f"exhaustive cut covering supports at most {max_terminals} "
            f"terminals, got {len(terms)}; use the trivial provider"
        )
    out: Set[int] = set(terms)
    for roles in itertools.product(range(4), repeat=len(terms)):
        a, b, r = ([t for t, role in zip(terms, roles) if role == side] for side in (1, 2, 3))
        if a and b:
            out |= po_min_cut(aux.digraph, a, b, r)
    return frozenset(out)


# ---------------------------------------------------------------------------
# reduction rules
# ---------------------------------------------------------------------------


def _attachments(g: UndirectedGraph, y_set: FrozenSet[int]) -> List[FrozenSet[int]]:
    """N(C), the vertices of Y adjacent to C, for every component C of
    G - Y, from one pass over the graph."""
    out: List[FrozenSet[int]] = []
    seen: Set[int] = set()
    for s in g.vertices - y_set:
        if s not in seen:
            comp = reachable(g, (s,), removed_vertices=y_set)
            seen |= comp
            out.append(frozenset(u for v in comp for u in g.neighbors(v) if u in y_set))
    return out


def rule_one(
    g: UndirectedGraph, pool: List[int], y_set: FrozenSet[int], attachments: List[FrozenSet[int]]
) -> Optional[int]:
    """The first deletable edge (u, v), in id order, joined by a path that
    avoids every deletable edge and all of Y except the endpoints, or None.
    Y holds every deletable edge's endpoints, so such a path runs through
    one component C of G - Y with u, v in N(C), one of ``attachments``.
    Phase two deletes the edge, spends one budget unit and reapplies the
    rule to exhaustion."""
    if not {v for e in pool for v in g.endpoints(e)} <= y_set:
        raise InvalidInputError("Y must hold every endpoint of a deletable edge")
    for eid in pool:
        u, v = g.endpoints(eid)
        if any(u in attach and v in attach for attach in attachments):
            return eid
    return None


def rule_two_torso(
    g: UndirectedGraph,
    frozen: FrozenSet[int],
    y_set: FrozenSet[int],
    attachments: List[FrozenSet[int]],
) -> Tuple[UndirectedGraph, FrozenSet[int]]:
    """Contract the graph onto Y: keep the induced subgraph and add a frozen
    shortcut edge, with fresh ids in pair order, for every non-adjacent pair
    of Y inside some N(C): exactly the pairs joined by a path whose interior
    avoids Y, which lies in one component C of G - Y.  The torso and its
    frozen edges: the kept ones of ``frozen`` and the shortcuts."""
    pairs = {p for a in attachments for p in itertools.combinations(sorted(a), 2)}
    shortcuts = sorted(p for p in pairs if g.edge_between(*p) is None)
    reduced, new_ids = g.induced(y_set).with_edges(shortcuts)
    return reduced, frozenset(e for e in frozen if reduced.has_edge(e)) | frozenset(new_ids)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass
class KernelResult:
    instance: WbdInstance
    answer: Optional[str]
    stats: Dict[str, object]


def kernelize(
    graph: UndirectedGraph,
    k: int,
    frozen: FrozenSet[int] = frozenset(),
    provider: str = "trivial",
    max_terminals: int = DEFAULT_MAX_TERMINALS,
    mu_of: Callable[[int], int] = mu,
) -> KernelResult:
    """Shrink an unweighted instance to an equivalent one with few
    potential solution edges and a vertex count polynomial in that number.

    Detected yes-instances are replaced by a constant yes-instance and
    decided no-instances by a constant no-instance, with the result's
    answer field set to "yes" or "no"; otherwise it is None.  Either way
    the result is a unit instance, whose frozen edges weigh 0.

    The graph is normalized and its pool listed first: the budget rules
    read only k and the pool's size, and a decided answer copies a zero
    map built at import, so it needs no instance or weight map of the
    input.  Past them phase one's unit weight map is built, input-frozen
    and critical edges at 0, and phase one zeroes each edge it freezes on
    it; phase two's torso builds the one map of its own output.
    """
    if provider not in PROVIDERS:
        raise InvalidInputError(f"unknown cut-covering provider '{provider}'")
    if max_terminals < 0:
        raise InvalidInputError(f"max_terminals must be non-negative, got {max_terminals}")
    if k < 0:
        raise InvalidInputError(f"k must be non-negative, got {k}")
    crit, tree = checked_critical_tree(graph)
    frozen = frozen | crit
    pool = graph.edge_ids(frozen)
    stats: Dict[str, object] = {
        "provider": provider,
        "f_before": len(pool),
        "v_before": graph.n,
        "irrelevant_frozen": 0,
        "rule_one_fired": 0,
        "phase1_rounds": 0,
    }

    inst, answer = _budget_rules(k, len(pool)) or (None, None)
    if inst is None:
        inst = WbdInstance(graph, k, float(k), unit_weights(graph, pool), frozen, tree=tree)
        inst, answer = _phase_one(inst, pool, mu_of, stats)
    if answer is None:
        inst, answer = _phase_two(inst, pool, provider, max_terminals, stats)
    stats["f_after"] = 0 if answer else len(pool)
    stats["v_after"] = inst.graph.n
    return KernelResult(inst, answer, stats)


def _budget_rules(k: int, pool_size: int) -> Optional[Tuple[WbdInstance, str]]:
    """Decide what needs no work: k = 0 is a yes, fewer than k deletable
    edges a no, and k = 1 with a deletable edge a yes.  Applied before
    phase one and on every pass of phase two, whose rule one lowers k.
    Reads only the budget and the pool's size."""
    if k == 0:
        # Budget exhausted: the empty set meets w* = 0.
        return constant_yes_instance(), "yes"
    if pool_size < k:
        # Unit weights: fewer than k deletable edges cannot meet w* = k,
        # so any constant no-instance is equivalent.
        return constant_no_instance(k), "no"
    if k == 1:
        # The instance is normalized, so any one deletable edge is
        # non-critical and deleting it alone is a solution.
        return constant_yes_instance(), "yes"
    return None


def _phase_one(
    inst: WbdInstance, pool: List[int], mu_of: Callable[[int], int], stats: Dict[str, object]
) -> Tuple[WbdInstance, Optional[str]]:
    """Bound the potential solution edges with the solver's freeze loop
    (``mark_all``) at threshold mu(k), read once: the instance it leaves
    and no answer, or the constant yes-instance and "yes".

    ``pool`` is the normalized instance's ``potential_edges()``.  Under
    unit weights every potential edge weighs 1, so its ``heavy_order``
    (weight descending, ties by ascending id) is id order: the pool list
    itself, which is passed to ``freeze_rounds`` as the order.  The loop
    drops each frozen edge from it, so on return it is the pool of the
    instance returned; each is also zeroed on the call's own weight map."""
    inst, steps = freeze_rounds(inst, pool, mu_of(inst.k), mark_all=True)
    inst.weights.update((s.edge, 0.0) for s in steps if s.kind == "freeze")
    stats["phase1_rounds"] = len(steps)
    stats["irrelevant_frozen"] = sum(s.kind == "freeze" for s in steps)
    kind = steps[-1].kind if steps else None
    if kind == "distinct":
        solution_from_distinct_partners(steps[-1].analysis, inst.k)
    if kind in ("full", "distinct"):
        return constant_yes_instance(), "yes"
    return inst, None


def _phase_two(
    inst: WbdInstance,
    pool: List[int],
    provider: str,
    max_terminals: int,
    stats: Dict[str, object],
) -> Tuple[WbdInstance, Optional[str]]:
    """Contract onto Y, the vertices worth keeping, until the budget rules
    decide or rule one no longer fires.

    The loop carries the graph, k, the frozen set and ``pool``, the list
    of potential edges.  Each pass lists the components of G - Y once, for
    both rules.  Each graph a rule makes gets one ``critical_tree`` call:
    a graph that is not biconnected is the kernel's fault (exit 4), and
    its critical edges are frozen; ``pool`` is then relisted in place.
    The torso ends the loop, and its undecided output is the one instance
    built, with one unit weight map and the DFS tree."""
    g, k, frozen = inst.graph, inst.k, inst.frozen
    while True:
        decided = _budget_rules(k, len(pool))
        if decided is not None:
            return decided
        if provider == "trivial":
            # Y = V(G): rule one has no component of G - Y to use, and the
            # torso onto Y is G itself, so ``inst`` is still the input.
            return inst, None
        z = cut_covering_set(build_auxiliary_digraph(g, pool), max_terminals)
        y_set = frozenset(z & g.vertices) | frozenset(v for e in pool for v in g.endpoints(e))
        attachments = _attachments(g, y_set)
        eid = rule_one(g, pool, y_set, attachments)
        if eid is not None:
            stats["rule_one_fired"] = int(stats["rule_one_fired"]) + 1
            g, k = g.without_edge(eid), k - 1
        else:
            g, frozen = rule_two_torso(g, frozen, y_set, attachments)
        crit, tree = critical_tree(g)
        if tree is None:  # n >= 3, as Y holds two pool edges' endpoints
            rule = "torso" if eid is None else "rule one"
            raise InternalInconsistencyError(f"{rule} lost biconnectivity")
        frozen |= crit
        pool[:] = g.edge_ids(frozen)
        if eid is None:
            return WbdInstance(g, k, float(k), unit_weights(g, pool), frozen, tree=tree), None
