"""Kernelization for unweighted biconnectivity deletion.

Phase 1 bounds the number of potential solution edges using the solver's
greedy/partner machinery (unit weights): a full greedy run or many
distinct partner sets certifies a yes-instance, a clean stretch yields an
irrelevant edge to freeze.  Phase 2 shrinks the vertex set: an auxiliary
digraph reduces deletion-set feasibility to linkage questions, a
cut-covering set of that digraph selects the vertices worth keeping, and
three reduction rules contract the graph onto them (its torso).

The cut-covering set construction is pluggable: the ``trivial`` provider
keeps every vertex (sound, shrinks nothing), the ``exhaustive`` provider
unions one minimum cut per terminal triple and is priced exponentially in
the number of terminals, so it refuses beyond a small cap.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .criticality import build_partner_analysis, find_clean_stretch
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    InvalidInputError,
)
from .graphs import Digraph, UndirectedGraph, is_biconnected
from .solver import (
    DEFAULT_CONFIG,
    SolverConfig,
    WbdInstance,
    find_rich_flow,
    greedy_deletion_set,
    irrelevant_edge,
    normalize,
    solution_from_distinct_partners,
    validate_instance,
)

PROVIDERS = ("trivial", "exhaustive")
DEFAULT_MAX_TERMINALS = 5


def unit_instance(graph: UndirectedGraph, k: int, frozen: FrozenSet[int]) -> WbdInstance:
    """Unweighted instance: unit weight on deletable edges, target k."""
    weights = {e: (0.0 if e in frozen else 1.0) for e in graph.edges}
    return WbdInstance(graph, k, float(k), weights, frozen)


def constant_yes_instance() -> WbdInstance:
    """K4 with k=0 and everything frozen: the empty set is a valid solution
    and no potential solution edges remain."""
    g = UndirectedGraph.from_edges(range(4), itertools.combinations(range(4), 2))
    return unit_instance(g, 0, frozenset(g.edges))


def constant_no_instance(k: int) -> WbdInstance:
    """A cycle with every edge frozen: nothing is deletable, k >= 1 fails."""
    g = UndirectedGraph.from_edges(range(4), [(i, (i + 1) % 4) for i in range(4)])
    return unit_instance(g, k, frozenset(g.edges))


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
    x_edge: Dict[int, int] = {}
    for e in f_ids:
        x_edge[e] = nxt
        nxt += 1
    endpoints = sorted({v for e in f_ids for v in g.endpoints(e)})
    v_plus: Dict[int, int] = {}
    v_minus: Dict[int, int] = {}
    for v in endpoints:
        v_plus[v] = nxt
        v_minus[v] = nxt + 1
        nxt += 2

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

    arcs: List[Tuple[int, int]] = []
    for v in sorted(neigh):
        for u in neigh[v]:
            arcs.append((v, u))
    for v in endpoints:
        for u in neigh[v]:
            arcs.append((v_plus[v], u))
            arcs.append((u, v_minus[v]))

    verts = list(neigh) + [v_plus[v] for v in endpoints] + [v_minus[v] for v in endpoints]
    d = Digraph.from_arcs(verts, sorted(set(arcs)))
    terminals = frozenset(
        list(x_edge.values())
        + [v_plus[v] for v in endpoints]
        + [v_minus[v] for v in endpoints]
        + endpoints
    )
    return AuxiliaryDigraph(d, x_edge, v_plus, v_minus, terminals)


# ---------------------------------------------------------------------------
# vertex-capacity flow on digraphs
# ---------------------------------------------------------------------------

_INF = 1 << 30


def _vertex_flow(
    d: Digraph,
    sources: FrozenSet[int],
    sinks: FrozenSet[int],
    removed: FrozenSet[int] = frozenset(),
) -> Tuple[int, Set[Tuple[int, int]]]:
    """Max set of vertex-disjoint source-to-sink paths (terminals count as
    capacity-1 too); returns the value and the residual-reachable node set.
    """
    verts = [v for v in sorted(d.vertices) if v not in removed]
    vset = set(verts)
    residual: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {"s": {}, "t": {}}

    def add(a, b, c):
        residual.setdefault(a, {})[b] = c
        residual.setdefault(b, {}).setdefault(a, 0)

    for v in verts:
        add((v, 0), (v, 1), 1)
    for t, h in d.arc_pairs():
        if t in vset and h in vset:
            add((t, 1), (h, 0), _INF)
    for a in sorted(sources):
        if a in vset:
            add("s", (a, 0), _INF)
    for b in sorted(sinks):
        if b in vset:
            add((b, 1), "t", _INF)

    value = 0
    while True:
        parent = {"s": "s"}
        queue = deque(["s"])
        found = False
        while queue and not found:
            a = queue.popleft()
            for b, c in residual[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    if b == "t":
                        found = True
                        break
                    queue.append(b)
        if not found:
            break
        b = "t"
        while b != "s":
            a = parent[b]
            residual[a][b] -= 1
            residual[b][a] += 1
            b = a
        value += 1

    reach = {"s"}
    stack = ["s"]
    while stack:
        a = stack.pop()
        for b, c in residual[a].items():
            if c > 0 and b not in reach:
                reach.add(b)
                stack.append(b)
    return value, reach


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
    removed = frozenset(r)
    _, reach = _vertex_flow(d, frozenset(a), frozenset(b), removed)
    cut = set()
    for v in d.vertices:
        if v not in removed and (v, 0) in reach and (v, 1) not in reach:
            cut.add(v)
    return frozenset(cut)


def linkage_exists(aux: AuxiliaryDigraph, removed_x: Iterable[int], u: int, v: int) -> bool:
    """Is there a 2-linkage from {u+, u} to {v-, v} avoiding the given
    subdivision vertices?"""
    sources = frozenset((aux.v_plus[u], u))
    sinks = frozenset((aux.v_minus[v], v))
    value, _ = _vertex_flow(aux.digraph, sources, sinks, frozenset(removed_x))
    return value >= 2


def is_deletion_set_via_linkages(
    g: UndirectedGraph, aux: AuxiliaryDigraph, s: Iterable[int]
) -> bool:
    """Deletion-set test through the auxiliary digraph: every deleted edge
    (u, v) needs a linkage from {u+, u} to {v-, v} once all deleted edges'
    subdivision vertices are removed."""
    s_ids = sorted(set(s))
    removed = [aux.x_edge[e] for e in s_ids]
    for e in s_ids:
        u, v = g.endpoints(e)
        if not linkage_exists(aux, removed, u, v):
            return False
    return True


# ---------------------------------------------------------------------------
# cut-covering providers
# ---------------------------------------------------------------------------


def cut_covering_set(
    aux: AuxiliaryDigraph,
    provider: str = "trivial",
    max_terminals: int = DEFAULT_MAX_TERMINALS,
) -> FrozenSet[int]:
    """A vertex set containing, for every terminal triple (A, B, R), some
    minimum potentially-overlapping A-B cut of D - R."""
    if provider == "trivial":
        return frozenset(aux.digraph.vertices)
    if provider != "exhaustive":
        raise InvalidInputError(f"unknown cut-covering provider '{provider}'")
    terms = sorted(aux.terminals)
    if len(terms) > max_terminals:
        raise BudgetExceededError(
            f"exhaustive cut covering supports at most {max_terminals} "
            f"terminals, got {len(terms)}; use the trivial provider"
        )
    out: Set[int] = set()
    # Triples (A, B, R) with A or B intersecting R cut exactly like their
    # R-disjoint projections, so enumerating R and then subsets of the rest
    # covers every triple with 5^|X| flow calls instead of 8^|X|.
    for r_size in range(len(terms) + 1):
        for r in itertools.combinations(terms, r_size):
            rest = [t for t in terms if t not in r]
            for a_size in range(1, len(rest) + 1):
                for a in itertools.combinations(rest, a_size):
                    for b_size in range(1, len(rest) + 1):
                        for b in itertools.combinations(rest, b_size):
                            out |= po_min_cut(aux.digraph, a, b, r)
    return frozenset(out)


# ---------------------------------------------------------------------------
# reduction rules
# ---------------------------------------------------------------------------


def rule_zero(inst: WbdInstance) -> Optional[WbdInstance]:
    """Budget exhausted: any instance with k=0 is a yes-instance."""
    if inst.k == 0:
        return constant_yes_instance()
    return None


def _path_avoiding(
    g: UndirectedGraph,
    x: int,
    y: int,
    banned_edges: Set[int],
    banned_vertices: Set[int],
) -> bool:
    if x in banned_vertices or y in banned_vertices:
        raise InvalidInputError("terminal banned")
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for u, eid in zip(g.neighbors(v), g.incident(v)):
            if eid in banned_edges or u in banned_vertices or u in seen:
                continue
            if u == y:
                return True
            seen.add(u)
            stack.append(u)
    return False


def rule_one(inst: WbdInstance, y_set: FrozenSet[int]) -> Optional[WbdInstance]:
    """Delete a deletable edge (u, v) joined by a path that avoids every
    deletable edge and all of Y except the endpoints; spend one budget unit.
    Fires at most once; the driver reapplies it to exhaustion."""
    f_set = set(inst.potential_edges())
    for eid in sorted(f_set):
        u, v = inst.graph.endpoints(eid)
        banned_vertices = set(y_set) - {u, v}
        if _path_avoiding(inst.graph, u, v, f_set, banned_vertices):
            g2 = inst.graph.without_edge(eid)
            return normalize(
                unit_instance(g2, inst.k - 1, frozenset(e for e in inst.frozen if e != eid))
            )
    return None


def rule_two_torso(inst: WbdInstance, y_set: FrozenSet[int]) -> WbdInstance:
    """Contract the graph onto Y: keep the induced subgraph and add a frozen
    shortcut edge for every non-adjacent pair of Y joined by a path whose
    interior avoids Y."""
    g = inst.graph
    shortcuts: List[Tuple[int, int]] = []
    for u, v in itertools.combinations(sorted(y_set), 2):
        if g.edge_between(u, v) is not None:
            continue
        if _path_avoiding(g, u, v, set(), set(y_set) - {u, v}):
            shortcuts.append((u, v))
    reduced = g.induced(y_set)
    new_ids = []
    for u, v in shortcuts:
        reduced, nid = reduced.with_edge(u, v)
        new_ids.append(nid)
    frozen = frozenset(e for e in inst.frozen if reduced.has_edge(e)) | frozenset(new_ids)
    return unit_instance(reduced, inst.k, frozen)


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
    config: SolverConfig = DEFAULT_CONFIG,
) -> KernelResult:
    """Shrink an unweighted instance to an equivalent one with few
    potential solution edges and a vertex count polynomial in that number.

    Detected yes-instances are replaced by a constant yes-instance and
    decided no-instances by a constant no-instance, with the result's
    answer field set to "yes" or "no"; otherwise it is None.
    """
    if provider not in PROVIDERS:
        raise InvalidInputError(f"unknown cut-covering provider '{provider}'")
    inst = unit_instance(graph, k, frozen)
    validate_instance(inst)
    inst = normalize(inst)
    stats: Dict[str, object] = {
        "provider": provider,
        "f_before": len(inst.potential_edges()),
        "v_before": inst.graph.n,
        "irrelevant_frozen": 0,
        "rule_one_fired": 0,
        "phase1_rounds": 0,
    }

    outcome = _phase_one(inst, config, stats)
    if isinstance(outcome, str):
        out = constant_yes_instance()
        stats["f_after"] = len(out.potential_edges())
        stats["v_after"] = out.graph.n
        return KernelResult(out, "yes", stats)
    inst = outcome

    inst, answer = _phase_two(inst, provider, max_terminals, stats)
    stats["f_after"] = len(inst.potential_edges())
    stats["v_after"] = inst.graph.n
    return KernelResult(inst, answer, stats)


def _phase_one(inst: WbdInstance, config: SolverConfig, stats: Dict[str, object]):
    """Bound the potential solution edges; returns 'yes' or the instance."""
    while True:
        pool = inst.potential_edges()
        if len(pool) <= config.mu(inst.k):
            return inst
        stats["phase1_rounds"] = int(stats["phase1_rounds"]) + 1

        # The whole pool, in id order, is both greedy's order and the marked set.
        run = greedy_deletion_set(inst, config, pool)
        picks = run.picks
        if len(picks) == inst.k:
            return "yes"

        threshold = config.good_step_threshold(inst.k)
        rich = next((i for i, c in enumerate(run.counts) if c >= threshold), None)
        if rich is None:
            if config.is_default:
                raise InternalInconsistencyError(
                    "kernel greedy stalled with every step below the "
                    "newly-critical threshold despite many potential edges"
                )
            return inst
        gprime = inst.graph.without_edges(picks[:rich])
        pivot = picks[rich]
        newly = run.newly[rich]
        p1, p2 = find_rich_flow(gprime, pivot, newly)
        deleted_pairs = [inst.graph.endpoints(e) for e in picks[:rich]]
        pa = build_partner_analysis(gprime, pivot, p1, p2, newly, deleted_pairs, inst.k)

        if pa.distinct_partner_sets > 3 * inst.k:
            solution_from_distinct_partners(pa, inst.k)
            return "yes"

        stretch = find_clean_stretch(pa, inst.k)
        if stretch is None:
            return inst
        ej = irrelevant_edge(pa, stretch, inst.weights)
        stats["irrelevant_frozen"] = int(stats["irrelevant_frozen"]) + 1
        # The graph is unchanged, so its critical edges are already frozen.
        inst = inst.with_frozen(frozenset((ej,)))


def _phase_two(
    inst: WbdInstance,
    provider: str,
    max_terminals: int,
    stats: Dict[str, object],
) -> Tuple[WbdInstance, Optional[str]]:
    while True:
        if inst.k == 0:
            return constant_yes_instance(), "yes"
        pool = inst.potential_edges()
        aux = build_auxiliary_digraph(inst.graph, pool)
        z = cut_covering_set(aux, provider, max_terminals)
        y_set = frozenset(z & inst.graph.vertices) | frozenset(
            v for e in pool for v in inst.graph.endpoints(e)
        )
        if not y_set:
            # No deletable edges and nothing worth keeping: k >= 1 cannot
            # be met, so any constant no-instance is equivalent.
            return constant_no_instance(inst.k), "no"
        fired = rule_one(inst, y_set)
        if fired is not None:
            stats["rule_one_fired"] = int(stats["rule_one_fired"]) + 1
            inst = fired
            continue
        reduced = rule_two_torso(inst, y_set)
        reduced = normalize(reduced)
        if not is_biconnected(reduced.graph):
            raise InternalInconsistencyError("torso lost biconnectivity")
        return reduced, None
