"""Shared structural validators used by unit tests and the acceptance suite,
plus accessors that only tests need."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from conndel.criticality import PartnerAnalysis
from conndel.errors import InvalidInputError
from conndel.graphs import Digraph, Path, UndirectedGraph
from conndel.solver import RoundCache


def path_in_graph(g: UndirectedGraph, vertices: Iterable[int]) -> Path:
    """The path through these vertices, with the ids of g's edges on it."""
    vs = tuple(vertices)
    eids = []
    for a, b in zip(vs, vs[1:]):
        eid = g.edge_between(a, b)
        if eid is None:
            raise InvalidInputError(f"({a},{b}) is not an edge of the host graph")
        eids.append(eid)
    return Path(vs, tuple(eids))


def analysis_after(
    g: UndirectedGraph,
    picks: Sequence[int],
    k: int,
    marked: Optional[FrozenSet[int]] = None,
) -> PartnerAnalysis:
    """The partner analysis of the last pick, from ``RoundCache.analysis``
    on a cache of g (with no DFS tree, so its critical sets are fresh
    ones); the analysed edges are the ``marked`` ones (default: all) that
    deleting the pivot makes newly critical."""
    picks = tuple(picks)
    cache = RoundCache(g, None)
    newly = cache.critical(picks) - cache.critical(picks[:-1])
    if marked is not None:
        newly &= marked
    return cache.analysis(picks, newly, k)


def gprime(pa: PartnerAnalysis) -> UndirectedGraph:
    """G' as a graph of its own: the analysis's graph less its removed
    edges (a copy the analysis itself never makes), or that graph when
    nothing was removed."""
    return pa.graph.without_edges(pa.removed) if pa.removed else pa.graph


def out_neighbors(d: Digraph, v: int) -> List[int]:
    """Heads of v's out-arcs, ascending."""
    return sorted(h for t, h in d.arcs.values() if t == v)


def in_neighbors(d: Digraph, v: int) -> List[int]:
    """Tails of v's in-arcs, ascending."""
    return sorted(t for t, h in d.arcs.values() if h == v)


def oriented(pa: PartnerAnalysis) -> Tuple[Tuple[int, int], ...]:
    """(u_i, v_i) per analysed edge e_i, its endpoints in P1's x-to-y order."""
    steps = list(zip(pa.p1.vertices, pa.p1.vertices[1:]))
    return tuple(steps[pa.p1.edges.index(e)] for e in pa.edge_ids)


def segments(pa: PartnerAnalysis) -> Dict[int, Tuple[int, ...]]:
    """Segment i, for 1 <= i < t: the P1 vertices from v_i to u_{i+1}."""
    ends = oriented(pa)
    vs = pa.p1.vertices
    return {
        i: vs[vs.index(ends[i - 1][1]) : vs.index(ends[i][0]) + 1]
        for i in range(1, pa.t)
    }


def gammas(pa: PartnerAnalysis) -> Dict[int, FrozenSet[int]]:
    """Gamma[i, i+1] per component: the edges of G' with an end in the
    component and the other end in it or at its shared partner."""
    out = {}
    edges = gprime(pa).edges
    for i, comp in pa.components.items():
        side = comp | {pa.shared_partner[i]}
        out[i] = frozenset(
            e
            for e, (a, b) in edges.items()
            if (a in comp or b in comp) and a in side and b in side
        )
    return out


def check_partner_invariants(pa: PartnerAnalysis) -> None:
    """Assert every structural guarantee of a partner analysis.

    Covers: partner sets non-empty and P2-ordered, weak ordering across
    edges, bounded overlap of consecutive sets, switch-count bound, pairwise
    disjoint components avoiding P2, exact three-vertex component
    neighborhoods, and edge-disjoint gamma sets.
    """
    pos = {v: i for i, v in enumerate(pa.p2.vertices)}

    for ps in pa.partners:
        assert ps, "partner set must be non-empty"
        assert all(v in pos for v in ps), "partners must lie on P2"
        assert list(ps) == sorted(ps, key=lambda v: pos[v]), "partners out of P2 order"
        assert all(0 < pos[v] < len(pa.p2.vertices) - 1 for v in ps), (
            "partners must be internal to P2"
        )

    for i in range(pa.t):
        for j in range(i + 1, pa.t):
            hi = max(pos[w] for w in pa.partners[i])
            lo = min(pos[w] for w in pa.partners[j])
            assert hi <= lo, f"partner sets of edges {i + 1} and {j + 1} out of order"

    for i in range(pa.t - 1):
        shared = set(pa.partners[i]) & set(pa.partners[i + 1])
        assert len(shared) <= 1, "consecutive partner sets overlap in >1 vertex"

    if pa.distinct_partner_sets <= 3 * pa.k:
        assert len(pa.switches) <= 3 * pa.k

    p2v = set(pa.p2.vertices)
    segs = segments(pa)
    items = sorted(pa.components.items())
    for idx, (i, ci) in enumerate(items):
        assert not (ci & p2v), "component intersects P2"
        assert set(segs[i]) <= ci, "segment escapes its component"
        for j, cj in items[idx + 1 :]:
            assert not (ci & cj), f"components {i} and {j} intersect"

    ends = oriented(pa)
    g = gprime(pa)
    for i, ci in items:
        neighborhood = set()
        for v in ci:
            for u in g.neighbors(v):
                if u not in ci:
                    neighborhood.add(u)
        u_i = ends[i - 1][0]
        v_next = ends[i][1]
        expected = {u_i, v_next, pa.shared_partner[i]}
        assert neighborhood == expected, (
            f"component {i} neighborhood {neighborhood} != {expected}"
        )

    gamma_items = sorted(gammas(pa).items())
    for idx, (i, gi) in enumerate(gamma_items):
        for j, gj in gamma_items[idx + 1 :]:
            assert not (gi & gj), f"gamma sets {i} and {j} share an edge"
