"""Critical edges, mixed cuts, partner sets, segments, and clean stretches.

An edge of a biconnected graph is critical when deleting it destroys
biconnectivity.  For a biconnected G on n >= 3 vertices, e is critical
iff e is a bridge of G - w for some vertex w: a cut-vertex w of G - e
separates the ends of e in G - w, and conversely.  So the critical set
costs n lowpoint passes, one per removed vertex, instead of one
biconnectivity pass per edge.  By convention every edge is critical when
G is not biconnected or has fewer than three vertices (deleting any edge
leaves a graph that is not biconnected).

Deleting a non-critical pivot edge e = (x, y) can make other edges newly
critical; each such edge on one path of a value-2 x-y flow pairs with
"partner" vertices on the other path to form mixed cuts.  The machinery
here computes that structure and locates clean stretches, which the
solver mines for irrelevant edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .errors import InternalInconsistencyError, InvalidInputError
from .graphs import (
    Path,
    UndirectedGraph,
    bridges_without,
    has_path_without,
    is_biconnected_without,
    reachable,
)


def is_critical(g: UndirectedGraph, eid: int) -> bool:
    """Does deleting this edge destroy biconnectivity?"""
    if not g.has_edge(eid):
        raise InvalidInputError(f"no edge with id {eid}")
    return not is_biconnected_without(g, frozenset((eid,)))


def critical_set(g: UndirectedGraph) -> FrozenSet[int]:
    """All critical edges: the union over vertices w of the bridges of
    G - w, or every edge when g is not biconnected or n < 3."""
    if g.n < 3:
        return frozenset(g.edges)
    crit = set()
    for w in g.vertices:
        bridges = bridges_without(g, w)
        if bridges is None:  # G - w is disconnected
            return frozenset(g.edges)
        crit.update(bridges)
    return frozenset(crit)


def newly_critical(g: UndirectedGraph, eid: int) -> FrozenSet[int]:
    """Edges critical in g - e but not in g (the pivot itself excluded)."""
    if not g.has_edge(eid):
        raise InvalidInputError(f"no edge with id {eid}")
    before = critical_set(g)
    if eid in before:
        raise InvalidInputError("pivot edge must be non-critical")
    return critical_set(g.without_edge(eid)) - before


def verify_mixed_cut(g: UndirectedGraph, x: int, y: int, eid: int, vertex: int) -> bool:
    """Does removing one edge plus one vertex leave no x-y path?"""
    if vertex in (x, y):
        raise InvalidInputError("cut vertex may not be a terminal")
    if not g.has_edge(eid):
        raise InvalidInputError(f"no edge with id {eid}")
    return not has_path_without(g, x, y, frozenset((eid,)), frozenset((vertex,)))


@dataclass(frozen=True)
class MixedCut:
    """One edge plus one vertex separating the two terminals."""

    edge: int
    vertex: int
    x: int
    y: int

    def holds_in(self, g: UndirectedGraph) -> bool:
        return verify_mixed_cut(g, self.x, self.y, self.edge, self.vertex)


def find_size2_mixed_cut(g: UndirectedGraph, eid: int) -> Optional[MixedCut]:
    """Search for terminals x, y and a vertex v with {edge, v} a mixed cut."""
    g.endpoints(eid)  # rejects an unknown edge
    for v in sorted(g.vertices):
        rest = sorted(g.vertices - {v})
        if not rest:
            continue
        comp = reachable(g, rest[:1], frozenset((eid,)), frozenset((v,)))
        if len(comp) < len(rest):
            return MixedCut(eid, v, rest[0], min(u for u in rest if u not in comp))
    return None


def partner_set(
    gprime: UndirectedGraph,
    pivot: int,
    p1: Path,
    p2: Path,
    crit: int,
) -> Tuple[int, ...]:
    """Partner vertices of a newly critical edge on P1: the internal
    vertices v of P2 for which {edge, v} is a mixed x-y cut of G' - e,
    in P2 order from x to y.  Never empty."""
    x, y = gprime.endpoints(pivot)
    if p1.vertices[0] not in (x, y) or p2.vertices[0] not in (x, y):
        raise InvalidInputError("flow paths must run between the pivot endpoints")
    if crit not in p1.edges:
        raise InvalidInputError("critical edge must lie on the first flow path")
    removed = frozenset((pivot, crit))
    a, b = p2.vertices[0], p2.vertices[-1]
    out = [v for v in p2.interior if not has_path_without(gprime, a, b, removed, frozenset((v,)))]
    if not out:
        raise InternalInconsistencyError(
            f"edge {crit} has an empty partner set; every newly critical "
            "edge on one flow path must have a partner on the other"
        )
    return tuple(out)


@dataclass(frozen=True)
class PartnerAnalysis:
    """Ordered critical edges on P1 with partner structure on P2.

    Indices are 1-based: edges e_1..e_t appear along P1 from x to y.
    ``switches`` collects indices i < t whose partner set differs from the
    next edge's; for the others the shared single partner is w(i), and
    Component[i, i+1] hangs between e_i and e_{i+1} off that partner.
    """

    graph: UndirectedGraph
    pivot: int
    x: int
    y: int
    p1: Path
    p2: Path
    edge_ids: Tuple[int, ...]
    oriented: Tuple[Tuple[int, int], ...]
    partners: Tuple[Tuple[int, ...], ...]
    switches: FrozenSet[int]
    shared_partner: Dict[int, int] = field(repr=False)
    segments: Dict[int, Tuple[int, ...]] = field(repr=False)
    components: Dict[int, FrozenSet[int]] = field(repr=False)
    gammas: Dict[int, FrozenSet[int]] = field(repr=False)
    affected: FrozenSet[int] = frozenset()
    k: int = 0

    @property
    def t(self) -> int:
        return len(self.edge_ids)

    @property
    def distinct_partner_sets(self) -> int:
        return len(set(self.partners))

    def edge(self, i: int) -> int:
        return self.edge_ids[i - 1]

    def partner(self, i: int) -> Tuple[int, ...]:
        return self.partners[i - 1]


def _oriented_from(path: Path, start: int) -> Path:
    if path.vertices[0] == start:
        return path
    return Path(tuple(reversed(path.vertices)), tuple(reversed(path.edges)))


def build_partner_analysis(
    gprime: UndirectedGraph,
    pivot: int,
    p1: Path,
    p2: Path,
    newly: FrozenSet[int],
    deleted_endpoints: Iterable[Tuple[int, int]],
    k: int,
) -> PartnerAnalysis:
    """Assemble the full partner structure for one pivot edge.

    ``newly`` is the set of edges to analyze: the caller's marked edges
    that deleting the pivot makes newly critical, that is
    ``newly_critical(gprime, pivot) & marked``.
    ``deleted_endpoints`` are the endpoint pairs of the edges removed from
    the original graph to form G'; a component touching one is affected.
    """
    x, y = gprime.endpoints(pivot)
    p1 = _oriented_from(p1, x)
    p2 = _oriented_from(p2, x)
    if p1.vertices[-1] != y or p2.vertices[-1] != y:
        raise InvalidInputError("flow paths must run from x to y")

    edge_ids = tuple(e for e in p1.edges if e in newly)
    if not edge_ids:
        raise InvalidInputError("no marked newly critical edges on P1")

    pos = {e: j for j, e in enumerate(p1.edges)}
    oriented = tuple(
        (p1.vertices[pos[e]], p1.vertices[pos[e] + 1]) for e in edge_ids
    )
    partners = tuple(partner_set(gprime, pivot, p1, p2, e) for e in edge_ids)

    t = len(edge_ids)
    switches = frozenset(
        i for i in range(1, t) if partners[i - 1] != partners[i]
    )

    shared: Dict[int, int] = {}
    segments: Dict[int, Tuple[int, ...]] = {}
    components: Dict[int, FrozenSet[int]] = {}
    gammas: Dict[int, FrozenSet[int]] = {}
    for i in range(1, t):
        j_lo, j_hi = pos[edge_ids[i - 1]], pos[edge_ids[i]]
        segments[i] = tuple(p1.vertices[j_lo + 1 : j_hi + 1])
        if i in switches:
            continue
        pset = partners[i - 1]
        if len(pset) != 1:
            raise InternalInconsistencyError(
                "consecutive edges share a partner set that is not a single "
                f"vertex: {pset}"
            )
        w = pset[0]
        shared[i] = w
        comp = frozenset(
            reachable(gprime, segments[i], frozenset(edge_ids[i - 1 : i + 1]), frozenset((w,)))
        )
        components[i] = comp
        gamma = set()
        for eid, (a, b) in gprime.edges.items():
            if a in comp and b in comp:
                gamma.add(eid)
            elif (a == w and b in comp) or (b == w and a in comp):
                gamma.add(eid)
        gammas[i] = frozenset(gamma)

    endpoints = set()
    for a, b in deleted_endpoints:
        endpoints.add(a)
        endpoints.add(b)
    affected = frozenset(
        i for i, comp in components.items() if endpoints & comp
    )

    return PartnerAnalysis(
        graph=gprime,
        pivot=pivot,
        x=x,
        y=y,
        p1=p1,
        p2=p2,
        edge_ids=edge_ids,
        oriented=oriented,
        partners=partners,
        switches=switches,
        shared_partner=shared,
        segments=segments,
        components=components,
        gammas=gammas,
        affected=affected,
        k=k,
    )


def stretch_guarantee_threshold(k: int) -> int:
    """Number of analyzed edges above which a clean stretch must exist."""
    return 10 * k * k + 23 * k


def leftmost_long_run(
    t: int, separators: FrozenSet[int], min_gap: int
) -> Optional[Tuple[int, int]]:
    """First maximal run [a, b] of 1..t with b - a >= min_gap and no
    separator index in [a, b-1]."""
    a = 1
    for i in range(1, t):
        if i in separators:
            if i - a >= min_gap:
                return (a, i)
            a = i + 1
    if t - a >= min_gap:
        return (a, t)
    return None


def find_clean_stretch(pa: PartnerAnalysis, k: int) -> Optional[Tuple[int, int]]:
    """Leftmost maximal run a..b with b >= a + 2k+3, identical partner sets
    throughout, and unaffected components between consecutive edges.

    Returns None when no run is long enough; if the existence guarantee
    (enough analyzed edges, few distinct partner sets) held, that is an
    internal inconsistency and raises instead.
    """
    t = pa.t
    best = leftmost_long_run(t, pa.switches | pa.affected, 2 * k + 3)
    if best is not None:
        return best
    if t >= stretch_guarantee_threshold(k) and pa.distinct_partner_sets <= 3 * k:
        raise InternalInconsistencyError(
            f"no clean stretch found among {t} edges with "
            f"{pa.distinct_partner_sets} distinct partner sets and k={k}"
        )
    return None


def explain_partner_analysis(pa: PartnerAnalysis) -> str:
    """Structured text dump for the CLI's --explain output."""
    g = pa.graph
    lines = []
    lines.append(
        f"partner analysis: pivot {_edge_str(g, pa.pivot)}, "
        f"terminals ({pa.x}, {pa.y}), k={pa.k}"
    )
    lines.append("  P1: " + " ".join(str(v) for v in pa.p1.vertices))
    lines.append("  P2: " + " ".join(str(v) for v in pa.p2.vertices))
    lines.append(f"  analyzed critical edges on P1 (t={pa.t}):")
    for i in range(1, pa.t + 1):
        ps = " ".join(str(v) for v in pa.partner(i))
        lines.append(f"    e_{i} = {_edge_str(g, pa.edge(i))}  partners: [{ps}]")
    lines.append(
        "  partner switches: "
        + (" ".join(str(i) for i in sorted(pa.switches)) or "(none)")
    )
    lines.append(
        "  affected components: "
        + (" ".join(str(i) for i in sorted(pa.affected)) or "(none)")
    )
    for i in sorted(pa.components):
        comp = " ".join(str(v) for v in sorted(pa.components[i]))
        lines.append(f"    component[{i},{i + 1}] = {{{comp}}} partner {pa.shared_partner[i]}")
    stretch = find_clean_stretch(pa, pa.k)
    lines.append(f"  clean stretch: {stretch if stretch else '(none)'}")
    return "\n".join(lines)


def _edge_str(g: UndirectedGraph, eid: int) -> str:
    u, v = g.endpoints(eid)
    return f"{u}-{v}"
