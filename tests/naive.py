"""Deliberately naive re-implementations used as independent oracles.

Everything here is written from definitions (brute force, exhaustive
enumeration) with no shared code paths with the package, so tests can
cross-check the real implementations against them at desk scale.  The
exceptions are ``first_witness``, which referees the enumerator's search
and takes its biconnectivity test from the package, ``first_candidate``,
which reads the heavy order it referees from the caller, and
``oracle_irrelevance``, which referees the freeze rule with two calls of
the brute-force ``oracle_wbd``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from conndel.graphs import is_biconnected_without
from conndel.oracles import DEFAULT_BUDGET, OracleBudget, oracle_wbd
from conndel.solver import WbdInstance


def components(vertices: Set[int], edges: Iterable[Tuple[int, int]]) -> List[Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: Set[int] = set()
    out = []
    for s in sorted(vertices):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        out.append(comp)
    return out


def connected(vertices: Set[int], edges: Iterable[Tuple[int, int]]) -> bool:
    return len(components(vertices, list(edges))) <= 1


def biconnected_by_definition(vertices: Set[int], edges: List[Tuple[int, int]]) -> bool:
    """Connected, >= 2 vertices, and still connected after any one deletion."""
    if len(vertices) < 2:
        return False
    if not connected(vertices, edges):
        return False
    for v in vertices:
        rest = vertices - {v}
        kept = [(a, b) for a, b in edges if v not in (a, b)]
        if not connected(rest, kept):
            return False
    return True


def all_simple_paths(
    edges: List[Tuple[int, int]], x: int, y: int
) -> List[Tuple[int, ...]]:
    adj: Dict[int, Set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out: List[Tuple[int, ...]] = []

    def walk(path: List[int]):
        cur = path[-1]
        if cur == y:
            out.append(tuple(path))
            return
        for nxt in sorted(adj.get(cur, ())):
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([x])
    return out


def max_disjoint_path_family(
    edges: List[Tuple[int, int]], x: int, y: int
) -> List[Tuple[int, ...]]:
    """Largest family of pairwise internally vertex-disjoint x-y paths.

    Exhaustive family search; only usable on very small graphs.
    """
    paths = all_simple_paths(edges, x, y)
    degree_x = sum(1 for u, v in edges if x in (u, v))
    degree_y = sum(1 for u, v in edges if y in (u, v))
    for size in range(min(degree_x, degree_y, len(paths)), 0, -1):
        for fam in itertools.combinations(paths, size):
            interiors = [set(p[1:-1]) for p in fam]
            ok = True
            for a, b in itertools.combinations(range(size), 2):
                if interiors[a] & interiors[b]:
                    ok = False
                    break
            if ok:
                return list(fam)
    return []


def disjoint_paths_value(
    vertices: Set[int], edges: List[Tuple[int, int]], x: int, y: int
) -> int:
    """Menger-style value of the maximum x-y flow.

    Non-adjacent terminals: size of the smallest vertex separator, found by
    exhaustive subset search.  Adjacent terminals: the direct edge is one
    path with no interior, so it adds one to the value without the edge.
    """
    pair = (min(x, y), max(x, y))
    kept = [(u, v) for u, v in edges if (min(u, v), max(u, v)) != pair]
    if len(kept) < len(edges):
        return 1 + disjoint_paths_value(vertices, kept, x, y)
    sep = min_vertex_separator(vertices, kept, x, y)
    return len(sep)


def min_vertex_separator(
    vertices: Set[int], edges: List[Tuple[int, int]], x: int, y: int
) -> Optional[FrozenSet[int]]:
    """Smallest S with no x-y path in G - S; None when x, y are adjacent."""
    pair = (x, y) if x < y else (y, x)
    if pair in {(min(u, v), max(u, v)) for u, v in edges}:
        return None
    rest = sorted(vertices - {x, y})
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            gone = set(combo)
            kept = [(u, v) for u, v in edges if u not in gone and v not in gone]
            comps = components(vertices - gone, kept)
            if not any(x in c and y in c for c in comps):
                return frozenset(combo)
    return frozenset(rest)


def separates_with_edge(
    vertices: Set[int],
    edges: List[Tuple[int, int]],
    x: int,
    y: int,
    cut_edge: Tuple[int, int],
    cut_vertex: int,
) -> bool:
    """Does removing one edge plus one vertex leave no x-y path, that is,
    is {cut_edge, cut_vertex} a mixed x-y cut?  The cut vertex may not be
    a terminal."""
    if cut_vertex in (x, y):
        raise ValueError("cut vertex may not be a terminal")
    kept = [
        (u, v)
        for u, v in edges
        if {u, v} != set(cut_edge) and cut_vertex not in (u, v)
    ]
    comps = components(vertices - {cut_vertex}, kept)
    return not any(x in c and y in c for c in comps)


def partner_sets(gprime, pivot: int, p1, p2, crits: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """``criticality.partner_set`` one vertex at a time: for each interior
    vertex v of P2, one ``components`` pass over H - v, H = G' - pivot -
    E(P1).  The edge at position j of P1 has v as a partner exactly when
    no component holds P1 vertices on both sides of j (the argument is in
    ``partner_set``'s docstring).  Reads only the graph's vertices and
    edge endpoints."""
    gone = set(p1.edges) | {pivot}
    h = [gprime.endpoints(e) for e in gprime.edges if e not in gone]
    at = {u: i for i, u in enumerate(p1.vertices)}
    pos = {e: j for j, e in enumerate(p1.edges)}
    out: Dict[int, List[int]] = {e: [] for e in crits}
    for v in p2.interior:
        comps = components(set(gprime.vertices) - {v}, [(a, b) for a, b in h if v not in (a, b)])
        spans = [[at[u] for u in c if u in at] for c in comps]
        spans = [(min(s), max(s)) for s in spans if s]
        for e in crits:
            if not any(lo <= pos[e] < hi for lo, hi in spans):
                out[e].append(v)
    return tuple(tuple(out[e]) for e in crits)


@dataclass(frozen=True)
class MixedCut:
    """One edge plus one vertex separating the two terminals."""

    edge: Tuple[int, int]
    vertex: int
    x: int
    y: int

    def holds_in(self, vertices: Set[int], edges: List[Tuple[int, int]]) -> bool:
        return separates_with_edge(vertices, edges, self.x, self.y, self.edge, self.vertex)


def find_size2_mixed_cut(
    vertices: Set[int], edges: List[Tuple[int, int]], cut_edge: Tuple[int, int]
) -> Optional[MixedCut]:
    """Terminals x, y and a vertex v with {cut_edge, v} a mixed x-y cut,
    trying every v: x is the least other vertex, y the least one outside
    x's component of G - cut_edge - v."""
    for v in sorted(vertices):
        kept = [(a, b) for a, b in edges if {a, b} != set(cut_edge) and v not in (a, b)]
        comps = components(vertices - {v}, kept)
        if len(comps) > 1:
            return MixedCut(cut_edge, v, min(comps[0]), min(comps[1]))
    return None


def directed_reach(
    vertices: Set[int], arcs: Iterable[Tuple[int, int]], sources: Iterable[int], gone: Set[int]
) -> Set[int]:
    """Vertices reachable along arcs from the sources outside ``gone``."""
    out: Dict[int, List[int]] = {v: [] for v in vertices}
    for t, h in arcs:
        out[t].append(h)
    seen = {s for s in sources if s not in gone}
    stack = list(seen)
    while stack:
        t = stack.pop()
        for h in out[t]:
            if h not in gone and h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def strongly_connected(vertices: Set[int], arcs: Iterable[Tuple[int, int]]) -> bool:
    """Does every vertex reach every vertex along the arcs?"""
    arcs = list(arcs)
    return all(directed_reach(vertices, arcs, (v,), set()) == vertices for v in vertices)


def linkage_exists(
    vertices: Set[int],
    arcs: List[Tuple[int, int]],
    sources: Sequence[int],
    sinks: Sequence[int],
    removed: Iterable[int] = (),
) -> bool:
    """Are there two vertex-disjoint directed paths from the sources to the
    sinks in D - removed?  By Menger's theorem, exactly when no set of at
    most one vertex (sources and sinks included) meets every such path;
    every set of that size is tried."""
    removed = set(removed)
    for cut in [set()] + [{v} for v in sorted(vertices - removed)]:
        gone = removed | cut
        if not directed_reach(vertices, arcs, sources, gone) & (set(sinks) - gone):
            return False
    return True


def is_deletion_set_via_linkages(
    vertices: Set[int],
    arcs: List[Tuple[int, int]],
    removed: Iterable[int],
    queries: Iterable[Tuple[Sequence[int], Sequence[int]]],
) -> bool:
    """Does every (sources, sinks) query have a 2-linkage in D - removed?
    For a deletion set S of the graph behind the auxiliary digraph,
    ``removed`` holds the subdivision vertices x_e of S and the queries
    are ({u+, u}, {v-, v}) per edge (u, v) of S."""
    removed = set(removed)
    return all(linkage_exists(vertices, arcs, a, b, removed) for a, b in queries)


def joined_avoiding(
    vertices: Set[int],
    edges: List[Tuple[int, int]],
    x: int,
    y: int,
    blocked: Set[int],
) -> bool:
    """Is there an x-y path with no interior vertex in blocked?  One search."""
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {x}
    stack = [x]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b == y:
                return True
            if b not in seen and b not in blocked:
                seen.add(b)
                stack.append(b)
    return False


def torso_shortcuts(
    vertices: Set[int], edges: List[Tuple[int, int]], y_set: Set[int]
) -> Set[Tuple[int, int]]:
    """Non-adjacent pairs u < v of Y joined by a path whose interior avoids
    Y, with one search per pair."""
    adjacent = {frozenset(e) for e in edges}
    return {
        (u, v)
        for u, v in itertools.combinations(sorted(y_set), 2)
        if frozenset((u, v)) not in adjacent
        and joined_avoiding(vertices, edges, u, v, y_set)
    }


def first_rule_one_edge(
    vertices: Set[int],
    edges: List[Tuple[int, int]],
    pool: List[Tuple[int, int]],
    y_set: Set[int],
) -> Optional[Tuple[int, int]]:
    """The first pool edge (u, v), in the given order, joined by a path
    that uses no pool edge and has no interior vertex in Y."""
    pooled = {frozenset(e) for e in pool}
    rest = [e for e in edges if frozenset(e) not in pooled]
    for u, v in pool:
        if joined_avoiding(vertices, rest, u, v, y_set):
            return (u, v)
    return None


def full_cut_cover(
    terminals: Iterable[int],
    cut: Callable[[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], Iterable[int]],
) -> Set[int]:
    """Union of cut(A, B, R) over every terminal triple with A and B
    non-empty and R disjoint from both; A and B may overlap.  The cut
    routine is passed in, so only the enumeration is checked here."""
    terms = sorted(terminals)
    out: Set[int] = set()
    for r_size in range(len(terms) + 1):
        for r in itertools.combinations(terms, r_size):
            rest = [t for t in terms if t not in r]
            sides = [
                s for size in range(1, len(rest) + 1) for s in itertools.combinations(rest, size)
            ]
            for a in sides:
                for b in sides:
                    out |= set(cut(a, b, r))
    return out


def closest_min_cut(
    vertices: Set[int],
    arcs: List[Tuple[int, int]],
    a: Set[int],
    b: Set[int],
    r: Set[int] = frozenset(),
) -> FrozenSet[int]:
    """The minimum A-B vertex cut of the digraph minus R closest to A, by
    brute force over vertex subsets.

    A cut C may hold vertices of A and B; it leaves no directed path from
    A - C to B - C once R and C are removed.  Its source side is what
    A - C still reaches.  Among the cuts of least size the closest is the
    one whose source side strictly contains no other's; minimum cuts form
    a lattice, so exactly one qualifies."""
    rest = sorted(vertices - set(r))

    def source_side(cut: Set[int]) -> FrozenSet[int]:
        gone = set(r) | cut
        seen = {v for v in a if v not in gone}
        stack = list(seen)
        while stack:
            t = stack.pop()
            for u, v in arcs:
                if u == t and v not in gone and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    for size in range(len(rest) + 1):
        sides = {}
        for combo in itertools.combinations(rest, size):
            side = source_side(set(combo))
            if not side & set(b):
                sides[frozenset(combo)] = side
        if sides:
            closest = [c for c, s in sides.items() if not any(o < s for o in sides.values())]
            if len(closest) != 1:
                raise ValueError(f"{len(closest)} minimum cuts with a minimal source side")
            return closest[0]
    raise ValueError("removing every vertex outside R always cuts")


def first_witness(inst) -> Optional[Tuple[int, ...]]:
    """The solver's base case, its branch over a whole list, without its
    cuts: the first deletion set, depth-first over the deletable edges
    heaviest first (ties by ascending id), that keeps the graph
    biconnected and whose weight (with ``inst.deleted``, one ``fsum``)
    reaches w*, or None.

    Every extension gets its own ``is_biconnected_without`` pass, and no
    level is cut short.  That pass is the package's, checked against the
    definition in ``test_graphs``: what this referees is the search."""
    g = inst.graph
    w = inst.weights
    order = sorted(
        (e for e in g.edges if e not in inst.frozen), key=lambda e: (-w.get(e, 0.0), e)
    )

    def reaches(chosen: List[int]) -> bool:
        return math.fsum(list(inst.deleted) + [w.get(e, 0.0) for e in chosen]) >= inst.w_star

    def search(start: int, chosen: List[int]) -> Optional[Tuple[int, ...]]:
        if reaches(chosen):
            return tuple(chosen)
        if len(chosen) == inst.k:
            return None
        for i in range(start, len(order)):
            s = chosen + [order[i]]
            if is_biconnected_without(g, frozenset(s)):
                found = search(i + 1, s)
                if found is not None:
                    return found
        return None

    return search(0, [])


def first_candidate(inst, order: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """The heavy order's first candidate without its level cut, and
    whether it is greedy's chain: the referee of ``_enumerate_best``.

    Index tuples i1 < ... < ij (j <= k) of ``order`` are walked in
    depth-first preorder.  A tuple is kept only while each pick leaves both
    its endpoints with degree 2 or more, and the first kept tuple whose
    weights (with ``inst.deleted``, one ``fsum``) reach w* is returned as
    its edges.  It is greedy's chain when it has k >= 1 edges and each i_j
    is the first index after i_(j-1) whose edge that rule keeps.  Degrees
    are counted afresh from the edge list at every tuple."""
    ends = inst.graph.edges

    def degrees(picks: Tuple[int, ...]) -> Dict[int, int]:
        gone = {order[i] for i in picks}
        deg = {v: 0 for v in inst.graph.vertices}
        for e, pair in ends.items():
            if e not in gone:
                for v in pair:
                    deg[v] += 1
        return deg

    def kept(picks: Tuple[int, ...]) -> List[int]:
        """The indices after the last pick whose edge the degree rule keeps."""
        deg = degrees(picks)
        start = picks[-1] + 1 if picks else 0
        return [i for i in range(start, len(order)) if all(deg[v] >= 3 for v in ends[order[i]])]

    def reaches(picks: Tuple[int, ...]) -> bool:
        weights = [inst.weights.get(order[i], 0.0) for i in picks]
        return math.fsum(list(inst.deleted) + weights) >= inst.w_star

    def search(picks: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        if reaches(picks):
            return picks
        if len(picks) == inst.k:
            return None
        for i in kept(picks):
            found = search(picks + (i,))
            if found is not None:
                return found
        return None

    found = search(())
    if found is None:
        return None, False
    chain = 0 < len(found) == inst.k and all(
        kept(found[:j])[:1] == [i] for j, i in enumerate(found)
    )
    return tuple(order[i] for i in found), chain


def oracle_irrelevance(
    inst: WbdInstance, eid: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Is the edge irrelevant: no solution exists, or one avoids it?"""
    if oracle_wbd(inst, budget) is None:
        return True
    without = inst.with_frozen(frozenset((eid,)))
    return oracle_wbd(without, budget) is not None
