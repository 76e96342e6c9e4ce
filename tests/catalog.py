"""Canonical forms, isomorphism tests, and small-graph catalogs.

The canonicalizer is a small individualization-refinement search, adequate
for graphs up to ~9 vertices.  The biconnected catalog is generated by
closing the set of cycles under ear additions, which reaches exactly the
biconnected graphs (plus the single edge, added explicitly).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from conndel.graphs import Digraph, UndirectedGraph

from .checks import in_neighbors, out_neighbors


def _refine(n: int, neigh: Sequence[FrozenSet[int]], classes: List[int]) -> List[int]:
    """Iterate (class, multiset of neighbor classes) until stable."""
    while True:
        sig = [
            (classes[v], tuple(sorted(classes[u] for u in neigh[v])))
            for v in range(n)
        ]
        order = sorted(set(sig))
        new = [order.index(sig[v]) for v in range(n)]
        if new == classes:
            return new
        classes = new


def _canonical_labeling(n: int, neigh: Sequence[FrozenSet[int]]) -> Tuple[Tuple[int, int], ...]:
    """Lexicographically smallest relabeled edge tuple over all labelings
    consistent with iterated refinement (individualize one cell member at a
    time, refine, recurse)."""
    best: List[Optional[Tuple[Tuple[int, int], ...]]] = [None]

    def leaf(classes: List[int]):
        pos = {v: classes[v] for v in range(n)}
        edges = sorted(
            (min(pos[u], pos[v]), max(pos[u], pos[v]))
            for u in range(n)
            for v in neigh[u]
            if u < v
        )
        t = tuple(edges)
        if best[0] is None or t < best[0]:
            best[0] = t

    def search(classes: List[int]):
        classes = _refine(n, neigh, classes)
        cells: Dict[int, List[int]] = {}
        for v in range(n):
            cells.setdefault(classes[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            leaf(classes)
            return
        for v in cells[target]:
            child = list(classes)
            # Individualize v: split it off below its cell, shift the rest up.
            for u in range(n):
                if child[u] > target or (child[u] == target and u != v):
                    child[u] += 1
            search(child)

    search([0] * n)
    assert best[0] is not None
    return best[0]


def canonical_form(g: UndirectedGraph) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Isomorphism-invariant key: (n, canonical edge tuple)."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    neigh = [frozenset(idx[u] for u in g.neighbors(v)) for v in verts]
    return n, _canonical_labeling(n, neigh)


def graphs_isomorphic(a: UndirectedGraph, b: UndirectedGraph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# digraphs
# ---------------------------------------------------------------------------


def _digraph_invariant(d: Digraph, v: int) -> Tuple[int, int]:
    return len(in_neighbors(d, v)), len(out_neighbors(d, v))


def digraph_isomorphic(a: Digraph, b: Digraph) -> bool:
    """Backtracking isomorphism test with degree-class pruning (small n)."""
    if a.n != b.n or a.m != b.m:
        return False
    va, vb = sorted(a.vertices), sorted(b.vertices)
    inva = {v: _digraph_invariant(a, v) for v in va}
    invb = {v: _digraph_invariant(b, v) for v in vb}
    if sorted(inva.values()) != sorted(invb.values()):
        return False
    arcs_b = {(t, h) for t, h in b.arc_pairs()}
    assign: Dict[int, int] = {}
    used: Set[int] = set()

    def ok(v: int, w: int) -> bool:
        if inva[v] != invb[w]:
            return False
        for u in out_neighbors(a, v):
            if u in assign and (w, assign[u]) not in arcs_b:
                return False
        for u in in_neighbors(a, v):
            if u in assign and (assign[u], w) not in arcs_b:
                return False
        return True

    def go(i: int) -> bool:
        if i == len(va):
            return True
        v = va[i]
        for w in vb:
            if w not in used and ok(v, w):
                assign[v] = w
                used.add(w)
                if go(i + 1):
                    return True
                del assign[v]
                used.discard(w)
        return False

    return go(0)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


def cycle(n: int) -> UndirectedGraph:
    """The cycle 0-1-...-(n-1)-0."""
    return UndirectedGraph.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> UndirectedGraph:
    """The complete graph on 0..n-1."""
    return UndirectedGraph.from_edges(range(n), itertools.combinations(range(n), 2))


def all_graphs(n: int) -> List[UndirectedGraph]:
    """All unlabeled graphs on exactly n vertices (tiny n only)."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = UndirectedGraph.from_edges(range(n), edges)
        key = canonical_form(g)
        if key not in seen:
            seen[key] = g
    return [seen[k] for k in sorted(seen)]


def biconnected_catalog(max_n: int) -> List[UndirectedGraph]:
    """All unlabeled biconnected graphs with 2 <= n <= max_n.

    Every biconnected graph other than a single edge arises from a cycle by
    repeatedly attaching ears (paths, possibly chords, between two distinct
    existing vertices), with all intermediate graphs biconnected; closing
    the cycle seeds under single ear additions is therefore exhaustive.
    """
    found: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], UndirectedGraph] = {}
    queue: List[UndirectedGraph] = []

    def admit(g: UndirectedGraph):
        key = canonical_form(g)
        if key not in found:
            found[key] = g
            queue.append(g)

    if max_n >= 2:
        k2 = UndirectedGraph.from_edges(range(2), [(0, 1)])
        found[canonical_form(k2)] = k2
    for k in range(3, max_n + 1):
        admit(UndirectedGraph.from_edges(range(k), [(i, (i + 1) % k) for i in range(k)]))

    while queue:
        g = queue.pop()
        verts = sorted(g.vertices)
        n = len(verts)
        for u, v in itertools.combinations(verts, 2):
            for inner in range(0, max_n - n + 1):
                path = [u, *range(max(verts) + 1, max(verts) + 1 + inner), v]
                if inner == 0:
                    if g.edge_between(u, v) is not None:
                        continue
                    h = g
                else:
                    h = UndirectedGraph(
                        set(path) | set(verts),
                        [(i, a, b) for i, (a, b) in enumerate(g.edges.values())],
                    )
                h, _ = h.with_edges(list(zip(path, path[1:])))
                admit(h)

    return [found[k] for k in sorted(found)]


def edge_colored_canonical_form(
    g: UndirectedGraph, special: FrozenSet[int]
) -> Tuple[int, Tuple, Tuple]:
    """Canonical key for a graph with one distinguished edge subset.

    Used to compare instances (graph plus frozen-edge set) up to
    isomorphism: subdividing the special edges with fresh degree-2 markers
    reduces edge colors to plain graph isomorphism at these sizes, except
    that a marker vertex could be confused with a real degree-2 vertex; the
    key therefore also carries the special-edge count and both graphs'
    canonical forms.
    """
    verts = sorted(g.vertices)
    base = max(verts, default=-1) + 1
    edges = [(u, v) for u, v in (g.endpoints(e) for e in sorted(g.edges))]
    marked_edges: List[Tuple[int, int]] = []
    nxt = base
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if eid in special:
            marked_edges.append((u, nxt))
            marked_edges.append((nxt, v))
            nxt += 1
        else:
            marked_edges.append((u, v))
    marked = UndirectedGraph.from_edges(
        list(verts) + list(range(base, nxt)), marked_edges
    )
    plain = UndirectedGraph.from_edges(verts, edges)
    return len(special), canonical_form(plain), canonical_form(marked)
