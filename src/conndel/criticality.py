"""Critical edges, mixed cuts, partner sets, segments, and clean stretches.

An edge of a biconnected graph is critical when deleting it destroys
biconnectivity, that is, when G - e has a cut vertex.  ``critical_set``
finds them all from one DFS tree: subtree sums decide every back edge,
and lowpoint-style rules with a walk down the tree and one up from the
parent decide every tree edge, with no per-edge biconnectivity test.
By convention every edge is critical when G is not biconnected or has
fewer than three vertices (deleting any edge leaves a graph that is not
biconnected).

Deleting a non-critical pivot edge e = (x, y) can make other edges newly
critical; each such edge on one path of a value-2 x-y flow pairs with
"partner" vertices on the other path to form mixed cuts.  The machinery
here computes that structure (partner sets from one DFS, ``partner_set``)
and locates clean stretches, which the solver mines for irrelevant edges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, InvalidInputError
from .graphs import Path, UndirectedGraph, is_biconnected_without, reachable


def is_critical(g: UndirectedGraph, eid: int) -> bool:
    """Does deleting this edge destroy biconnectivity?"""
    if not g.has_edge(eid):
        raise InvalidInputError(f"no edge with id {eid}")
    return not is_biconnected_without(g, frozenset((eid,)))


class DfsTree(NamedTuple):
    """The DFS tree that ``critical_set`` decides G = ``graph`` minus
    ``removed`` on, with what its DFS gathers, before the sweeps.

    Vertices are numbered in preorder, the order in which ``at`` (vertex
    to depth) meets them.  Per number: ``parent``, the ``tree_edge`` to
    it, ``depth``, ``two`` (degree 2 in G), ``own`` (the lowest landing
    depth of its own back edges, n if none), ``above`` and ``above_ids``
    (the count and id sum of the subtree-sum updates made at it) and
    ``hit`` (a back edge from its subtree lands on its parent).  ``back``
    holds one key per back edge, (upper end's depth << bits) | lower end,
    with bits = n.bit_length(), sorted when the tree is decided.  No other
    list is changed once the tree is made.
    """

    graph: UndirectedGraph
    removed: FrozenSet[int]
    at: Dict[int, int]
    parent: List[int]
    tree_edge: List[int]
    depth: List[int]
    two: List[bool]
    own: List[int]
    above: List[int]
    above_ids: List[int]
    hit: List[bool]
    back: List[int]

    def without(self, eid: int) -> Optional[Tuple[FrozenSet[int], Optional["DfsTree"]]]:
        """The critical set of G - e, e = ``eid``, and this tree as a tree
        of G - e (none, like ``critical_tree``'s, when G - e is not
        biconnected), derived when e is a back edge; None when e is a tree
        edge, which needs a fresh DFS.  ``critical_set`` says why the tree
        carries over."""
        g = self.graph
        if eid in self.removed:
            raise InvalidInputError(f"edge {eid} is already removed")
        x, y = g.endpoints(eid)
        at = self.at
        if at[x] < at[y]:
            x, y = y, x
        dx, dy = at[x], at[y]
        if dx == dy + 1:
            return None
        order = list(at)
        a, b = order.index(x), order.index(y)
        # c: the child of the upper end on the tree path to the lower end.
        c = a
        parent = self.parent
        for _ in range(dx - dy - 1):
            c = parent[c]
        removed = self.removed | {eid}
        own = self.own[:]
        own[a] = min(
            [at[w] for w, f in g._adj[x] if f not in removed and at[w] < dx - 1], default=g.n
        )
        above = self.above[:]
        above_ids = self.above_ids[:]
        above[a] -= 1
        above_ids[a] -= eid
        above[c] += 1
        above_ids[c] += eid
        # Before the sweep, above(c) is c's own back edges above its parent
        # less the back edges from T(c) landing on its parent.
        hit = self.hit[:]
        hit[c] = sum(f not in removed and at[w] < dy for w, f in g._adj[order[c]]) > above[c]
        two = self.two[:]
        for j, v in ((a, x), (b, y)):
            two[j] = sum(f not in removed for _, f in g._adj[v]) == 2
        back = self.back[:]
        back.remove((dy << g.n.bit_length()) | a)
        tree = self._replace(
            removed=removed, two=two, own=own, above=above, above_ids=above_ids, hit=hit, back=back
        )
        crit = _decide(tree)
        if crit is None:
            return frozenset(e for e in g._edges if e not in removed), None
        return crit, tree


def critical_set(g: UndirectedGraph) -> FrozenSet[int]:
    """All critical edges, or every edge when g is not biconnected or n < 3.

    One iterative DFS from a maximum-degree vertex (ties: smallest id)
    gives a tree T in which every other edge is a back edge joining a
    vertex to a proper ancestor.  T(q) is q's subtree; an *upward edge* of
    T(q) is a back edge from T(q) to a proper ancestor of q.  The tree also
    decides biconnectivity: one root child, and for every u at depth >= 2 a
    back edge from T(u) above parent(u).  In a biconnected G, deleting e
    leaves G - e connected, so e is critical iff G - e has a cut vertex.

    * A back edge e is critical iff, for some u at depth >= 2, e is the
      only back edge from T(u) landing above parent(u).  T is still a DFS
      tree of G - e, whose root keeps its one child, and a non-root
      parent(u) is a cut vertex exactly when no back edge from T(u) lands
      above it.  Per u the count and the id sum of those edges are subtree
      sums: +1/+id at the lower end, -1/-id at the child of the upper end
      on the tree path.

    For a tree edge (p, q), p = parent(q), every cut vertex w of
    H = G - (p, q) separates p from q in H - w, so w is not p or q.  If
    w were neither an ancestor of p nor in T(q), then T(q), the root path
    of p and the upward edges between them (there is one, as G - (p, q)
    is connected) would join q to p.  So w is a proper ancestor of p or
    lies inside T(q) below q.  high(v) is the deepest landing point of
    T(v)'s upward edges, high2(v) that of its back edges landing above
    parent(v), and low(v) the lowest landing point of its back edges.

    * Above p: let c be w's child towards p.  T(q) and T(c) - T(q) are
      connected, and the rest of H - w (if any) is connected through the
      tree above w, with w's other child subtrees hanging from it by their
      upward edges.  So w is a cut vertex iff it cuts off T(q) (every
      upward edge of T(q) lands on w) or T(c) - T(q) (no upward edge of
      T(q) lands between c and p, and no back edge from T(c) - T(q) lands
      above w).
    * Inside T(q): H - w splits into A = V - T(q), which holds p, and
      B = T(q) - T(w), which holds q, both connected by tree edges, plus
      w's child subtrees T(d).  The A-B edges are the upward edges of T(q)
      starting in B.  T(d) meets A by its back edges above q, B by those
      landing on the path from q to parent(w), and one of the two by a
      back edge above w.  So w is a cut vertex iff (i) every upward edge
      of T(q) starts in T(w) and (ii) no child d of w has
      low(d) < depth(q) <= high2(d).

    The rules, in order:

    1. p or q has degree 2: critical (its other neighbour cuts it off).
       Rules 2-4 decide these edges too; this O(1) test keeps rule 3's
       walk off long chains of degree-2 vertices.
    2. Every upward edge of T(q) lands on one vertex a != p: critical, as
       a cuts off T(q).  Tested as low(q) = high(q) < depth(p).  The guard
       matters: when all of them land on p, no w above p cuts off T(q).
    3. Inside T(q), exactly.  If q has an upward edge of its own, or two
       children whose subtrees reach above q, no w meets (i): that edge
       starts at q, outside T(w), and w lies in at most one of the two
       subtrees.  Otherwise the w meeting (i) form a tree path down from
       q's one reaching child s, walked with c = s: while c has no back
       edge above q and one child x reaching above q, c meets (i), its
       other children miss A, and c is a cut vertex iff high2(x) <
       depth(q); else the walk steps to x.  At the last c no deeper w
       meets (i); test (ii) over c's children.  A cut vertex found:
       critical.  The walk is no longer than a path of T.
    4. Above p, exactly.  Rule 2 failed, so no w above p cuts off T(q).
       The w at depth d cuts off T(c) - T(q) iff high(q) <= d (else T(q)'s
       edge to high(q) lands between c and p) and m(d) >= d, where m(d) is
       the lowest landing depth of the back edges from T(c) - T(q).  That
       set is the tree path from c down to p with the subtrees hanging off
       it, q's siblings' included, so m(d) is a running minimum up the
       path: each vertex v adds own(v) and the lowest low among its
       children off the path, read from the two lowest lows per vertex.
       Walk up from p, starting at d = depth(p) - 1: critical at the first
       d with m(d) >= d.  m never rises as d falls, so once d or m is below
       high(q) no shallower w qualifies and the walk stops.  It is no
       longer than the tree path from p up to depth high(q), and it stops
       at once when an upward edge of T(q) lands on p or a back edge from
       p or a sibling subtree of q lands above high(q).  Rule 3 found no w
       inside, so an edge the walk does not decide is not critical.

    A back edge landing on parent(q) is an upward edge of T(q), so
    high(q) = depth(p) when one exists (q is *hit*), and high(q) = high2(q)
    otherwise.  For a hit q rule 2 fails (high(q) is not above p) and rule
    4 finds no w above p (high(q) > depth(p) - 1), so both are skipped.

    The passes: one DFS numbers the vertices in preorder, applies each
    back edge's subtree-sum updates and marks the hit child of its upper
    end; one reverse sweep, children before parents, completes low, the
    sums, the two lowest lows per vertex and the biconnectivity test; one
    union-find sweep over the back edges, sorted deepest landing first by
    one integer key, gives high2: each edge assigns its landing depth to
    the still unassigned vertices on the tree path from its lower end up
    to the grandchild of its upper end.  Then one loop applies the rules.

    Deleting a back edge e = (a, b), a the lower end, keeps T a DFS tree:
    it still spans G - e (which holds every tree edge), and every other
    edge still joins a vertex to an ancestor.  Every rule reads only T,
    the back edges and the degrees, and the critical set is a property of
    the graph, not of the tree.  So ``DfsTree.without`` derives the set of
    G - e from the DFS's arrays alone: it undoes e's two subtree-sum
    updates (at a and at c, b's child towards a), decides again whether c
    is hit, takes own(a) again from a's other back edges, drops e's key
    and redoes the degree-2 flags of a and b; the sweeps and the rules are
    then redone.  A tree edge e leaves T no tree of G - e: a fresh DFS.
    """
    return critical_tree(g)[0]


def critical_tree(g: UndirectedGraph) -> Tuple[FrozenSet[int], Optional[DfsTree]]:
    """``critical_set(g)`` and the DFS tree it decided g on; no tree when
    every edge is critical by convention (n < 3 or not biconnected)."""
    edges = g._edges
    n = g.n
    if n < 3:
        return frozenset(edges), None
    adj = g._adj
    top = max(map(len, adj.values()))
    root = min(v for v, a in adj.items() if len(a) == top)

    # ``path`` holds the numbers on the tree path to the current vertex.
    bits = n.bit_length()
    at = {root: 0}
    parent = [-1]
    tree_edge = [-1]
    depth = [0]
    own = [n] * n
    above = [0] * n  # count and id sum of T(v)'s back edges above parent(v)
    above_ids = [0] * n
    hit = [False] * n
    back = []
    path = [0]
    iters = [iter(adj[root])]
    while iters:
        i = path[-1]
        parent_depth = len(path) - 2
        for u, eid in iters[-1]:
            dj = at.get(u)
            if dj is None:
                j = len(depth)
                at[u] = len(path)
                parent.append(i)
                tree_edge.append(eid)
                depth.append(len(path))
                path.append(j)
                iters.append(iter(adj[u]))
                break
            if dj < parent_depth:  # a proper ancestor above the parent
                c = path[dj + 1]
                back.append((dj << bits) | i)
                above[i] += 1
                above_ids[i] += eid
                above[c] -= 1
                above_ids[c] -= eid
                hit[c] = True
                if dj < own[i]:
                    own[i] = dj
        else:
            path.pop()
            iters.pop()
    if len(depth) < n:
        return frozenset(edges), None
    two = [len(adj[v]) == 2 for v in at]
    tree = DfsTree(
        g, frozenset(), at, parent, tree_edge, depth, two, own, above, above_ids, hit, back
    )
    crit = _decide(tree)
    if crit is None:
        return frozenset(edges), None
    return crit, tree


def _decide(tree: DfsTree) -> Optional[FrozenSet[int]]:
    """The sweeps and the rules of ``critical_set`` on one DFS tree: the
    critical edges, or None when the graph is not biconnected.  Sorts the
    tree's back-edge keys in place."""
    g, _, _, parent, tree_edge, depth, two, own, above, above_ids, hit, back = tree
    n = g.n
    size = len(depth)
    above = above[:]
    above_ids = above_ids[:]

    # Children before parents: low, the subtree sums, each vertex's
    # children with the two lowest lows among them and the child with the
    # lowest (two children reach above v iff low2[v] < depth[v]), and the
    # test: one root child, and every u at depth >= 2 reaching above parent(u).
    low = [n] * size
    children = [[] for _ in range(size)]
    low1 = [n] * size
    low1_child = [-1] * size
    low2 = [n] * size
    for j in range(size - 1, 0, -1):
        lj = low[j] = own[j] if own[j] < low1[j] else low1[j]
        p = parent[j]
        if lj >= depth[p] if p else j > 1:  # parent(j) is a cut vertex
            return None
        above[p] += above[j]
        above_ids[p] += above_ids[j]
        children[p].append(j)
        if lj < low1[p]:
            low2[p] = low1[p]
            low1[p] = lj
            low1_child[p] = j
        elif lj < low2[p]:
            low2[p] = lj

    bits = n.bit_length()
    mask = (1 << bits) - 1
    high2 = [-1] * size
    link = list(range(size))  # nearest unassigned ancestor-or-self
    back.sort(reverse=True)
    for key in back:
        da = key >> bits
        v = key & mask
        while True:
            while link[v] != v:
                link[v] = link[link[v]]
                v = link[v]
            if depth[v] <= da + 1:
                break
            high2[v] = da
            link[v] = v = parent[v]

    def cut_inside(q: int) -> bool:
        t = depth[q]
        c = low1_child[q]
        while own[c] >= t and low2[c] >= t:
            x = low1_child[c]
            if high2[x] < t:
                return True
            c = x
        return not any(low[d] < t <= high2[d] for d in children[c])

    crit = {above_ids[j] for j in range(2, size) if above[j] == 1}
    for q in range(1, size):
        p = parent[q]
        if two[p] or two[q]:
            crit.add(tree_edge[q])
            continue
        dp = depth[p]
        h = dp if hit[q] else high2[q]
        if low[q] == h < dp:
            crit.add(tree_edge[q])
            continue
        if own[q] == n and low2[q] > dp and cut_inside(q):
            crit.add(tree_edge[q])
            continue
        if h == dp:  # q is hit: no w above p
            continue
        c, d = p, dp - 1
        m = min(own[p], low2[p] if low1_child[p] == q else low1[p])
        while h <= d and h <= m:
            if m >= d:
                crit.add(tree_edge[q])
                break
            x, c, d = c, parent[c], d - 1
            if own[c] < m:
                m = own[c]
            lc = low2[c] if low1_child[c] == x else low1[c]
            if lc < m:
                m = lc
    return frozenset(crit)


def newly_critical(g: UndirectedGraph, eid: int) -> FrozenSet[int]:
    """Edges critical in g - e but not in g (the pivot itself excluded)."""
    if not g.has_edge(eid):
        raise InvalidInputError(f"no edge with id {eid}")
    before = critical_set(g)
    if eid in before:
        raise InvalidInputError("pivot edge must be non-critical")
    return critical_set(g.without_edge(eid)) - before


def partner_set(
    g: UndirectedGraph,
    pivot: int,
    p1: Path,
    p2: Path,
    crits: Sequence[int],
    removed: AbstractSet[int] = frozenset(),
) -> Tuple[Tuple[int, ...], ...]:
    """Partner vertices of newly critical edges on P1, one tuple per edge
    in ``crits`` order: the internal vertices v of P2 for which
    {edge, v} is a mixed x-y cut of G' - pivot, G' = g less the
    ``removed`` edges (which the DFS below skips), in P2 order.  Each edge is
    decided on its own, so any subset of P1's edges may be asked for.  For
    an edge that deleting the pivot made critical the tuple is never empty;
    ``build_partner_analysis`` refuses an empty one.

    Both paths run between the pivot's endpoints x and y, and P1 avoids
    P2's interior (the vertex-disjoint paths of ``max_flow_bounded``
    always do).  Fix an interior vertex v of P2 and the edge e at position
    j of P1.  P1 - e is a left piece (positions <= j, holding one
    terminal) and a right piece (positions > j, holding the other), each
    connected.  So x and y are joined in G' - pivot - e - v iff some path
    leads from one piece to the other.  Cut such a path at its P1
    vertices: some stretch starts in the left piece, ends in the right
    one and has no P1 vertex inside.  It uses no edge of P1, as the only
    P1 edge between the pieces is e, so it lies in one component of
    H - v, H = G' - pivot - E(P1).  Conversely a component of H - v
    meeting both pieces joins them.  So e separates exactly when no
    component of H - v has its P1 positions' span [first, last] cover j,
    first <= j < last.

    The spans for every v come from one DFS of H, rooted at P1's vertices
    in order, with preorder numbers and lowpoints (Hopcroft-Tarjan).  A
    tree's root holds its least P1 position, as every earlier one was
    visited before it, and no root is on P2's interior.  So in H - v the
    subtree T(d) of a child d of v is a component of its own when
    low(d) >= pre(v); every other child subtree stays joined, through a
    back edge above v, to the rest of v's tree, which keeps its root; and
    the other trees are untouched.  Listing P1's positions in preorder
    makes the P1 vertices of each subtree one slice of that list, so per v
    the spans cost one step per separated child subtree, plus the slices'
    minima and maxima.  A v with no separated child subtree holding a P1
    vertex has the spans of H itself, computed once.
    """
    x, y = g.endpoints(pivot)
    ends = {x, y}
    if {p1.vertices[0], p1.vertices[-1]} != ends or {p2.vertices[0], p2.vertices[-1]} != ends:
        raise InvalidInputError("flow paths must run between the pivot endpoints")
    pos = {e: j for j, e in enumerate(p1.edges)}
    if any(e not in pos for e in crits):
        raise InvalidInputError("critical edge must lie on the first flow path")
    if not set(p2.interior).isdisjoint(p1.vertices):
        raise InvalidInputError("the first flow path must avoid the second's interior")
    at = {u: i for i, u in enumerate(p1.vertices)}
    skipped = frozenset(p1.edges).union(removed, (pivot,))
    adj = g._adj

    # pre: vertex to preorder number; low per number; order: P1's
    # positions in preorder.  A stack entry holds a vertex's number, the
    # edge it was entered by, its adjacency iterator and where its slice
    # of ``order`` starts.  trees: per DFS tree, its first number, its
    # root's position and its slice.  cut: the number of v to the slice of
    # each child subtree T(d) with low(d) >= pre(v) that holds a P1 vertex.
    pre: Dict[int, int] = {}
    low: List[int] = []
    order: List[int] = []
    trees: List[Tuple[int, int, int, int]] = []
    cut: Dict[int, List[Tuple[int, int]]] = {}
    for r, root in enumerate(p1.vertices):
        if root in pre:
            continue
        first = pre[root] = len(low)
        low.append(first)
        begin = len(order)
        stack = [(first, -1, iter(adj[root]), begin)]
        order.append(r)
        while stack:
            i, entry, it, start = stack[-1]
            for u, eid in it:
                if eid == entry or eid in skipped:
                    continue
                j = pre.get(u)
                if j is None:
                    j = pre[u] = len(low)
                    low.append(j)
                    stack.append((j, eid, iter(adj[u]), len(order)))
                    if u in at:
                        order.append(at[u])
                    break
                if j < low[i]:
                    low[i] = j
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[i] < low[p]:
                        low[p] = low[i]
                    elif low[i] >= p and start < len(order):
                        cut.setdefault(p, []).append((start, len(order)))
        trees.append((first, r, begin, len(order)))

    def uncovered(spans: List[Tuple[int, int]]) -> List[int]:
        """The positions of P1's edges that no span covers, ascending."""
        out: List[int] = []
        free = 0
        for a, b in sorted(spans):
            if a > free:
                out.extend(range(free, a))
            if b > free:
                free = b
        out.extend(range(free, len(p1.edges)))
        return out

    # Per tree, the span of its P1 vertices, or None for a single one.
    spans = [(r, max(order[a:b])) if b - a > 1 else None for _, r, a, b in trees]
    unchanged = uncovered([s for s in spans if s])
    firsts = [t[0] for t in trees]
    partners: List[List[int]] = [[] for _ in p1.edges]
    for v in p2.interior:
        kids = cut.get(pre.get(v))
        if not kids:
            hits = unchanged
        else:
            t = bisect_right(firsts, pre[v]) - 1
            _, r, a, b = trees[t]
            parts = [s for u, s in enumerate(spans) if s and u != t]
            # The rest of v's tree: its slice less the separated subtrees.
            last = r
            for lo, hi in kids:
                if lo > a:
                    last = max(last, max(order[a:lo]))
                if hi - lo > 1:
                    piece = order[lo:hi]
                    parts.append((min(piece), max(piece)))
                a = hi
            if b > a:
                last = max(last, max(order[a:b]))
            parts.append((r, last))
            hits = uncovered(parts)
        for j in hits:
            partners[j].append(v)
    return tuple(tuple(partners[pos[e]]) for e in crits)


@dataclass(frozen=True)
class PartnerAnalysis:
    """Ordered critical edges on P1 with partner structure on P2, in
    G' = ``graph`` less the ``removed`` edges (greedy's picks before the
    pivot).

    Indices are 1-based: edges e_1..e_t appear along P1 from x to y.
    ``switches`` collects indices i < t whose partner set differs from the
    next edge's; for the others the shared single partner is w(i), and
    Component[i, i+1] hangs between e_i and e_{i+1} off that partner.
    ``affected`` is the i whose component touches an endpoint of a
    removed edge.
    """

    graph: UndirectedGraph
    removed: FrozenSet[int]
    pivot: int
    p1: Path
    p2: Path
    edge_ids: Tuple[int, ...]
    partners: Tuple[Tuple[int, ...], ...]
    switches: FrozenSet[int]
    shared_partner: Dict[int, int] = field(repr=False)
    affected: FrozenSet[int] = frozenset()
    k: int = 0

    @property
    def components(self) -> Dict[int, FrozenSet[int]]:
        """Component[i, i+1] per index i of ``shared_partner``: what G' -
        e_i - e_{i+1} - w(i) joins to P1's vertices after e_i up to the
        start of e_{i+1}, computed on each read."""
        pos = {e: j for j, e in enumerate(self.p1.edges)}
        components: Dict[int, FrozenSet[int]] = {}
        for i, w in self.shared_partner.items():
            a, b = self.edge_ids[i - 1 : i + 1]
            segment = self.p1.vertices[pos[a] + 1 : pos[b] + 1]
            components[i] = frozenset(reachable(self.graph, segment, self.removed | {a, b}, {w}))
        return components

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


def build_partner_analysis(
    g: UndirectedGraph,
    pivot: int,
    p1: Path,
    p2: Path,
    newly: FrozenSet[int],
    removed: FrozenSet[int],
    k: int,
    known: Dict[int, Tuple[int, ...]],
) -> PartnerAnalysis:
    """Assemble the full partner structure for one pivot edge in
    G' = ``g`` less the ``removed`` edges, which the analysis records.

    ``p1`` and ``p2`` must run from x to y, (x, y) = ``g.endpoints(pivot)``.
    ``newly`` is the set of edges to analyze: the caller's marked edges
    that deleting the pivot makes newly critical in G', that is
    ``newly_critical(G', pivot) & marked``.  ``known`` holds the partner
    tuples found earlier on the same G', pivot and flow, per edge
    (``RoundCache`` keeps one per rich step); the missing ones are
    computed and added to it.  A component touching an endpoint of a
    removed edge is affected; only then are the components computed here.
    """
    x, y = g.endpoints(pivot)
    for p in (p1, p2):
        if p.vertices[0] != x or p.vertices[-1] != y:
            raise InvalidInputError("flow paths must run from x to y")

    edge_ids = tuple(filter(newly.__contains__, p1.edges))
    if not edge_ids:
        raise InvalidInputError("no marked newly critical edges on P1")

    missing = [e for e in edge_ids if e not in known]
    if missing:
        known.update(zip(missing, partner_set(g, pivot, p1, p2, missing, removed)))
    partners = tuple(map(known.__getitem__, edge_ids))
    if not all(partners):
        raise InternalInconsistencyError(
            f"edge {edge_ids[partners.index(())]} has an empty partner set; every "
            "newly critical edge on one flow path must have a partner on the other"
        )

    switches = set()
    shared: Dict[int, int] = {}
    for i, (pset, after) in enumerate(zip(partners, partners[1:]), 1):
        if pset != after:
            switches.add(i)
        elif len(pset) != 1:
            raise InternalInconsistencyError(
                "consecutive edges share a partner set that is not a single "
                f"vertex: {pset}"
            )
        else:
            shared[i] = pset[0]

    pa = PartnerAnalysis(
        graph=g,
        removed=removed,
        pivot=pivot,
        p1=p1,
        p2=p2,
        edge_ids=edge_ids,
        partners=partners,
        switches=frozenset(switches),
        shared_partner=shared,
        k=k,
    )
    if not removed:
        return pa
    endpoints = {v for e in removed for v in g.endpoints(e)}
    return replace(pa, affected=frozenset(i for i, c in pa.components.items() if endpoints & c))


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


def find_clean_stretch(pa: PartnerAnalysis) -> Optional[Tuple[int, int]]:
    """Leftmost maximal run a..b with b >= a + 2k+3 (k = ``pa.k``),
    identical partner sets throughout, and unaffected components between
    consecutive edges.

    Returns None when no run is long enough; if the existence guarantee
    (enough analyzed edges, few distinct partner sets) held, that is an
    internal inconsistency and raises instead.
    """
    t, k = pa.t, pa.k
    best = leftmost_long_run(t, pa.switches | pa.affected, 2 * k + 3)
    if best is not None:
        return best
    if t >= stretch_guarantee_threshold(k) and pa.distinct_partner_sets <= 3 * k:
        raise InternalInconsistencyError(
            f"no clean stretch found among {t} edges with "
            f"{pa.distinct_partner_sets} distinct partner sets and k={k}"
        )
    return None
