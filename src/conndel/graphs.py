"""Graph representations and connectivity primitives.

Both graph classes are immutable from the caller's perspective: every
mutating operation returns a new value.  Vertex and edge/arc ids are stable
under deletion (ids of deleted elements are never reused), so id-keyed data
such as weights or frozen-edge sets survives graph surgery.

The package has one reachability routine (``reachable``; the path query
``has_path_without`` is one call of it, and ``is_strongly_connected`` two
walks of its traversal) and one augmenting-path flow
(``FlowNetwork.augment``, unit vertex capacities on a split network), used
for the kernel's digraph cuts and for undirected x-y flows, whose only
entry is ``max_flow_bounded`` (``cap=None`` for a maximum flow).  A
``FlowNetwork`` is built in bulk, by list operations over all its arcs at
once: a bounded flow pushes only a few units through it, so building it
one arc at a time cost as much as the searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import ContractionError, InvalidInputError

Edge = Tuple[int, int]


class UndirectedGraph:
    """Simple undirected graph with stable integer vertex and edge ids."""

    __slots__ = ("_vertices", "_edges", "_pair_to_id", "_adj", "_next_edge_id")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[Tuple[int, int, int]] = (),
        next_edge_id: Optional[int] = None,
    ):
        """Build from vertex ids and (edge_id, u, v) triples."""
        self._vertices: FrozenSet[int] = frozenset(vertices)
        self._edges: Dict[int, Edge] = {}
        self._pair_to_id: Dict[Edge, int] = {}
        self._adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self._vertices}
        for eid, u, v in edges:
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if u not in self._vertices or v not in self._vertices:
                raise InvalidInputError(f"edge ({u},{v}) references missing vertex")
            key = (u, v) if u < v else (v, u)
            if key in self._pair_to_id:
                raise InvalidInputError(f"parallel edge ({u},{v})")
            if eid in self._edges:
                raise InvalidInputError(f"duplicate edge id {eid}")
            self._edges[eid] = key
            self._pair_to_id[key] = eid
            self._adj[u].append((v, eid))
            self._adj[v].append((u, eid))
        for lst in self._adj.values():
            lst.sort()
        if next_edge_id is None:
            next_edge_id = max(self._edges, default=-1) + 1
        self._next_edge_id = next_edge_id

    @classmethod
    def from_edges(cls, vertices: Iterable[int], pairs: Iterable[Edge]) -> "UndirectedGraph":
        """Build with edge ids 0..m-1 assigned in iteration order."""
        return cls(vertices, [(i, u, v) for i, (u, v) in enumerate(pairs)])

    # -- read access -------------------------------------------------------

    @property
    def vertices(self) -> FrozenSet[int]:
        return self._vertices

    @property
    def edges(self) -> Mapping[int, Edge]:
        """Read-only view of edge id -> (u, v) with u < v."""
        return MappingProxyType(self._edges)

    def edge_ids(self, excluded: AbstractSet[int] = frozenset()) -> List[int]:
        """Edge ids ascending, leaving out ``excluded``: one C-level set
        difference, since every solve and kernelize call lists its pool."""
        return sorted(self._edges.keys() - excluded)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def endpoints(self, eid: int) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise InvalidInputError(f"no edge with id {eid}") from None

    def edge_between(self, u: int, v: int) -> Optional[int]:
        return self._pair_to_id.get((u, v) if u < v else (v, u))

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def neighbors(self, v: int) -> List[int]:
        return [u for u, _ in self._adj[v]]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    # -- derived graphs ----------------------------------------------------

    def without_edges(self, eids: Iterable[int]) -> "UndirectedGraph":
        gone = set(eids)
        for eid in gone:
            if eid not in self._edges:
                raise InvalidInputError(f"no edge with id {eid}")
        return UndirectedGraph(
            self._vertices,
            [(e, u, v) for e, (u, v) in self._edges.items() if e not in gone],
            next_edge_id=self._next_edge_id,
        )

    def without_edge(self, eid: int) -> "UndirectedGraph":
        return self.without_edges((eid,))

    def induced(self, keep: Iterable[int]) -> "UndirectedGraph":
        kept = set(keep)
        if not kept <= self._vertices:
            raise InvalidInputError("induced set contains unknown vertices")
        return UndirectedGraph(
            kept,
            [
                (eid, u, v)
                for eid, (u, v) in self._edges.items()
                if u in kept and v in kept
            ],
            next_edge_id=self._next_edge_id,
        )

    def with_edges(self, pairs: Sequence[Edge]) -> Tuple["UndirectedGraph", List[int]]:
        """Return (graph with the new edges, their fresh ids in order)."""
        first = self._next_edge_id
        ids = list(range(first, first + len(pairs)))
        g = UndirectedGraph(
            self._vertices,
            [(i, a, b) for i, (a, b) in self._edges.items()]
            + [(eid, u, v) for eid, (u, v) in zip(ids, pairs)],
            next_edge_id=first + len(pairs),
        )
        return g, ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self._edges.items())))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, m={self.m})"


class Digraph:
    """Simple digraph (no loops, at most one arc per ordered pair)."""

    __slots__ = ("_vertices", "_arcs", "_pair_to_id", "_out", "_in", "_next_vertex_id", "_network")

    def __init__(
        self,
        vertices: Iterable[int],
        arcs: Iterable[Tuple[int, int, int]] = (),
        next_vertex_id: Optional[int] = None,
    ):
        """Build from vertex ids and (arc_id, tail, head) triples."""
        self._vertices: FrozenSet[int] = frozenset(vertices)
        self._arcs: Dict[int, Edge] = {}
        self._pair_to_id: Dict[Edge, int] = {}
        self._out: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self._vertices}
        self._in: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self._vertices}
        for aid, t, h in arcs:
            if t == h:
                raise InvalidInputError(f"self-loop at vertex {t}")
            if t not in self._vertices or h not in self._vertices:
                raise InvalidInputError(f"arc ({t},{h}) references missing vertex")
            if (t, h) in self._pair_to_id:
                raise InvalidInputError(f"duplicate arc ({t},{h})")
            if aid in self._arcs:
                raise InvalidInputError(f"duplicate arc id {aid}")
            self._arcs[aid] = (t, h)
            self._pair_to_id[(t, h)] = aid
            self._out[t].append((h, aid))
            self._in[h].append((t, aid))
        for lst in self._out.values():
            lst.sort()
        for lst in self._in.values():
            lst.sort()
        if next_vertex_id is None:
            next_vertex_id = max(self._vertices, default=-1) + 1
        self._next_vertex_id = next_vertex_id
        self._network: Optional[FlowNetwork] = None

    @classmethod
    def from_arcs(cls, vertices: Iterable[int], pairs: Iterable[Edge]) -> "Digraph":
        return cls(vertices, [(i, t, h) for i, (t, h) in enumerate(pairs)])

    @property
    def vertices(self) -> FrozenSet[int]:
        return self._vertices

    @property
    def arcs(self) -> Mapping[int, Edge]:
        """Read-only view of arc id -> (tail, head)."""
        return MappingProxyType(self._arcs)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._arcs)

    def arc_pairs(self) -> List[Edge]:
        return sorted(self._arcs.values())

    def arc_between(self, t: int, h: int) -> Optional[int]:
        return self._pair_to_id.get((t, h))

    def endpoints(self, aid: int) -> Edge:
        try:
            return self._arcs[aid]
        except KeyError:
            raise InvalidInputError(f"no arc with id {aid}") from None

    def flow_network(self) -> "FlowNetwork":
        """Split network for vertex-disjoint paths (every vertex capacity
        1, arcs unbounded), built on first use; the digraph is immutable."""
        if self._network is None:
            self._network = FlowNetwork(sorted(self._vertices), self.arc_pairs(), _UNBOUNDED)
        return self._network

    def without_vertices(self, vs: Iterable[int]) -> "Digraph":
        gone = set(vs)
        return Digraph(
            self._vertices - gone,
            [
                (aid, t, h)
                for aid, (t, h) in self._arcs.items()
                if t not in gone and h not in gone
            ],
            next_vertex_id=self._next_vertex_id,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._vertices == other._vertices and self._arcs == other._arcs

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self._arcs.items())))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Path:
    """A simple path inside a host graph: vertex sequence plus edge ids."""

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.vertices) != len(set(self.vertices)):
            raise InvalidInputError("path repeats a vertex")
        if self.edges and len(self.edges) != len(self.vertices) - 1:
            raise InvalidInputError("edge count does not match vertex count")

    @property
    def interior(self) -> Tuple[int, ...]:
        return self.vertices[1:-1]


# ---------------------------------------------------------------------------
# connectivity predicates
# ---------------------------------------------------------------------------


def _reach(
    adj: Mapping[int, List[Tuple[int, int]]],
    seen: Set[int],
    removed_edges: AbstractSet[int] = frozenset(),
    removed_vertices: AbstractSet[int] = frozenset(),
) -> Set[int]:
    """Grow ``seen`` to every vertex it reaches along the ``(head, id)``
    lists of ``adj`` without the removed edges or vertices; return it."""
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u, eid in adj[v]:
            if u in seen or eid in removed_edges or u in removed_vertices:
                continue
            seen.add(u)
            stack.append(u)
    return seen


def reachable(
    g: UndirectedGraph,
    sources: Iterable[int],
    removed_edges: AbstractSet[int] = frozenset(),
    removed_vertices: AbstractSet[int] = frozenset(),
) -> Set[int]:
    """Vertices reachable from the sources once the given edges and
    vertices are removed."""
    seen = set(sources)
    if not seen.isdisjoint(removed_vertices):
        raise InvalidInputError("terminal removed from graph")
    return _reach(g._adj, seen, removed_edges, removed_vertices)


def has_path_without(
    g: UndirectedGraph,
    x: int,
    y: int,
    removed_edges: AbstractSet[int] = frozenset(),
    removed_vertices: AbstractSet[int] = frozenset(),
) -> bool:
    """Is y reachable from x once the given edges and vertices are removed?"""
    return y in reachable(g, (x,), removed_edges, removed_vertices)


def is_biconnected_without(
    g: UndirectedGraph, removed_edges: FrozenSet[int] = frozenset()
) -> bool:
    """Biconnectivity of g minus the given edges.

    Connected, at least two vertices, no cut-vertex; a single edge counts as
    biconnected.  One iterative articulation-point pass (Hopcroft-Tarjan
    1973) and no graph copy: only the lists of a removed edge's endpoints
    are copied, once, without it, so no entry is tested against the
    removed set.  Ids that are not edges of g are ignored.

    The pass does not skip the tree edge back to a vertex's parent p.  In
    a simple graph that edge only adds disc(p) to the child's low, and
    min(low, disc(p)) >= disc(p) exactly when low >= disc(p), while p's
    own low is at most disc(p) already; so the vertex test and every low
    it feeds are unchanged.
    """
    adj = g._adj
    if g.n < 2:
        return False
    if removed_edges:
        adj = dict(adj)
        for eid in removed_edges:
            for v in g._edges.get(eid, ()):
                adj[v] = [a for a in adj[v] if a[1] != eid]
    root = min(g._vertices)
    # The current vertex's discovery number, low and adjacency iterator
    # are locals; the stack holds its ancestors' as they were on descent,
    # since only a vertex's own scan and its children's returns lower it.
    disc = {root: 0}
    dv = lo = root_children = 0
    it = iter(adj[root])
    stack = []
    while True:
        for u, _ in it:
            du = disc.get(u)
            if du is None:
                stack.append((dv, lo, it))
                dv = lo = len(disc)
                disc[u] = dv
                it = iter(adj[u])
                break
            if du < lo:
                lo = du
        else:
            if not stack:
                break
            lv = lo
            dv, lo, it = stack.pop()
            if lv < lo:
                lo = lv
            if dv == 0:
                root_children += 1
            elif lv >= dv:
                return False
    return len(disc) == g.n and root_children <= 1


def is_biconnected(g: UndirectedGraph) -> bool:
    """Connected, on two or more vertices, and free of cut-vertices."""
    return is_biconnected_without(g)


def is_strongly_connected(d: Digraph) -> bool:
    """Every ordered vertex pair joined by a directed path (double reach)."""
    if d.n <= 1:
        return True
    start = min(d._vertices)
    return all(len(_reach(table, {start})) == d.n for table in (d._out, d._in))


# ---------------------------------------------------------------------------
# vertex-capacity flow
# ---------------------------------------------------------------------------


_UNBOUNDED = 1 << 30


class FlowNetwork:
    """Split network for vertex-disjoint paths, built once per graph.

    Vertex v with index i becomes an in-node 2i and an out-node 2i + 1
    joined by a capacity-1 arc (unbounded for an open vertex); a graph arc
    (u, v) runs from u's out-node to v's in-node.  Arcs are integer ids
    into flat ``head``/``cap`` lists, arc a's residual twin being a ^ 1:
    vertex i's split arc has id 2i and graph arc j has id ``2 * n + 2 * j``.
    Each node lists its arcs by id, split arc first, so the searches are
    deterministic.  ``head`` and ``cap`` are filled by slice assignment,
    and ``adj`` by one pass over the graph arcs after the split arcs.
    """

    __slots__ = ("vertices", "index", "head", "cap", "adj")

    def __init__(
        self,
        vertices: Sequence[int],
        arcs: Sequence[Edge],
        arc_cap: int,
        open_vertices: AbstractSet[int] = frozenset(),
    ):
        self.vertices: List[int] = list(vertices)
        self.index: Dict[int, int] = {v: i for i, v in enumerate(self.vertices)}
        index = self.index
        base = 2 * len(self.vertices)
        tails = [2 * index[u] + 1 for u, _ in arcs]
        heads = [2 * index[v] for _, v in arcs]
        size = base + 2 * len(tails)
        head = [0] * size
        head[0:base:2] = range(1, base, 2)
        head[1:base:2] = range(0, base, 2)
        head[base::2] = heads
        head[base + 1 :: 2] = tails
        cap = [0] * size
        cap[0:base:2] = [1] * len(index)
        cap[base::2] = [arc_cap] * len(tails)
        for v in open_vertices:
            if v in index:
                cap[2 * index[v]] = _UNBOUNDED
        adj = [[node] for node in range(base)]
        for a, t, h in zip(range(base, size, 2), tails, heads):
            adj[t].append(a)
            adj[h].append(a + 1)
        self.head, self.cap, self.adj = head, cap, adj

    def min_cut(
        self,
        sources: Iterable[int],
        sinks: Iterable[int],
        removed: Iterable[int] = (),
    ) -> Tuple[int, FrozenSet[int]]:
        """The maximum flow value and the minimum source-sink vertex cut
        closest to the sources (it may contain sources and sinks) in the
        network minus the removed vertices: every vertex whose in-node the
        last, failed search reached and whose out-node it did not."""
        value, via, reached = self.augment(self.cap[:], sources, sinks, removed)
        vertices = self.vertices
        return value, frozenset(
            vertices[node >> 1] for node in reached if not node & 1 and via[node + 1] == -1
        )

    def augment(
        self,
        cap: List[int],
        sources: Iterable[int],
        sinks: Iterable[int],
        removed: Iterable[int] = (),
        limit: Optional[int] = None,
    ) -> Tuple[int, List[int], List[int]]:
        """Push units into residual ``cap`` (a copy of ``self.cap``) along
        shortest paths, each found by a BFS from the sources' in-nodes to a
        sink's out-node that skips both nodes of every removed vertex, until
        none is left or ``limit`` is reached.  Vertices not in the network
        are ignored.  Returns the units pushed, per node the arc by which
        the last search first reached it (-1 unreached, -2 start or
        removed), and the nodes that search reached: after a failed search,
        the closest minimum cut's source side."""
        index, head, adj = self.index, self.head, self.adj
        starts = [2 * index[v] for v in sources if v in index]
        sink_nodes = {2 * index[v] + 1 for v in sinks if v in index}
        blocked = [2 * index[v] + s for v in removed if v in index for s in (0, 1)]
        value = 0
        via: List[int] = []
        queue: List[int] = []
        while limit is None or value < limit:
            via = [-1] * len(adj)
            for node in blocked:
                via[node] = -2
            queue = []
            for node in starts:
                if via[node] == -1:
                    via[node] = -2
                    queue.append(node)
            hit = -1
            for node in queue:
                for a in adj[node]:
                    if cap[a]:
                        b = head[a]
                        if via[b] == -1:
                            via[b] = a
                            if b in sink_nodes:
                                hit = b
                                break
                            queue.append(b)
                if hit >= 0:
                    break
            if hit < 0:
                break
            while via[hit] >= 0:
                a = via[hit]
                cap[a] -= 1
                cap[a ^ 1] += 1
                hit = head[a ^ 1]
            value += 1
        return value, via, queue

    def paths(
        self, source: int, sink: int, limit: Optional[int] = None
    ) -> List[Tuple[List[int], List[int]]]:
        """Push up to ``limit`` units (all when None) from source to sink
        and read the paths off the residual network: per path its vertices,
        source first, and its arcs' positions in the constructor's
        ``arcs``, whose capacity must be 1.  Unit vertex capacities leave
        each internal vertex's out-node one carrying arc to follow."""
        residual = self.cap[:]
        self.augment(residual, (source,), (sink,), limit=limit)
        index, head, adj, vertices = self.index, self.head, self.adj, self.vertices
        base = 2 * len(vertices)
        end = 2 * index[sink]

        def carried(node: int) -> List[int]:
            return [a for a in adj[node] if not a & 1 and not residual[a]]

        out = []
        for a in carried(2 * index[source] + 1):
            seq, on = [source], []
            while True:
                node = head[a]
                seq.append(vertices[node >> 1])
                on.append((a - base) >> 1)
                if node == end:
                    break
                (a,) = carried(node + 1)
            out.append((seq, on))
        return out


def max_flow_bounded(
    g: UndirectedGraph,
    x: int,
    y: int,
    cap: Optional[int] = None,
    removed_edges: AbstractSet[int] = frozenset(),
) -> Tuple[Path, ...]:
    """A maximum set of internally vertex-disjoint x-y paths in g minus the
    given edges, stopping at cap, sorted by vertex sequence; no graph copy
    is made.

    A ``FlowNetwork`` with x and y open and two capacity-1 arcs per edge
    left, u to v and then v to u, in id order, so a direct x-y edge
    carries one path.
    """
    if x == y:
        raise InvalidInputError("flow endpoints must differ")
    if x not in g.vertices or y not in g.vertices:
        raise InvalidInputError("flow endpoint not in graph")
    eids = sorted(g._edges.keys() - removed_edges)
    ends = list(map(g._edges.__getitem__, eids))
    arcs = ends * 2  # u to v, then v to u, per edge
    arcs[0::2] = ends
    arcs[1::2] = [(v, u) for u, v in ends]
    net = FlowNetwork(sorted(g._vertices), arcs, 1, frozenset((x, y)))
    paths = [
        Path(tuple(seq), tuple(eids[j >> 1] for j in on)) for seq, on in net.paths(x, y, cap)
    ]
    paths.sort(key=lambda p: p.vertices)
    return tuple(paths)


# ---------------------------------------------------------------------------
# path contraction
# ---------------------------------------------------------------------------


def path_contract(d: Digraph, arc: Edge) -> Tuple[Digraph, Dict[int, int]]:
    """Contract one arc (x, y) into a fresh vertex z.

    Arcs into x and out of y from outside {x, y} are redirected to z; the
    remaining arcs incident to x or y are dropped, as are any loops or
    duplicates this creates.  Returns the new digraph and the old-to-new
    vertex mapping.
    """
    x, y = arc
    if d.arc_between(x, y) is None:
        raise ContractionError(f"arc ({x},{y}) does not exist")
    z = d._next_vertex_id
    mapping = {v: v for v in d.vertices if v != x and v != y}
    mapping[x] = z
    mapping[y] = z
    kept: Dict[Edge, None] = {}
    for t, h in d._arcs.values():
        if t in (x, y) and h in (x, y):
            continue
        if t == x or h == y:
            continue
        nt = z if t == y else t
        nh = z if h == x else h
        if nt != nh:
            kept[(nt, nh)] = None
    # Built directly, since through the constructor the hardness round trip
    # runs about 1.4x as long: the kept arcs are valid, and taken sorted
    # they fill every adjacency list sorted.
    out = object.__new__(Digraph)
    out._vertices = (d.vertices - {x, y}) | {z}
    out._arcs = dict(enumerate(sorted(kept)))
    out._pair_to_id = {th: aid for aid, th in out._arcs.items()}
    out._out = {v: [] for v in out._vertices}
    out._in = {v: [] for v in out._vertices}
    for aid, (t, h) in out._arcs.items():
        out._out[t].append((h, aid))
        out._in[h].append((t, aid))
    out._next_vertex_id = z + 1
    out._network = None
    return out, mapping


def contract_sequence(d: Digraph, arcs: Iterable[Edge]) -> Digraph:
    """Fold path_contract over a sequence of arcs of the original digraph.

    Arc endpoints are translated through the accumulated vertex mapping; an
    arc that no longer exists at its turn raises ContractionError naming it.
    """
    mapping = {v: v for v in d.vertices}
    cur = d
    for u, v in arcs:
        if u not in mapping or v not in mapping:
            raise ContractionError(f"arc ({u},{v}) references unknown vertex")
        mu, mv = mapping[u], mapping[v]
        if mu == mv or cur.arc_between(mu, mv) is None:
            raise ContractionError(f"arc ({u},{v}) vanished before its contraction")
        cur, step = path_contract(cur, (mu, mv))
        mapping = {orig: step[img] for orig, img in mapping.items()}
    return cur
