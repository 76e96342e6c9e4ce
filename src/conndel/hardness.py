"""Generators reducing independent-set instances to strong-connectivity
preservation problems on digraphs.

Both constructions are deterministic over sorted vertex ids, so generated
instances are byte-stable for golden tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from .errors import InternalInconsistencyError, InvalidInputError
from .graphs import Digraph, UndirectedGraph, is_strongly_connected


@dataclass(frozen=True)
class PcGadgetMap:
    """Role map for the path-contraction reduction.

    Per original vertex v there is an arc (v-, v+); per original edge e a
    hub vertex with k+1 pendants and four hub arcs linking it to both
    endpoints' copies; plus globally two padlocked terminals x, y with k+1
    pendants each and the return arc (y, x).
    """

    x: int
    y: int
    x_pendants: Tuple[int, ...]
    y_pendants: Tuple[int, ...]
    v_minus: Dict[int, int] = field(repr=False)
    v_plus: Dict[int, int] = field(repr=False)
    hub: Dict[int, int] = field(repr=False)
    hub_pendants: Dict[int, Tuple[int, ...]] = field(repr=False)

    def origin_labels(self) -> Dict[int, str]:
        out = {self.x: "x", self.y: "y"}
        for i, p in enumerate(self.x_pendants, start=1):
            out[p] = f"x^{i}"
        for i, p in enumerate(self.y_pendants, start=1):
            out[p] = f"y^{i}"
        for v, w in self.v_minus.items():
            out[w] = f"{v}-"
        for v, w in self.v_plus.items():
            out[w] = f"{v}+"
        for e, w in self.hub.items():
            out[w] = f"hub(e{e})"
            for i, p in enumerate(self.hub_pendants[e], start=1):
                out[p] = f"hub(e{e})_{i}"
        return out


def _fresh_ids(g: UndirectedGraph, k: int) -> Iterator[int]:
    """Refuse an input without vertices or a negative k; then ids 0, 1, ..."""
    if g.n < 1:
        raise InvalidInputError("need at least one vertex")
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    return itertools.count()


def _strong_digraph(fresh: Iterator[int], arcs: List[Tuple[int, int]]) -> Digraph:
    """The digraph on the ids drawn from fresh; it must be strongly connected."""
    d = Digraph.from_arcs(range(next(fresh)), arcs)
    if not is_strongly_connected(d):
        raise InternalInconsistencyError("generated digraph is not strongly connected")
    return d


def gen_pc_psc(g: UndirectedGraph, k: int) -> Tuple[Digraph, PcGadgetMap]:
    """Reduce (g, k) independent set to path-contraction preservation.

    The output digraph has 2n + (k+2)m + 2k+4 vertices and an independent
    set of size k exists iff k arcs can be contracted while keeping it
    strongly connected.
    """
    fresh = _fresh_ids(g, k)
    v_minus: Dict[int, int] = {}
    v_plus: Dict[int, int] = {}
    for v in sorted(g.vertices):
        v_minus[v] = next(fresh)
        v_plus[v] = next(fresh)
    hub: Dict[int, int] = {}
    hub_pendants: Dict[int, Tuple[int, ...]] = {}
    for e in sorted(g.edges):
        hub[e] = next(fresh)
        hub_pendants[e] = tuple(itertools.islice(fresh, k + 1))
    x, y = next(fresh), next(fresh)
    x_pendants = tuple(itertools.islice(fresh, k + 1))
    y_pendants = tuple(itertools.islice(fresh, k + 1))

    arcs: List[Tuple[int, int]] = []
    for v in sorted(g.vertices):
        arcs.append((v_minus[v], v_plus[v]))
        arcs.append((x, v_minus[v]))
        arcs.append((v_plus[v], y))
    for p in x_pendants:
        arcs.append((x, p))
        arcs.append((p, x))
    for p in y_pendants:
        arcs.append((y, p))
        arcs.append((p, y))
    arcs.append((y, x))
    for e in sorted(g.edges):
        u, v = g.endpoints(e)
        h = hub[e]
        for p in hub_pendants[e]:
            arcs.append((h, p))
            arcs.append((p, h))
        arcs.extend(((v_minus[v], h), (h, v_plus[v]), (v_minus[u], h), (h, v_plus[u])))

    d = _strong_digraph(fresh, arcs)
    expected = 2 * g.n + (k + 2) * g.m + 2 * k + 4
    if d.n != expected:
        raise InternalInconsistencyError(
            f"vertex count {d.n} differs from formula {expected}"
        )
    gm = PcGadgetMap(
        x=x,
        y=y,
        x_pendants=x_pendants,
        y_pendants=y_pendants,
        v_minus=v_minus,
        v_plus=v_plus,
        hub=hub,
        hub_pendants=hub_pendants,
    )
    return d, gm


def gen_vd_psc(g: UndirectedGraph, k: int) -> Tuple[Digraph, Dict[int, str]]:
    """Reduce (g, k) independent set to exactly-k vertex deletion keeping
    strong connectivity.

    Two steps: subdivide every edge with a protected vertex and add a
    protected apex adjacent to all original vertices; then bidirect and
    replace every protected vertex by a directed cycle of length k+2, which
    no budget-k deletion may touch.
    """
    fresh = _fresh_ids(g, k)
    origin: Dict[int, str] = {}
    name: Dict[int, int] = {}
    for v in sorted(g.vertices):
        name[v] = next(fresh)
        origin[name[v]] = f"vertex {v}"
    protected: List[int] = []
    und_edges: List[Tuple[int, int]] = []
    for e in sorted(g.edges):
        u, v = g.endpoints(e)
        s = next(fresh)
        origin[s] = f"subdivision of edge {u}-{v}"
        protected.append(s)
        und_edges.append((name[u], s))
        und_edges.append((s, name[v]))
    apex = next(fresh)
    origin[apex] = "apex"
    protected.append(apex)
    for v in sorted(g.vertices):
        und_edges.append((name[v], apex))

    arcs: List[Tuple[int, int]] = []
    for u, v in und_edges:
        arcs.append((u, v))
        arcs.append((v, u))
    for w in protected:
        prev = w
        for _ in range(k + 1):
            c = next(fresh)
            origin[c] = origin[w] + " cycle"
            arcs.append((prev, c))
            prev = c
        arcs.append((prev, w))

    return _strong_digraph(fresh, arcs), origin
