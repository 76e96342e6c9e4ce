"""Instance families and random generators for tests and experiments.

The two hub constructions below are the smallest shapes that drive the
solver's partner machinery:

* ``shared_partner_instance``: a rim path x-m1-...-mq-y, a second path
  x-w-y, a chord (x, y), and a spoke from every rim vertex to w.  Deleting
  the chord makes every rim edge critical with the single shared partner w,
  so the analysis sees one long clean stretch.

* ``distinct_partner_instance``: a rim x-m1-...-mq-y, a parallel path
  x-w1-...-wq-y, the chord, and spokes (mi, wi).  Deleting the chord gives
  rim edge (mi, mi+1) the partner set {wi, wi+1}, all pairwise distinct.

Both accept ``subdivide=True``, which replaces every spoke and second-path
edge by a two-edge path.  The inserted degree-2 vertices make all of those
edges critical from the start, leaving the chord plus the rim as the only
potential solution edges; that is the shape the kernel's greedy phase
needs in order to stall rather than finish.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graphs import UndirectedGraph, is_biconnected
from .solver import WbdInstance


@dataclass(frozen=True)
class HubInstance:
    """A constructed instance with its structurally relevant edge groups."""

    instance: WbdInstance
    chord: int
    rim_edges: Tuple[int, ...]
    x: int
    y: int


def _build_hub(
    q: int,
    partner_rail: bool,
    k: int,
    w_star: float,
    chord_weight: float,
    rim_weights: Optional[List[float]],
    other_weight: float,
    subdivide: bool,
) -> HubInstance:
    if rim_weights is not None and len(rim_weights) != q + 1:
        raise ValueError("need one weight per rim edge")
    if q < 1:
        raise ValueError("need at least one rim vertex")
    x, y = 0, 1
    rim = list(range(2, 2 + q))
    nxt = 2 + q
    edges: List[Tuple[int, int]] = []

    rim_pairs = list(zip([x] + rim, rim + [y]))
    edges.extend(rim_pairs)  # ids 0..q
    chord_pos = len(edges)
    edges.append((x, y))

    def connect(a: int, b: int):
        nonlocal nxt
        if subdivide:
            mid = nxt
            nxt += 1
            edges.append((a, mid))
            edges.append((mid, b))
        else:
            edges.append((a, b))

    if partner_rail:
        rail = list(range(nxt, nxt + q))
        nxt += q
        for a, b in zip([x] + rail, rail + [y]):
            connect(a, b)
        for m, w in zip(rim, rail):
            connect(m, w)
    else:
        w = nxt
        nxt += 1
        connect(x, w)
        connect(w, y)
        for m in rim:
            connect(m, w)

    all_verts = sorted(set(v for e in edges for v in e))
    g = UndirectedGraph.from_edges(all_verts, edges)
    assert is_biconnected(g)

    weights: Dict[int, float] = {}
    rim_ids = tuple(range(0, q + 1))
    for i, eid in enumerate(rim_ids):
        weights[eid] = rim_weights[i] if rim_weights else 5.0
    weights[chord_pos] = chord_weight
    for eid in g.edges:
        if eid not in weights:
            weights[eid] = other_weight
    inst = WbdInstance(g, k, float(w_star), weights, frozenset())
    return HubInstance(inst, chord_pos, rim_ids, x, y)


def shared_partner_instance(
    q: int,
    k: int = 2,
    w_star: float = 2.0,
    chord_weight: float = 10.0,
    rim_weights: Optional[List[float]] = None,
    other_weight: float = 1.0,
    subdivide: bool = False,
) -> HubInstance:
    return _build_hub(q, False, k, w_star, chord_weight, rim_weights, other_weight, subdivide)


def distinct_partner_instance(
    q: int,
    k: int = 2,
    w_star: float = 2.0,
    chord_weight: float = 10.0,
    rim_weights: Optional[List[float]] = None,
    other_weight: float = 1.0,
    subdivide: bool = False,
) -> HubInstance:
    return _build_hub(q, True, k, w_star, chord_weight, rim_weights, other_weight, subdivide)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_biconnected_graph(
    rng: random.Random, n: int, extra_edges: int = 0
) -> UndirectedGraph:
    """Random biconnected graph on n >= 3 vertices via ear additions."""
    if n < 3:
        raise ValueError("need at least three vertices")
    base = rng.randint(3, n)
    pairs: List[Tuple[int, int]] = [(i, (i + 1) % base) for i in range(base)]
    used = base
    while used < n:
        ear_len = rng.randint(1, n - used)
        u, v = rng.sample(range(used), 2)
        prev = u
        for _ in range(ear_len):
            pairs.append((prev, used))
            prev = used
            used += 1
        pairs.append((prev, v))
    have = {tuple(sorted(p)) for p in pairs}
    candidates = [
        p for p in itertools.combinations(range(n), 2) if p not in have
    ]
    rng.shuffle(candidates)
    for p in candidates[: max(0, extra_edges)]:
        pairs.append(p)
    g = UndirectedGraph.from_edges(range(n), pairs)
    assert is_biconnected(g)
    return g


def random_weights(
    rng: random.Random, g: UndirectedGraph, lo: int = 0, hi: int = 5
) -> Dict[int, float]:
    return {e: float(rng.randint(lo, hi)) for e in g.edges}
