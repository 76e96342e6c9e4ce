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
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

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


# ---------------------------------------------------------------------------
# certified families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certified:
    """An instance at w* = ``w_opt``, its optimum as argued by its builder,
    and a planted witness (sorted) of that weight: at any size w_opt is a
    yes that ``verify_solution`` checks and w_opt + 1/2 is a no."""

    instance: WbdInstance
    witness: Tuple[int, ...]
    w_opt: float

    def at(self, w_star: float) -> WbdInstance:
        return replace(self.instance, w_star=w_star)


def _certified(g: UndirectedGraph, k: int, weights: Dict[int, float], witness) -> Certified:
    w_opt = math.fsum(weights[e] for e in witness)
    return Certified(WbdInstance(g, k, w_opt, weights), tuple(sorted(witness)), w_opt)


def _chords(rng: random.Random, base: UndirectedGraph, count: int) -> List[Tuple[int, int]]:
    """``count`` pairs of non-adjacent base vertices, drawn by ``rng``."""
    pairs = itertools.combinations(range(base.n), 2)
    return rng.sample([p for p in pairs if base.edge_between(*p) is None], count)


def heavy_rim_hub(q: int, k: int, pos: int) -> Certified:
    """The plain shared-partner hub, k >= 2, whose rim edge h at ``pos``
    weighs 5, the other rim edges 1, the chord 5.5, x-w 2 (w the shared
    partner) and the rest 0.  Without the chord every rim edge and x-w are
    critical, and two rim edges cut the rim between them off at w.  So
    w_opt is 7, as {h, x-w}, and every solution at 7 holds h; only when h
    is x's own rim edge (pos = 0) is w_opt 5.5, the chord.  Rim edges
    have ids 0..q in order, so h is edge ``pos``."""
    rim = [5.0 if i == pos else 1.0 for i in range(q + 1)]
    hub = shared_partner_instance(q, k, 7.0, 5.5, rim, other_weight=0.0)
    g, weights = hub.instance.graph, dict(hub.instance.weights)
    xw = g.edge_between(hub.x, q + 2)  # w comes right after the rim
    weights[xw] = 2.0
    return _certified(g, k, weights, (hub.rim_edges[pos], xw) if pos else (hub.chord,))


def _hooked_k4(rng: random.Random, base: UndirectedGraph, h: int, chords: int, light):
    """``base`` on 0..n-1, a K4 on n..n+3, h edges hooking its vertices
    n..n+h-1 to distinct base vertices (ids base.m + 6 on) and ``chords``
    chords, every edge weighed from ``light``; returns the graph, the
    weights and the hook ids."""
    n = base.n
    ends = list(zip(rng.sample(range(n), h), range(n, n + h)))
    pairs = [*base.edges.values(), *itertools.combinations(range(n, n + 4), 2), *ends]
    pairs += _chords(rng, base, chords)
    g = UndirectedGraph.from_edges(range(n + 4), pairs)
    return g, random_weights(rng, g, *light), range(base.m + 6, base.m + 6 + h)


def hook_gadget(
    rng: random.Random, base: UndirectedGraph, k: int, hooks: Sequence[float], light=(1, 29)
) -> Certified:
    """A biconnected ``base`` and a K4 hooked to it by h = len(hooks)
    edges (2 <= h <= 4) of the given weights, each 30 or more; k - j
    chords, j = min(k, h - 2), weigh 30, and other edges draw from
    ``light``, under 30.  The K4 keeps two hooks, so a solution holds
    i <= j of them and at most k - i edges of 30 or less: w_opt is the j
    heaviest hooks plus the chords, whose deletion leaves the base and
    the K4 on h - j >= 2 disjoint hooks."""
    h, j = len(hooks), min(k, len(hooks) - 2)
    if not (2 <= h <= 4 and min(hooks) >= 30 > light[1]):
        raise ValueError("need 2-4 hooks of weight >= 30 and light weights < 30")
    g, weights, hook_ids = _hooked_k4(rng, base, h, k - j, light)
    chords = range(hook_ids.stop, g.m)
    weights.update(zip(hook_ids, map(float, hooks)))
    weights.update(dict.fromkeys(chords, 30.0))
    return _certified(g, k, weights, [*sorted(hook_ids, key=weights.get)[h - j :], *chords])


def random_hook_gadget(
    rng: random.Random, base: UndirectedGraph, h: int
) -> Tuple[UndirectedGraph, Dict[int, float]]:
    """The oracle sweep's gadget, not certified: ``base`` and a K4 on h
    hooks, no chords, weights 1-6, then distinct weights 10-29 on the
    hooks.  The caller picks k and asks the oracle for w*."""
    g, weights, hook_ids = _hooked_k4(rng, base, h, 0, (1, 6))
    weights.update(zip(hook_ids, map(float, rng.sample(range(10, 30), h))))
    return g, weights


def planted_pair(rng: random.Random, base: UndirectedGraph, k: int) -> Certified:
    """Adjacent vertices u and v of degree 3 on a biconnected ``base`` on
    0..n-1, k >= 2: uv weighs 100, u-a1 80, v-b1 79, u-a2 and v-b2 are
    light, for four distinct anchors, k - 2 chords weigh 30, and other
    edges weigh 1-29, under 30.  A solution deletes at most one
    edge at u and one at v, uv at both, so 100 or at most 80 + 79 there,
    and at most 30 per other edge: w_opt = 159 + 30(k - 2), reached by
    u-a1, v-b1 and the chords, which leave the base and the ear a2-u-v-b2."""
    n, m = base.n, base.m
    a1, a2, b1, b2 = rng.sample(range(n), 4)
    pairs = [*base.edges.values(), (n, n + 1), (a1, n), (b1, n + 1), (a2, n), (b2, n + 1)]
    pairs += _chords(rng, base, k - 2)
    g = UndirectedGraph.from_edges(range(n + 2), pairs)
    weights = random_weights(rng, g, 1, 29)
    weights.update({m: 100.0, m + 1: 80.0, m + 2: 79.0, **dict.fromkeys(range(m + 5, g.m), 30.0)})
    return _certified(g, k, weights, [m + 1, m + 2, *range(m + 5, g.m)])
