"""Exact solver for weighted biconnectivity deletion.

Given a biconnected graph, a budget k, a weight target, and a set of
frozen (undeletable) edges, decide whether at most k deletable edges can
be removed with total weight meeting the target while the graph stays
biconnected.

``solve`` sorts the potential edges once, heaviest first, and each
search node is one call of ``_solve``, which says what a node does: its
heavy order first, then one DFS, the freeze loop (``freeze_rounds``,
which the kernel's first phase runs on unit weights), and greedy's yes
or a branch, the one exhaustive search.

One threshold drives the loop, mu(k) = 20k^3 + 46k^2 + k, passed to
``solve`` and ``kernelize`` as the function ``mu_of`` and read once per
node.  A lowered one steers small instances into the loop;
``reduction_step`` says which guarantee then lapses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .criticality import (
    DfsTree,
    PartnerAnalysis,
    build_partner_analysis,
    critical_tree,
    find_clean_stretch,
)
from .errors import InternalInconsistencyError, InvalidInputError
from .graphs import (
    Path,
    UndirectedGraph,
    is_biconnected,
    is_biconnected_without,
    max_flow_bounded,
)


def mu(k: int) -> int:
    """Potential-solution-edge threshold at or below which a search node
    branches over its whole list."""
    return 20 * k**3 + 46 * k**2 + k


@dataclass(frozen=True)
class WbdInstance:
    """A weighted biconnectivity-deletion question.

    Edges in ``frozen`` can never be deleted; the remaining edges are the
    potential solution edges, the only ones whose weights are read.  A
    normalized instance additionally has every currently-critical edge
    frozen, and ``tree`` holds the DFS tree of ``graph`` that ``normalize``
    decided them on (None when every edge is critical; ``RoundCache`` says
    how the freeze loop uses it).  Freezing keeps it, since the graph is
    unchanged; deleting an edge drops it.
    Derived instances share ``weights``.  A branch child keeps the root's
    ``w_star`` and records the weights already deleted on the way to it
    in ``deleted``.

    Weights are summed with ``math.fsum``: one correctly rounded sum, so a
    total does not depend on the order of its terms, and adding a
    non-negative term never lowers it.
    """

    graph: UndirectedGraph
    k: int
    w_star: float
    weights: Dict[int, float] = field(repr=False)
    frozen: FrozenSet[int] = frozenset()
    deleted: Tuple[float, ...] = ()
    tree: Optional[DfsTree] = field(default=None, repr=False, compare=False)

    def potential_edges(self) -> List[int]:
        return self.graph.edge_ids(self.frozen)

    def weight_of(self, edges) -> float:
        return math.fsum(self.weights.get(e, 0.0) for e in edges)

    def reaches(self, edges: Iterable[int]) -> bool:
        """Do the deleted weights plus the weights of these edges reach w*?"""
        added = (self.weights.get(e, 0.0) for e in edges)
        return math.fsum(itertools.chain(self.deleted, added)) >= self.w_star

    def with_frozen(self, extra: FrozenSet[int]) -> "WbdInstance":
        return replace(self, frozen=self.frozen | extra)

    def child_after_deleting(self, eid: int) -> "WbdInstance":
        """The instance after deleting the potential edge ``eid``."""
        deleted = self.deleted + (self.weights.get(eid, 0.0),)
        graph = self.graph.without_edge(eid)
        return replace(self, graph=graph, k=self.k - 1, deleted=deleted, tree=None)


@dataclass(frozen=True)
class Solution:
    """A feasible deletion set with its total weight."""

    edges: Tuple[int, ...]
    weight: float


@dataclass
class SolveStats:
    """Counters and recorded structures from one solve run."""

    nodes: int = 0
    max_depth: int = 0
    max_branch_factor: int = 0
    enumerations: int = 0
    flow_calls: int = 0
    fallbacks: int = 0
    decided_before_dfs: int = 0
    irrelevant_edges: List[int] = field(default_factory=list)
    max_irrelevant_per_node: int = 0
    analyses: List[PartnerAnalysis] = field(default_factory=list)


def validate_instance(inst: WbdInstance) -> None:
    """Reject a negative budget, a non-finite target or a non-finite or
    negative weight (the solver's weight bounds assume non-negative ones).

    Checked once at the public entries; derived instances inherit validity.
    Two C-level scans accept a valid map; only a refused one is walked
    edge by edge, to name its first offender.
    """
    if inst.k < 0:
        raise InvalidInputError(f"k must be non-negative, got {inst.k}")
    if not math.isfinite(inst.w_star):
        raise InvalidInputError(f"w* must be finite, got {inst.w_star}")
    ws = inst.weights.values()
    if all(map(math.isfinite, ws)) and min(ws, default=0.0) >= 0:
        return
    for eid, w in inst.weights.items():
        if not math.isfinite(w):
            raise InvalidInputError(f"edge {eid} has non-finite weight {w}")
        if w < 0:
            raise InvalidInputError(f"edge {eid} has negative weight {w}")


def checked_critical_tree(graph: UndirectedGraph) -> Tuple[FrozenSet[int], Optional[DfsTree]]:
    """``critical_tree``, rejecting a graph that is not biconnected."""
    crit, tree = critical_tree(graph)
    # No tree means n < 3 or not biconnected; only n = 2 with one edge passes.
    if tree is None and not is_biconnected(graph):
        raise InvalidInputError("instance graph is not biconnected")
    return crit, tree


def normalize(inst: WbdInstance) -> WbdInstance:
    """Freeze all currently-critical edges, and keep as ``tree`` the DFS
    tree they were decided on (``checked_critical_tree``, which
    ``kernelize`` shares).

    Critical edges can never be deleted, so this loses no solutions;
    idempotent.  Rejects non-biconnected graphs.
    """
    crit, tree = checked_critical_tree(inst.graph)
    return replace(inst, frozen=inst.frozen | crit, tree=tree)


def heavy_order(inst: WbdInstance) -> List[int]:
    """Potential solution edges, heaviest first, ties by ascending id: the
    pool comes in id order and the sort is stable, ``reverse=True`` too."""
    w = inst.weights
    return sorted(inst.potential_edges(), key=lambda e: w.get(e, 0.0), reverse=True)


def verify_solution(inst: WbdInstance, edges) -> bool:
    """Is this edge set a valid solution for the instance?"""
    edges = tuple(edges)
    es = set(edges)
    if len(es) != len(edges) or len(es) > inst.k:
        return False
    if not all(inst.graph.has_edge(e) for e in es):
        return False
    if es & inst.frozen:
        return False
    if not inst.reaches(es):
        return False
    return is_biconnected_without(inst.graph, frozenset(es))


def _enumerate_best(inst: WbdInstance, order: List[int]) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """A search node's first *candidate*, its edges, or None, and whether
    it is greedy's chain: k picks, reached without taking one back.

    The search runs depth-first over ``order``, the instance's
    ``heavy_order`` (heaviest first, ties by id), and tests no prefix: a
    candidate is the first set that two cuts let through and that reaches
    w*.  Both cuts are exact for non-negative weights and an ``fsum``
    total:

    * a level stops once the chosen weights plus the next r weights of
      ``order`` (r the budget left) miss w*, since every later edge is
      lighter;
    * degree: an endpoint of e with degree 2 in G - S makes e critical in
      G - S (n >= 3), so S + e is dropped.

    So no candidate is a no: a solution is a set of potential edges, it
    leaves every vertex with degree 2 or more (on n < 3 vertices no edge
    can go), and the level cut drops only sets that miss w*.  A candidate
    R that passes ``verify_solution`` is the first feasible set in this
    search order: every set before it misses w* or breaks the degree rule.
    A prefix of a feasible set is feasible, so R is also the first set
    that a search testing every prefix would return, on this instance or
    on its normalization, whose list is a subsequence of ``order``.

    A candidate reached without taking a pick back is greedy's: an edge
    the degree rule skipped is critical in G - prefix, and criticality
    only grows along a feasible prefix, so on the normalized instance
    greedy's j-th pick is the candidate's j-th edge whenever the candidate
    is feasible and its picks lie in greedy's pool (``_solve``).

    A scan applies the degree rule first and the level cut only at the
    first index the rule leaves open.  The cut is monotone along
    ``order``: a later window holds lighter or fewer non-negative weights,
    and ``fsum`` rounds monotonically, so it fails there if it failed at
    any index before.  With one pick left the cut at i is the test that
    ``chosen`` plus order[i] reaches w*, so that pick is not tested again.
    The degree map holds only the vertices a scan reads, each an endpoint
    of an edge, so no degree in it is 0.
    """
    if inst.reaches(()):
        return (), False
    g = inst.graph
    degree: Dict[int, int] = {}
    chosen: List[int] = []
    backtracked = False

    def next_open(i: int, r: int) -> Optional[int]:
        """The first index from i on that passes the degree rule, if it
        passes the level cut with r picks left, or None."""
        for j in range(i, len(order)):
            u, v = g.endpoints(order[j])
            du = degree.get(u) or degree.setdefault(u, g.degree(u))
            if du > 2 and (degree.get(v) or degree.setdefault(v, g.degree(v))) > 2:
                return j if inst.reaches(chosen + order[j : j + r]) else None
        return None

    def extend(i: Optional[int], r: int) -> bool:
        """Try the open extensions of ``chosen``, with r picks left, from
        the open index i on; True once ``chosen`` is a candidate."""
        nonlocal backtracked
        while i is not None:
            u, v = g.endpoints(order[i])
            chosen.append(order[i])
            degree[u] -= 1
            degree[v] -= 1
            if r == 1 or inst.reaches(chosen) or extend(next_open(i + 1, r - 1), r - 1):
                return True
            chosen.pop()
            backtracked = True
            degree[u] += 1
            degree[v] += 1
            i = next_open(i + 1, r)
        return False

    if not extend(next_open(0, inst.k), inst.k):
        return None, False
    return tuple(chosen), not backtracked and len(chosen) == inst.k


class RoundCache:
    """What the reduction rounds at one graph share.

    The rounds of ``freeze_rounds`` only freeze edges, so every round sees
    the same graph G and only the pool (the marked set) changes.  The
    cache holds results that are pure functions of G and of greedy's
    picks, never of the pool, each keyed by a prefix of the picks:

    * the ``critical_set`` of G - prefix, with the DFS tree it was decided
      on.  A prefix's set is derived from the tree of the prefix before it
      when its last pick is a back edge of that tree (``DfsTree.without``),
      starting from ``tree``, G's own (``WbdInstance.tree``); a tree-edge
      pick (or no tree) costs a fresh DFS of a copy of G - prefix, whose
      tree later picks derive from;
    * for a rich step, the prefix ending in its pivot: the value-2 flow
      between the pivot's endpoints in G minus the prefix, as its paths,
      and the partner tuples found on that flow, per edge.  Which path is
      P1 depends on the pool, but needs no key of its own: an edge lies on
      one path only, so analyses of different edges on one flow share the
      tuples.  Both read G' = G less the picks before the pivot as G and
      those picks (``analysis``), so no round copies G'.

    What depends on the pool is recomputed on every call: greedy's
    ``newly``, the rich step, which flow path is P1, the analysed edges and the analysis
    built from them, with the flow's checks and the refusal of an empty
    partner set.  So a lookup returns exactly what recomputing it would,
    and a round that uses the cache finds the same reduction as one that
    does not.  A cache belongs to one graph object: ``freeze_rounds`` makes
    one per graph from the instance's DFS tree and drops it when it
    returns (a branch child has its own graph, hence its own cache), and
    using it with another graph, or with a tree of another graph, is
    refused.
    """

    def __init__(self, graph: UndirectedGraph, tree: Optional[DfsTree]):
        if tree is not None and tree.graph is not graph:
            raise InternalInconsistencyError("DFS tree of another graph")
        self.graph = graph
        self._crit: Dict[Tuple[int, ...], FrozenSet[int]] = {}
        self._trees: Dict[Tuple[int, ...], Optional[DfsTree]] = {(): tree}
        self._rich: Dict[Tuple[int, ...], Tuple[Tuple[Path, ...], Dict[int, Tuple[int, ...]]]] = {}

    def critical(self, prefix: Tuple[int, ...]) -> FrozenSet[int]:
        crit = self._crit.get(prefix)
        if crit is None:
            tree = self._trees.get(prefix[:-1]) if prefix else None
            found = tree.without(prefix[-1]) if tree is not None else None
            if found is None:
                found = critical_tree(self.graph.without_edges(prefix) if prefix else self.graph)
            crit, self._trees[prefix] = found
            self._crit[prefix] = crit
        return crit

    def analysis(self, prefix: Tuple[int, ...], newly: FrozenSet[int], k: int) -> PartnerAnalysis:
        """The partner analysis of the pivot ``prefix[-1]`` in
        G' = G - ``prefix[:-1]``, read as G and ``prefix[:-1]``, on the
        ``newly`` edges (``find_rich_flow`` and ``build_partner_analysis``
        say what they must be)."""
        g = self.graph
        before, pivot = frozenset(prefix[:-1]), prefix[-1]
        found = self._rich.get(prefix)
        if found is None:
            x, y = g.endpoints(pivot)
            flow = max_flow_bounded(g, x, y, cap=3, removed_edges=frozenset(prefix))
            found = self._rich[prefix] = (flow, {})
        flow, partners = found
        p1, p2 = find_rich_flow(g, pivot, newly, flow)
        return build_partner_analysis(g, pivot, p1, p2, newly, before, k, partners)


def greedy_deletion_set(
    inst: WbdInstance, pool: Sequence[int], cache: RoundCache
) -> Tuple[Tuple[int, ...], Tuple[FrozenSet[int], ...]]:
    """Repeatedly delete the first still-non-critical edge of the pool;
    returns the picks and ``newly``, where ``newly[i]`` holds the marked
    edges that pick i made newly critical in the residual graph.  A run of
    k picks has no entry for the k-th: callers branch on such a run (or
    answer yes) without reading it, so it is not computed.

    The pool is also the marked set (``freeze_rounds`` says which pool
    each caller marks).  Stops after k picks or when every remaining pool
    edge is critical in the residual graph.  Every prefix leaves the graph
    biconnected.

    Precondition: the instance is normalized, so no pool edge is critical
    in ``inst.graph``.  The residual critical set is then carried from step
    to step, one per pick before the k-th, read from ``cache``, the
    ``RoundCache`` of ``inst.graph``.
    """
    if cache.graph is not inst.graph:
        raise InternalInconsistencyError("round cache used with another graph")
    marked = frozenset(pool)
    picks: List[int] = []
    newly: List[FrozenSet[int]] = []
    crit: FrozenSet[int] = frozenset()
    for _ in range(inst.k):
        pick = next((e for e in pool if e not in crit and e not in picks), None)
        if pick is None:
            break
        picks.append(pick)
        if len(picks) == inst.k:
            break
        after = cache.critical(tuple(picks))
        newly.append((after - crit) & marked)
        crit = after
    return tuple(picks), tuple(newly)


def find_rich_flow(
    g: UndirectedGraph, pivot: int, newly: FrozenSet[int], flow: Tuple[Path, ...]
) -> Tuple[Path, Path]:
    """A value-2 flow between the pivot's endpoints in G' - pivot, G' = G
    less greedy's picks before the pivot, with the path carrying at least
    half the marked newly-critical edges first.

    ``newly`` is the marked edges that deleting the pivot makes newly
    critical in G', as greedy records it per pick.  ``flow`` is the paths
    of ``max_flow_bounded(g, x, y, cap=3, removed_edges=...)`` with the
    pivot and the earlier picks removed, kept by ``RoundCache``; it is
    checked on every call.  G' enters only through ``flow``: the pivot has
    the same endpoints in G."""
    x, y = g.endpoints(pivot)
    if len(flow) != 2:
        raise InternalInconsistencyError(
            f"expected a value-2 flow between {x} and {y}, got {len(flow)}"
        )
    if not newly:
        raise InvalidInputError("pivot deletion makes no marked edge critical")
    a, b = flow
    on_a = len(newly & set(a.edges))
    on_b = len(newly & set(b.edges))
    if on_a + on_b != len(newly):
        raise InternalInconsistencyError(
            "a newly critical edge avoids both paths of a value-2 flow"
        )
    return (a, b) if on_a >= on_b else (b, a)


def solution_from_distinct_partners(pa: PartnerAnalysis, k: int) -> Tuple[int, ...]:
    """Every-third selection from 3k+1 edges with pairwise distinct partner
    sets; the result is a size-k deletion set of G', verified on G less
    ``pa.removed`` before returning.

    Partner sets of the analyzed edges are equal exactly on contiguous
    blocks, so block-leading indices enumerate the distinct sets.
    """
    leaders = [1] + [i + 1 for i in sorted(pa.switches)]
    if len(leaders) < 3 * k + 1:
        raise InvalidInputError(
            f"need more than {3 * k} distinct partner sets, have {len(leaders)}"
        )
    chosen = [leaders[j] for j in range(0, 3 * k - 2, 3)]
    edges = tuple(pa.edge(i) for i in chosen)
    if len(edges) != k:
        raise InternalInconsistencyError("distinct-partner selection missized")
    if not is_biconnected_without(pa.graph, pa.removed | frozenset(edges)):
        raise InternalInconsistencyError(
            "distinct-partner deletion set does not preserve biconnectivity"
        )
    return edges


def irrelevant_edge(
    pa: PartnerAnalysis, stretch: Tuple[int, int], weights: Dict[int, float]
) -> int:
    """Minimum-weight edge strictly inside a clean stretch (ties by id)."""
    a, b = stretch
    if b - a < 2 * pa.k + 3:
        raise InvalidInputError(
            f"stretch [{a},{b}] shorter than {2 * pa.k + 3} steps"
        )
    interior = sorted(pa.edge_ids[a : b - 1])  # e_{a+1} .. e_{b-1}, by id
    return min(interior, key=lambda e: weights.get(e, 0.0))


@dataclass(frozen=True)
class Reduction:
    """What one reduction step found; ``kind`` is one of

    * ``"full"``: greedy made k picks (``picks``), a feasible deletion set;
    * ``"distinct"``: the analysis has more than 3k distinct partner sets;
    * ``"freeze"``: ``edge`` lies inside a clean stretch and is irrelevant;
    * ``"stuck"``: no greedy step made enough marked edges critical (only
      when the pool is below mu(k) or mu(k) < k, so only under a lowered
      threshold), or the analysis has no clean stretch.

    ``analysis`` is the partner analysis, when one was built.
    """

    kind: str
    picks: Tuple[int, ...] = ()
    analysis: Optional[PartnerAnalysis] = None
    edge: Optional[int] = None


def reduction_step(inst: WbdInstance, m: int, pool: Sequence[int], cache: RoundCache) -> Reduction:
    """One round of the reduction lemma at threshold ``m``, mu(k) for the
    instance's k.

    Greedy runs over ``pool``, which is also the marked set, and returns
    its picks and ``newly``; on a stalled run the first rich step i, one
    whose ``newly[i]`` holds at least ceil((m - k) / k) (and at least one)
    marked edges, gets its rich flow, its partner analysis and a clean
    stretch, all in G' = G less picks[:i], read as G and those picks.  The
    instance must be normalized.

    The lemma's premise ``len(pool) >= m >= k`` guarantees a rich step:
    greedy stalls after 1 <= j < k picks (no pool edge is critical in G)
    with every unpicked marked edge critical; criticality only grows as
    edges go, so the counts ``len(newly[i])`` sum to |pool| - j, and one
    is at least (|pool| - j) / j > (m - k) / k.  So a stalled run with
    no rich step raises under the premise and is ``"stuck"`` otherwise.
    Under the real threshold the pools of ``freeze_rounds`` meet it.

    Greedy's critical sets and the analysis come from ``cache``, the
    ``RoundCache`` of ``inst.graph``.
    """
    picks, newly = greedy_deletion_set(inst, pool, cache)
    if len(picks) == inst.k:
        return Reduction("full", picks=picks)
    threshold = max(1, math.ceil((m - inst.k) / inst.k))
    rich = next((i for i, s in enumerate(newly) if len(s) >= threshold), None)
    if rich is None:
        if len(pool) >= m >= inst.k:
            raise InternalInconsistencyError(
                "greedy stalled without any step making enough marked edges critical"
            )
        return Reduction("stuck")
    pa = cache.analysis(picks[: rich + 1], newly[rich], inst.k)
    if pa.distinct_partner_sets > 3 * inst.k:
        return Reduction("distinct", analysis=pa)
    stretch = find_clean_stretch(pa)
    if stretch is None:
        return Reduction("stuck", analysis=pa)
    return Reduction("freeze", analysis=pa, edge=irrelevant_edge(pa, stretch, inst.weights))


def freeze_rounds(
    inst: WbdInstance, order: List[int], m: int, mark_all: bool
) -> Tuple[WbdInstance, List[Reduction]]:
    """The freeze loop shared by the solver and the kernel's phase one, at
    threshold ``m``, mu(k) for the instance's k, which no round changes.

    While the pool exceeds m: one ``reduction_step``, freezing the edge
    of a ``"freeze"`` step; any other kind ends the loop.  Returns the
    instance with its frozen edges and the steps taken, in order.

    A freeze never lowers the sum of the k heaviest potential weights, so
    the top-k test that ``_solve`` makes before the loop holds in every
    round.  The frozen edge is the lightest of the at least 2k + 2
    interior edges of a clean stretch, all of them marked, hence in the
    list.  At most k - 1 of the others lie among the first k of the list
    with it, so at least k + 2 lie past them, and each weighs at least as
    much: dropping the frozen edge moves one of at least its weight into
    the first k.

    The paper's lemma marks the m heaviest potential edges, heaviest
    first: that is the solver's pool, and its branching rests on it.  The
    kernel (``mark_all``) works on unit weights, where the heavy order is
    id order, and marks the whole pool; it never branches, and marking
    only m edges would leave some of its yes-instances undecided.

    The instance must be normalized; ``order`` is its ``heavy_order``.
    Freezing only takes an edge out of the pool, so each frozen edge is
    dropped from ``order`` itself, which on return is the heavy order of
    the returned instance, the list a branch hands on to its children.
    The rounds share one ``RoundCache``.
    """
    cache = RoundCache(inst.graph, inst.tree)
    steps: List[Reduction] = []
    while len(order) > m:
        pool = order if mark_all else order[:m]
        step = reduction_step(inst, m, pool, cache)
        steps.append(step)
        if step.kind != "freeze":
            break
        # The graph is unchanged, so its critical edges are already frozen.
        inst = inst.with_frozen(frozenset((step.edge,)))
        order.remove(step.edge)
    return inst, steps


def solve(
    inst: WbdInstance,
    mu_of: Callable[[int], int] = mu,
    stats: Optional[SolveStats] = None,
) -> Optional[Solution]:
    """Decide the instance and return a witness solution when one exists.

    The potential edges are sorted here, once (``heavy_order``); the root
    is a search node like any other (``_solve``), and each branch child
    reads its parent's list."""
    validate_instance(inst)
    if stats is None:
        stats = SolveStats()
    edges = _solve(inst, heavy_order(inst), mu_of, stats, depth=0)
    if edges is None:
        return None
    return Solution(tuple(sorted(edges)), inst.weight_of(edges))


def _solve(
    inst: WbdInstance,
    order: List[int],
    mu_of: Callable[[int], int],
    stats: SolveStats,
    depth: int,
) -> Optional[Tuple[int, ...]]:
    """Decide one search node; ``order`` is its ``heavy_order``, and mu(k)
    is read once, as m.

    * Heavy order first: ``_enumerate_best`` finds the node's first
      candidate, and no candidate is a no.  A candidate is verified, and a
      feasible one is the yes, where it is the witness the steps below
      would give: the empty set once w* is reached, the first feasible
      set when at most m potential edges remain, and greedy's chain, k
      edges picked without taking one back.
    * Otherwise the node is normalized (its one DFS) and its new critical
      edges leave the list.  If more than m are left and even the k
      heaviest miss w*, the node is a no.  Else ``freeze_rounds`` runs on
      the m heaviest edges and drops each edge it freezes from the list;
      no freeze lowers that top-k sum, so the test is made once.  The
      loop's last step gives greedy's picks as a yes when they reach w*
      (every prefix of them keeps the graph biconnected), or makes the
      node branch (``_branch``): over the m heaviest edges after a
      ``"full"`` or ``"distinct"`` step, whose lemma says a solution meets
      them, and over the whole list when the loop left at most m edges
      (``stats.enumerations``) or ended ``"stuck"`` (``stats.fallbacks``),
      since a solution is a subset of the list.

    The branch over the whole list returns the first feasible set, except
    where a child whose list exceeds its own threshold ends on greedy's k
    picks and a shorter prefix of them already reaches w*.

    A feasible chain C is what the steps after the DFS return, so its
    position in ``order`` needs no test.  With no pick taken back, every
    edge of ``order`` before C's last that is not in C was skipped by the
    degree rule, so it was critical after a prefix of C, and stays
    critical along C.  So on the normalized node greedy's picks are a
    prefix of C, all of C once C lies in greedy's pool, and C's first edge
    c is the first of the list.  An edge the loop freezes is critical
    after a prefix of greedy's picks, hence after a prefix of C, so it is
    no edge of C.  C reaches w*, so the top-k test passes, and the loop
    ends either ``"full"`` with C as picks, a yes, or in a branch whose
    first child deletes c and freezes nothing more.  At k = 1 c
    reaches w*, and the branch returns it as a leaf.  Otherwise the
    child's bound passes, and its list, a sublist of ``order`` after c
    that keeps the rest of C, gives the same scan: the same edges fail the
    degree rule, and the level cut passes wherever C still fits.  So C
    less c is the child's chain, and the child accepts it.

    The root (depth 0) also checks the input: a no decided without a DFS
    costs it one biconnectivity pass, which refuses a graph that is not
    biconnected, as ``normalize`` does, and a witness found after the DFS
    is verified.  Children of a branch need neither.
    """
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)
    m = mu_of(inst.k)
    first, chain = _enumerate_best(inst, order)
    if first is None:
        stats.decided_before_dfs += 1
        if depth == 0 and not is_biconnected(inst.graph):
            raise InvalidInputError("instance graph is not biconnected")
        return None
    if (not first or chain or len(order) <= m) and verify_solution(inst, first):
        stats.decided_before_dfs += 1
        return first
    inst = normalize(inst)
    order = [e for e in order if e not in inst.frozen]
    if len(order) > m and not inst.reaches(order[: inst.k]):
        return None
    inst, steps = freeze_rounds(inst, order, m, mark_all=False)
    frozen = [s.edge for s in steps if s.kind == "freeze"]
    stats.irrelevant_edges += frozen
    stats.max_irrelevant_per_node = max(stats.max_irrelevant_per_node, len(frozen))
    analyses = [s.analysis for s in steps if s.analysis is not None]
    stats.flow_calls += len(analyses)
    stats.analyses += analyses
    kind = steps[-1].kind if steps else None
    if kind == "full" and inst.reaches(steps[-1].picks):
        edges: Optional[Tuple[int, ...]] = steps[-1].picks
    elif kind in ("full", "distinct"):
        edges = _branch(inst, order, m, mu_of, stats, depth)
    else:
        if kind == "stuck":
            stats.fallbacks += 1
        else:
            stats.enumerations += 1
        edges = _branch(inst, order, len(order), mu_of, stats, depth)
    if depth == 0 and edges is not None and not verify_solution(inst, edges):
        raise InternalInconsistencyError("solver produced an invalid solution")
    return edges


def _branch(
    inst: WbdInstance,
    order: List[int],
    width: int,
    mu_of: Callable[[int], int],
    stats: SolveStats,
    depth: int,
) -> Optional[Tuple[int, ...]]:
    """Branch over the first ``width`` edges of ``order``, the instance's
    ``heavy_order``; a solution, if any exists, meets them (``_solve``).
    The instance is normalized, so deleting any one of them keeps the
    graph biconnected.

    Child i deletes e_i = order[i] and freezes the siblings tried before
    it, order[:i] (bounded-search-tree pruning; Cygan et al.,
    *Parameterized Algorithms*, 2015, ch. 3).  This is exact: let S be a
    solution and e_i its first edge in loop order.  S avoids order[:i], so
    S - e_i is a solution of child i, and every child answers exactly, so
    child i answers yes unless an earlier one did.

    Child i's potential edges are order[i + 1:], which is its heavy order:
    the sort is stable, and dropping items keeps the order of the rest.
    A solution through child i weighs at most the deleted weights plus
    order[i : i + k], the k heaviest edges left to it, e_i first, so a
    child that misses that bound is a no.  The window only slides to
    lighter edges (``fsum`` rounds monotonically), so the first child that
    fails the bound is the last one tried.  That child, and a leaf child
    (e_i alone reaches w*), is decided without copying the graph; any
    other child is a search node of its own (``_solve``).

    Over a whole list, each child's list within its own threshold, this
    is the search of ``_enumerate_best`` with every prefix tested, one
    level per node: the child bound is its level cut, and normalizing a
    child is the prefix test, which also freezes every edge the degree
    rule would skip.  It is the paper's mu(k)^k base case: at k = 3 and a
    list of mu(3) = 957 there are about 457k depth-2 prefixes.
    """
    candidates = order[:width]
    stats.max_branch_factor = max(stats.max_branch_factor, len(candidates))
    for i, e in enumerate(candidates):
        reached = inst.reaches((e,))
        if reached or not inst.reaches(order[i : i + inst.k]):
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, depth + 1)
            return (e,) if reached else None
        child = inst.with_frozen(frozenset(order[:i])).child_after_deleting(e)
        sub = _solve(child, order[i + 1 :], mu_of, stats, depth + 1)
        if sub is not None:
            return sub + (e,)
    return None
