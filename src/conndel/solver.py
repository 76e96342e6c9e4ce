"""Exact solver for weighted biconnectivity deletion.

Given a biconnected graph, a budget k, a weight target, and a set of
frozen (undeletable) edges, decide whether at most k deletable edges can
be removed with total weight meeting the target while the graph stays
biconnected.

``solve`` sorts the potential edges once, heaviest first, and each
search node is one call of ``_solve``, which says what a node does: its
heavy order first, then one DFS, the freeze loop (``freeze_rounds``,
which the kernel's first phase runs on unit weights), and greedy's yes,
a branch or the enumerator.

One threshold drives the loop, mu(k) = 20k^3 + 46k^2 + k, passed to
``solve`` and ``kernelize`` as the function ``mu_of`` and read once per
node.  A lowered one steers small instances into the loop;
``reduction_step`` says which guarantee then lapses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .criticality import (
    DfsTree,
    PartnerAnalysis,
    build_partner_analysis,
    critical_set,
    critical_tree,
    find_clean_stretch,
)
from .errors import InternalInconsistencyError, InvalidInputError
from .graphs import (
    FlowDecomposition,
    Path,
    UndirectedGraph,
    is_biconnected,
    is_biconnected_without,
    max_flow_bounded,
)


def mu(k: int) -> int:
    """Potential-solution-edge threshold below which enumeration takes over."""
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
        return WbdInstance(
            self.graph, self.k, self.w_star, self.weights, self.frozen | extra, self.deleted, self.tree
        )

    def child_after_deleting(self, eid: int) -> "WbdInstance":
        """The instance after deleting the potential edge ``eid``."""
        deleted = self.deleted + (self.weights.get(eid, 0.0),)
        graph = self.graph.without_edge(eid)
        return WbdInstance(graph, self.k - 1, self.w_star, self.weights, self.frozen, deleted)


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
    prefix_passes: int = 0
    prefix_critical_sets: int = 0
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
    frozen = inst.frozen | crit
    return WbdInstance(inst.graph, inst.k, inst.w_star, inst.weights, frozen, inst.deleted, tree)


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


def _enumerate_best(
    inst: WbdInstance, order: List[int], stats: SolveStats, tested: bool = True
) -> Tuple[Optional[Solution], Optional[int]]:
    """The first feasible deletion set whose weight reaches w*, or None,
    with the position in ``order`` of its last pick when the search took
    no pick back (each pick the first index the level cut and the degree
    rule left open after the one before it), else None.

    This is a decision, so the first witness is returned, not the heaviest
    one.  Depth-first over ``order``, the instance's ``heavy_order``
    (heaviest first, ties by id), so the witness is deterministic.  Two
    cuts, both exact for non-negative weights and an ``fsum`` total:

    * a level stops once the chosen weights plus the next r pool weights
      (r the budget left) miss w*, since every later candidate is lighter;
    * a prefix whose deletion breaks biconnectivity is dropped, since
      deleting more edges never restores it.

    Tested (the default), the instance must be normalized.  Every prefix
    S kept so far leaves G - S biconnected, so S + e is feasible iff e is
    not critical in G - S.  Two rules decide that without a pass:

    * depth one: e is a potential edge, hence not critical in G;
    * degree: an endpoint of e with degree 2 in G - S makes e critical in
      G - S (n >= 3), so the prefix is dropped.

    A prefix S + e that neither rule decides is tested only when it is
    used: when it reaches w*, or when one of its own extensions survives
    the level cut and the degree rule.  Otherwise nothing below it could
    be tried, and it is dropped untested.  A test is one biconnectivity
    pass (``stats.prefix_passes``) until one of S's extensions fails; then
    one ``critical_set(G - S)`` (``stats.prefix_critical_sets``) decides
    the rest of S's extensions by membership.  The pruning and the
    witness are those of testing every prefix.

    This keeps the paper's mu(k)^k base case: at k = 3 and a pool of
    mu(3) = 957 there are about 457k depth-2 prefixes, still far too many.

    With ``tested=False`` the instance need not be normalized, ``order``
    is its ``heavy_order``, and no prefix is tested: the search returns
    the first *candidate*, the first set in the same search order that
    the level cut and the degree rule let through and that reaches w*.
    A search node runs this before its DFS (``_solve``), and both uses
    of it are exact:

    * no candidate is a no: a solution is a set of potential edges, it
      leaves every vertex with degree 2 or more (on n < 3 vertices no
      edge can go), and the level cut drops only sets that miss w*;
    * a candidate R that passes ``verify_solution`` is this search's
      witness on the normalized instance.  Normalizing only takes critical
      edges out of ``order``, so the tested search runs over a subsequence
      of it in the same order.  R is feasible, so it holds no critical
      edge, and every set before R in the search order misses w* or
      breaks the degree rule, so none of them is feasible.  R is thus
      also the first feasible set over the normalized pool.

    A candidate reached without taking a pick back is greedy's chain: an
    edge the degree rule skipped is critical in G - prefix (n >= 3), and
    criticality only grows along a feasible prefix, so on the normalized
    instance greedy's j-th pick is the candidate's j-th edge whenever the
    candidate is feasible and its picks lie in greedy's pool (``_solve``).
    """
    if inst.reaches(()):
        return Solution((), 0.0), None
    g = inst.graph
    degree = {v: g.degree(v) for v in g.vertices}
    chosen: List[int] = []
    backtracked = False

    def next_open(i: int, r: int) -> Optional[int]:
        """The first index from i on that passes the level cut with r
        picks left and the degree rule, or None."""
        while i < len(order):
            if not inst.reaches(chosen + order[i : i + r]):
                return None
            u, v = g.endpoints(order[i])
            if degree[u] > 2 and degree[v] > 2:
                return i
            i += 1
        return None

    def extend(i: Optional[int], removed: FrozenSet[int]) -> Optional[int]:
        """Try the open extensions of the feasible prefix ``chosen``, from
        the open index i on; the index of the last pick of the set found."""
        nonlocal backtracked
        r = inst.k - len(chosen)
        crit: Optional[FrozenSet[int]] = None
        while i is not None:
            e = order[i]
            u, v = g.endpoints(e)
            chosen.append(e)
            degree[u] -= 1
            degree[v] -= 1
            done = inst.reaches(chosen)
            j = None if done or r == 1 else next_open(i + 1, r - 1)
            if done or j is not None:
                if not tested or not removed:
                    ok = True
                elif crit is not None:
                    ok = e not in crit
                else:
                    stats.prefix_passes += 1
                    ok = is_biconnected_without(g, removed | {e})
                    if not ok:
                        stats.prefix_critical_sets += 1
                        crit = critical_set(g.without_edges(removed))
                if ok:
                    end = i if done else extend(j, removed | {e})
                    if end is not None:
                        return end
            chosen.pop()
            backtracked = True
            degree[u] += 1
            degree[v] += 1
            i = next_open(i + 1, r)
        return None

    end = extend(next_open(0, inst.k), frozenset())
    if end is None:
        return None, None
    return Solution(tuple(chosen), inst.weight_of(chosen)), None if backtracked else end


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
      between the pivot's endpoints in G minus the prefix, run on G with
      the prefix's edges skipped, and the partner tuples found on that
      flow, per edge.  Which path is P1 depends on the pool, but needs no
      key of its own: an edge lies on one path only, so analyses of
      different edges on one flow share the tuples.

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
        self._rich: Dict[
            Tuple[int, ...], Tuple[FlowDecomposition, Dict[int, Tuple[int, ...]]]
        ] = {}

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
        G' = G - ``prefix[:-1]``, on the ``newly`` edges (``find_rich_flow``
        and ``build_partner_analysis`` say what they must be)."""
        g = self.graph
        before, pivot = prefix[:-1], prefix[-1]
        found = self._rich.get(prefix)
        if found is None:
            x, y = g.endpoints(pivot)
            flow = max_flow_bounded(g, x, y, cap=3, removed_edges=frozenset(prefix))
            found = self._rich[prefix] = (flow, {})
        flow, partners = found
        gprime = g.without_edges(before) if before else g
        p1, p2 = find_rich_flow(gprime, pivot, newly, flow)
        deleted = [g.endpoints(e) for e in before]
        return build_partner_analysis(gprime, pivot, p1, p2, newly, deleted, k, partners)


@dataclass(frozen=True)
class GreedyRun:
    """Greedy deletion picks; ``newly[i]`` holds the marked edges that pick
    i made newly critical in the residual graph.

    A run of k picks has no entry for the k-th: callers branch on such a
    run (or answer yes) without reading it, so it is not computed.
    """

    picks: Tuple[int, ...]
    newly: Tuple[FrozenSet[int], ...]

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.newly)


def greedy_deletion_set(inst: WbdInstance, pool: Sequence[int], cache: RoundCache) -> GreedyRun:
    """Repeatedly delete the first still-non-critical edge of the pool.

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
    return GreedyRun(tuple(picks), tuple(newly))


def find_rich_flow(
    gprime: UndirectedGraph, pivot: int, newly: FrozenSet[int], flow: FlowDecomposition
) -> Tuple[Path, Path]:
    """A value-2 flow between the pivot's endpoints in G' - pivot, with the
    path carrying at least half the marked newly-critical edges first.

    ``newly`` is ``newly_critical(gprime, pivot) & marked``, as computed
    by the caller; greedy records it per pick (``GreedyRun.newly``).
    ``flow`` is ``max_flow_bounded(G' - pivot, x, y, cap=3)``, kept by
    ``RoundCache``; it is checked on every call."""
    x, y = gprime.endpoints(pivot)
    if flow.value != 2:
        raise InternalInconsistencyError(
            f"expected a value-2 flow between {x} and {y}, got {flow.value}"
        )
    if not newly:
        raise InvalidInputError("pivot deletion makes no marked edge critical")
    a, b = flow.paths
    on_a = len(newly & set(a.edges))
    on_b = len(newly & set(b.edges))
    if on_a + on_b != len(newly):
        raise InternalInconsistencyError(
            "a newly critical edge avoids both paths of a value-2 flow"
        )
    return (a, b) if on_a >= on_b else (b, a)


def solution_from_distinct_partners(pa: PartnerAnalysis, k: int) -> Tuple[int, ...]:
    """Every-third selection from 3k+1 edges with pairwise distinct partner
    sets; the result is a size-k deletion set, verified before returning.

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
    if not is_biconnected_without(pa.graph, frozenset(edges)):
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
      threshold), or the analysis has no clean stretch;
    * ``"no"``: even the k heaviest potential edges miss w* (made by
      ``freeze_rounds`` without a step).

    ``analysis`` is the partner analysis, when one was built.
    """

    kind: str
    picks: Tuple[int, ...] = ()
    analysis: Optional[PartnerAnalysis] = None
    edge: Optional[int] = None


def reduction_step(inst: WbdInstance, m: int, pool: Sequence[int], cache: RoundCache) -> Reduction:
    """One round of the reduction lemma at threshold ``m``, mu(k) for the
    instance's k.

    Greedy runs over ``pool``, which is also the marked set; on a stalled
    run the first rich step, one making at least ceil((m - k) / k)
    (and at least one) marked edges critical, gets its rich flow, its
    partner analysis and a clean stretch.  The instance must be
    normalized.

    The lemma's premise ``len(pool) >= m >= k`` guarantees a rich step:
    greedy stalls after 1 <= j < k picks (no pool edge is critical in G)
    with every unpicked marked edge critical; criticality only grows as
    edges go, so the counts ``GreedyRun.counts`` sum to |pool| - j, and one
    is at least (|pool| - j) / j > (m - k) / k.  So a stalled run with
    no rich step raises under the premise and is ``"stuck"`` otherwise.
    Under the real threshold the pools of ``freeze_rounds`` meet it.

    Greedy's critical sets and the analysis come from ``cache``, the
    ``RoundCache`` of ``inst.graph``.
    """
    run = greedy_deletion_set(inst, pool, cache)
    if len(run.picks) == inst.k:
        return Reduction("full", picks=run.picks)
    threshold = max(1, math.ceil((m - inst.k) / inst.k))
    rich = next((i for i, c in enumerate(run.counts) if c >= threshold), None)
    if rich is None:
        if len(pool) >= m >= inst.k:
            raise InternalInconsistencyError(
                "greedy stalled without any step making enough marked edges critical"
            )
        return Reduction("stuck")
    pa = cache.analysis(run.picks[: rich + 1], run.newly[rich], inst.k)
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

    While the pool exceeds m: a ``"no"`` step if the k heaviest
    potential edges miss w*, else one ``reduction_step``, freezing the
    edge of a ``"freeze"`` step; any other kind ends the loop.  Returns
    the instance with its frozen edges and the steps taken, in order.

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
        # Even the k heaviest potential edges miss w*: no.  (The
        # enumerator's level cut makes the same test first.)
        if not inst.reaches(order[: inst.k]):
            steps.append(Reduction("no"))
            break
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

    * Heavy order first: ``_enumerate_best`` searches ``order`` without
      tests.  No candidate is a no.  A candidate is the node's witness
      when the node would return it anyway: the empty set once w* is
      reached, the enumerator's witness when at most m potential edges
      remain, and greedy's chain, k edges picked without taking one back
      whose last sits among the first m of ``order`` (anywhere at k = 1).
      There it is verified, and a feasible one is a yes.
    * Otherwise the node is normalized (its one DFS) and its new critical
      edges leave the list.  ``freeze_rounds`` runs on the m heaviest
      edges and drops each edge it freezes from the list.  Its last step
      answers no, gives greedy's picks as a yes when they reach w* (every
      prefix of them keeps the graph biconnected), or makes the node
      branch (``_branch``); if it does none of these, the enumerator
      decides the pool it leaves.

    A feasible chain is what the steps after the DFS return.  Greedy's
    j-th pick on the normalized node is the chain's j-th edge
    (``_enumerate_best``), and a pick's position in the normalized list is
    at most its position in ``order``, so the chain lies in greedy's pool,
    the list's first m; at k = 1 its one edge is the first edge of that
    list.  When the list exceeds m, the freeze loop's top-k test passes,
    since the chain lies in the list and reaches w*, and its first step is
    ``"full"`` with the chain as picks, a yes; otherwise the enumerator
    decides and returns the candidate, as above.

    The root (depth 0) also checks the input: a no decided without a DFS
    costs it one biconnectivity pass, which refuses a graph that is not
    biconnected, as ``normalize`` does, and a witness found after the DFS
    is verified.  Children of a branch need neither.
    """
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)
    m = mu_of(inst.k)
    first, end = _enumerate_best(inst, order, stats, tested=False)
    if first is None:
        stats.decided_before_dfs += 1
        if depth == 0 and not is_biconnected(inst.graph):
            raise InvalidInputError("instance graph is not biconnected")
        return None
    chain = end is not None and len(first.edges) == inst.k and (inst.k == 1 or end < m)
    if (not first.edges or chain or len(order) <= m) and verify_solution(inst, first.edges):
        stats.decided_before_dfs += 1
        return first.edges
    inst = normalize(inst)
    order = [e for e in order if e not in inst.frozen]
    inst, steps = freeze_rounds(inst, order, m, mark_all=False)
    frozen = [s.edge for s in steps if s.kind == "freeze"]
    stats.irrelevant_edges += frozen
    stats.max_irrelevant_per_node = max(stats.max_irrelevant_per_node, len(frozen))
    analyses = [s.analysis for s in steps if s.analysis is not None]
    stats.flow_calls += len(analyses)
    stats.analyses += analyses
    kind = steps[-1].kind if steps else None
    if kind == "no":
        return None
    if kind == "full" and inst.reaches(steps[-1].picks):
        edges: Optional[Tuple[int, ...]] = steps[-1].picks
    elif kind in ("full", "distinct"):
        edges = _branch(inst, order, m, mu_of, stats, depth)
    else:
        if kind == "stuck":
            stats.fallbacks += 1
        else:
            stats.enumerations += 1
        sol, _ = _enumerate_best(inst, order, stats)
        edges = sol.edges if sol else None
    if depth == 0 and edges is not None and not verify_solution(inst, edges):
        raise InternalInconsistencyError("solver produced an invalid solution")
    return edges


def _branch(
    inst: WbdInstance,
    order: List[int],
    m: int,
    mu_of: Callable[[int], int],
    stats: SolveStats,
    depth: int,
) -> Optional[Tuple[int, ...]]:
    """Branch over the heavy edges, the first m of ``order``, the
    instance's ``heavy_order``; m is mu(k) and a solution, if any exists,
    intersects them.  The instance is normalized, so deleting any one of
    them keeps the graph biconnected.

    A child's potential edges are the parent's less e, so its heavy order
    is ``order`` less e: the sort is stable, and dropping one item keeps
    the order of the rest.  Normalizing the child only freezes more, so
    when the deleted weights, e's and the first k - 1 of that list miss
    w*, the child is a no.  That bound is the same for
    the k heaviest candidates and never rises after them along ``order``
    (``fsum`` rounds monotonically), so the first child that fails it is
    the last one tried.  That child, and a leaf child (k = 0, or w*
    reached), is decided without copying the graph; any other child is a
    search node of its own (``_solve``), normalized only when its heavy
    order does not decide it.
    """
    candidates = order[:m]
    stats.max_branch_factor = max(stats.max_branch_factor, len(candidates))
    for e in candidates:
        child = [f for f in order if f != e]
        reached = inst.reaches((e,))
        if reached or not inst.reaches([e] + child[: inst.k - 1]):
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, depth + 1)
            return (e,) if reached else None
        sub = _solve(inst.child_after_deleting(e), child, mu_of, stats, depth + 1)
        if sub is not None:
            return sub + (e,)
    return None
