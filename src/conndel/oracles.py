"""Exhaustive brute-force solvers used as ground truth at desk scale.

Nothing here is clever on purpose: every oracle enumerates candidates in a
canonical order and returns the first (or best) witness, refusing inputs
that exceed its budget instead of running unbounded.  The digraph oracles
accept a candidate by the witness check that ``conndel verify`` runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from .errors import BudgetExceededError, ContractionError, InvalidInputError
from .graphs import (
    Digraph,
    Edge,
    UndirectedGraph,
    contract_sequence,
    is_biconnected,
    is_biconnected_without,
    is_strongly_connected,
)
from .solver import Solution, WbdInstance, validate_instance


@dataclass(frozen=True)
class OracleBudget:
    """Hard limits the oracles refuse to exceed.  A negative limit, and in
    ``admit_graph`` a negative k, is invalid input rather than over budget."""

    max_vertices: int = 10
    max_edges: int = 20
    max_k: int = 3
    max_candidates: int = 10_000_000

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise InvalidInputError(f"{name} must be non-negative, got {value}")

    def admit_graph(self, n: int, m: int, k: int) -> None:
        if k < 0:
            raise InvalidInputError(f"k must be non-negative, got {k}")
        if n > self.max_vertices:
            raise BudgetExceededError(f"{n} vertices exceeds budget {self.max_vertices}")
        if m > self.max_edges:
            raise BudgetExceededError(f"{m} edges exceeds budget {self.max_edges}")
        if k > self.max_k:
            raise BudgetExceededError(f"k={k} exceeds budget {self.max_k}")

    def admit_candidates(self, count: int) -> None:
        if count > self.max_candidates:
            raise BudgetExceededError(
                f"{count} candidates exceed budget {self.max_candidates}"
            )


DEFAULT_BUDGET = OracleBudget()


def oracle_wbd(
    inst: WbdInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[Solution]:
    """Max-weight feasible deletion set by checking all subsets of size <= k.

    A graph that is not biconnected is refused as ``solve`` refuses it,
    by ``is_biconnected``, which shares no code with the solver's
    critical sets."""
    g = inst.graph
    if not is_biconnected(g):
        raise InvalidInputError("instance graph is not biconnected")
    validate_instance(inst)
    budget.admit_graph(g.n, g.m, inst.k)
    pool = inst.potential_edges()
    total = 0
    for size in range(0, min(inst.k, len(pool)) + 1):
        total += math.comb(len(pool), size)
    budget.admit_candidates(total)
    best: Optional[Solution] = None
    for size in range(0, min(inst.k, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            w = inst.weight_of(combo)
            if w < inst.w_star:
                continue
            if best is not None and w <= best.weight:
                continue
            if is_biconnected_without(g, frozenset(combo)):
                best = Solution(tuple(combo), w)
    return best


def is_pcpsc_witness(d: Digraph, k: int, arcs: Sequence[Edge]) -> bool:
    """Are these k arcs of d, each present when its turn comes, a
    contraction sequence that leaves d strongly connected?"""
    if len(arcs) != k:
        return False
    try:
        return is_strongly_connected(contract_sequence(d, arcs))
    except ContractionError:
        return False


def is_vdpsc_witness(d: Digraph, k: int, vertices: Sequence[int]) -> bool:
    """Are these k distinct vertices, a proper subset of d's, a deletion
    that leaves d strongly connected?"""
    vs = set(vertices)
    return (
        len(vs) == len(vertices) == k
        and vs < d.vertices
        and is_strongly_connected(d.without_vertices(vs))
    )


def oracle_pcpsc(
    d: Digraph, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[Tuple[Edge, ...]]:
    """The first length-k arc sequence, by arc set and then by ordering,
    that ``is_pcpsc_witness`` accepts."""
    budget.admit_graph(d.n, d.m, k)
    arcs = d.arc_pairs()
    budget.admit_candidates(math.perm(len(arcs), k))
    for combo in itertools.combinations(arcs, k):
        for order in itertools.permutations(combo):
            if is_pcpsc_witness(d, k, order):
                return order
    return None


def oracle_vdpsc(
    d: Digraph, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[FrozenSet[int]]:
    """The first set of exactly k vertices that ``is_vdpsc_witness``
    accepts; none when k >= n, before the candidate budget is read."""
    budget.admit_graph(d.n, d.m, k)
    verts = sorted(d.vertices)
    if k >= len(verts):
        return None
    budget.admit_candidates(math.comb(len(verts), k))
    for combo in itertools.combinations(verts, k):
        if is_vdpsc_witness(d, k, combo):
            return frozenset(combo)
    return None


def oracle_is(
    g: UndirectedGraph, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[FrozenSet[int]]:
    """An independent set of exactly k vertices, by exhaustive search."""
    budget.admit_graph(g.n, g.m, k)
    verts = sorted(g.vertices)
    if k > len(verts):
        return None
    budget.admit_candidates(math.comb(len(verts), k))
    for combo in itertools.combinations(verts, k):
        if all(g.edge_between(u, v) is None for u, v in itertools.combinations(combo, 2)):
            return frozenset(combo)
    return None
