"""Workload instances, their reference answers, and the answer checks.

Generation is a pure function of the seed.  Every instance is written in
the package's text format and parsed back, so the program only ever sees
the round-tripped ``WbdInstance`` or (graph, k, frozen) triple.  Reference
answers come from the brute-force oracle and are computed outside every
timed region.  Witnesses, the oracle's own included, and kernel outputs
are judged by a biconnectivity test written here from the definition, so
a wrong result from the package's biconnectivity code cannot pass.

Random graphs get their potential-edge pool fixed exactly: after a random
biconnected graph is drawn, randomly chosen non-critical edges are frozen
until the pool has the slot's size.  That keeps the enumeration and
branching work of a slot nearly constant across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from conndel import formats
from conndel.criticality import critical_set
from conndel.errors import BudgetExceededError
from conndel.families import random_biconnected_graph, shared_partner_instance
from conndel.graphs import UndirectedGraph
from conndel.kernel import KernelResult, unit_instance
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import Solution, WbdInstance, mu, normalize

# Wide enough for every random instance of the three workloads; the
# subdivided hub (699 vertices) stays out on purpose, see README.md.
ORACLE_BUDGET = OracleBudget(
    max_vertices=120, max_edges=1000, max_k=3, max_candidates=2_000_000
)


@dataclass(frozen=True)
class Slot:
    """One instance shape: a random graph, or a named constructed family.

    A random graph has ``base_n`` vertices plus ``hot`` degree-3 vertices
    that carry the heaviest weights (two heavy edges at one of them cannot
    both go), ``m`` edges in all, and exactly ``pool`` potential edges.
    A "hot" graph is a unit-weight random graph whose pool is exactly the
    edges of its ``hot`` vertices, with k = hot + 1: any k of them take two
    edges from one degree-3 vertex, so it is a no-instance by construction.
    A kernel slot with role "no" is a no-instance by construction; role
    "kernel" leaves the answer to the oracle.
    """

    kind: str  # "solve" or "kernel"
    k: int
    role: str  # "yes", "no" or "kernel"
    base_n: int = 0
    hot: int = 0
    pool: int = 0
    m: int = 0
    family: str = "random"  # "random", "hot", "hub" or "single"
    provider: str = "trivial"
    max_terminals: int = 5
    hub_q: int = 0

    @property
    def label(self) -> str:
        if self.family == "hub":
            return f"{self.kind} hub q={self.hub_q} k={self.k} {self.provider}"
        return f"{self.kind} {self.family} k={self.k} pool={self.pool} {self.role} {self.provider}"


@dataclass
class Raw:
    """A generated instance before its text round-trip."""

    slot: Slot
    graph: UndirectedGraph
    weights: Dict[int, float]
    frozen: FrozenSet[int]


@dataclass
class Case:
    """A round-tripped instance plus what the checker needs to judge it."""

    slot: Slot
    graph: UndirectedGraph
    weights: Dict[int, float]
    frozen: FrozenSet[int]
    inst: Optional[WbdInstance] = None  # solve cases, w* set by reference()
    expect_yes: Optional[bool] = None  # None: the oracle does not admit it
    reference_error: Optional[str] = None  # the oracle's witness was invalid

    @property
    def label(self) -> str:
        return self.slot.label


# ---------------------------------------------------------------------------
# workload slot lists
# ---------------------------------------------------------------------------


def _slot(k, role, pool, hot=0, n=None, kind="solve"):
    """A random-graph slot with m a little above the pool.  Without an
    explicit n the average degree is about 5, dense enough that few edges
    are critical, so the exact pool is reached at the first draws."""
    m = pool + 3 * hot + max(6, pool // 12)
    base_n = n - hot if n else round(2 * m / 5) - hot
    return Slot(kind, k, role, base_n, hot, pool, m)


def _hot_no(hot, n, m):
    """A kernel no-instance: k = hot + 1, pool = the hot vertices' edges."""
    return Slot("kernel", hot + 1, "no", n - hot, hot, 3 * hot, m, family="hot")


def _pair(k, pool, hot=0, n=None):
    return [_slot(k, role, pool, hot, n) for role in ("yes", "no")]


def _slots_solve_enum(tiny: bool) -> List[Slot]:
    if tiny:
        return _pair(3, 14, 1) + _pair(2, 16, 1)
    # Mostly k=3.  A block of 22 instances of the n=50, m~113 shape holds
    # the median and the tail percentile; cheaper pools (k=3 at 60 and 75,
    # k=2 at 200-340) sit below it and k=3 pools 110-120 above it.
    out: List[Slot] = []
    for pool in (60, 75):
        out += _pair(3, pool, 2)
    for pool in (98, 99, 100, 100, 101, 102, 102, 103, 104, 104, 105):
        out += _pair(3, pool, 2, n=50)
    for pool in (110, 115, 120):
        out += _pair(3, pool, 2)
    for pool in (200, 260, 300, 340):
        out += _pair(2, pool, 2, n=40)
    return out


def _slots_solve_branch(tiny: bool) -> List[Slot]:
    if tiny:
        return [_slot(1, "no", 70, n=20), _slot(1, "yes", 75, n=20)]
    # Blocks of similar cost, so the median and the tail percentile each
    # fall inside one block: 12 cheap yes, 12 no of the n=30, m~76 shape,
    # 4 dense k=2 yes and 2 large no.
    out: List[Slot] = []
    for n, pool in ((30, 70), (30, 75), (30, 80), (30, 90), (40, 110), (40, 140),
                    (40, 170), (50, 200), (50, 240), (50, 270), (50, 300), (50, 300)):
        out.append(_slot(1, "yes", pool, n=n))
    for pool in (68, 68, 69, 69, 70, 70, 71, 71, 72, 72, 73, 73):
        out.append(_slot(1, "no", pool, n=30))
    for pool in (350, 370, 385, 400):
        out.append(_slot(2, "yes", pool, 2, n=40))
    for n, pool in ((40, 140), (50, 200)):
        out.append(_slot(1, "no", pool, n=n))
    return out


def _slots_kernel(tiny: bool) -> List[Slot]:
    if tiny:
        return [
            _slot(1, "kernel", 8, kind="kernel"),
            _slot(1, "kernel", 70, n=20, kind="kernel"),
            _hot_no(1, 12, 26),
            Slot("kernel", 1, "kernel", family="hub", hub_q=67),
        ]
    # 26 pools below mu(1) = 67 (phase two, holding the median), 11 above
    # it (phase one certifies yes, holding the tail percentile), four cheap
    # no-instances at k = 2 and 3 below the median block, two exhaustive
    # single-edge inputs (a yes at k = 1, a no at k = 2), one hub.
    out: List[Slot] = []
    for pool in 2 * list(range(52, 65)):
        out.append(_slot(1, "kernel", pool, kind="kernel"))
    for pool in range(100, 111):
        out.append(_slot(1, "kernel", pool, n=30, kind="kernel"))
    for hot in (1, 1, 2, 2):
        out.append(_hot_no(hot, 18, 44))
    for k, role in ((1, "kernel"), (2, "no")):
        out.append(Slot("kernel", k, role, 8, 0, 1, 12, family="single",
                        provider="exhaustive", max_terminals=7))
    out.append(Slot("kernel", 2, "kernel", family="hub", hub_q=347))
    return out


WORKLOADS = {
    "solve-enum": _slots_solve_enum,
    "solve-branch": _slots_solve_branch,
    "kernel": _slots_kernel,
}


# ---------------------------------------------------------------------------
# generation (timed as set-up)
# ---------------------------------------------------------------------------


def _with_hot_vertices(rng: random.Random, g: UndirectedGraph, hot: int):
    """Add degree-3 vertices joined to three distinct existing vertices;
    returns the new graph and each hot vertex's three edge ids."""
    pairs = [g.endpoints(e) for e in sorted(g.edges)]
    base = sorted(g.vertices)
    nxt = max(base) + 1
    groups: List[List[int]] = []
    for _ in range(hot):
        group = []
        for u in rng.sample(base, 3):
            group.append(len(pairs))
            pairs.append((u, nxt))
        groups.append(group)
        nxt += 1
    return UndirectedGraph.from_edges(range(nxt), pairs), groups


def _random_graph(rng: random.Random, n: int, m: int) -> UndirectedGraph:
    """An ear-built biconnected skeleton on n vertices plus random chords
    up to exactly m edges, so that a slot's size is fixed, not just n."""
    g = random_biconnected_graph(rng, n, 0)
    pairs = [g.endpoints(e) for e in sorted(g.edges)]
    have = set(pairs)
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in have:
            have.add((u, v))
            pairs.append((u, v))
    return UndirectedGraph.from_edges(range(n), pairs)


def _random_raw(rng: random.Random, slot: Slot) -> Raw:
    for _ in range(50):
        g = _random_graph(rng, slot.base_n, slot.m - 3 * slot.hot)
        g, hot_groups = _with_hot_vertices(rng, g, slot.hot)
        hot_edges = {e for grp in hot_groups for e in grp}
        noncritical = sorted(set(g.edges) - critical_set(g))
        spare = [e for e in noncritical if e not in hot_edges]
        surplus = len(noncritical) - slot.pool
        if 0 <= surplus <= len(spare):
            break
    else:
        raise ValueError(f"cannot draw a graph with pool {slot.pool} for {slot.label}")
    frozen = frozenset(rng.sample(spare, surplus))
    if slot.kind == "kernel":
        weights = {e: 1.0 for e in g.edges}
        return Raw(slot, g, weights, frozen)
    weights = {e: float(rng.randint(1, 30)) for e in g.edges}
    # The first hot vertex holds the three heaviest weights, so the top-k
    # set (k >= 2) is never feasible and optimum + 1/2 is a tight no.
    tops = [60.0, 59.0, 58.0]
    rng.shuffle(tops)
    for i, grp in enumerate(hot_groups):
        for j, e in enumerate(grp):
            weights[e] = tops[j] if i == 0 else float(rng.randint(31, 57))
    return Raw(slot, g, weights, frozen)


def _single_raw(rng: random.Random, slot: Slot) -> Raw:
    """Small random graph with exactly one deletable edge."""
    g = _random_graph(rng, slot.base_n, slot.m)
    noncritical = sorted(set(g.edges) - critical_set(g))
    keep = rng.choice(noncritical)
    frozen = frozenset(e for e in g.edges if e != keep)
    return Raw(slot, g, {e: 1.0 for e in g.edges}, frozen)


def _hub_raw(slot: Slot) -> Raw:
    """The subdivided shared-partner hub.  It is the same at every seed:
    relabelling its vertices changes adjacency order and, with it, the
    kernel's running time on it by 30-50%, which would swamp any change."""
    g = shared_partner_instance(slot.hub_q, k=slot.k, subdivide=True).instance.graph
    return Raw(slot, g, {e: 1.0 for e in g.edges}, frozenset())


def generate(workload: str, seed: int, tiny: bool = False) -> List[Raw]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for slot in WORKLOADS[workload](tiny):
        if slot.family == "hub":
            out.append(_hub_raw(slot))
        elif slot.family == "single":
            out.append(_single_raw(rng, slot))
        else:
            out.append(_random_raw(rng, slot))
    return out


def round_trip(raws: List[Raw]) -> List[Case]:
    """Serialize each instance to text and parse it back."""
    cases = []
    for raw in raws:
        text = formats.serialize_undirected(raw.graph, raw.weights, raw.frozen)
        parsed = formats.parse_undirected(text)
        cases.append(Case(raw.slot, parsed.graph, parsed.weights, parsed.frozen))
    return cases


# ---------------------------------------------------------------------------
# reference answers (never timed)
# ---------------------------------------------------------------------------


class WrongReference(Exception):
    """The oracle returned a witness that the independent check rejects."""


def _oracle(inst: WbdInstance) -> Optional[Solution]:
    best = oracle_wbd(inst, ORACLE_BUDGET)
    if best is not None:
        err = witness_error(inst.graph, inst.weights, inst.frozen, inst.k, inst.w_star, best.edges)
        if err is not None:
            raise WrongReference(f"oracle witness {best.edges}: {err}")
    return best


def oracle_decides(inst: WbdInstance) -> Optional[bool]:
    """The oracle's yes/no, or None when the widened budget refuses it."""
    try:
        return _oracle(inst) is not None
    except BudgetExceededError:
        return None


def _reference_one(case: Case) -> None:
    slot = case.slot
    if slot.kind == "kernel":
        if slot.role == "no":
            case.expect_yes = False  # by construction, see Slot
        else:
            case.expect_yes = oracle_decides(unit_instance(case.graph, slot.k, case.frozen))
        return
    best = _oracle(WbdInstance(case.graph, slot.k, 0.0, case.weights, case.frozen))
    if best is None:
        raise ValueError(f"{case.label}: the empty set should always be feasible")
    opt = sum(case.weights[e] for e in best.edges)
    w_star = opt if slot.role == "yes" else opt + 0.5
    case.inst = WbdInstance(case.graph, slot.k, w_star, case.weights, case.frozen)
    case.expect_yes = slot.role == "yes"
    normalized = normalize(case.inst)
    heaviest = sorted(normalized.weights[e] for e in normalized.potential_edges())
    if slot.role == "no" and slot.k >= 2 and w_star > sum(heaviest[-slot.k:]):
        raise ValueError(f"{case.label}: w* above the top-k weight sum, not a tight no")


def reference(cases: List[Case]) -> None:
    """Fix w* from the oracle optimum and record the expected answers.  A
    case whose oracle witness is invalid fails every answer given on it."""
    for case in cases:
        try:
            _reference_one(case)
        except WrongReference as exc:
            case.reference_error = str(exc)
            case.inst = WbdInstance(case.graph, case.slot.k, 0.0, case.weights, case.frozen)


# ---------------------------------------------------------------------------
# checks (never timed)
# ---------------------------------------------------------------------------


def _connected(adj: Dict[int, List[int]], cut: Optional[int]) -> bool:
    """Is the graph minus vertex ``cut`` connected?  Plain BFS."""
    start = next(v for v in adj if v != cut)
    seen = {start}
    queue = [start]
    for v in queue:
        for u in adj[v]:
            if u != cut and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(adj) - (cut is not None)


def biconnected_by_definition(graph: UndirectedGraph, removed: FrozenSet[int] = frozenset()) -> bool:
    """At least two vertices, connected, and still connected after deleting
    any one vertex: a check that shares no code with ``conndel.graphs``."""
    adj: Dict[int, List[int]] = {v: [] for v in graph.vertices}
    if len(adj) < 2:
        return False
    for eid, (u, v) in graph.edges.items():
        if eid not in removed:
            adj[u].append(v)
            adj[v].append(u)
    return _connected(adj, None) and all(_connected(adj, cut) for cut in adj)


def witness_error(graph: UndirectedGraph, weights: Dict[int, float], frozen: FrozenSet[int],
                  k: int, w_star: float, edges) -> Optional[str]:
    """None when deleting ``edges`` solves the instance, else why not."""
    es = frozenset(edges)
    if len(es) != len(tuple(edges)):
        return f"witness {tuple(edges)} repeats an edge"
    if len(es) > k:
        return f"witness {tuple(edges)} has more than k = {k} edges"
    if not es <= graph.edges.keys():
        return f"witness {tuple(edges)} names an edge not in the graph"
    if es & frozen:
        return f"witness {tuple(edges)} deletes a frozen edge"
    if sum(weights.get(e, 0.0) for e in es) < w_star:
        return f"witness {tuple(edges)} weighs less than w* = {w_star}"
    if not biconnected_by_definition(graph, es):
        return f"graph minus witness {tuple(edges)} is not biconnected"
    return None


def check_solve(case: Case, sol: Optional[Solution]) -> Optional[str]:
    """None when the answer is right, else what is wrong with it."""
    if case.reference_error is not None:
        return case.reference_error
    if not case.expect_yes:
        return None if sol is None else "answered yes on a no-instance"
    if sol is None:
        return "answered no on a yes-instance"
    inst = case.inst
    return witness_error(inst.graph, inst.weights, inst.frozen, inst.k, inst.w_star, sol.edges)


def check_kernel(case: Case, result: KernelResult) -> Optional[str]:
    """Structure always; oracle equivalence wherever the oracle admits
    both sides.  A decided "no" is not read from ``result.answer``."""
    if case.reference_error is not None:
        return case.reference_error
    out = result.instance
    if not biconnected_by_definition(out.graph):
        return "kernel output is not biconnected"
    if len(out.potential_edges()) > mu(case.slot.k):
        return f"kernel output keeps {len(out.potential_edges())} > mu(k) potential edges"
    if result.answer == "yes":
        if case.expect_yes is False:
            return "kernel says yes on a no-instance"
        return None
    if case.expect_yes is None:
        return None
    got = oracle_decides(out)
    if got is not None and got != case.expect_yes:
        return f"kernel output answers {got}, input answers {case.expect_yes}"
    return None


def sizes(result: KernelResult) -> Tuple[int, int, int, int]:
    """(f_before, f_after, v_before, v_after) from the kernel's stats."""
    s = result.stats
    return int(s["f_before"]), int(s["f_after"]), int(s["v_before"]), int(s["v_after"])
