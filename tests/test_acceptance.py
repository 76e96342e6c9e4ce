"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  The heavy criteria stay well inside their stated
runtime budgets on commodity hardware.
"""

import random
import time

import pytest

from conndel.criticality import critical_set, newly_critical
from conndel.families import (
    distinct_partner_instance,
    random_biconnected_graph,
    shared_partner_instance,
)
from conndel.graphs import contract_sequence, max_flow_bounded
from conndel.hardness import gen_pc_psc, gen_vd_psc
from conndel import kernel as kernel_module
from conndel.kernel import kernelize, unit_instance
from conndel.oracles import (
    OracleBudget,
    oracle_is,
    oracle_pcpsc,
    oracle_vdpsc,
    oracle_wbd,
)
from conndel.solver import (
    SolveStats,
    WbdInstance,
    mu,
    normalize,
    solve,
    verify_solution,
)

from . import naive
from .catalog import digraph_isomorphic
from .checks import check_partner_invariants
from .strategies import random_digraph

BUDGET = OracleBudget(max_vertices=12, max_edges=30, max_k=3)
WIDE = OracleBudget(max_vertices=40, max_edges=80, max_k=3)

# Counters recorded during criterion 1, validated again by criterion 7.
RECORDS = {"instances": 0, "max_time": 0.0, "bound_violations": []}


def _report(number: int, name: str, violations, started: float) -> None:
    status = "PASS" if not violations else "FAIL"
    print(
        f"\n[acceptance {number}] {name}: {status} "
        f"({time.time() - started:.1f}s)"
    )
    assert not violations, violations[:5]


@pytest.fixture(scope="module")
def knob_wheels():
    """200 wheel instances (n = 10) whose solve run, under the test-only
    lowered thresholds, reaches partner analysis and freezes an edge."""
    rng = random.Random(2024)
    runs = []
    for _ in range(200):
        rim = [float(rng.randint(4, 6)) for _ in range(8)]
        hub = shared_partner_instance(
            q=7,
            k=2,
            w_star=float(rng.randint(1, 8)),
            rim_weights=rim,
            other_weight=float(rng.randint(1, 3)),
        )
        stats = SolveStats()
        sol = solve(hub.instance, lambda k: 9, stats)
        runs.append((hub.instance, sol, stats))
    return runs


class TestAcceptance:
    def test_01_solver_oracle_equivalence(self, catalog7):
        started = time.time()
        violations = []
        rng = random.Random(11)

        def check(g, k, weights, w_star):
            inst = WbdInstance(g, k, float(w_star), weights, frozenset())
            stats = SolveStats()
            t0 = time.perf_counter()
            sol = solve(inst, stats=stats)
            dt = time.perf_counter() - t0
            expect = oracle_wbd(normalize(inst), BUDGET)
            RECORDS["instances"] += 1
            RECORDS["max_time"] = max(RECORDS["max_time"], dt)
            if stats.max_depth > k or stats.max_branch_factor > mu(k):
                RECORDS["bound_violations"].append((g, k))
            if (sol is None) != (expect is None):
                violations.append(("answer", g.n, g.m, k, w_star))
            elif sol is not None and not verify_solution(normalize(inst), sol.edges):
                violations.append(("witness", g.n, g.m, k, w_star))

        for g in catalog7:
            for k in range(0, 4):
                weights = {e: float(rng.randint(0, 5)) for e in g.edges}
                check(g, k, weights, rng.randint(0, 2 + 2 * k))
        for _ in range(500):
            g = random_biconnected_graph(
                rng, rng.randint(8, 10), extra_edges=rng.randint(0, 4)
            )
            for k in range(0, 4):
                weights = {e: float(rng.randint(0, 5)) for e in g.edges}
                check(g, k, weights, rng.randint(0, 2 + 2 * k))

        _report(1, "solver agrees with oracle at desk scale", violations, started)

    def test_02_newly_critical_characterizations(self, catalog7):
        started = time.time()
        violations = []
        for g in catalog7:
            crit = critical_set(g)
            noncrit = [e for e in g.edges if e not in crit]
            for e in noncrit:
                x, y = g.endpoints(e)
                newly = newly_critical(g, e)
                without = g.without_edge(e)
                for e2 in noncrit:
                    if e2 == e:
                        continue
                    a = e2 in newly
                    b = (
                        naive.find_size2_mixed_cut(
                            set(without.vertices),
                            list(without.edges.values()),
                            without.endpoints(e2),
                        )
                        is not None
                    )
                    c = len(max_flow_bounded(without.without_edge(e2), x, y, 2)) <= 1
                    if not (a == b == c):
                        violations.append((g.n, g.m, e, e2, a, b, c))
        _report(2, "membership / mixed-cut / flow-forcing agree", violations, started)

    def test_03_partner_structure(self, knob_wheels):
        started = time.time()
        violations = []
        analyses = []
        for _, _, stats in knob_wheels:
            analyses.extend(stats.analyses)

        # add runs with prior deletions (affected components) and with
        # many distinct partner sets
        wheel = shared_partner_instance(q=12, k=3)
        g, (eid,) = wheel.instance.graph.with_edges([(2, 4)])
        weights = dict(wheel.instance.weights)
        weights[eid] = 20.0
        decoy = WbdInstance(g, 3, 3.0, weights, frozenset())
        stats = SolveStats()
        solve(decoy, lambda k: 15, stats)
        if not any(pa.affected for pa in stats.analyses):
            violations.append(("expected an affected component", "decoy wheel"))
        analyses.extend(stats.analyses)

        stair = distinct_partner_instance(q=7, k=2)
        sstats = SolveStats()
        solve(stair.instance, lambda k: 9, sstats)
        analyses.extend(sstats.analyses)

        if not analyses:
            violations.append(("no partner analyses were reached",))
        for pa in analyses:
            try:
                check_partner_invariants(pa)
            except AssertionError as exc:
                violations.append((pa.graph.n, pa.pivot, str(exc)))
        _report(
            3,
            f"partner structure holds on {len(analyses)} analyses",
            violations,
            started,
        )

    def test_04_irrelevant_edge_soundness(self, knob_wheels):
        started = time.time()
        violations = []
        fired = 0
        for inst, _, stats in knob_wheels:
            if not stats.irrelevant_edges:
                violations.append(("did not fire", inst.w_star))
                continue
            fired += 1
            eid = stats.irrelevant_edges[0]
            base = normalize(inst)
            before = oracle_wbd(base, BUDGET) is not None
            after = oracle_wbd(base.with_frozen(frozenset((eid,))), BUDGET) is not None
            if before != after:
                violations.append(("answer changed", inst.w_star, eid))
        if fired < 200:
            violations.append(("fired on too few instances", fired))
        _report(4, f"freezing fired edges preserved {fired} answers", violations, started)

    def test_05_kernel_equivalence(self, catalog7, monkeypatch):
        started = time.time()
        violations = []
        rng = random.Random(55)
        randoms = [
            random_biconnected_graph(rng, 8, extra_edges=rng.randint(0, 4)) for _ in range(150)
        ]
        graphs = [*catalog7, *randoms]

        def check(g, k, provider):
            before = oracle_wbd(normalize(unit_instance(g, k, frozenset())), BUDGET) is not None
            res = kernelize(g, k, provider=provider)
            after = (res.answer == "yes") or (oracle_wbd(res.instance, WIDE) is not None)
            if before != after:
                violations.append((g.n, g.m, k, provider))
            f_after = len(res.instance.potential_edges())
            if f_after > mu(k):
                violations.append(("|F| bound", g.n, g.m, k, f_after))
            return res

        for g in graphs:
            for k in (0, 1, 2):
                check(g, k, "trivial")
        # Phase two's rules: every input that reaches the exhaustive
        # provider's cover has too many terminals for it, so its cover is
        # replaced by the output digest's two stand-ins, Z = {} and Z = the
        # even vertex ids, on the random graphs at k = 2 and 3.
        stand_in_covers = rule_one_fired = 0
        for even in (False, True):

            def cover(aux, _cap, even=even):
                nonlocal stand_in_covers
                stand_in_covers += 1
                return frozenset(v for v in aux.digraph.vertices if even and v % 2 == 0)

            monkeypatch.setattr(kernel_module, "cut_covering_set", cover)
            for g in randoms:
                for k in (2, 3):
                    rule_one_fired += check(g, k, "exhaustive").stats["rule_one_fired"]
        if not stand_in_covers or not rule_one_fired:
            violations.append(("stand-in covers built", stand_in_covers, "rule one", rule_one_fired))
        _report(
            5,
            f"kernel equivalence ({stand_in_covers} stand-in covers, "
            f"rule one fired {rule_one_fired} times)",
            violations,
            started,
        )

    def test_06_hardness_reductions(self):
        started = time.time()
        violations = []
        from .catalog import all_graphs

        big = OracleBudget(max_vertices=200, max_edges=400, max_k=3, max_candidates=10**8)
        for n in range(1, 6):
            for g in all_graphs(n):
                for k in (1, 2):
                    d, _ = gen_pc_psc(g, k)
                    if d.n != 2 * g.n + (k + 2) * g.m + 2 * k + 4:
                        violations.append(("formula", n, g.m, k))
                    want = oracle_is(g, k, big) is not None
                    got = oracle_pcpsc(d, k, big) is not None
                    if want != got:
                        violations.append(("pcpsc", n, sorted(g.edges.values()), k))
        for n in range(1, 5):
            for g in all_graphs(n):
                for k in (1, 2):
                    d, _ = gen_vd_psc(g, k)
                    want = oracle_is(g, k, big) is not None
                    got = oracle_vdpsc(d, k, big) is not None
                    if want != got:
                        violations.append(("vdpsc", n, sorted(g.edges.values()), k))
        _report(6, "hardness reductions match independent set", violations, started)

    def test_07_structural_runtime_bounds(self):
        started = time.time()
        violations = []
        if RECORDS["instances"] == 0:
            # criterion 1 did not run in this session; run a reduced sweep
            rng = random.Random(7)
            for _ in range(100):
                g = random_biconnected_graph(rng, rng.randint(8, 10), rng.randint(0, 4))
                k = rng.randint(0, 3)
                inst = WbdInstance(
                    g, k, float(rng.randint(0, 6)),
                    {e: float(rng.randint(0, 5)) for e in g.edges}, frozenset(),
                )
                stats = SolveStats()
                t0 = time.perf_counter()
                solve(inst, stats=stats)
                RECORDS["max_time"] = max(RECORDS["max_time"], time.perf_counter() - t0)
                RECORDS["instances"] += 1
                if stats.max_depth > k or stats.max_branch_factor > mu(k):
                    RECORDS["bound_violations"].append((g, k))
        violations.extend(RECORDS["bound_violations"])
        if RECORDS["max_time"] > 5.0:
            violations.append(("slow instance", RECORDS["max_time"]))
        _report(
            7,
            f"depth/branch bounds over {RECORDS['instances']} runs "
            f"(max {RECORDS['max_time'] * 1000:.0f}ms)",
            violations,
            started,
        )

    def test_08_contraction_order_independence(self):
        started = time.time()
        violations = []
        rng = random.Random(88)
        done = 0
        while done < 1000:
            d = random_digraph(rng, rng.randint(2, 8), arc_prob=0.45)
            arcs = sorted(d.arcs.values())
            rng.shuffle(arcs)
            chosen = []
            busy = set()
            for t, h in arcs:
                if t not in busy and h not in busy:
                    chosen.append((t, h))
                    busy.update((t, h))
                if len(chosen) == 3:
                    break
            if len(chosen) < 2:
                continue
            perm = list(chosen)
            while perm == chosen:
                rng.shuffle(perm)
            a = contract_sequence(d, chosen)
            b = contract_sequence(d, perm)
            if not digraph_isomorphic(a, b):
                violations.append((sorted(d.arcs.values()), chosen, perm))
            done += 1
        _report(8, "contraction is order-independent on disjoint arc sets", violations, started)
