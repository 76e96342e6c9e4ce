#!/usr/bin/env python3
"""Cross-validate the solver against the brute-force oracle on random
biconnected instances and report agreement, timing percentiles, the
number of partner analyses run, the irrelevant edges frozen, the
enumerator's biconnectivity and critical-set passes and the search nodes
decided before their DFS.  ``--mu M`` lowers the enumeration threshold to
M at every k, so small instances reach the reduction step.  ``--frozen P``
freezes each edge of the input with probability P (default 0, which
draws nothing, so the instances stay those of earlier runs)."""

import argparse
import random
import sys
import time
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.families import random_biconnected_graph, random_weights
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import SolveStats, WbdInstance, mu, solve


def instances(
    count: int, min_n=4, max_n=10, max_k=3, seed=0, frozen=0.0
) -> Iterator[WbdInstance]:
    """The sweep's random instances: weighted, k <= max_k, each edge
    frozen in the input with probability ``frozen``."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_biconnected_graph(rng, rng.randint(min_n, max_n), rng.randint(0, 4))
        k = rng.randint(0, max_k)
        w_star, weights = float(rng.randint(0, 2 + 2 * k)), random_weights(rng, g)
        marked = frozenset(e for e in g.edges if rng.random() < frozen) if frozen else frozenset()
        yield WbdInstance(g, k, w_star, weights, marked)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mu", type=int, default=None, help="constant enumeration threshold")
    ap.add_argument("--frozen", type=float, default=0.0, help="chance that an input edge is frozen")
    args = ap.parse_args()
    mu_of = mu if args.mu is None else (lambda k: args.mu)

    budget = OracleBudget(max_vertices=args.max_n + 2, max_edges=4 * args.max_n, max_k=args.max_k)
    times = []
    yes = no = mismatches = analyses = passes = crit_sets = freezes = early = 0
    sweep = instances(args.count, args.min_n, args.max_n, args.max_k, args.seed, args.frozen)
    for trial, inst in enumerate(sweep):
        g, k = inst.graph, inst.k
        t0 = time.perf_counter()
        stats = SolveStats()
        got = solve(inst, mu_of, stats)
        times.append(time.perf_counter() - t0)
        analyses += stats.flow_calls
        freezes += len(stats.irrelevant_edges)
        passes += stats.prefix_passes
        crit_sets += stats.prefix_critical_sets
        early += stats.decided_before_dfs
        expect = oracle_wbd(inst, budget)
        if (got is None) != (expect is None):
            mismatches += 1
            print(f"MISMATCH trial={trial} n={g.n} m={g.m} k={k}")
        if got is None:
            no += 1
        else:
            yes += 1
    times.sort()
    pct = lambda p: times[min(len(times) - 1, int(p * len(times)))] * 1000
    print(
        f"{args.count} instances: {yes} yes / {no} no, {mismatches} mismatches, "
        f"{analyses} partner analyses, {freezes} freezes, {passes} enumerator prefix passes, {crit_sets} prefix critical sets, "
        f"{early} nodes decided before their DFS; "
        f"solve ms p50={pct(0.5):.2f} p90={pct(0.9):.2f} max={times[-1] * 1000:.2f}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
