#!/usr/bin/env python3
"""Cross-validate the solver against the brute-force oracle on random
biconnected instances and report agreement, timing percentiles, the
number of partner analyses run, the irrelevant edges frozen and the
search nodes decided before their DFS.  ``--mu M`` lowers the
enumeration threshold to M at every k, so small instances reach the
reduction step.  ``--frozen P`` freezes each edge of the input with
probability P (default 0, which draws nothing, so the instances stay
those of earlier runs).

It also counts the *chain roots*: yes-instances at k >= 2 with more
potential edges than the threshold whose root was decided before its DFS
with a non-empty witness.  Only greedy's chain (``solver._solve``)
decides those, so a random sweep run with ``--mu`` fails when it counts
none, and the rule cannot silently stop being refereed.

    python scripts/sweep_solver.py --count 500 --mu 5 --seed 6

``--family gadget`` sweeps K4 gadgets with three or four hooks instead
(``gadgets``, built by ``conndel.families.random_hook_gadget``), which
reads only ``--count``, ``--seed`` and ``--mu``.  It also counts the
instances whose search reached depth 1 and depth 2, and fails when none
reached depth 2, so that the sweep cannot silently stop branching.  Branch children exclude the siblings tried before them, so
three-hook gadgets rarely reach depth 2; the four-hook ones do.

    python scripts/sweep_solver.py --family gadget --count 300 --mu 5 --seed 5
    python scripts/sweep_solver.py --family gadget --count 300 --seed 7

Under mu(k) the gadgets' lists are short, so a node whose first candidate
fails verification branches over its whole list: the second run reaches
depth 2 on most instances, the first through the partner analysis.
"""

import argparse
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.families import random_biconnected_graph, random_hook_gadget, random_weights
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


GADGET_BUDGET = OracleBudget(max_vertices=12, max_edges=30, max_k=3)


def gadgets(count: int, seed=0) -> Iterator[WbdInstance]:
    """Two instances per hook gadget (``random_hook_gadget``): h = 3 or 4
    hooks, drawn per gadget, on a random biconnected base graph on 5-8
    vertices with 4-9 extra edges, k 2 or 3 and m at most 30.  The K4 must
    keep two hooks, so the heavy edges greedy and the branch try first
    keep failing together; with four hooks a search can delete one hook
    and still fail two levels down.  w* is the oracle's optimum (a yes),
    then that plus 1/2 (a tight no)."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.choice((3, 4))
        base = random_biconnected_graph(rng, rng.randint(5, 8), rng.randint(4, 9))
        while base.m > GADGET_BUDGET.max_edges - 6 - h:
            base = random_biconnected_graph(rng, rng.randint(5, 8), rng.randint(4, 9))
        g, weights = random_hook_gadget(rng, base, h)
        inst = WbdInstance(g, rng.choice((2, 3)), 0.0, weights)
        best = oracle_wbd(inst, GADGET_BUDGET).weight
        yield replace(inst, w_star=best)
        yield replace(inst, w_star=best + 0.5)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mu", type=int, default=None, help="constant enumeration threshold")
    ap.add_argument("--frozen", type=float, default=0.0, help="chance that an input edge is frozen")
    ap.add_argument("--family", choices=("random", "gadget"), default="random")
    args = ap.parse_args()
    mu_of = mu if args.mu is None else (lambda k: args.mu)

    if args.family == "gadget":
        budget = GADGET_BUDGET
        sweep = gadgets(args.count, args.seed)
    else:
        budget = OracleBudget(max_vertices=args.max_n + 2, max_edges=4 * args.max_n, max_k=args.max_k)
        sweep = instances(args.count, args.min_n, args.max_n, args.max_k, args.seed, args.frozen)
    times = []
    yes = no = mismatches = analyses = freezes = early = depth1 = depth2 = 0
    chains = 0
    for trial, inst in enumerate(sweep):
        g, k = inst.graph, inst.k
        t0 = time.perf_counter()
        stats = SolveStats()
        got = solve(inst, mu_of, stats)
        times.append(time.perf_counter() - t0)
        analyses += stats.flow_calls
        freezes += len(stats.irrelevant_edges)
        early += stats.decided_before_dfs
        depth1 += stats.max_depth >= 1
        depth2 += stats.max_depth >= 2
        chains += (
            k >= 2
            and bool(got and got.edges)
            and (stats.nodes, stats.decided_before_dfs) == (1, 1)
            and len(inst.potential_edges()) > mu_of(k)
        )
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
        f"{len(times)} instances: {yes} yes / {no} no, {mismatches} mismatches, "
        f"{analyses} partner analyses, {freezes} freezes, "
        f"{early} nodes decided before their DFS, {chains} chain roots, "
        f"{depth1} reached depth 1, {depth2} depth 2; "
        f"solve ms p50={pct(0.5):.2f} p90={pct(0.9):.2f} max={times[-1] * 1000:.2f}"
    )
    if args.family == "gadget" and not depth2:
        print("no instance reached depth 2")
        return 1
    if args.family == "random" and args.mu is not None and not chains:
        print("no chain root: greedy's chain decided no root")
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
