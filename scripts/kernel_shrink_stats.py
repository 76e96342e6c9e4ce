#!/usr/bin/env python3
"""Kernelize random unit-weight instances and tabulate how much the
potential-edge and vertex counts shrink under each provider, with the
phase-one rounds run and the irrelevant edges they froze.  ``--mu M`` lowers phase one's threshold to M at
every k, so small instances reach the reduction step.

Every kernel output must answer like its input under the brute-force
oracle (a decided answer must match too); any mismatch exits 1."""

import argparse
import random
import sys
from pathlib import Path
from typing import Iterator, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.families import random_biconnected_graph
from conndel.graphs import UndirectedGraph
from conndel.kernel import build_auxiliary_digraph, kernelize, unit_instance
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import mu, normalize


def graphs(count=40, max_n=9, seed=0) -> Iterator[UndirectedGraph]:
    """The run's random graphs, on 4 to max_n vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_biconnected_graph(rng, rng.randint(4, max_n), rng.randint(0, 3))


def providers(g: UndirectedGraph, pool, max_terminals: int) -> List[str]:
    """The providers run on g: ``exhaustive`` too when the auxiliary
    digraph of the pool has at most max_terminals terminals."""
    if len(build_auxiliary_digraph(g, pool).terminals) <= max_terminals:
        return ["trivial", "exhaustive"]
    return ["trivial"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-terminals", type=int, default=7)
    ap.add_argument("--mu", type=int, default=None, help="constant phase-one threshold")
    args = ap.parse_args()
    mu_of = mu if args.mu is None else (lambda k: args.mu)

    budget = OracleBudget(
        max_vertices=max(4, args.max_n), max_edges=4 * args.max_n, max_k=max(3, args.k)
    )
    rows = []
    mismatches = 0
    for g in graphs(args.count, args.max_n, args.seed):
        inst = normalize(unit_instance(g, args.k, frozenset()))
        want = oracle_wbd(inst, budget) is not None
        for provider in providers(g, inst.potential_edges(), args.max_terminals):
            res = kernelize(
                g, args.k, provider=provider, max_terminals=args.max_terminals, mu_of=mu_of
            )
            got = oracle_wbd(res.instance, budget) is not None
            if got != want or res.answer not in (None, "yes" if want else "no"):
                mismatches += 1
                print(f"MISMATCH provider={provider} n={g.n} m={g.m} k={args.k}")
            rows.append(
                (
                    provider,
                    res.stats["v_before"],
                    res.stats["v_after"],
                    res.stats["f_before"],
                    res.stats["f_after"],
                    res.answer or "-",
                    res.stats["phase1_rounds"],
                    res.stats["irrelevant_frozen"],
                )
            )

    print(f"{'provider':<11} {'v_in':>4} {'v_out':>5} {'f_in':>4} {'f_out':>5} answer")
    for provider in ("trivial", "exhaustive"):
        subset = [r for r in rows if r[0] == provider]
        if not subset:
            continue
        shrunk = sum(1 for r in subset if r[2] < r[1])
        for r in subset[:5]:
            print(f"{r[0]:<11} {r[1]:>4} {r[2]:>5} {r[3]:>4} {r[4]:>5} {r[5]}")
        rounds = sum(r[6] for r in subset)
        freezes = sum(r[7] for r in subset)
        print(
            f"-- {provider}: {len(subset)} runs, {shrunk} shrank the vertex set, "
            f"{rounds} phase-one rounds, {freezes} freezes --"
        )
    print(f"{len(rows)} kernel outputs, {mismatches} oracle mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
