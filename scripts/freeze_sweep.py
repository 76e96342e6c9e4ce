#!/usr/bin/env python3
"""Drive the solver's and the kernel's freeze loop on hubs, where each
round freezes one irrelevant edge of an unchanged graph.

First pass, at scale: the shared-partner hub with q = mu(2) + 1 ...
mu(2) + 8 rim vertices, plain and subdivided, at k = 2: ``solve`` on the
weighted hub and on its unit-weight version, and ``kernelize`` on the
unit-weight version.  Every witness must pass ``verify_solution``,
``solve`` on the kernel output must answer like ``solve`` on its input,
and a decided kernel answer must agree too.  Prints the freezes each run
made.

Second pass, refereed by ``oracle_wbd``: 200 seeded small hubs, shared
and distinct, q = 7 ... 13, plain and subdivided, k = 1 ... 3, weights
1 ... 6, w* from 1 to the top-k weight sum + 1, with mu lowered to
2k + 5, 3k + 3 or 9 so that the loop runs on them.  ``solve`` on the
weighted hub and on its unit-weight version, and ``kernelize`` on the
unit-weight version, must each answer as the oracle does.

Third pass, certified (``heavy_rim_hub``): the shared-partner hub at
q = 350, k = 2, under mu(2), with its heavy rim edge h at every 25th rim
position and at the nine next to each end of the rim (positions 1 ... 9
and q - 9 ... q - 1, where the clean stretch's first and last edges
lie), 33 positions.  Every solution at w* = 7 holds h, so a freeze of h
turns the yes into a no.  ``solve`` must answer yes at w_opt, with a verified
witness that holds h where w_opt is 7 (h is not x's own rim edge), and
no at w_opt + 1/2.

Any mismatch exits 1, and so does a second or third pass in which
nothing was frozen."""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.families import (
    distinct_partner_instance,
    heavy_rim_hub,
    random_weights,
    shared_partner_instance,
)
from conndel.kernel import kernelize, unit_instance
from conndel.oracles import OracleBudget, oracle_wbd
from conndel.solver import (
    SolveStats,
    WbdInstance,
    mu,
    normalize,
    solve,
    verify_solution,
)

SMALL_HUBS = 200
HEAVY_RIM_Q = 350
ORACLE_BUDGET = OracleBudget(max_vertices=64, max_edges=128, max_k=3)


def solved(inst, mu_of=mu):
    """(answer, freezes, witness valid) of one solve."""
    stats = SolveStats()
    sol = solve(inst, mu_of, stats)
    valid = sol is None or verify_solution(inst, sol.edges)
    return sol is not None, len(stats.irrelevant_edges), valid


def oracle_pass() -> int:
    """The second pass; returns its exit code."""
    rng = random.Random(0)
    mismatches = solver_frozen = kernel_frozen = 0
    for i in range(SMALL_HUBS):
        family = rng.choice((shared_partner_instance, distinct_partner_instance))
        q, k, subdivide = rng.randint(7, 13), rng.randint(1, 3), rng.random() < 0.5
        m = rng.choice((2 * k + 5, 3 * k + 3, 9))
        mu_of = lambda _, m=m: m
        g = family(q, k=k, subdivide=subdivide).instance.graph
        weights = random_weights(rng, g, 1, 6)
        pool = normalize(WbdInstance(g, k, 0.0, weights)).potential_edges()
        top = sum(sorted((weights[e] for e in pool), reverse=True)[:k])
        weighted = WbdInstance(g, k, float(rng.randint(1, int(top) + 1)), weights)
        unit = unit_instance(g, k, frozenset())
        want = [oracle_wbd(inst, ORACLE_BUDGET) is not None for inst in (weighted, unit)]
        got = []
        for inst in (weighted, unit):
            answer, frozen, valid = solved(inst, mu_of)
            got.append(answer if valid else None)
            solver_frozen += frozen
        res = kernelize(g, k, mu_of=mu_of)
        kernel_frozen += int(res.stats["irrelevant_frozen"])
        kept = oracle_wbd(res.instance, ORACLE_BUDGET) is not None
        decided = res.answer in (None, "yes" if want[1] else "no")
        if got != want or kept != want[1] or not decided:
            mismatches += 1
            print(
                f"MISMATCH hub {i}: {family.__name__} q={q} k={k} subdivide={subdivide} "
                f"mu={m} w*={weighted.w_star}"
            )
    print(
        f"oracle pass: {SMALL_HUBS} small hubs, freezes: solve {solver_frozen}, "
        f"kernel {kernel_frozen}; {mismatches} mismatches"
    )
    return 1 if mismatches or not solver_frozen or not kernel_frozen else 0


def heavy_rim_pass() -> int:
    """The third pass; returns its exit code."""
    q = HEAVY_RIM_Q
    positions = sorted({*range(0, q + 1, 25), *range(1, 10), *range(q - 9, q)})
    mismatches = freezes = 0
    for pos in positions:
        hub = heavy_rim_hub(q, 2, pos)
        stats = SolveStats()
        sol = solve(hub.instance, stats=stats)
        freezes += len(stats.irrelevant_edges)
        held = sol is not None and verify_solution(hub.instance, sol.edges)
        held = held and (hub.w_opt < 7 or pos in sol.edges)  # h is edge pos
        if not held or solve(hub.at(hub.w_opt + 0.5)) is not None:
            mismatches += 1
            print(f"MISMATCH heavy-rim hub q={q} pos={pos}")
    print(
        f"heavy-rim pass: q={q}, {len(positions)} positions of h, "
        f"freezes {freezes}; {mismatches} mismatches"
    )
    return 1 if mismatches or not freezes else 0


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    k = 2
    mismatches = 0
    totals = [0, 0, 0]
    print(f"{'q':>4} {'sub':>3} {'solve':>5} {'unit':>4} {'kernel':>6}  freezes (solve/unit/kernel)")
    for q in range(mu(k) + 1, mu(k) + 9):
        for subdivide in (False, True):
            hub = shared_partner_instance(q, k=k, subdivide=subdivide)
            g = hub.instance.graph
            weighted, weighted_frozen, ok_weighted = solved(hub.instance)
            unit, unit_frozen, ok_unit = solved(unit_instance(g, k, frozenset()))
            res = kernelize(g, k)
            kernel, _, ok_kernel = solved(res.instance)
            kernel_frozen = int(res.stats["irrelevant_frozen"])
            agree = kernel == unit and res.answer in (None, "yes" if unit else "no")
            if not (agree and ok_weighted and ok_unit and ok_kernel):
                mismatches += 1
                print(f"MISMATCH q={q} subdivide={subdivide}")
            for i, n in enumerate((weighted_frozen, unit_frozen, kernel_frozen)):
                totals[i] += n
            print(
                f"{q:>4} {int(subdivide):>3} {weighted!s:>5} {unit!s:>4} {res.answer or '-':>6}"
                f"  {weighted_frozen}/{unit_frozen}/{kernel_frozen}"
            )
    print(
        f"freezes: solve {totals[0]}, unit solve {totals[1]}, kernel {totals[2]}; "
        f"{mismatches} mismatches"
    )
    failed = [oracle_pass(), heavy_rim_pass()]
    return 1 if any(failed) or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
