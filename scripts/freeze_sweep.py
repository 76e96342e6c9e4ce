#!/usr/bin/env python3
"""Drive the solver's and the kernel's freeze loops on the shared-partner
hub, where each round freezes one irrelevant edge of an unchanged graph.

For q = mu(2) + 1 ... mu(2) + 8 rim vertices, plain and subdivided, at
k = 2: ``solve`` on the weighted hub and on its unit-weight version, and
``kernelize`` on the unit-weight version.  Every witness must pass
``verify_solution``, ``solve`` on the kernel output must answer like
``solve`` on its input, and a decided kernel answer must agree too; any
mismatch exits 1.  Prints the freezes each run made."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.families import shared_partner_instance
from conndel.kernel import kernelize, unit_instance
from conndel.solver import SolveStats, mu, solve, verify_solution


def solved(inst):
    """(answer, freezes, witness valid) of one solve."""
    stats = SolveStats()
    sol = solve(inst, stats=stats)
    valid = sol is None or verify_solution(inst, sol.edges)
    return sol is not None, len(stats.irrelevant_edges), valid


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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
