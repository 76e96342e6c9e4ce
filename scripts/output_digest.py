#!/usr/bin/env python3
"""Print one sha256 over the outputs of ``solve``, ``kernelize``, the
hardness generators, their oracles and ``conndel verify`` on a fixed set
of seeded instances, so that a change meant to leave every output as it
was can be checked by running this before and after it.

Each result is one line: for ``solve`` the answer, the witness, its weight
and every ``SolveStats`` field (a partner analysis by its pivot, paths,
edges, partner structure and components, each component as a sorted
tuple); for ``kernelize`` the answer, the stats and the output instance in
the text format; for the strong-connectivity side both generated digraphs
in the text format (gadget comments included), the witnesses of
``oracle_is``, ``oracle_pcpsc`` and ``oracle_vdpsc``, and the exit codes
of ``verify pcpsc|vdpsc`` on witness files.  A refused input gives its
error instead.  ``--dump PATH`` also writes the lines, for a diff.

A second sha256 leaves out each solve line's ``SolveStats`` counters, so
that a change meant to move only the search's counters can show that
every answer and witness stayed as it was.

The instances, all built here from ``conndel.families`` and seeded random
graphs:

* bench-shaped ones, at seeds 1 and 2: weighted random graphs whose
  potential-edge pool is cut to a set size below or above mu(k) (k = 1-3),
  each solved at every integer target from the sum of its k heaviest
  potential weights down to the optimum, and at the tight no (optimum +
  1/2); and unit-weight ones for ``kernelize``, among them the
  subdivided hub at q = 347;
* the random instances of the CI runs of ``scripts/sweep_solver.py`` (four
  configurations) and ``scripts/kernel_shrink_stats.py`` (three), from
  those scripts' own generators;
* 120 of the latter's graphs (seed 3, up to 12 vertices) at k = 2 and 3
  under the ``exhaustive`` provider with its cover replaced by two fixed
  stand-ins, Z = {} and Z = the even vertex ids: the real cover refuses
  every input that reaches it (``conndel.kernel`` counts their
  terminals), so this is what runs rule one and the torso through
  ``kernelize``;
* both hub families, plain and subdivided, at k = 1-3 and q = 1-29, under
  the thresholds mu, 5 and 2k + 5: ``solve`` at four targets, with the
  default rim weights and with varied ones, and ``kernelize``;
* 40 random graphs on 1-4 vertices (``scripts/hardness_roundtrip.py``'s
  generator) at k = 1 and 2, for the strong-connectivity side.

Run: ``python scripts/output_digest.py [--dump lines.txt] [--expect HEX]
[--expect-answers HEX]``; it takes about 13 s on a 2-core x86-64 host.
It exits 1 when a digest differs from the HEX given for it.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import random
import sys
import tempfile
import unittest.mock
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel import cli
from conndel.criticality import critical_set
from conndel.errors import ConndelError
from conndel.families import (
    distinct_partner_instance,
    random_biconnected_graph,
    shared_partner_instance,
)
from conndel.formats import parse_digraph, serialize_digraph, serialize_undirected
from conndel.graphs import UndirectedGraph
from conndel.hardness import gen_pc_psc, gen_vd_psc
from conndel.kernel import kernelize, unit_instance
from conndel.oracles import OracleBudget, oracle_is, oracle_pcpsc, oracle_vdpsc
from conndel.solver import SolveStats, WbdInstance, mu, normalize, solve
from hardness_roundtrip import random_graph
from kernel_shrink_stats import graphs as kernel_graphs, providers as kernel_providers
from sweep_solver import instances as sweep_instances

MuOf = Callable[[int], int]


def _analysis(pa) -> tuple:
    return (
        pa.pivot,
        pa.p1.vertices,
        pa.p2.vertices,
        pa.edge_ids,
        pa.partners,
        sorted(pa.switches),
        sorted(pa.affected),
        pa.k,
        sorted((i, tuple(sorted(c))) for i, c in pa.components.items()),
    )


def solve_line(label: str, inst: WbdInstance, mu_of: MuOf = mu) -> str:
    stats = SolveStats()
    try:
        sol = solve(inst, mu_of, stats)
    except ConndelError as exc:
        return f"solve {label}: {type(exc).__name__}: {exc}"
    fields = []
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "analyses":
            value = [_analysis(pa) for pa in value]
        fields.append(f"{f.name}={value}")
    answer = f"yes {sol.edges} {sol.weight!r}" if sol else "no"
    return f"solve {label}: {answer} " + " ".join(fields)


def kernel_line(label: str, g: UndirectedGraph, k: int, frozen=frozenset(), **kw) -> str:
    try:
        res = kernelize(g, k, frozen, **kw)
    except ConndelError as exc:
        return f"kernel {label}: {type(exc).__name__}: {exc}"
    out = res.instance
    text = serialize_undirected(out.graph, out.weights, out.frozen)
    return f"kernel {label}: {res.answer} {sorted(res.stats.items())} k={out.k} {text!r}"


# ---------------------------------------------------------------------------
# bench-shaped instances
# ---------------------------------------------------------------------------


def _pooled(
    rng: random.Random, n: int, extra: int, pool: int, hot: int
) -> Tuple[UndirectedGraph, List[List[int]], frozenset]:
    """A random biconnected graph plus ``hot`` degree-3 vertices, with
    random non-critical edges frozen until at most ``pool`` are left."""
    g = random_biconnected_graph(rng, n, extra)
    pairs = [g.endpoints(e) for e in sorted(g.edges)]
    groups = []
    for i in range(hot):
        groups.append([len(pairs) + j for j in range(3)])
        pairs += [(u, n + i) for u in rng.sample(range(n), 3)]
    g = UndirectedGraph.from_edges(range(n + hot), pairs)
    noncritical = set(g.edges) - critical_set(g)
    spare = sorted(noncritical - {e for grp in groups for e in grp})
    surplus = len(noncritical) - pool
    frozen = frozenset(rng.sample(spare, max(0, min(surplus, len(spare)))))
    return g, groups, frozen


def bench_shaped(seed: int) -> Iterator[str]:
    rng = random.Random(f"output-digest:{seed}")
    # (k, n, extra chords, pool, hot vertices)
    solve_slots = [(3, 50, 70, pool, 2) for pool in (60, 80, 100, 120)]
    solve_slots += [(2, 40, 330, pool, 2) for pool in (200, 340)]
    solve_slots += [(1, 30, 50, pool, 0) for pool in (70, 80)]
    solve_slots += [(1, 50, 270, 300, 0), (2, 40, 380, 370, 2)]
    for k, n, extra, pool, hot in solve_slots:
        g, groups, frozen = _pooled(rng, n, extra, pool, hot)
        weights = {e: float(rng.randint(1, 30)) for e in g.edges}
        for i, grp in enumerate(groups):
            tops = [60.0, 59.0, 58.0] if i == 0 else [float(rng.randint(31, 57)) for _ in grp]
            for e, w in zip(grp, tops):
                weights[e] = w
        inst = WbdInstance(g, k, 0.0, weights, frozen)
        heavy = sorted((weights[e] for e in normalize(inst).potential_edges()), reverse=True)
        # Integer weights: step w* down from the top-k sum to the optimum,
        # then ask the tight no, optimum + 1/2.
        w_star = math.fsum(heavy[:k])
        while True:
            label = f"bench seed={seed} k={k} n={g.n} m={g.m} pool={pool} w*={w_star}"
            line = solve_line(label, dataclasses.replace(inst, w_star=w_star))
            yield line
            if ": yes" in line or w_star <= 0:
                break
            w_star -= 1.0
        label = f"bench seed={seed} k={k} n={g.n} m={g.m} pool={pool} w*={w_star + 0.5}"
        yield solve_line(label, dataclasses.replace(inst, w_star=w_star + 0.5))
    kernel_slots = [(1, 24, 40, pool, 0) for pool in (52, 58, 64)]
    kernel_slots += [(1, 30, 80, pool, 0) for pool in (100, 110)]
    kernel_slots += [(hot + 1, 18, 20, 3 * hot, hot) for hot in (1, 2)]
    kernel_slots += [(2, 12, 30, 12, 0), (3, 12, 30, 10, 0)]
    for k, n, extra, pool, hot in kernel_slots:
        g, _, frozen = _pooled(rng, n, extra, pool, hot)
        label = f"bench seed={seed} k={k} n={g.n} m={g.m} pool={pool}"
        yield kernel_line(label, g, k, frozen)
    for k in (1, 2):
        g = random_biconnected_graph(rng, 8, 4)
        keep = rng.choice(sorted(set(g.edges) - critical_set(g)))
        frozen = frozenset(g.edges) - {keep}
        label = f"bench seed={seed} single k={k}"
        yield kernel_line(label, g, k, frozen, provider="exhaustive", max_terminals=7)


def bench_hub() -> Iterator[str]:
    g = shared_partner_instance(347, k=2, subdivide=True).instance.graph
    yield kernel_line("bench hub q=347 k=2", g, 2)


# ---------------------------------------------------------------------------
# the CI sweeps' instances
# ---------------------------------------------------------------------------


def sweep_solver(count: int, min_n=4, max_n=10, max_k=3, seed=0, mu_const=None) -> Iterator[str]:
    """The instances of ``scripts/sweep_solver.py`` with these options."""
    mu_of = mu if mu_const is None else (lambda k: mu_const)
    for trial, inst in enumerate(sweep_instances(count, min_n, max_n, max_k, seed)):
        label = f"sweep_solver seed={seed} mu={mu_const} trial={trial}"
        yield solve_line(label, inst, mu_of)


def kernel_shrink(k: int, count=40, max_n=9, seed=0, mu_const=None) -> Iterator[str]:
    """The instances of ``scripts/kernel_shrink_stats.py`` with these
    options, each under the providers it runs."""
    mu_of = mu if mu_const is None else (lambda k: mu_const)
    for trial, g in enumerate(kernel_graphs(count, max_n, seed)):
        pool = normalize(unit_instance(g, k, frozenset())).potential_edges()
        for provider in kernel_providers(g, pool, 7):
            label = f"kernel_shrink seed={seed} k={k} mu={mu_const} trial={trial} {provider}"
            yield kernel_line(label, g, k, provider=provider, max_terminals=7, mu_of=mu_of)


def stand_in_covers(count=120, max_n=12, seed=3) -> Iterator[str]:
    """``kernelize`` through phase two's rules: the exhaustive provider,
    its cover replaced by Z = {} and by Z = the even vertex ids."""
    covers = {
        "empty": lambda aux, cap: frozenset(),
        "even": lambda aux, cap: frozenset(v for v in aux.digraph.vertices if v % 2 == 0),
    }
    for name, cover in covers.items():
        with unittest.mock.patch("conndel.kernel.cut_covering_set", cover):
            lines = [
                kernel_line(f"stand-in cover={name} k={k} trial={t}", g, k, provider="exhaustive")
                for t, g in enumerate(kernel_graphs(count, max_n, seed))
                for k in (2, 3)
            ]
        yield from lines


# ---------------------------------------------------------------------------
# hub families
# ---------------------------------------------------------------------------


def hubs() -> Iterator[str]:
    thresholds: Dict[str, MuOf] = {"mu": mu, "5": lambda k: 5, "2k+5": lambda k: 2 * k + 5}
    for family in (shared_partner_instance, distinct_partner_instance):
        for subdivide in (False, True):
            for k in range(1, 4):
                for q in range(1, 30):
                    # Rim weights all 5 (the default), or 5-8 so that the
                    # lightest interior edge of a stretch is not its first.
                    for rims in (None, [5.0 + (i * 3) % 4 for i in range(q + 1)]):
                        inst = family(q, k=k, rim_weights=rims, subdivide=subdivide).instance
                        for name, mu_of in thresholds.items():
                            label = (
                                f"{family.__name__} sub={subdivide} k={k} q={q} "
                                f"rims={'varied' if rims else 5} mu={name}"
                            )
                            for w_star in (2.0, float(k), 9.0 + k, 10.5 + 5 * (k - 1)):
                                yield solve_line(
                                    f"{label} w*={w_star}",
                                    dataclasses.replace(inst, w_star=w_star),
                                    mu_of,
                                )
                            if not rims:
                                yield kernel_line(label, inst.graph, k, mu_of=mu_of)


# ---------------------------------------------------------------------------
# the strong-connectivity side: gen, oracle and verify
# ---------------------------------------------------------------------------


def _sorted(vertices):
    return None if vertices is None else sorted(vertices)


def _verify_code(kind: str, path: Path, items: List[Tuple[int, ...]], k: int) -> int:
    """Exit code of ``conndel verify`` on the instance at path and a
    witness file of these items, printing nothing."""
    wpath = path.with_suffix(".witness")
    tag = "a" if kind == "pcpsc" else "v"
    wpath.write_text("".join(f"{tag} {' '.join(map(str, it))}\n" for it in items))
    argv = ["verify", kind, str(path), "--witness", str(wpath), "--k", str(k)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _verify_codes(kind: str, path: Path, d, k: int, witness) -> List[int]:
    """Verify the oracle's witness (or, on a no, the first k items), it one
    item short, it with its first item repeated, and for ``vdpsc`` every
    vertex at k = n."""
    if kind == "pcpsc":
        items = [tuple(a) for a in (witness or d.arc_pairs()[:k])]
    else:
        items = [(v,) for v in (sorted(witness) if witness else sorted(d.vertices)[:k])]
    codes = [_verify_code(kind, path, items, k)]
    if items:
        codes.append(_verify_code(kind, path, items[:-1], k))
        codes.append(_verify_code(kind, path, items + items[:1], k + 1))
    if kind == "vdpsc":
        codes.append(_verify_code(kind, path, [(v,) for v in sorted(d.vertices)], d.n))
    return codes


def hardness(count: int = 40) -> Iterator[str]:
    """Seeded random graphs on 1-4 vertices at k = 1 and 2: both
    generators' output, the three oracles' witnesses and ``verify``'s exit
    codes."""
    rng = random.Random("output-digest:hardness")
    budget = OracleBudget(max_vertices=300, max_edges=600, max_k=4, max_candidates=10**8)
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(count):
            g = random_graph(rng, rng.randint(1, 4))
            for k in (1, 2):
                pc, gm = gen_pc_psc(g, k)
                vd, origin = gen_vd_psc(g, k)
                fields = [f"is={_sorted(oracle_is(g, k, budget))}"]
                for kind, text in (
                    ("pcpsc", serialize_digraph(pc, gm.origin_labels())),
                    ("vdpsc", serialize_digraph(vd, origin)),
                ):
                    path = Path(tmp) / f"{kind}.digraph"
                    path.write_text(text)
                    d = parse_digraph(text)
                    oracle = oracle_pcpsc if kind == "pcpsc" else oracle_vdpsc
                    witness = oracle(d, k, budget)
                    codes = _verify_codes(kind, path, d, k, witness)
                    shown = witness if kind == "pcpsc" else _sorted(witness)
                    fields.append(f"{kind}={shown} verify={codes} {text!r}")
                yield f"hardness trial={trial} n={g.n} m={g.m} k={k}: " + " ".join(fields)


def all_lines() -> Iterator[str]:
    for seed in (1, 2):
        yield from bench_shaped(seed)
    yield from bench_hub()
    yield from sweep_solver(500)
    yield from sweep_solver(200, min_n=12, max_n=18, seed=1)
    yield from sweep_solver(500, seed=2, mu_const=3)
    yield from sweep_solver(300, max_k=4, seed=3)
    yield from kernel_shrink(2, mu_const=3)
    yield from kernel_shrink(2, seed=1)
    yield from kernel_shrink(3, count=120, max_n=12, seed=3, mu_const=4)
    yield from stand_in_covers()
    yield from hubs()
    yield from hardness()


def answer_of(line: str) -> str:
    """The line without its ``SolveStats`` counters, which on a solve line
    start at the first field, ``nodes=``."""
    return line.partition(" nodes=")[0] if line.startswith("solve ") else line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", default=None, help="also write the result lines here")
    ap.add_argument("--expect", default=None, help="exit 1 unless the sha256 is this hex digest")
    ap.add_argument(
        "--expect-answers", default=None, help="the same for the digest without solve counters"
    )
    args = ap.parse_args()
    digest, answers = hashlib.sha256(), hashlib.sha256()
    lines: List[str] = []
    for line in all_lines():
        digest.update(line.encode() + b"\n")
        answers.update(answer_of(line).encode() + b"\n")
        lines.append(line)
    if args.dump:
        Path(args.dump).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} results, sha256 {digest.hexdigest()}")
    print(f"without solve counters, sha256 {answers.hexdigest()}")
    status = 0
    for name, want, got in (
        ("sha256", args.expect, digest),
        ("sha256 without solve counters", args.expect_answers, answers),
    ):
        if want is not None and got.hexdigest() != want.lower():
            print(f"mismatch: expected {name} {want}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
