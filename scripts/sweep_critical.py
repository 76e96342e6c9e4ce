#!/usr/bin/env python3
"""Check ``critical_set`` against its definition on random and hub graphs.

The referee makes one ``is_biconnected_without`` pass per edge, a routine
that shares no code with ``critical_set``.  The inputs are relabelled
random ear graphs (new vertex names, edge ids and adjacency order, so new
DFS roots and trees), 300 relabelled dense graphs the size of those the
benchmark workloads hand to ``critical_set`` (n 30-60, m 2n-10n), both hub
families at q = 1 ... --max-q, plain and subdivided, and up to --residuals
one-edge residuals G - e of each hub graph, e non-critical: the graphs that
greedy hands to ``critical_set``.  The critical set of a residual whose
removed edges are back edges of G's DFS tree is also derived from that tree
(``DfsTree.without``, as the solver's round cache does) and checked against
the same referee: each such hub residual, and per dense graph one one-edge
and one two-edge residual.  Prints the graph count per family and the
derived count.

The referee itself is checked too: on each dense graph, with one to three
edges removed (random ones, or ones at a vertex of least degree, so that
both answers occur), ``is_biconnected_without`` must agree with
``bfs_biconnected``, a test by definition written here with one search
per deleted vertex.  Any mismatch is printed and exits 1."""

import argparse
import itertools
import random
import sys
import time
from collections import Counter, deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conndel.criticality import critical_set, critical_tree
from conndel.families import (
    distinct_partner_instance,
    random_biconnected_graph,
    shared_partner_instance,
)
from conndel.graphs import UndirectedGraph, is_biconnected_without


def referee(g):
    """The critical edges by definition: one biconnectivity pass per edge."""
    return frozenset(e for e in g.edges if not is_biconnected_without(g, frozenset((e,))))


def bfs_biconnected(g, removed):
    """Biconnectivity of g less the removed edges by definition: two or more
    vertices, and connected after deleting no vertex or any one vertex,
    each tested by a breadth-first search over the edge list."""
    near = {v: [] for v in g.vertices}
    for e, (u, v) in g.edges.items():
        if e not in removed:
            near[u].append(v)
            near[v].append(u)

    def connected(cut):
        rest = [v for v in near if v != cut]
        seen = {rest[0]}
        queue = deque(seen)
        while queue:
            for u in near[queue.popleft()]:
                if u != cut and u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == len(rest)

    return len(near) >= 2 and all(connected(cut) for cut in [None, *near])


def relabelled(g, rng):
    """g with its vertices renamed, its edge ids shuffled and its edges
    listed in a new order."""
    names = rng.sample(range(3 * g.n), g.n)
    rename = dict(zip(sorted(g.vertices), names))
    pairs = [(rename[u], rename[v]) for u, v in g.edges.values()]
    rng.shuffle(pairs)
    ids = rng.sample(range(3 * g.m), g.m)
    return UndirectedGraph(names, [(i, u, v) for i, (u, v) in zip(ids, pairs)])


def dense(rng, n, m):
    """A random biconnected graph on n vertices with m edges: an ear
    graph plus random chords."""
    g = random_biconnected_graph(rng, n)
    spare = [p for p in itertools.combinations(range(n), 2) if g.edge_between(*p) is None]
    return UndirectedGraph.from_edges(range(n), [*g.edges.values(), *rng.sample(spare, m - g.m)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=6000, help="random ear graphs")
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=22)
    ap.add_argument("--max-q", type=int, default=39, help="largest hub rim")
    ap.add_argument("--residuals", type=int, default=10, help="one-edge residuals per hub graph")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    # (family, graph, its critical set derived from a DFS tree or None)
    graphs = []
    # (dense graph, removed edges) for the referee's own check; a separate
    # generator, so the graphs above do not depend on it.
    removals = []
    pick = random.Random(f"removals:{args.seed}")
    for _ in range(args.count):
        n = rng.randint(args.min_n, args.max_n)
        g = random_biconnected_graph(rng, n, rng.randint(0, n))
        graphs.append(("random", relabelled(g, rng), None))
    for _ in range(300):
        n = rng.randint(30, 60)
        g = relabelled(dense(rng, n, rng.randint(2 * n, 10 * n)), rng)
        graphs.append(("dense", g, None))
        if pick.random() < 0.5:
            near = sorted(g.edges)
        else:
            low = min(g.vertices, key=g.degree)
            near = sorted(e for e, uv in g.edges.items() if low in uv)
        removals.append((g, frozenset(pick.sample(near, pick.randint(1, min(3, len(near)))))))
        tree = critical_tree(g)[1]
        e, f = rng.sample(sorted(set(g.edges) - set(tree.tree_edge)), 2)
        one = tree.without(e)
        graphs.append(("dense residual", g.without_edge(e), one[0]))
        if one[1] is not None:
            graphs.append(("dense residual", g.without_edges((e, f)), one[1].without(f)[0]))
    for family in (shared_partner_instance, distinct_partner_instance):
        for q in range(1, args.max_q + 1):
            for subdivide in (False, True):
                g = family(q, subdivide=subdivide).instance.graph
                graphs.append((family.__name__, g, None))
                tree = critical_tree(g)[1]
                spare = sorted(set(g.edges) - referee(g))
                for e in rng.sample(spare, min(args.residuals, len(spare))):
                    found = tree.without(e)
                    derived = None if found is None else found[0]
                    graphs.append((family.__name__ + " residual", g.without_edge(e), derived))

    mismatches = derived_count = 0
    t0 = time.perf_counter()
    for name, g, derived in graphs:
        expect = referee(g)
        for how, got in (("fresh", critical_set(g)), ("derived", derived)):
            if got is None:
                continue
            derived_count += how == "derived"
            if got != expect:
                mismatches += 1
                print(
                    f"MISMATCH {how} {name} n={g.n} m={g.m}: missed {sorted(expect - got)}, "
                    f"extra {sorted(got - expect)}; edges {sorted(g.edges.items())}"
                )
    kept = 0
    for g, removed in removals:
        expect = bfs_biconnected(g, removed)
        kept += expect
        if is_biconnected_without(g, removed) != expect:
            mismatches += 1
            print(
                f"MISMATCH is_biconnected_without n={g.n} m={g.m} removed {sorted(removed)}: "
                f"expected {expect}; edges {sorted(g.edges.items())}"
            )
    for name, count in Counter(name for name, _, _ in graphs).items():
        print(f"{name}: {count} graphs")
    print(f"referee: {len(removals)} dense graphs less 1-3 edges, {kept} still biconnected")
    print(
        f"{len(graphs)} graphs, {derived_count} derived critical sets, {mismatches} mismatches "
        f"({time.perf_counter() - t0:.1f} s)"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
