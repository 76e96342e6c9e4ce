"""Hypothesis strategies and random generators for small graphs and digraphs."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from conndel.families import random_biconnected_graph
from conndel.graphs import Digraph, UndirectedGraph


@st.composite
def undirected_graphs(draw, min_n=1, max_n=8, connected_bias=True):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    if connected_bias and n >= 2:
        # Thread a spanning path through a drawn permutation so most samples
        # are connected; hypothesis still shrinks toward sparse graphs.
        order = draw(st.permutations(range(n)))
        spine = [tuple(sorted((order[i], order[i + 1]))) for i in range(n - 1)]
        picked = sorted(set(picked) | set(spine))
    return UndirectedGraph.from_edges(range(n), picked)


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    picked = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return Digraph.from_arcs(range(n), sorted(set(picked)))


def random_digraph(rng: random.Random, n: int, arc_prob: float = 0.4) -> Digraph:
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < arc_prob]
    return Digraph.from_arcs(range(n), pairs)


def _graph(n, pairs):
    return UndirectedGraph.from_edges(range(n), pairs)


@st.composite
def cycles(draw, min_n=3, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def theta_graphs(draw, max_len=4):
    """Two hubs 0 and 1 joined by three internally disjoint paths; at most
    one path is the direct edge, so the graph stays simple."""
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=max_len), min_size=3, max_size=3)
        .filter(lambda ls: ls.count(1) <= 1)
    )
    pairs = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            pairs.append((prev, nxt))
            prev = nxt
            nxt += 1
        pairs.append((prev, 1))
    return _graph(nxt, pairs)


@st.composite
def ear_graphs(draw, min_n=3, max_n=9):
    """Random biconnected graphs: an ear decomposition plus chords."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=n))
    return random_biconnected_graph(draw(st.randoms(use_true_random=False)), n, extra)


def biconnected_graphs():
    """Random ear-built graphs, cycles, theta graphs and K2."""
    return st.one_of(ear_graphs(), cycles(), theta_graphs(), st.just(_graph(2, [(0, 1)])))
