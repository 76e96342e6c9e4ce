import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conndel.errors import ParseError
from conndel.formats import (
    parse_digraph,
    parse_undirected,
    serialize_digraph,
    serialize_undirected,
)

from .strategies import digraphs, undirected_graphs

SAMPLE = """\
# a commented instance
p graph 4 5
e 1 2 3 inf
e 1 3 1.5
e 2 3 0
e 2 4 2
e 3 4 1
"""


def test_parse_sample():
    parsed = parse_undirected(SAMPLE)
    assert parsed.graph.n == 4 and parsed.graph.m == 5
    assert parsed.frozen == frozenset({0})
    assert parsed.weights[1] == 1.5
    assert parsed.graph.edge_between(1, 2) == 0


def test_roundtrip_sample():
    parsed = parse_undirected(SAMPLE)
    text = serialize_undirected(parsed.graph, parsed.weights, parsed.frozen)
    again = parse_undirected(text)
    assert again.graph == parsed.graph
    assert again.weights == parsed.weights
    assert again.frozen == parsed.frozen


@pytest.mark.parametrize(
    "bad, msg",
    [
        ("", "empty"),
        ("p graph 2 1\ne 1 1 0\n", "self-loop"),
        ("p graph 2 2\ne 1 2 1\ne 2 1 1\n", "parallel"),
        ("p graph 2 1\ne 1 3 1\n", "out of range"),
        ("p graph 2 1\ne 1 2 -1\n", "non-negative"),
        ("p graph 2 2\ne 1 2 1\n", "declares 2"),
        ("p graph 2 1\ne 1 2 1 frozen\n", "unexpected token"),
        ("p graph 2 1\na 1 2\n", "unexpected record"),
        ("p digraph 2 1\na 1 2\n", "expected header"),
    ],
)
def test_parse_errors_carry_line_numbers(bad, msg):
    with pytest.raises(ParseError, match=msg):
        parse_undirected(bad)


@pytest.mark.parametrize(
    "parse, text, msg",
    [
        (
            parse_undirected,
            "# x\np graph 3 3\ne 1 2 1\n\ne 3 3 1\ne 2 3 1\n",
            r"line 5: self-loop at vertex 3",
        ),
        (
            parse_undirected,
            "p graph 3 3\ne 1 2 1\ne 2 3 1\n# x\n\ne 2 1 1\n",
            r"line 6: parallel edge \(2,1\)",
        ),
        (parse_digraph, "p digraph 2 2\na 1 2\n# x\na 2 2\n", r"line 4: self-loop at vertex 2"),
        (parse_digraph, "p digraph 2 3\na 1 2\na 2 1\n\na 1 2\n", r"line 5: duplicate arc \(1,2\)"),
    ],
)
def test_graph_errors_name_the_offending_record(parse, text, msg):
    with pytest.raises(ParseError, match=msg):
        parse(text)


def test_digraph_roundtrip():
    text = "p digraph 3 3\na 1 2\na 2 3\na 3 1\n"
    d = parse_digraph(text)
    assert d.m == 3
    assert serialize_digraph(d) == text


def test_digraph_rejects_duplicate_arc():
    with pytest.raises(ParseError):
        parse_digraph("p digraph 2 2\na 1 2\na 1 2\n")


def test_digraph_allows_antiparallel():
    d = parse_digraph("p digraph 2 2\na 1 2\na 2 1\n")
    assert d.m == 2


@settings(max_examples=80, deadline=None)
@given(undirected_graphs(min_n=1, max_n=8), st.data())
def test_roundtrip_random_instances(g, data):
    # File vertices are 1..n; shift the generated graph accordingly.
    from conndel.graphs import UndirectedGraph

    shifted = UndirectedGraph.from_edges(
        [v + 1 for v in g.vertices],
        [(u + 1, v + 1) for u, v in g.edges.values()],
    )
    weights = {
        e: float(data.draw(st.integers(min_value=0, max_value=9), label=f"w{e}"))
        for e in shifted.edges
    }
    frozen = frozenset(
        e for e in shifted.edges if data.draw(st.booleans(), label=f"f{e}")
    )
    text = serialize_undirected(shifted, weights, frozen)
    parsed = parse_undirected(text)
    assert parsed.graph == shifted
    assert parsed.weights == weights
    assert parsed.frozen == frozen


@settings(max_examples=60, deadline=None)
@given(digraphs(min_n=1, max_n=7))
def test_roundtrip_random_digraphs(d):
    from conndel.graphs import Digraph

    shifted = Digraph.from_arcs(
        [v + 1 for v in d.vertices],
        [(t + 1, h + 1) for t, h in d.arc_pairs()],
    )
    assert parse_digraph(serialize_digraph(shifted)) == shifted
