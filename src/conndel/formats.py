"""Line-oriented text formats for undirected instances and digraphs.

Undirected:
    # comment
    p graph <n> <m>
    e <u> <v> <weight> [inf]

Directed:
    p digraph <n> <m>
    a <u> <v>

Witness, for ``conndel verify``, without a header: ``e <u> <v>`` edges,
``a <u> <v>`` arcs in contraction order or ``v <id>`` vertices.

Vertices are the 1-based integers 1..n.  The optional ``inf`` token marks
an edge as frozen (never deletable).  Edge and arc ids are assigned in
file order starting at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .errors import InvalidInputError, ParseError
from .graphs import Digraph, UndirectedGraph


@dataclass(frozen=True)
class UndirectedInstanceText:
    """Parsed undirected instance file: graph, weights, frozen edges."""

    graph: UndirectedGraph
    weights: Dict[int, float]
    frozen: FrozenSet[int]


def _content_lines(text: str) -> List[Tuple[int, List[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def _parse_header(lines, kind: str) -> Tuple[int, int, int]:
    if not lines:
        raise ParseError(0, "empty instance")
    no, tok = lines[0]
    if len(tok) != 4 or tok[0] != "p" or tok[1] != kind:
        raise ParseError(no, f"expected header 'p {kind} <n> <m>'")
    try:
        n, m = int(tok[2]), int(tok[3])
    except ValueError:
        raise ParseError(no, "vertex/edge counts must be integers") from None
    if n < 0 or m < 0:
        raise ParseError(no, "vertex/edge counts must be non-negative")
    return no, n, m


def _refused_line(records, triples, undirected: bool) -> int:
    """The line a graph constructor refused: the first loop or repeated pair."""
    seen = set()
    for (no, _), (_, u, v) in zip(records, triples):
        key = (min(u, v), max(u, v)) if undirected else (u, v)
        if u == v or key in seen:
            break
        seen.add(key)
    return no


def parse_undirected(text: str) -> UndirectedInstanceText:
    lines = _content_lines(text)
    head_no, n, m = _parse_header(lines, "graph")
    triples = []
    weights: Dict[int, float] = {}
    frozen = set()
    for no, tok in lines[1:]:
        if tok[0] != "e":
            raise ParseError(no, f"unexpected record '{tok[0]}' (want 'e')")
        if len(tok) not in (4, 5):
            raise ParseError(no, "edge record needs 'e <u> <v> <weight> [inf]'")
        try:
            u, v = int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError(no, "vertex ids must be integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(no, f"vertex id out of range 1..{n}")
        try:
            w = float(tok[3])
        except ValueError:
            raise ParseError(no, f"bad weight '{tok[3]}'") from None
        if not math.isfinite(w):
            raise ParseError(no, f"weight must be finite, got '{tok[3]}'")
        if w < 0:
            raise ParseError(no, "weights must be non-negative")
        if len(tok) == 5:
            if tok[4] != "inf":
                raise ParseError(no, f"unexpected token '{tok[4]}' (want 'inf')")
            frozen.add(len(triples))
        eid = len(triples)
        triples.append((eid, u, v))
        weights[eid] = w
    if len(triples) != m:
        raise ParseError(head_no, f"header declares {m} edges, file has {len(triples)}")
    try:
        g = UndirectedGraph(range(1, n + 1), triples)
    except InvalidInputError as exc:
        raise ParseError(_refused_line(lines[1:], triples, True), str(exc)) from None
    return UndirectedInstanceText(g, weights, frozenset(frozen))


def format_weight(w: float) -> str:
    if float(w) == int(w):
        return str(int(w))
    return repr(float(w))


def serialize_undirected(
    graph: UndirectedGraph,
    weights: Dict[int, float],
    frozen: FrozenSet[int] = frozenset(),
) -> str:
    """Emit the undirected format; vertices are renamed to 1..n by sorted id."""
    verts = sorted(graph.vertices)
    name = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"p graph {len(verts)} {graph.m}"]
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
        a, b = sorted((name[u], name[v]))
        tail = " inf" if eid in frozen else ""
        lines.append(f"e {a} {b} {format_weight(weights.get(eid, 0.0))}{tail}")
    return "\n".join(lines) + "\n"


def parse_digraph(text: str) -> Digraph:
    lines = _content_lines(text)
    head_no, n, m = _parse_header(lines, "digraph")
    triples = []
    for no, tok in lines[1:]:
        if tok[0] != "a":
            raise ParseError(no, f"unexpected record '{tok[0]}' (want 'a')")
        if len(tok) != 3:
            raise ParseError(no, "arc record needs 'a <u> <v>'")
        try:
            u, v = int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError(no, "vertex ids must be integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(no, f"vertex id out of range 1..{n}")
        triples.append((len(triples), u, v))
    if len(triples) != m:
        raise ParseError(head_no, f"header declares {m} arcs, file has {len(triples)}")
    try:
        return Digraph(range(1, n + 1), triples)
    except InvalidInputError as exc:
        raise ParseError(_refused_line(lines[1:], triples, False), str(exc)) from None


def parse_witness(text: str, kind: str) -> List:
    """The records of a witness file for ``kind`` (``wbd``, ``pcpsc`` or
    ``vdpsc``) in file order: (u, v) pairs, or vertex ids for ``vdpsc``."""
    shape = {"wbd": "e <u> <v>", "pcpsc": "a <u> <v>"}.get(kind, "v <id>")
    out: List = []
    for no, tok in _content_lines(text):
        if tok[0] != shape[0] or len(tok) != len(shape.split()):
            raise ParseError(no, f"witness line must be '{shape}'")
        try:
            ids = tuple(int(t) for t in tok[1:])
        except ValueError:
            raise ParseError(no, "witness ids must be integers") from None
        out.append(ids if len(ids) == 2 else ids[0])
    return out


def serialize_digraph(d: Digraph, comments: Dict[int, str] | None = None) -> str:
    """Emit the digraph format, renaming vertices to 1..n by sorted id.

    ``comments`` maps original vertex ids to annotation strings emitted as
    '#' lines, used by the hardness generators to record gadget origins.
    """
    verts = sorted(d.vertices)
    name = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"p digraph {len(verts)} {d.m}"]
    if comments:
        for v in verts:
            if v in comments:
                lines.append(f"# vertex {name[v]}: {comments[v]}")
    for aid in sorted(d.arcs):
        t, h = d.endpoints(aid)
        lines.append(f"a {name[t]} {name[h]}")
    return "\n".join(lines) + "\n"
