"""Command-line front end.

Subcommands: solve, kernelize, gen {pcpsc,vdpsc}, oracle {wbd,pcpsc,
vdpsc,is}, verify {wbd,pcpsc,vdpsc}.  Reports are emitted as sorted
``key: value`` lines; witness edges print in ascending id.

Exit codes: 0 yes/valid, 1 no/invalid, 2 usage or parse error, 3 budget
refusal, 4 internal inconsistency (a guaranteed invariant failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Dict, Optional, Sequence

from .criticality import PartnerAnalysis, find_clean_stretch
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    InvalidInputError,
    ParseError,
)
from .formats import (
    parse_digraph,
    parse_undirected,
    parse_witness,
    serialize_digraph,
    serialize_undirected,
)
from .graphs import UndirectedGraph, is_biconnected
from .hardness import gen_pc_psc, gen_vd_psc
from .kernel import DEFAULT_MAX_TERMINALS, PROVIDERS, kernelize
from .oracles import (
    OracleBudget,
    is_pcpsc_witness,
    is_vdpsc_witness,
    oracle_is,
    oracle_pcpsc,
    oracle_vdpsc,
    oracle_wbd,
)
from .solver import SolveStats, WbdInstance, solve, validate_instance, verify_solution

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _digest(data: str) -> str:
    return "sha256:" + hashlib.sha256(data.encode()).hexdigest()[:16]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None


def _emit(path: Optional[str], text: str) -> None:
    """Write the text to the file at path, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from None


def _edge_names(g: UndirectedGraph, edges: Sequence[int]) -> str:
    parts = []
    for eid in sorted(edges):
        u, v = g.endpoints(eid)
        parts.append(f"{u}-{v}")
    return " ".join(parts)


def explain_partner_analysis(pa: PartnerAnalysis) -> str:
    """Structured text dump for ``solve --explain``."""
    g = pa.graph
    x, y = g.endpoints(pa.pivot)
    lines = []
    lines.append(
        f"partner analysis: pivot {_edge_names(g, [pa.pivot])}, "
        f"terminals ({x}, {y}), k={pa.k}"
    )
    lines.append("  P1: " + " ".join(str(v) for v in pa.p1.vertices))
    lines.append("  P2: " + " ".join(str(v) for v in pa.p2.vertices))
    lines.append(f"  analyzed critical edges on P1 (t={pa.t}):")
    for i in range(1, pa.t + 1):
        ps = " ".join(str(v) for v in pa.partner(i))
        lines.append(f"    e_{i} = {_edge_names(g, [pa.edge(i)])}  partners: [{ps}]")
    lines.append(
        "  partner switches: "
        + (" ".join(str(i) for i in sorted(pa.switches)) or "(none)")
    )
    lines.append(
        "  affected components: "
        + (" ".join(str(i) for i in sorted(pa.affected)) or "(none)")
    )
    for i, comp in sorted(pa.components.items()):
        vs = " ".join(str(v) for v in sorted(comp))
        lines.append(f"    component[{i},{i + 1}] = {{{vs}}} partner {pa.shared_partner[i]}")
    stretch = find_clean_stretch(pa)
    lines.append(f"  clean stretch: {stretch if stretch else '(none)'}")
    return "\n".join(lines)


def _emit_report(fields: Dict[str, object]) -> None:
    for key in sorted(fields):
        print(f"{key}: {fields[key]}")


def _budget_from_args(args) -> OracleBudget:
    return OracleBudget(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        max_k=args.max_k,
        max_candidates=args.max_candidates,
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-edges", type=int, default=20)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-candidates", type=int, default=10_000_000)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    text = _read(args.path)
    parsed = parse_undirected(text)
    inst = WbdInstance(parsed.graph, args.k, args.wstar, dict(parsed.weights), parsed.frozen)
    budget = _budget_from_args(args) if args.oracle_check else None
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, stats=stats)
    elapsed = time.perf_counter() - t0
    if args.explain:
        for pa in stats.analyses:
            print(explain_partner_analysis(pa))
    report: Dict[str, object] = {
        "subcommand": "solve",
        "input-digest": _digest(text),
        "answer": "yes" if sol else "no",
        "witness": _edge_names(parsed.graph, sol.edges) if sol else "",
        "weight": sol.weight if sol else 0.0,
        "branch-nodes": stats.nodes,
        "max-depth": stats.max_depth,
        "enumerations": stats.enumerations,
        "fallbacks": stats.fallbacks,
        "decided-before-dfs": stats.decided_before_dfs,
        "irrelevant-edges": len(stats.irrelevant_edges),
        "flow-calls": stats.flow_calls,
    }
    if args.oracle_check:
        try:
            oracle = oracle_wbd(inst, budget)
            report["oracle-agrees"] = (oracle is None) == (sol is None)
        except BudgetExceededError:
            report["oracle-agrees"] = "skipped"
    _emit_report(report)
    print(f"elapsed-ms: {elapsed * 1000:.1f}")
    return EXIT_YES if sol else EXIT_NO


def cmd_kernelize(args) -> int:
    text = _read(args.path)
    parsed = parse_undirected(text)
    for eid, w in parsed.weights.items():
        if eid not in parsed.frozen and w != 1.0:
            raise InvalidInputError(
                "kernelization handles unit weights only; edge "
                f"{_edge_names(parsed.graph, [eid])} has weight {w}"
            )
    result = kernelize(
        parsed.graph,
        args.k,
        parsed.frozen,
        provider=args.provider,
        max_terminals=args.max_terminals,
    )
    out_text = serialize_undirected(
        result.instance.graph, result.instance.weights, result.instance.frozen
    )
    _emit(args.out, out_text)
    stats = dict(result.stats)
    stats["answer"] = result.answer
    stats["input-digest"] = _digest(text)
    stats["k_after"] = result.instance.k
    print(json.dumps(stats, sort_keys=True))
    return EXIT_NO if result.answer == "no" else EXIT_YES


def cmd_gen(args) -> int:
    text = _read(args.path)
    parsed = parse_undirected(text)
    if args.kind == "pcpsc":
        d, gm = gen_pc_psc(parsed.graph, args.k)
        comments = gm.origin_labels()
    else:
        d, comments = gen_vd_psc(parsed.graph, args.k)
    out_text = serialize_digraph(d, comments)
    _emit(args.out, out_text)
    return EXIT_YES


def _raw_instance(parsed, args) -> WbdInstance:
    """The instance as read, for the referees: nothing frozen beyond the
    file's own marks, so they share no criticality code with the solver.
    A negative k or a non-finite w* is refused as ``solve`` refuses it."""
    if not is_biconnected(parsed.graph):
        raise InvalidInputError("instance graph is not biconnected")
    inst = WbdInstance(parsed.graph, args.k, args.wstar, dict(parsed.weights), parsed.frozen)
    validate_instance(inst)
    return inst


def cmd_oracle(args) -> int:
    budget = _budget_from_args(args)
    text = _read(args.path)
    if args.kind == "wbd":
        parsed = parse_undirected(text)
        sol = oracle_wbd(_raw_instance(parsed, args), budget)
        witness = _edge_names(parsed.graph, sol.edges) if sol else ""
        answer = sol is not None
    elif args.kind == "is":
        parsed = parse_undirected(text)
        res = oracle_is(parsed.graph, args.k, budget)
        witness = " ".join(str(v) for v in sorted(res)) if res else ""
        answer = res is not None
    elif args.kind == "pcpsc":
        seq = oracle_pcpsc(parse_digraph(text), args.k, budget)
        witness = " ".join(f"{t}->{h}" for t, h in seq) if seq else ""
        answer = seq is not None
    else:
        res = oracle_vdpsc(parse_digraph(text), args.k, budget)
        witness = " ".join(str(v) for v in sorted(res)) if res else ""
        answer = res is not None
    _emit_report(
        {
            "subcommand": f"oracle-{args.kind}",
            "input-digest": _digest(text),
            "answer": "yes" if answer else "no",
            "witness": witness,
        }
    )
    return EXIT_YES if answer else EXIT_NO


def cmd_verify(args) -> int:
    text = _read(args.path)
    wtext = _read(args.witness)
    witness = parse_witness(wtext, args.kind)
    if args.kind == "wbd":
        parsed = parse_undirected(text)
        inst = _raw_instance(parsed, args)
        ids = [parsed.graph.edge_between(u, v) for u, v in witness]
        valid = None not in ids and verify_solution(inst, ids)
    elif args.k < 0:
        raise InvalidInputError(f"k must be non-negative, got {args.k}")
    elif args.kind == "pcpsc":
        valid = is_pcpsc_witness(parse_digraph(text), args.k, witness)
    else:
        valid = is_vdpsc_witness(parse_digraph(text), args.k, witness)
    _emit_report(
        {
            "subcommand": f"verify-{args.kind}",
            "input-digest": _digest(text),
            "answer": "valid" if valid else "invalid",
        }
    )
    return EXIT_YES if valid else EXIT_NO


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="conndel",
        description="connectivity-preserving edge deletion toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a weighted biconnectivity-deletion instance")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--wstar", type=float, required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--oracle-check", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="shrink an unweighted instance")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--provider", choices=PROVIDERS, default="trivial")
    p.add_argument(
        "--max-terminals",
        type=int,
        default=DEFAULT_MAX_TERMINALS,
        help="refuse the exhaustive cover (exit 3) beyond this many terminals; the "
        "conndel.kernel docstring counts those of the inputs that reach it",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("gen", help="generate a hardness instance from an independent-set input")
    p.add_argument("kind", choices=("pcpsc", "vdpsc"))
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force ground truth (desk scale)")
    p.add_argument("kind", choices=("wbd", "pcpsc", "vdpsc", "is"))
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--wstar", type=float, default=0.0)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a witness file against an instance")
    p.add_argument("kind", choices=("wbd", "pcpsc", "vdpsc"))
    p.add_argument("path")
    p.add_argument("--witness", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--wstar", type=float, default=0.0)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
