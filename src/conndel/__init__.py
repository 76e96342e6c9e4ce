"""Connectivity-preserving edge-deletion toolkit.

Exact and kernelization solvers for deleting edges from a biconnected
graph while keeping it biconnected, digraph path-contraction machinery,
hardness-instance generators, and desk-scale brute-force oracles.
"""

from .graphs import (
    Digraph,
    Path,
    UndirectedGraph,
    contract_sequence,
    is_biconnected,
    is_strongly_connected,
    max_flow_bounded,
    path_contract,
)
from .kernel import KernelResult, kernelize
from .oracles import OracleBudget, oracle_is, oracle_pcpsc, oracle_vdpsc, oracle_wbd
from .solver import Solution, SolveStats, WbdInstance, normalize, solve

__version__ = "0.1.0"

__all__ = [
    "Digraph",
    "KernelResult",
    "OracleBudget",
    "Path",
    "Solution",
    "SolveStats",
    "UndirectedGraph",
    "WbdInstance",
    "contract_sequence",
    "is_biconnected",
    "is_strongly_connected",
    "kernelize",
    "max_flow_bounded",
    "normalize",
    "oracle_is",
    "oracle_pcpsc",
    "oracle_vdpsc",
    "oracle_wbd",
    "path_contract",
    "solve",
    "__version__",
]
