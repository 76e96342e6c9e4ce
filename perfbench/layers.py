"""Per-layer tracing from outside the package.

``TARGETS`` maps each per-layer metric name to the function that does the
work today.  The names describe roles, so a refactor only has to update
this table.  ``Tracer.install`` replaces every binding of a target in the
``conndel`` modules (a function imported by three modules is patched in
all three) with a wrapper that records a span: name, start, end and the
enclosing span.  A target that no longer exists is logged and its metric
left out; the run goes on.

Spans are kept in flat arrays and turned into calls and self time (the
span's duration minus the time its child spans cover) by ``layer_metrics``.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (metric name, module, attribute path) -- attribute paths with a dot name
# a method or property of a class in that module.
TARGETS: List[Tuple[str, str, str]] = [
    ("graphs.bicon", "conndel.graphs", "is_biconnected_without"),
    ("graphs.reach", "conndel.graphs", "has_path_without"),
    ("graphs.flow", "conndel.graphs", "max_flow_bounded"),
    ("graphs.copy", "conndel.graphs", "UndirectedGraph.without_edges"),
    ("criticality.critical_set", "conndel.criticality", "critical_set"),
    ("criticality.is_critical", "conndel.criticality", "is_critical"),
    ("criticality.newly_critical", "conndel.criticality", "newly_critical"),
    ("criticality.partner_analysis", "conndel.criticality", "build_partner_analysis"),
    ("criticality.partner_set", "conndel.criticality", "partner_set"),
    ("criticality.clean_stretch", "conndel.criticality", "find_clean_stretch"),
    ("solver.solve", "conndel.solver", "solve"),
    ("solver.normalize", "conndel.solver", "normalize"),
    ("solver.enumerate", "conndel.solver", "_enumerate_best"),
    ("solver.greedy", "conndel.solver", "greedy_deletion_set"),
    ("solver.branch", "conndel.solver", "_branch"),
    ("solver.rich_flow", "conndel.solver", "find_rich_flow"),
    ("kernel.phase1", "conndel.kernel", "_phase_one"),
    ("kernel.phase2", "conndel.kernel", "_phase_two"),
    ("kernel.aux_digraph", "conndel.kernel", "build_auxiliary_digraph"),
    ("kernel.cut_cover", "conndel.kernel", "cut_covering_set"),
    ("kernel.po_min_cut", "conndel.kernel", "po_min_cut"),
    ("kernel.vertex_flow", "conndel.kernel", "_vertex_flow"),
    ("kernel.rule_one", "conndel.kernel", "rule_one"),
    ("kernel.torso", "conndel.kernel", "rule_two_torso"),
    ("formats.parse", "conndel.formats", "parse_undirected"),
    ("formats.serialize", "conndel.formats", "serialize_undirected"),
]

# Counted but not timed: called so often that a span would cost more than
# the call itself.
COUNTED: List[Tuple[str, str, str]] = [
    ("graphs.edges_view", "conndel.graphs", "UndirectedGraph.edges"),
]

# Spans of this target record their boolean result, for the hit ratio of
# biconnectivity checks made directly inside enumeration.
RESULT_OF = "graphs.bicon"
HIT_PARENT = "solver.enumerate"


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


class Tracer:
    """Spans in memory plus call counters; install and remove wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_result = array("b")
        self.counts: Dict[str, int] = {}
        self.present: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        # (original, wrapper) per target, built on first install; None for
        # a missing target, which is logged once.
        self._made: Dict[str, Optional[Tuple[object, object]]] = {}

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        keep_result = name == RESULT_OF
        names, parents = self.span_name, self.span_parent
        starts, ends, results = self.span_start, self.span_end, self.span_result
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            results.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_result:
                results[idx] = 1 if out else 0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, path in TARGETS:
            self._patch(name, module, path, self._span_wrapper)
        for name, module, path in COUNTED:
            self._patch(name, module, path, self._count_wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, name: str, module: str, path: str, make: Callable) -> None:
        if name not in self._made:
            self._made[name] = self._make(name, module, path, make)
        made = self._made[name]
        if made is None:
            return
        original, wrapped = made
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[module], owner_name)
            setattr(owner, attr, wrapped)
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("conndel"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, original))

    def _make(self, name: str, module: str, path: str, make: Callable):
        mod = sys.modules.get(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            log(f"trace target {module}.{path} not found; metric {name} left out")
            return None
        self.present.append(name)
        original = vars(owner)[attr]
        if isinstance(original, property):
            return original, property(make(name, original.fget))
        return original, make(name, original)

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``<name>.calls`` and ``<name>.self_s`` per present target, the
        counted targets' ``.calls``, and the enumeration hit ratio."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.span_start)
        name_of = self.span_name
        parents = self.span_parent
        starts, ends = self.span_start, self.span_end
        # Children always come after their parent, so one backward pass
        # has each span's child time complete before it is read.
        for idx in range(len(starts) - 1, -1, -1):
            dur = ends[idx] - starts[idx]
            nid = name_of[idx]
            calls[nid] += 1
            self_s[nid] += dur - child_s[idx]
            parent = parents[idx]
            if parent >= 0:
                child_s[parent] += dur
        out: Dict[str, Tuple[float, str]] = {}
        by_name: Dict[str, List[int]] = {}
        for nid, name in enumerate(self.names):
            by_name.setdefault(name, []).append(nid)
        for name in self.present:
            if name in self.counts:
                out[f"{name}.calls"] = (self.counts[name], "count")
                continue
            ids = by_name.get(name, [])
            out[f"{name}.calls"] = (sum(calls[i] for i in ids), "count")
            out[f"{name}.self_s"] = (sum(self_s[i] for i in ids), "s")
        if RESULT_OF in self.present and HIT_PARENT in self.present:
            bicon = set(by_name[RESULT_OF])
            parent_ids = set(by_name[HIT_PARENT])
            tried = hits = 0
            for idx in range(len(starts)):
                if name_of[idx] in bicon:
                    parent = parents[idx]
                    if parent >= 0 and name_of[parent] in parent_ids:
                        tried += 1
                        hits += self.span_result[idx] == 1
            out[f"{HIT_PARENT}.bicon_hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
        return out
