"""Closed-loop benchmark of conndel's ``solve`` and ``kernelize``.

    python3 perfbench/run.py --workload solve-enum --seed 1 --seconds 30 --trace 0

One process, one thread, one client: each generated instance is decided
through the public call (``solve`` with its default single job) and the next starts only when it
returns.  The first pass decides every instance once; after it, the loop
keeps cycling and decides each instance again whenever its first-pass
time still fits in what is left of ``--seconds``.

A shared host's speed can swing by a factor of two over seconds to
minutes, so every reported time is corrected for it (``HostProbe``).  An
instance's latency is the median of its corrected samples.

Every answer is checked as soon as its timing stops (see ``cases.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  Exit status: 0 all answers right, 1 some answer wrong
(the JSON line still printed), 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples above the tail percentile
QUICK_S = 0.05
QUICK_SAMPLES = 5

Metrics = Dict[str, Tuple[float, str]]


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "conndel" / "__init__.py").is_file():
        raise ImportError(f"no conndel package under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import conndel

    if Path(conndel.__file__).resolve().parent != src / "conndel":
        raise ImportError(f"conndel imported from {conndel.__file__}, not {src}")


class HostProbe:
    """Host-speed correction for timings.

    The probe enumerates the 3-subsets of 26 fixed weighted items, sums
    their weights and builds a frozenset of each heavy one: the tuple, dict
    and set work the package does, but no code of the package, so a change
    to the package cannot move it.  (A graph walk tracked the host less
    well in a side-by-side trial.)  ``timed`` probes before and after a
    call and, from a SIGALRM timer, every ``INTERVAL_S`` during it, and
    takes the probes' own time out of the call's.  ``correct`` scales a
    call's time by ``NOMINAL_S`` over the mean of the probes taken within
    ``WINDOW_S`` of it: the result is what the call would take on a host
    where the probe takes 2 ms.  Averaging over a window, not just the two
    bracketing probes, keeps the probes' own jitter out of the correction.
    """

    NOMINAL_S = 0.002
    INTERVAL_S = 0.25
    WINDOW_S = 0.5

    def __init__(self) -> None:
        rng = random.Random(0)
        self.weights = {item: rng.randint(1, 30) for item in range(26)}
        self.ends: List[float] = []  # when each probe finished, ascending
        self.times: List[float] = []  # how long it took

    def _enumerate(self) -> int:
        w = self.weights
        kept = 0
        for combo in itertools.combinations(w, 3):
            if sum(w[item] for item in combo) > 40:
                kept += len(frozenset(combo))
        return kept

    def probe(self) -> float:
        t0 = time.perf_counter()
        self._enumerate()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        return t1 - t0

    def timed(self, fn: Callable[[], object]) -> Tuple[float, float, float, object]:
        """(start, end, seconds, result) of ``fn()``; an exception it
        raises is returned as its result."""
        inside: List[float] = []
        self.probe()
        old = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(self.probe()))
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported as a wrong answer by the caller
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, old)
        self.probe()
        return t0, t1, t1 - t0 - sum(inside), result

    def correct(self, start: float, end: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.ends, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + self.WINDOW_S)
        return seconds * self.NOMINAL_S / statistics.fmean(self.times[lo:hi])


@dataclass
class Timings:
    """Per-instance corrected and raw seconds of one measurement, and each
    instance's first outcome."""

    corrected: List[List[float]]
    raw: List[List[float]]
    first: List[object]


class Run:
    """One workload at one seed: set-up, timed and checked passes, metrics.

    ``planted`` replaces each answer before it is checked; the self-test
    uses it to show that wrong answers are caught.
    """

    def __init__(self, workload: str, seed: int, tiny: bool = False,
                 planted: Optional[Callable] = None):
        import cases
        from conndel import kernel, solver

        self.cases_mod = cases
        self.solver = solver
        self.kernel = kernel
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.planted = planted
        self.cases: List = []
        self.failures: List[str] = []
        self.attempted = 0
        self.host = HostProbe()

    def setup(self, repeats: int = 1, tracer=None) -> float:
        """Generate and round-trip the instances; median corrected seconds.

        Oracle reference answers are computed afterwards and not counted.
        """
        def once():
            raws = self.cases_mod.generate(self.workload, self.seed, self.tiny)
            if tracer is None:
                return self.cases_mod.round_trip(raws)
            with tracer:
                return self.cases_mod.round_trip(raws)

        spans = []
        for _ in range(repeats):
            t0, t1, dt, result = self.host.timed(once)
            if isinstance(result, Exception):
                raise result
            self.cases = result
            spans.append((t0, t1, dt))
        self.cases_mod.reference(self.cases)
        return statistics.median(self.host.correct(*span) for span in spans)

    def _decider(self, case) -> Callable[[], object]:
        slot = case.slot
        if slot.kind == "solve":
            stats = self.solver.SolveStats()
            return lambda: (self.solver.solve(case.inst, stats=stats), stats)
        return lambda: self.kernel.kernelize(
            case.graph, slot.k, case.frozen,
            provider=slot.provider, max_terminals=slot.max_terminals,
        )

    def measure(self, seconds: Optional[float], tracer=None) -> Timings:
        """Decide instances in turn, checking each answer after its timing.

        ``seconds=None`` makes exactly one pass.  Otherwise, in the first
        pass, an instance quicker than ``QUICK_S`` is decided again at once
        until it has ``QUICK_SAMPLES`` samples, so that cheap instances get
        a median even when a slow host leaves no time for a second pass.
        A tracer, if given, is installed only while a call runs, so the
        checks stay untraced.
        """
        n = len(self.cases)
        raw: List[List[float]] = [[] for _ in range(n)]
        spans: List[List[Tuple[float, float, float]]] = [[] for _ in range(n)]
        first: List[object] = [None] * n

        def sample(idx: int) -> None:
            case = self.cases[idx]
            decide = self._decider(case)
            if tracer is not None:
                tracer.install()
            try:
                t0, t1, dt, result = self.host.timed(decide)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            raw[idx].append(dt)
            spans[idx].append((t0, t1, dt))
            if first[idx] is None:
                first[idx] = result
            self._judge(case, result)

        start = time.perf_counter()
        for idx in range(n):
            sample(idx)
            while (seconds is not None and len(raw[idx]) < QUICK_SAMPLES
                   and sum(raw[idx]) < QUICK_S):
                sample(idx)
        skipped = 0
        idx = 0
        while seconds is not None and skipped < n:
            if time.perf_counter() - start + raw[idx][0] > seconds:
                skipped += 1
            else:
                skipped = 0
                sample(idx)
            idx = (idx + 1) % n
        corrected = [[self.host.correct(*span) for span in row] for row in spans]
        return Timings(corrected, raw, first)

    def _judge(self, case, out) -> None:
        if self.planted is not None:
            out = self.planted(case, out)
        self.attempted += 1
        err = self._error(case, out)
        if err is not None:
            self.failures.append(f"{case.label}: {err}")

    def _error(self, case, out) -> Optional[str]:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        try:
            if case.slot.kind == "solve":
                return self.cases_mod.check_solve(case, out[0])
            return self.cases_mod.check_kernel(case, out)
        except Exception as exc:  # a malformed answer can break the checker
            return f"check raised {type(exc).__name__}: {exc}"

    def end_to_end(self, setup_s: float, timings: Timings) -> Tuple[Metrics, List[str]]:
        lat = sorted(statistics.median(s) for s in timings.corrected)
        n = len(lat)
        rank = max(0, n - TAIL_BEYOND - 1)
        pct = 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0
        f_before = f_after = v_before = v_after = 0
        for case, first in zip(self.cases, timings.first):
            if case.slot.kind == "kernel" and not isinstance(first, Exception):
                fb, fa, vb, va = self.cases_mod.sizes(first)
                f_before, f_after = f_before + fb, f_after + fa
                v_before, v_after = v_before + vb, v_after + va
        metrics: Metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(lat), "s"),
            "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
            "latency_ms.tail": (lat[rank] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            # Workloads without kernelize calls shrink nothing: ratio 1.
            "kernel.f_ratio": (f_after / f_before if f_before else 1.0, "ratio"),
            "kernel.v_ratio": (v_after / v_before if v_before else 1.0, "ratio"),
        }
        counts = [len(s) for s in timings.raw]
        raw_wall = sum(statistics.median(s) for s in timings.raw)
        notes = [
            f"latency_ms.tail is p{pct:.1f} of {n} per-instance latencies "
            f"({sum(counts)} samples, {min(counts)} to {max(counts)} per instance)",
            f"uncorrected wall_s: {raw_wall:.4f} s",
        ]
        return metrics, notes

    def counters(self, firsts: List[object]) -> Metrics:
        """Counters the package itself keeps, summed over the traced pass."""
        solve_fields = ("nodes", "enumerations", "fallbacks", "flow_calls")
        kernel_fields = ("phase1_rounds", "irrelevant_frozen", "rule_one_fired")
        out: Metrics = {f"solver.{name}": (0, "count")
                        for name in solve_fields + ("irrelevant_edges", "max_depth")}
        out.update({f"kernel.{name}": (0, "count") for name in kernel_fields})

        def add(name, value):
            if value is not None:
                out[name] = (out[name][0] + value, "count")

        for case, res in zip(self.cases, firsts):
            if isinstance(res, Exception):
                continue
            if case.slot.kind == "solve":
                stats = res[1]
                for name in solve_fields:
                    add(f"solver.{name}", getattr(stats, name, None))
                add("solver.irrelevant_edges", len(getattr(stats, "irrelevant_edges", ())))
                depth = max(out["solver.max_depth"][0], getattr(stats, "max_depth", 0))
                out["solver.max_depth"] = (depth, "count")
            else:
                for name in kernel_fields:
                    add(f"kernel.{name}", res.stats.get(name))
        return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, planted: Optional[Callable] = None):
    """Run one workload; returns (result dict, report lines)."""
    import layers

    bench = Run(workload, seed, tiny, planted)
    lines = [f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}"]
    if not trace:
        setup_s = bench.setup(SETUP_REPEATS)
        timings = bench.measure(seconds)
        metrics, notes = bench.end_to_end(setup_s, timings)
        lines += notes
    else:
        tracer = layers.Tracer()
        bench.setup(1, tracer)
        untraced = bench.measure(seconds)
        traced = bench.measure(None, tracer)
        metrics = tracer.layer_metrics()
        metrics.update(bench.counters(traced.first))
        # Compare first passes on both sides, so repeats favour neither.
        untraced_wall = sum(s[0] for s in untraced.corrected)
        traced_wall = sum(s[0] for s in traced.corrected)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        lines.append(f"traced pass {traced_wall:.3f} s, untraced {untraced_wall:.3f} s (corrected)")
    failed = len(bench.failures)
    lines.append(f"error_rate: {failed / bench.attempted:.6f} ({failed} of {bench.attempted})")
    lines += [f"FAIL {f}" for f in bench.failures]
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-enum", "solve-branch", "kernel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:  # set-up itself failed: no result to report
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
