"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run

run._import_package()

import cases  # noqa: E402

from conndel.graphs import UndirectedGraph  # noqa: E402
from conndel.kernel import KernelResult, constant_yes_instance, unit_instance  # noqa: E402
from conndel.solver import Solution  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_all_emitted_with_units(workload):
    result, _ = run.run(workload, seed=3, seconds=0.2, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_all_emitted_with_units(workload):
    result, _ = run.run(workload, seed=3, seconds=0.2, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _wrong_solve(case, out):
    sol, stats = out
    if case.expect_yes:
        return None, stats
    return Solution(tuple(case.inst.potential_edges()[:1]), 0.0), stats


def _broken_witness(case, out):
    sol, stats = out
    if case.expect_yes:
        return Solution(tuple(case.inst.potential_edges()), sol.weight), stats
    return out


def _broken_kernel(case, out):
    path = UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2)])
    return KernelResult(unit_instance(path, 1, frozenset()), None, out.stats)


def _constant_yes_kernel(case, out):
    return KernelResult(constant_yes_instance(), "yes", out.stats)


def _constant_yes_unflagged(case, out):
    return KernelResult(constant_yes_instance(), None, out.stats)


@pytest.mark.parametrize(
    "workload,planted",
    [("solve-enum", _wrong_solve), ("solve-branch", _wrong_solve),
     ("solve-enum", _broken_witness), ("kernel", _broken_kernel),
     ("kernel", _constant_yes_kernel), ("kernel", _constant_yes_unflagged)],
)
def test_planted_wrong_answer_is_caught(workload, planted):
    result, lines = run.run(workload, seed=3, seconds=0.2, trace=False, tiny=True,
                            planted=planted)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAIL ") for line in lines)


@pytest.mark.parametrize("tiny", [True, False])
def test_kernel_workload_has_no_instances(tiny):
    assert any(slot.role == "no" for slot in cases._slots_kernel(tiny))


@pytest.mark.parametrize("workload", ["solve-enum", "kernel"])
def test_wrong_biconnectivity_in_the_package_is_caught(workload, monkeypatch):
    """The checks do not rely on the package's biconnectivity test: if it
    says yes to everything, the oracle and the program answer wrongly
    together, and the run must still fail."""
    import conndel.oracles

    monkeypatch.setattr(conndel.oracles, "is_biconnected_without", lambda *a, **kw: True)
    result, lines = run.run(workload, seed=3, seconds=0.2, trace=False, tiny=True)
    assert not result["correct"]
    assert any(line.startswith("FAIL ") for line in lines)


def test_missing_trace_target_is_logged_and_skipped(monkeypatch, capsys):
    monkeypatch.setattr(
        layers, "TARGETS",
        layers.TARGETS + [("solver.renamed", "conndel.solver", "_no_such_function")],
    )
    result, _ = run.run("solve-enum", seed=3, seconds=0.2, trace=True, tiny=True)
    assert result["correct"]
    assert "solver.renamed.calls" not in result["metrics"]
    assert "solver.enumerate.calls" in result["metrics"]
    assert "_no_such_function" in capsys.readouterr().err


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
