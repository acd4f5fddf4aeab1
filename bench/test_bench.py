"""Checks of the benchmark itself.  Slow (about five minutes), so outside tier-1:

    python -m pytest bench/test_bench.py

The schema tests compare the printed metrics with ``BENCHMARK.json``; the
traced test runs every workload twice on one seed and requires identical
counters.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import quadma  # noqa: E402
import quadma.solver  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec_metrics}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value) and value >= 0, name


def test_code_and_spec_agree_on_per_layer_metrics():
    assert {n: u for n, (u, _) in tracing.PER_LAYER.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_output(workload):
    result = run_bench(workload, trace=0)
    check_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first, second = run_bench(workload, trace=1), run_bench(workload, trace=1)
    for result in (first, second):
        check_schema(result, SPEC["per_layer"])
    for name in tracing.COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_disc_mix_keeps_the_tiny_arm_failures():
    result = run_bench("disc-mix", trace=0)
    assert result["failed"] > 0


@pytest.mark.parametrize("backend", ["cartesian", "hex"])
def test_set_up_covers_the_coarse_grid_of_a_warm_start(monkeypatch, backend):
    built = []
    original = quadma.solver.build_grid

    def recording(domain, backend, n, K=None):
        built.append(n)
        return original(domain, backend, n, K)

    monkeypatch.setattr(quadma.solver, "build_grid", recording)
    case = workloads.Case("ex1", backend, 40, warm=True, disc=(0.1, -0.05, 0.8))
    workloads.solve(case, case.build_problem())
    assert built == [workloads.coarse_n(case)]


def test_missing_function_makes_its_layer_absent(monkeypatch):
    renamed = tuple((m, "scheme_apply_renamed" if a == "scheme_apply" else a, n)
                    for m, a, n in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", renamed)
    original_jacobian = quadma.solver.assemble_jacobian
    tracer = tracing.Tracer()
    with tracer.installed():
        _, _, report, _ = quadma.solve_problem(quadma.ex1(), "hex", 16)
    assert report.converged
    assert quadma.solver.assemble_jacobian is original_jacobian
    metrics = tracer.metrics()
    needs_apply = {n for n, (_, spans) in tracing.PER_LAYER.items() if tracing.APPLY in spans}
    assert needs_apply and all(metrics[n] is None for n in needs_apply)
    assert metrics["operator.assemble_jacobian_calls"] == report.iterations
    assert metrics["linalg.splu_calls"] == report.iterations
