"""Every function the benchmark's traced run wraps still exists, and the
solve still calls them through the wrapped names.

``bench/tracing.py`` times each layer by wrapping a module attribute named
in its ``TARGETS``.  A target that was renamed or removed makes its layer
absent, and the per-layer metrics computed from it read ``None`` without
any error.  The benchmark's own checks (``bench/test_bench.py``) run
outside this suite, so the guard lives here.  It only reads ``bench/``.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module,attribute,span", _targets())
def test_traced_target_resolves(module, attribute, span):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), f"{module}.{attribute} (span {span}) does not exist"


def test_newton_reaches_its_layers_through_the_solver_namespace(monkeypatch):
    # The traced run counts Jacobians and residuals by wrapping these two
    # names in quadma.solver; a solve that bypassed them would go uncounted.
    from quadma import ex1, solve_problem, solver

    calls = {"assemble_jacobian": 0, "scheme_apply": 0}
    for name in calls:
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    _, _, report, _ = solve_problem(ex1(), "hex", 16)
    assert report.converged
    assert calls["assemble_jacobian"] == len(report.linear_iterations) == report.iterations
    # one residual at the start, then one per line-search trial (alpha halves)
    trials = sum(1 + round(-math.log2(alpha)) for alpha in report.alpha_history)
    assert calls["scheme_apply"] == 1 + trials


def test_warm_start_reaches_its_layers_through_the_traced_namespaces(monkeypatch):
    # The traced run times the warm start and its coarse solve by wrapping
    # these names; each runs once in a warm solve.
    from quadma import ex1, solve_problem

    once = {("quadma.benchmarks", "coarse_to_fine"), ("quadma.solver", "build_grid"),
            ("quadma.solver", "poisson_init"), ("quadma.solver", "damped_newton"),
            ("quadma.solver", "interpolate_to_grid")}
    wrapped = {(module, attribute) for module, attribute, _ in _targets()}
    assert once <= wrapped
    calls = dict.fromkeys(once, 0)
    for key in once:
        module = importlib.import_module(key[0])
        original = getattr(module, key[1])

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, key[1], counted)
    _, _, report, _ = solve_problem(ex1(), "hex", 16, warm_start=True)
    assert report.converged
    assert calls == dict.fromkeys(once, 1)


@pytest.mark.parametrize("backend", ["cartesian", "hex"])
def test_builders_reach_augment_boundary_through_the_meshing_namespace(backend, monkeypatch):
    # The traced run times the boundary pass by wrapping this name in
    # quadma.meshing, and test_meshing swaps in a reference through it; a
    # builder holding its own binding would escape both.
    from quadma import build_grid, meshing, square

    calls = []
    original = meshing.augment_boundary

    def counted(*args, **kwargs):
        calls.append(backend)
        return original(*args, **kwargs)

    monkeypatch.setattr(meshing, "augment_boundary", counted)
    grid = build_grid(square((0.0, 0.0), 1.0), backend, 16)
    assert calls == [backend]
    assert grid.n_points > grid.n_interior
