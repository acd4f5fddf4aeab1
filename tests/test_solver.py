import dataclasses
import importlib.util
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import solve_linear_reference
from quadma import (BenchmarkProblem, NewtonConfig, assemble_jacobian, build_grid,
                    coarse_to_fine, damped_newton, default_params, disc, ex1, ex2, ex4, max_error,
                    poisson_init, rectangle, scheme_apply, solve_problem, square, solver)
from quadma.cli import main
from quadma.meshing import CLEARANCE
from quadma.operator import _laplacian_system
from quadma.solver import _nearest_node, _solve_linear, interpolate_to_grid


def quad_data(p):
    return 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)


def test_poisson_recovers_quadratic(cart_grid, hex_grid):
    # f = 1 is det D^2 u of the data |x|^2 / 2
    for g in (cart_grid, hex_grid):
        u = poisson_init(g, lambda p: np.ones(len(p)), quad_data)
        assert np.abs(u - quad_data(g.points)).max() <= 1e-10


_coords = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(domain=st.one_of(
           st.builds(square, _coords, st.floats(0.3, 2.0)),
           st.builds(lambda ll, w, a: rectangle(ll, (w, a * w)), _coords, st.floats(0.3, 2.0),
                     st.floats(0.3, 3.0)),
           st.builds(disc, _coords, st.floats(0.3, 1.5))),
       backend=st.sampled_from(["cartesian", "hex"]), n=st.integers(9, 40),
       c=st.floats(0.1, 10.0), a=_coords, b=st.floats(-1.0, 1.0))
def test_poisson_start_is_the_isotropic_quadratic(domain, backend, n, c, a, b):
    # on u = c |x|^2 / 2 + a . x + b the scheme's determinant term is c^2
    # and the Laplacian 2c, both exactly, so f = c^2 starts Newton at u
    grid = build_grid(domain, backend, n)

    def u(p):
        return 0.5 * c * (p ** 2).sum(axis=1) + p @ np.array(a) + b

    exact = u(grid.points)
    start = poisson_init(grid, c * c, u)
    assert np.abs(start - exact).max() <= 1e-10 * np.abs(exact).max()


def test_poisson_trivial_cases(cart_grid, hex_grid, zeros):
    for g in (cart_grid, hex_grid):
        assert np.abs(poisson_init(g, zeros, zeros)).max() <= 1e-13
        ux = poisson_init(g, zeros, lambda p: p[:, 0])
        assert np.abs(ux - g.points[:, 0]).max() <= 1e-12


def test_poisson_linear_residual_small(cart_grid):
    g = cart_grid
    f = lambda p: (1.0 + p[:, 0]) * 2.0
    gb = lambda p: np.cos(p[:, 0]) * np.sinh(p[:, 1])
    u = poisson_init(g, f, gb)
    ni = g.n_interior
    A, B = _laplacian_system(g)
    assert np.array_equal(u[ni:], gb(g.points[ni:]))
    rhs = 2.0 * np.sqrt(f(g.points[:ni]))
    resid = np.abs(A @ u[:ni] + B @ u[ni:] - rhs).max()
    assert resid <= 1e-10 * max(1.0, np.abs(rhs).max(), np.abs(u[ni:]).max())


def test_poisson_rejects_negative_f(cart_grid, zeros):
    with pytest.raises(ValueError):
        poisson_init(cart_grid, lambda p: -np.ones(len(p)), zeros)


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(residual_threshold_factor=0.0)
    for factor in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(residual_threshold_factor=factor)
    with pytest.raises(ValueError):
        NewtonConfig(max_iterations=-3)
    # nan ran 0 steps, 2.5 ran 3 and inf lifted the budget
    for budget in (np.nan, 2.5, np.inf, 3.0, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            NewtonConfig(max_iterations=budget)
    assert NewtonConfig(max_iterations=0).max_iterations == 0
    assert NewtonConfig(max_iterations=np.int64(7)).max_iterations == 7
    with pytest.raises(TypeError):
        NewtonConfig(verbose=True)  # progress goes to the quadma.solver logger


def test_newton_zero_iterations_at_solution():
    prob = ex1()
    grid, values, report, params = solve_problem(prob, "cartesian", 16)
    assert report.converged
    _, report2 = damped_newton(grid, params, prob.f, prob.g, values)
    assert report2.converged
    assert report2.iterations == 0


def test_newton_converges_below_threshold():
    prob = ex1()
    for backend in ("cartesian", "hex"):
        grid, values, report, _ = solve_problem(prob, backend, 16)
        assert report.converged
        assert report.final_residual < grid.h ** 2
        hist = report.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert len(report.alpha_history) == report.iterations


def test_newton_failure_reported_with_monotone_history():
    # a sign-violating right-hand side plus a tiny iteration budget: the
    # run must fail while still reporting a strictly decreasing history
    prob = ex1()
    grid = build_grid(prob.domain, "cartesian", 16)
    params = default_params(grid)
    f_bad = lambda p: prob.f(p) - 40.0 * (p[:, 0] > 0.0)
    u0 = poisson_init(grid, lambda p: np.maximum(f_bad(p), 0.0), prob.g)
    u, report = damped_newton(grid, params, f_bad, prob.g, u0,
                              NewtonConfig(max_iterations=3))
    assert not report.converged
    assert report.message != ""
    hist = report.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def _mid_newton_system(backend, n, K=None):
    """Interior Jacobian and Newton right-hand side of ex1 after two damped steps."""
    prob = ex1()
    grid = build_grid(prob.domain, backend, n, K)
    params = default_params(grid)
    u0 = poisson_init(grid, prob.f, prob.g)
    u, _ = damped_newton(grid, params, prob.f, prob.g, u0, NewtonConfig(max_iterations=2))
    A = assemble_jacobian(grid, u, params)
    return A, -scheme_apply(grid, u, params, prob.f, prob.g)[:grid.n_interior]


@pytest.mark.parametrize("backend,n,K", [("cartesian", 40, 5), ("hex", 32, None)])
def test_solve_linear_krylov_matches_lu(backend, n, K):
    A, b = _mid_newton_system(backend, n, K)
    y, _, failure = _solve_linear(A, b, 1e-8)
    assert failure == ""
    y_lu = spla.splu(A.tocsc()).solve(b)
    assert np.linalg.norm(y - y_lu) <= 1e-7 * np.linalg.norm(y_lu)


@pytest.mark.parametrize("backend,n", [("hex", 32), ("cartesian", 32), ("hex", 16)])
def test_solve_linear_counts_scipy_bicgstab_iterations(backend, n):
    # the count is scipy's full iterations (one callback each), plus one if
    # BiCGSTAB stopped halfway, after the update of x that follows the last
    # callback; ex1's Newton systems at the Poisson start
    prob = ex1()
    grid = build_grid(prob.domain, backend, n)
    params = default_params(grid)
    u0 = poisson_init(grid, prob.f, prob.g)
    A = assemble_jacobian(grid, u0, params)
    b = -scheme_apply(grid, u0, params, prob.f, prob.g)[:grid.n_interior]
    inv_diag = 1.0 / A.diagonal()
    M = spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v, dtype=A.dtype)
    for rtol in (0.1, 1e-3, 1e-6):
        iterates = [np.zeros_like(b)]
        x, info = spla.bicgstab(A, b, rtol=rtol, atol=0.0, M=M,
                                callback=lambda xk: iterates.append(xk.copy()))
        assert info == 0
        halfway = not np.array_equal(x, iterates[-1])
        y, iterations, failure = _solve_linear(A, b, rtol)
        assert failure == "" and np.array_equal(y, x)
        assert iterations == len(iterates) - 1 + halfway


def _solves():
    """ex2 on hex n=32, ex4 on Cartesian n=32 and a warm start on a hex disc:
    values and report of each."""
    prob = ex1()
    disc_prob = BenchmarkProblem("ex1-disc", disc((0.1, -0.05), 0.9), prob.u_exact, prob.f, prob.g)
    solves = [solve_problem(ex2(), "hex", 32), solve_problem(ex4(), "cartesian", 32),
              solve_problem(disc_prob, "hex", 48, warm_start=True)]
    return [(values, dataclasses.asdict(report)) for _, values, report, _ in solves]


def test_solves_equal_those_of_scipy_bicgstab(monkeypatch):
    # every Newton system of these solves, the late ones with tight forcing
    # terms and those where BiCGSTAB stops halfway included, gives scipy's
    # step and iteration count bit for bit: same values, same reports
    shipped = _solves()
    monkeypatch.setattr(solver, "_solve_linear", solve_linear_reference)
    reference = _solves()
    for (values, report), (ref_values, ref_report) in zip(shipped, reference):
        assert report["converged"] and report == ref_report
        assert values.tobytes() == ref_values.tobytes()


@pytest.mark.parametrize("A, b, iterations, cause, info", [
    # v = A (b / diag) = 0, so rtilde . v = 0 on the first half step
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, -1.0], 1, "dot(rtilde, v) = 0", -11),
    # the first iteration leaves r = (-1, 1), orthogonal to rtilde = b
    ([[1.0, -2.0], [0.0, -1.0]], [2.0, 2.0], 1, "|rho| = |dot(rtilde, r)| fell below eps**2", -10),
], ids=["rtilde-v", "rho"])
def test_breakdown_names_its_quantity(A, b, iterations, cause, info):
    A, b = sp.csr_matrix(A), np.array(b)
    assert _solve_linear(A, b, 1e-8) == (None, iterations, f"BiCGSTAB broke down: {cause}")
    # scipy breaks down there too, after as many iterations
    assert solve_linear_reference(A, b, 1e-8) == (None, iterations,
                                                  f"BiCGSTAB failed (scipy info {info})")


def _zero_first_row(*args):
    A = assemble_jacobian(*args).tolil()
    A[0, :] = 0.0  # zero diagonal, singular matrix
    return A.tocsr()


@pytest.mark.parametrize("fault, iterations, cause", [
    ("zero-row", 0, "BiCGSTAB cannot run: the Jacobian has a zero or non-finite diagonal entry"),
    ("iteration-cap", 1, "BiCGSTAB did not reach rtol = 1.000e-01 within its cap of 1 iterations"),
], ids=["zero-row", "iteration-cap"])
def test_failed_linear_solve_fails_the_newton_solve(monkeypatch, fault, iterations, cause):
    # a zero diagonal leaves no Jacobi preconditioner, and one iteration
    # cannot reach the first step's forcing term: either ends the solve as a
    # failure with its cause, and the failed step keeps its linear entries
    if fault == "zero-row":
        monkeypatch.setattr(solver, "assemble_jacobian", _zero_first_row)
    else:
        monkeypatch.setattr(solver, "BICGSTAB_MAXITER", 1)
    prob = ex1()
    grid = build_grid(prob.domain, "hex", 16)
    params = default_params(grid)
    u0 = poisson_init(grid, prob.f, prob.g)
    u, report = damped_newton(grid, params, prob.f, prob.g, u0)
    assert report.converged is False
    assert report.message == f"linear solve failed: {cause}"
    assert report.iterations == 0 and report.alpha_history == []
    assert report.residual_history == [report.final_residual]
    assert report.linear_iterations == [iterations]
    assert report.forcing == [0.1]
    assert np.array_equal(u, u0)


@pytest.mark.parametrize("make, iterations, alphas, error", [
    (ex1, 3, [1.0, 1.0, 1.0], 7.0337e-3),
    (ex4, 10, [1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0], 6.8945e-3),
], ids=["ex1", "ex4"])
def test_newton_history_cartesian_n72_k5(make, iterations, alphas, error):
    prob = make()
    grid, values, report, _ = solve_problem(prob, "cartesian", 72, K=5)
    assert report.converged
    assert report.iterations == iterations
    assert report.alpha_history == alphas
    assert len(report.linear_iterations) == iterations
    assert float(f"{max_error(grid, values, prob):.4e}") == error


@pytest.mark.parametrize("backend,n", [("cartesian", 24), ("hex", 20)])
@pytest.mark.parametrize("start", ["noisy-poisson", "warm"])
def test_newton_keeps_boundary_exactly_g(backend, n, start):
    prob = ex4()
    grid = build_grid(prob.domain, backend, n)
    params = default_params(grid)
    if start == "warm":
        u0 = coarse_to_fine(prob, grid, 12)
    else:
        noise = 1e-3 * np.random.default_rng(31).standard_normal(grid.n_points)
        u0 = poisson_init(grid, prob.f, prob.g) + noise  # on every node, boundary included
    ni = grid.n_interior
    g = prob.g(grid.points[ni:])
    # the warm start puts g on the boundary itself; the noisy one does not
    assert np.array_equal(u0[ni:], g) == (start == "warm")
    given = u0.copy()
    u, report = damped_newton(grid, params, prob.f, prob.g, u0)
    assert report.converged, report.message
    assert np.array_equal(u0, given)
    assert np.array_equal(u[ni:], g)
    res = scheme_apply(grid, u, params, prob.f, prob.g)
    assert np.all(res[ni:] == 0.0)


def _progress_lines(report):
    """The progress line of each accepted Newton step of ``report``."""
    return [f"iter {i + 1}: residual={report.residual_history[i + 1]:.6e}, "
            f"alpha={report.alpha_history[i]:.6e}, krylov_its={report.linear_iterations[i]}, "
            f"eta={report.forcing[i]:.3e}"
            for i in range(report.iterations)]


def test_newton_logs_each_step_at_debug(caplog):
    prob = ex1()
    grid = build_grid(prob.domain, "hex", 12)
    params = default_params(grid)
    u0 = poisson_init(grid, prob.f, prob.g)
    with caplog.at_level(logging.DEBUG, logger="quadma.solver"):
        _, report = damped_newton(grid, params, prob.f, prob.g, u0)
    records = [r for r in caplog.records if r.name == "quadma.solver"]
    assert report.converged and report.iterations >= 2
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.getMessage() for r in records] == _progress_lines(report)


@pytest.mark.parametrize("warm_start", [False, True])
def test_solve_writes_nothing_to_standard_streams(capsys, warm_start):
    _, _, report, _ = solve_problem(ex4(), "cartesian", 24, warm_start=warm_start)
    assert report.converged
    assert capsys.readouterr() == ("", "")


def test_newton_verbose_logs_to_stderr(capsys):
    # --verbose shows the quadma.solver records on stderr, one line per step,
    # for that call only: no leaked level, no handler left behind
    argv = ["solve", "--problem", "ex1", "--backend", "hex", "--n", "12"]
    _, _, report, _ = solve_problem(ex1(), "hex", 12)
    expected = "".join(line + "\n" for line in _progress_lines(report))
    quadma_logger = logging.getLogger("quadma")
    state = quadma_logger.level, list(quadma_logger.handlers)

    assert main([*argv, "--verbose"]) == 0
    assert capsys.readouterr().err == expected
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    for _ in range(2):
        assert main([*argv, "--verbose"]) == 0
    assert capsys.readouterr().err == expected * 2
    assert (quadma_logger.level, quadma_logger.handlers) == state


def test_line_search_stall_report(monkeypatch):
    # a zero Newton step never decreases the residual: the line search tries
    # all 21 step lengths 1, 1/2, ..., 2**-20 and the solve stops there
    prob = ex1()
    grid = build_grid(prob.domain, "hex", 16)
    params = default_params(grid)
    u0 = poisson_init(grid, prob.f, prob.g)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return scheme_apply(*args, **kwargs)

    monkeypatch.setattr(solver, "_solve_linear",
                        lambda A, b, rtol: (np.zeros_like(b), 0, ""))
    monkeypatch.setattr(solver, "scheme_apply", counted)
    _, report = damped_newton(grid, params, prob.f, prob.g, u0)
    assert report.converged is False
    assert report.iterations == 0
    assert report.message.startswith("line search stalled")
    assert report.final_residual == report.residual_history[-1]
    assert report.linear_iterations == [0]
    assert report.alpha_history == []
    assert len(calls) == 22


def test_newton_rejects_nonfinite_start(cart_grid, zeros):
    params = default_params(cart_grid)
    bad = np.zeros(cart_grid.n_points)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        damped_newton(cart_grid, params, zeros, zeros, bad)


@pytest.mark.parametrize("field, value", [("f", np.nan), ("g", np.inf)])
def test_non_finite_data_is_a_value_error(field, value):
    # bad data is a ValueError, not a solver failure or a spent iteration budget
    prob = ex1()
    data = {"f": prob.f, "g": prob.g}
    good = data[field]
    data[field] = lambda p: np.where(p[:, 0] > 0.5, value, good(p))
    bad = BenchmarkProblem("bad", prob.domain, prob.u_exact, **data)
    grid = build_grid(prob.domain, "hex", 16)
    match = f"{field} must be finite"
    with pytest.raises(ValueError, match=match):
        poisson_init(grid, bad.f, bad.g)
    with pytest.raises(ValueError, match=match):
        damped_newton(grid, default_params(grid), bad.f, bad.g,
                      poisson_init(grid, prob.f, prob.g))
    with pytest.raises(ValueError, match=match):
        solve_problem(bad, "hex", 16)


def test_solution_independent_of_start():
    prob = ex1()
    grid, u_a, rep_a, params = solve_problem(prob, "cartesian", 32)
    pert = 0.3 * np.sin(3 * grid.points[:, 0]) * np.cos(2 * grid.points[:, 1])
    pert[~grid.interior] = 0.0
    u0 = poisson_init(grid, prob.f, prob.g) + pert
    u_b, rep_b = damped_newton(grid, params, prob.f, prob.g, u0)
    assert rep_a.converged and rep_b.converged
    assert np.abs(u_a - u_b).max() <= 10.0 * grid.h ** 2


def test_coarse_to_fine_warm_start_not_slower():
    # The Poisson start solves both cases cold in 2 steps, fewer than a warm
    # start takes, so the warm counts have fixed bounds.  On hex, a
    # prolongation that loses the coarse solution's curvature
    # (piecewise-linear, say) starts Newton 10 steps away.
    prob = ex1()
    _, _, rep_warm, _ = solve_problem(prob, "cartesian", 33, warm_start=True, coarse_n=17)
    assert rep_warm.converged
    assert rep_warm.iterations <= 4
    disc_prob = BenchmarkProblem("ex1-disc", disc((0.1, -0.05), 0.9), prob.u_exact, prob.f, prob.g)
    _, _, rep_warm, _ = solve_problem(disc_prob, "hex", 80, warm_start=True)
    assert rep_warm.converged
    assert rep_warm.iterations <= 5


# An explicit coarse size of n and of n + 4, and default sizes that reach n
# (hex: 8; Cartesian: 12, the floor of K = 2) or pass it.
@pytest.mark.parametrize("backend,n,coarse_n", [
    ("hex", 16, 16), ("hex", 16, 20), ("cartesian", 16, 16), ("cartesian", 16, 20),
    ("hex", 8, None), ("cartesian", 10, None), ("cartesian", 12, None)])
def test_coarse_size_not_below_n_is_rejected(backend, n, coarse_n):
    prob = ex1()
    message = f"coarse grid size must be below n = {n}"
    with pytest.raises(ValueError, match=message):
        coarse_to_fine(prob, build_grid(prob.domain, backend, n), coarse_n)
    with pytest.raises(ValueError, match=message):
        solve_problem(prob, backend, n, warm_start=True, coarse_n=coarse_n)


def test_coarse_size_without_warm_start_is_rejected():
    with pytest.raises(ValueError, match="needs warm_start"):
        solve_problem(ex1(), "hex", 16, coarse_n=8)


def test_coarse_to_fine_constant_exact():
    dom = square((0.0, 0.0), 1.0)
    const = BenchmarkProblem("const", dom,
                             lambda p: np.full(len(p), 2.5),
                             lambda p: np.zeros(len(p)),
                             lambda p: np.full(len(p), 2.5))
    for backend in ("cartesian", "hex"):
        u0 = coarse_to_fine(const, build_grid(dom, backend, 24), 12)
        assert np.abs(u0 - 2.5).max() <= 1e-12


_coords = st.floats(-1.0, 1.0)
_domains = st.one_of(
    st.builds(square, st.tuples(_coords, _coords), st.floats(0.5, 2.0)),
    st.builds(lambda ll, w, a: rectangle(ll, (w, a * w)), st.tuples(_coords, _coords),
              st.floats(0.5, 2.0), st.floats(0.3, 3.0)),
    st.builds(disc, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.floats(0.3, 1.5)),
)


_coefficients = st.tuples(*[st.floats(-2.0, 2.0)] * 6)


def _quadratic(c):
    return lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0] ** 2
                      + c[4] * p[:, 0] * p[:, 1] + c[5] * p[:, 1] ** 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(domain=_domains, backend=st.sampled_from(["cartesian", "hex"]), K=st.integers(2, 4),
       coarse_n=st.integers(12, 30), extra=st.integers(1, 30), c=_coefficients)
def test_interpolation_reproduces_quadratics(domain, backend, K, coarse_n, extra, c):
    # the gradient and Hessian fitted to a coarse node's stencil differences
    # are exact on quadratics, so each Taylor polynomial is the quadratic itself
    K = K if backend == "cartesian" else None
    coarse = build_grid(domain, backend, coarse_n, K)
    fine = build_grid(domain, backend, coarse_n + extra, K)
    u = _quadratic(c)
    scale = max(1.0, np.abs(u(coarse.points)).max())
    values = interpolate_to_grid(coarse, u(coarse.points), fine, u)
    assert np.abs(values - u(fine.points)).max() <= 1e-9 * scale


@pytest.mark.parametrize("fine_backend,fine_K", [("cartesian", 1), ("cartesian", 3), ("hex", None)])
def test_interpolation_from_two_angles_misses_only_the_cross_term(fine_backend, fine_K):
    # a Cartesian K = 1 coarse grid has only the axis angles, whose second
    # differences do not see uxy: quadratics without an xy term are still
    # reproduced, and the cross term is left out
    domain = disc((0.2, -0.1), 0.8)
    coarse = build_grid(domain, "cartesian", 13, 1)
    fine = build_grid(domain, fine_backend, 37, fine_K)

    def error(u):
        return np.abs(interpolate_to_grid(coarse, u(coarse.points), fine, u) - u(fine.points)).max()

    assert error(_quadratic((0.4, -0.3, 0.9, 1.2, 0.0, 0.7))) <= 1e-12
    assert error(_quadratic((0.4, -0.3, 0.9, 1.2, 0.5, 0.7))) > 1e-4


_lattice = st.integers(-8, 8)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nodes=st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=40, unique=True),
       queries=st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), min_size=1,
                        max_size=40),
       one_row=st.booleans())
@example(nodes=[(0, -3), (5, -1), (3, 0)], queries=[(0, 0)], one_row=False)
def test_nearest_node_matches_brute_force(nodes, queries, one_row):
    # nodes on the integer lattice in [-8, 8]^2 and queries on the
    # half-integer one in [-30, 30]^2, most far outside the nodes' box:
    # distances are exact, so midpoints tie exactly, and the smallest index
    # must win, as argmin's first minimum does.  The example
    # ties across rows: (3, 0), in the query's own row, and (0, -3), two
    # rows down, are both 3 away, and the second has the smaller index.
    nodes = np.array(nodes, dtype=float)
    if one_row:
        nodes = np.unique(np.column_stack([nodes[:, 0], np.full(len(nodes), 3.0)]), axis=0)
    nodes = nodes[np.lexsort((nodes[:, 0], nodes[:, 1]))]
    queries = 0.5 * np.array(queries, dtype=float)
    distances = ((queries[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(_nearest_node(nodes, queries), distances.argmin(axis=1))


@pytest.mark.parametrize("extra", [-1, 1])
def test_interpolation_rejects_values_of_the_wrong_length(cart_grid, hex_grid, extra):
    values = np.zeros(cart_grid.n_points + extra)
    with pytest.raises(ValueError):
        interpolate_to_grid(cart_grid, values, hex_grid, lambda p: np.zeros(len(p)))


def test_coarse_to_fine_rejects_finer_coarse():
    with pytest.raises(ValueError):
        coarse_to_fine(ex1(), build_grid(ex1().domain, "hex", 16), 32)


def test_solve_on_disc_domain():
    # the scheme is not tied to square domains: same data, disc domain
    from quadma import BenchmarkProblem, disc, max_error
    base = ex1()
    dom = disc((0.0, 0.0), 1.0)
    prob = BenchmarkProblem("radial-disc", dom, base.u_exact, base.f, base.g)
    for backend in ("cartesian", "hex"):
        grid = build_grid(dom, backend, 24)
        params = default_params(grid)
        u0 = poisson_init(grid, prob.f, prob.g)
        u, rep = damped_newton(grid, params, prob.f, prob.g, u0)
        assert rep.converged
        assert max_error(grid, u, prob) < 0.05


@pytest.mark.parametrize("make", [ex1, ex4], ids=["ex1", "ex4"])
@pytest.mark.parametrize("backend,n", [("cartesian", 40), ("hex", 32)])
def test_inexact_steps_meet_their_forcing_terms(monkeypatch, make, backend, n):
    steps = []

    def recorded(A, b, rtol):
        y, iterations, failure = _solve_linear(A, b, rtol)
        steps.append((A, b, rtol, y, failure))
        return y, iterations, failure

    monkeypatch.setattr(solver, "_solve_linear", recorded)
    prob = make()
    grid, values, report, params = solve_problem(prob, backend, n)
    assert report.converged
    assert report.forcing == [rtol for _, _, rtol, _, _ in steps]
    assert len(report.linear_iterations) == len(steps) == report.iterations
    assert all(1e-8 <= eta <= 0.1 for eta in report.forcing)
    assert report.forcing[0] == 0.1
    for A, b, eta, y, failure in steps:
        assert failure == ""
        assert np.linalg.norm(A @ y - b) <= eta * np.linalg.norm(b)
    residual = np.abs(scheme_apply(grid, values, params, prob.f, prob.g)).max()
    assert residual < grid.h ** 2


def _bench_error_bound(case_args, grid):
    """The benchmark's error bound for a disc case (``bench/workloads.py``)."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses resolve names through it
        spec.loader.exec_module(workloads)
    case = workloads.Case(*case_args)
    return workloads.error_bound(case, grid, workloads.load_bounds())


@pytest.mark.parametrize("center,radius,backend,n", [
    ((0.1, 0.03), 0.77, "cartesian", 51),
    ((0.0, 0.0), 1.0, "cartesian", 79),
    ((-0.10832411072436261, -0.011629459537142173), 0.9166741524175653, "hex", 80),
])
def test_tiny_arm_discs_converge(center, radius, backend, n):
    # Without the boundary clearance these grids had arms of 2e-16*h to
    # 5e-15*h, and Newton stalled or ran out of iterations on them.
    base = ex1()
    prob = BenchmarkProblem("ex1-disc", disc(center, radius), base.u_exact, base.f, base.g)
    grid, values, report, _ = solve_problem(prob, backend, n)
    assert report.converged, report.message
    assert min(grid.h_plus.min(), grid.h_minus.min()) >= CLEARANCE * grid.h
    bound = _bench_error_bound(("ex1", backend, n, None, False, (*center, radius)), grid)
    assert max_error(grid, values, prob) <= bound


_FOOTPRINT = """
import sys
import quadma
from quadma import ex1, solve_problem
loaded = lambda: [m for m in ("scipy.spatial", "scipy.interpolate") if m in sys.modules]
print("import", loaded())
print("cold", solve_problem(ex1(), "hex", 16)[2].converged, loaded())
print("warm", solve_problem(ex1(), "hex", 16, warm_start=True)[2].converged, loaded())
"""


def test_solves_load_neither_scipy_spatial_nor_interpolate():
    # scipy.spatial costs about 8 MB of resident memory and scipy.interpolate
    # 12 MB more, and no solve, cold or warm, needs either.  A fresh
    # interpreter, so that no other test has imported them already.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["import []", "cold True []", "warm True []"]
