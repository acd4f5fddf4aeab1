import re

import numpy as np
import pytest

import quadma.benchmarks as bm
from quadma import (BENCHMARKS, NewtonConfig, SolveReport, build_grid, convergence_study, ex1,
                    ex2, ex3, ex4, fit_order, max_error, solve_problem)


def val(func, x, y):
    return float(func(np.array([[x, y]]))[0])


def test_ex1_spot_values():
    p = ex1()
    assert val(p.u_exact, 0, 0) == pytest.approx(1.0)
    assert val(p.f, 0, 0) == pytest.approx(1.0)
    assert p.domain.bounding_box == (-1.0, 1.0, -1.0, 1.0)


def test_ex2_spot_values():
    p = ex2()
    assert val(p.u_exact, 0.5, 0.5) == pytest.approx(0.0)
    assert val(p.f, 0.6, 0.5) == pytest.approx(0.0)      # radius 0.1: inside the flat disc
    assert val(p.f, 0.9, 0.5) == pytest.approx(0.5)      # radius 0.4: 1 - 0.2/0.4
    assert val(p.f, 0.5, 0.5) == pytest.approx(0.0)      # the center itself
    assert val(p.u_exact, 0.9, 0.5) == pytest.approx(0.5 * 0.2 ** 2)


def test_ex3_spot_values():
    p = ex3()
    assert val(p.u_exact, 0, 0) == pytest.approx(-np.sqrt(2.0))
    assert val(p.f, 0, 0) == pytest.approx(0.5)
    assert val(p.u_exact, 1, 1) == pytest.approx(0.0, abs=1e-12)


def test_ex4_spot_values():
    p = ex4()
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert np.all(p.f(pts) == 0.0)
    assert val(p.u_exact, 1, 1) == pytest.approx(1.0)
    # rank-one Hessian: eigenvalues {0, 2 |gamma|^2} everywhere
    gamma = np.array([0.6, 0.4])
    hess = 2.0 * np.outer(gamma, gamma)
    eig = np.linalg.eigvalsh(hess)
    assert eig[0] == pytest.approx(0.0, abs=1e-15)
    assert eig[1] == pytest.approx(2 * (0.6 ** 2 + 0.4 ** 2))


def test_f_nonnegative_and_g_matches_u_on_boundary():
    rng = np.random.default_rng(11)
    for make in BENCHMARKS.values():
        p = make()
        xmin, xmax, ymin, ymax = p.domain.bounding_box
        inner = rng.uniform([xmin, ymin], [xmax, ymax], size=(500, 2))
        inner = inner[p.domain.signed_distance(inner) < -1e-9]
        assert np.all(p.f(inner) >= 0.0)
        t = rng.uniform(xmin, xmax, 40)
        edges = np.concatenate([
            np.column_stack([t, np.full(40, ymin)]),
            np.column_stack([t, np.full(40, ymax)]),
            np.column_stack([np.full(40, xmin), rng.uniform(ymin, ymax, 40)]),
        ])
        assert np.abs(p.g(edges) - p.u_exact(edges)).max() <= 1e-14


def _fd_hessian_det(u, x, y, delta=1e-4):
    def U(xx, yy):
        return float(u(np.array([[xx, yy]]))[0])
    uxx = (U(x + delta, y) - 2 * U(x, y) + U(x - delta, y)) / delta ** 2
    uyy = (U(x, y + delta) - 2 * U(x, y) + U(x, y - delta)) / delta ** 2
    uxy = (U(x + delta, y + delta) - U(x + delta, y - delta)
           - U(x - delta, y + delta) + U(x - delta, y - delta)) / (4 * delta ** 2)
    return uxx * uyy - uxy ** 2


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_f_consistent_with_numerical_hessian_determinant(name):
    # independent oracle: determinant of a central-difference Hessian of
    # u_exact must reproduce f away from kinks and the singular corner
    p = BENCHMARKS[name]()
    rng = np.random.default_rng(12)
    xmin, xmax, ymin, ymax = p.domain.bounding_box
    checked = 0
    while checked < 100:
        x, y = rng.uniform([xmin + 0.05, ymin + 0.05], [xmax - 0.05, ymax - 0.05])
        if name == "ex2" and abs(np.hypot(x - 0.5, y - 0.5) - 0.2) < 0.05:
            continue
        if name == "ex3" and x * x + y * y > 1.7:
            continue
        det = _fd_hessian_det(p.u_exact, x, y)
        fval = val(p.f, x, y)
        assert det == pytest.approx(fval, abs=1e-6 * max(1.0, abs(fval)))
        checked += 1


def test_max_error_definition(cart_grid):
    p = ex1()

    class FakeGrid:
        points = cart_grid.points

    exact = p.u_exact(cart_grid.points)
    assert max_error(FakeGrid, exact, p) == 0.0
    assert max_error(FakeGrid, exact + 0.25, p) == pytest.approx(0.25)


@pytest.mark.parametrize("shape", [(), (1,), (223,), (225,), (224, 1), (1, 224)])
def test_max_error_rejects_a_wrongly_shaped_computed(shape):
    # all but the last two were broadcast against u_exact and gave a number
    p = ex1()
    grid = build_grid(p.domain, "hex", 16)
    assert grid.n_points == 224
    with pytest.raises(ValueError, match=rf"computed has shape {re.escape(str(shape))}, "
                                         r"expected \(224,\)"):
        max_error(grid, np.zeros(shape), p)


def test_error_decreases_with_refinement_cartesian():
    p = ex1()
    g16, v16, _, _ = solve_problem(p, "cartesian", 16)
    g32, v32, _, _ = solve_problem(p, "cartesian", 32)
    assert max_error(g32, v32, p) < max_error(g16, v16, p)


def test_fit_order_recovers_synthetic_order():
    ns = np.array([16, 32, 64, 128])
    errs = 3.0 * ns ** -1.5
    order, order_all, excluded = fit_order(ns, errs)
    assert order == pytest.approx(1.5, abs=1e-10)
    assert not excluded
    # a coarsest-row transient well off the line is dropped
    errs2 = errs.copy()
    errs2[0] *= 60.0
    order2, order2_all, excluded2 = fit_order(ns, errs2)
    assert excluded2
    assert order2 == pytest.approx(1.5, abs=1e-10)
    assert order2_all > order2


def test_fit_order_skipped_for_exact_data():
    order, order_all, excluded = fit_order([16, 32, 64], [0.0, 1e-16, 1e-15])
    assert np.isnan(order) and np.isnan(order_all)


@pytest.mark.parametrize("ns", [[0, 16], [-16, 32], [16, np.inf], [np.nan, 16]])
def test_fit_order_rejects_sizes_that_are_not_positive(ns):
    # a zero size fed log(0) to the least-squares fit, which failed in LAPACK
    with pytest.raises(ValueError, match="finite and positive"):
        fit_order(ns, [1e-3, 1e-4])


def test_fit_order_needs_one_error_per_size():
    # the lengths were compared nowhere: numpy's boolean index raised IndexError
    with pytest.raises(ValueError, match="3 sizes and 2 errors"):
        fit_order([16, 32, 64], [1e-2, 1e-3])


@pytest.mark.parametrize("ns, errors, named", [
    ([16, 32], ["1e-2", "1e-3"], "errors must be real numbers"),
    ([True, 32], [1e-2, 1e-3], "ns must be real numbers"),
    (["16", "32"], [1e-2, 1e-3], "ns must be real numbers"),
    ([16, 32], [1e-2, b"1e-3"], "errors must be real numbers"),
    ([16, 16], [1e-2, 1e-3], "ns must be distinct"),
    ([16, 32, 16], [1e-2, 1e-3, 1e-4], "ns must be distinct"),
])
def test_fit_order_rejects_what_is_not_a_distinct_size_or_an_error(ns, errors, named):
    # strings and bools were parsed as numbers (order 3.32 and 0.66), and a
    # repeated size made polyfit raise RankWarning, then return 1.04
    with pytest.raises(ValueError, match=named):
        fit_order(ns, errors)


def test_study_with_exact_stub(monkeypatch):
    p = ex1()

    def fake_solve(problem, backend, n, **kw):
        grid = bm.build_grid(problem.domain, backend, n)
        values = problem.u_exact(grid.points)
        report = SolveReport(converged=True, iterations=0, final_residual=0.0)
        return grid, values, report, None

    monkeypatch.setattr(bm, "solve_problem", fake_solve)
    result = bm.convergence_study(p, "hex", [12, 16, 24])
    assert all(row.max_error <= 1e-12 for row in result.rows)
    assert np.isnan(result.order)


def test_study_records_failed_rows(monkeypatch):
    p = ex1()
    real = bm.solve_problem

    def flaky(problem, backend, n, **kw):
        if n == 16:
            raise RuntimeError("synthetic failure")
        return real(problem, backend, n, **kw)

    monkeypatch.setattr(bm, "solve_problem", flaky)
    result = bm.convergence_study(p, "hex", [12, 16, 24])
    assert not result.rows[1].converged
    assert "synthetic failure" in result.rows[1].message
    assert result.rows[0].converged and result.rows[2].converged


def test_study_keeps_the_message_of_a_row_that_did_not_converge():
    # a budget of one Newton step fails both rows; converged rows say nothing
    cfg = NewtonConfig(max_iterations=1)
    failed = bm.convergence_study(ex1(), "hex", [12, 16], cfg=cfg)
    assert [(row.converged, row.message) for row in failed.rows] == [
        (False, "iteration budget exhausted (1)")] * 2
    assert [row.message for row in bm.convergence_study(ex1(), "hex", [12, 16]).rows] == ["", ""]


def test_study_requires_increasing_sizes():
    for n_list in ([32, 16], [16, 16]):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(ex1(), "hex", n_list)


@pytest.mark.parametrize("backend,c_K", [("cartesian", 1.0), ("cartesian", None), ("hex", None)])
def test_study_rejects_a_negative_size(backend, c_K):
    # the depth schedule took the cube root of -8, a complex number
    with pytest.raises(ValueError):
        convergence_study(ex1(), backend, [-8, 16], c_K=c_K)


@pytest.mark.parametrize("backend,K", [("hex", None), ("hexagonal", None), ("cartesian", 2)])
def test_study_rejects_a_c_K_it_would_ignore(monkeypatch, backend, K):
    # c_K scales the Cartesian depth schedule: the hex backend has no depth,
    # and a fixed K replaces the schedule
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite an ignored c_K")

    monkeypatch.setattr(bm, "solve_problem", no_solve)
    with pytest.raises(ValueError, match="c_K"):
        convergence_study(ex1(), backend, [16, 24], K=K, c_K=3.0)
