import numpy as np
import pytest
import scipy.sparse as sp

from oracles import regularized_det_reference, stencil_matrix_reference
from quadma import (SchemeParams, assemble_jacobian, default_epsilon, default_params,
                    hex_angles, l1_angles, scheme_apply, sdd_matrix, simpson_weights,
                    trapezoid_weights, uniform_angles)
from quadma.operator import _jacobian_coefficients


def quadratic(points, m):
    return 0.5 * (m[0, 0] * points[:, 0] ** 2 + 2 * m[0, 1] * points[:, 0] * points[:, 1]
                  + m[1, 1] * points[:, 1] ** 2)


def test_sdd_exact_on_quadratics_centered(cart_grid):
    g = cart_grid
    u = g.points[:, 0] ** 2
    centers = g.points[:g.n_interior]
    far = np.flatnonzero(np.abs(centers - 0.5).max(axis=1) < 0.2)
    node = int(far[0])
    assert sdd_matrix(g, u)[node, 0] == pytest.approx(2.0, abs=1e-11)
    angle_pi2 = int(np.argmin(np.abs(g.angles.angles - np.pi / 2)))
    assert sdd_matrix(g, u)[node, angle_pi2] == pytest.approx(0.0, abs=1e-11)


def test_sdd_exact_on_quadratics_uncentered(square9_k2):
    g = square9_k2
    u = g.points[:, 0] ** 2
    centers = g.points[:g.n_interior]
    node = int(np.flatnonzero((np.abs(centers[:, 0] - 0.875) < 1e-12)
                              & (np.abs(centers[:, 1] - 0.5) < 1e-12))[0])
    assert g.h_plus[node, 0] != g.h_minus[node, 0]
    assert sdd_matrix(g, u)[node, 0] == pytest.approx(2.0, abs=1e-10)


def test_scheme_on_isotropic_quadratic(cart_grid, hex_grid):
    for g in (cart_grid, hex_grid):
        params = default_params(g)
        u = 0.5 * (g.points[:, 0] ** 2 + g.points[:, 1] ** 2)
        res = scheme_apply(g, u, params, lambda p: np.ones(len(p)),
                           lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        # all differences equal 1: operator value -1 - eps, so residual -eps
        assert np.allclose(res[:g.n_interior], -params.epsilon, atol=1e-10)
        assert np.allclose(res[g.n_interior:], 0.0, atol=1e-12)


def test_scheme_matches_reference_on_quadratics(cart_grid, hex_grid, zeros):
    m = np.array([[2.0, 0.3], [0.3, 3.0]])
    for g in (cart_grid, hex_grid):
        params = default_params(g)
        u = quadratic(g.points, m)
        res = scheme_apply(g, u, params, zeros, zeros)
        ref = regularized_det_reference(m, params.epsilon, params.quadrature)
        assert np.abs(res[:g.n_interior] - (-ref - params.epsilon)).max() <= 1e-12


def test_scheme_concave_limit(cart_grid, zeros):
    g = cart_grid
    params = default_params(g)
    u = -0.5 * (g.points[:, 0] ** 2 + g.points[:, 1] ** 2)
    res = scheme_apply(g, u, params, zeros, zeros)
    # every difference is -1: the scheme returns the negative smallest
    # eigenvalue up to the eps ** 2 regularization artifact
    assert np.allclose(res[:g.n_interior], 1.0 - params.epsilon ** 2, atol=1e-12)


def test_regularized_det_reference_examples():
    fine = trapezoid_weights(uniform_angles(512))
    assert regularized_det_reference(np.eye(2), 1e-9, fine) == pytest.approx(1.0, abs=1e-12)
    assert regularized_det_reference(np.eye(2), 1e-9, trapezoid_weights(hex_angles())) \
        == pytest.approx(1.0, abs=1e-12)
    assert regularized_det_reference(np.diag([2.0, 3.0]), 1e-12, fine) \
        == pytest.approx(6.0, abs=1e-10)


def test_regularized_det_degenerate_vanishes_with_eps():
    rule = trapezoid_weights(uniform_angles(512))
    vals = [regularized_det_reference(np.diag([0.0, 1.0]), eps, rule)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_scheme_params_validation(cart_grid):
    with pytest.raises(ValueError):
        SchemeParams(0.0, simpson_weights(l1_angles(2)))
    mismatched = SchemeParams(1e-3, trapezoid_weights(hex_angles()))
    with pytest.raises(ValueError):
        scheme_apply(cart_grid, np.zeros(cart_grid.n_points), mismatched,
                     lambda p: np.zeros(len(p)), lambda p: np.zeros(len(p)))


@pytest.mark.parametrize("backend", ["cartesian", "hex"])
def test_jacobian_rejects_a_rule_for_another_angle_set(both_grids, backend):
    # the residual's check, not numpy's shape error in the quadrature sum
    grid = both_grids[backend]
    other = hex_angles() if backend == "cartesian" else l1_angles(2)
    mismatched = SchemeParams(1e-3, trapezoid_weights(other))
    with pytest.raises(ValueError, match="quadrature rule does not match the grid's angle set"):
        assemble_jacobian(grid, np.zeros(grid.n_points), mismatched)


def test_default_epsilon(cart_grid, hex_grid):
    assert default_epsilon(cart_grid) == pytest.approx(cart_grid.r ** 2)
    assert default_epsilon(hex_grid) == pytest.approx(hex_grid.h ** 2)


def test_jacobian_sparsity_within_stencil(cart_grid):
    g = cart_grid
    rng = np.random.default_rng(6)
    u = quadratic(g.points, np.array([[1.5, 0.2], [0.2, 1.0]]))
    u += 0.001 * g.h ** 2 * rng.standard_normal(g.n_points)
    params = default_params(g)
    ni = g.n_interior
    B = stencil_matrix_reference(g, _jacobian_coefficients(g, u, params)).tocsr()[:ni, ni:]
    J = sp.hstack([assemble_jacobian(g, u, params), B]).tocsr()
    assert J.shape == (g.n_interior, g.n_points)
    for i in range(0, g.n_interior, 7):
        cols = set(J.getrow(i).indices)
        allowed = {i} | set(g.plus_index[i]) | set(g.minus_index[i])
        assert cols.issubset(allowed)


def test_jacobian_tie_takes_constant_branch(square9_k2):
    # h = 1/8 and u = (x^2 + 3 y^2) / 2: on centered arms, the difference
    # at angle 0 is exactly 1 = eps, the smallest at its node.  At that tie
    # neither the quadrature sum (D_j > eps) nor the min term (D_j < eps)
    # contributes, so the coefficient is 0; the other angles stay active.
    g = square9_k2
    params = SchemeParams(1.0, default_params(g).quadrature)
    u = 0.5 * (g.points[:, 0] ** 2 + 3.0 * g.points[:, 1] ** 2)
    D = sdd_matrix(g, u)
    tie = D[:, 0] == params.epsilon
    centered = g.h_plus[:, 0] == g.h_minus[:, 0]
    assert centered.any() and np.all(tie[centered])
    assert np.all(D[tie, 1:] > params.epsilon)
    G = _jacobian_coefficients(g, u, params)
    assert np.all(G[tie, 0] == 0.0)
    assert np.all(G[tie, 1:] < 0.0)


def _fd_jacobian_check(grid, rng, trials=8):
    params = default_params(grid)
    zero = lambda p: np.zeros(len(p))
    for _ in range(trials):
        a, b = rng.uniform(0.8, 2.0, 2)
        c = rng.uniform(-0.3, 0.3)
        u = quadratic(grid.points, np.array([[a, c], [c, b]]))
        u += 0.005 * grid.h ** 2 * np.sin(3 * grid.points[:, 0]) * np.cos(2 * grid.points[:, 1])
        assert sdd_matrix(grid, u).min() > params.epsilon + 0.05  # away from kinks
        ni = grid.n_interior
        G = _jacobian_coefficients(grid, u, params)
        B = stencil_matrix_reference(grid, G).tocsr()[:ni, ni:]
        v = rng.uniform(-1.0, 1.0, grid.n_points)
        Jv = assemble_jacobian(grid, u, params) @ v[:ni] + B @ v[ni:]
        errs = []
        for t in (1e-4, 1e-5):
            fd = (scheme_apply(grid, u + t * v, params, zero, zero)
                  - scheme_apply(grid, u - t * v, params, zero, zero))[:ni] / (2 * t)
            errs.append(np.abs(fd - Jv).max())
        scale = max(1.0, np.abs(Jv).max())
        assert errs[0] / max(errs[1], 1e-300) > 30 or errs[0] < 1e-9 * scale


def test_jacobian_fd_directional_derivative(cart_grid, hex_grid):
    _fd_jacobian_check(cart_grid, np.random.default_rng(7))
    _fd_jacobian_check(hex_grid, np.random.default_rng(8))


def test_monotonicity_random_trials(both_grids, zeros):
    rng = np.random.default_rng(9)
    for grid in both_grids.values():
        params = default_params(grid)
        for _ in range(200):
            u = quadratic(grid.points, np.array([[1.0, 0.1], [0.1, 1.2]]))
            u += 0.1 * rng.standard_normal(grid.n_points)
            row = int(rng.integers(grid.n_interior))
            a = int(rng.integers(len(grid.angles)))
            nbr = int(grid.plus_index[row, a] if rng.random() < 0.5
                      else grid.minus_index[row, a])
            delta = float(rng.uniform(1e-6, 1.0))
            base = scheme_apply(grid, u, params, zeros, zeros)[row]
            bumped = u.copy()
            bumped[nbr] += delta
            assert scheme_apply(grid, bumped, params, zeros, zeros)[row] <= base + 1e-12
            centered = u.copy()
            centered[row] += delta
            assert scheme_apply(grid, centered, params, zeros, zeros)[row] >= base - 1e-12


def test_fully_degenerate_values_shrink_under_refinement():
    from quadma import build_grid, square
    dom = square((0, 0), 1.0)
    for backend in ("cartesian", "hex"):
        vals = []
        for n in (16, 32):
            grid = build_grid(dom, backend, n)
            params = default_params(grid)
            u = grid.points[:, 0] + grid.points[:, 1]
            res = scheme_apply(grid, u, params, lambda p: np.zeros(len(p)),
                               lambda p: p[:, 0] + p[:, 1])
            vals.append(np.abs(res[:grid.n_interior]).max())
            # linear data zeroes every difference, leaving exactly eps^2
            assert vals[-1] == pytest.approx(params.epsilon ** 2, rel=1e-6)
        assert vals[1] < vals[0]


def test_consistency_error_decays_on_smooth_convex_solution():
    from quadma import build_grid, ex1
    prob = ex1()
    for backend in ("cartesian", "hex"):
        vals = []
        for n in (16, 32, 64):
            grid = build_grid(prob.domain, backend, n)
            params = default_params(grid)
            u = prob.u_exact(grid.points)
            res = scheme_apply(grid, u, params, prob.f, prob.g)
            vals.append(np.abs(res[:grid.n_interior]).max())
        assert vals[0] > vals[1] > vals[2]
        slope = -np.polyfit(np.log([16, 32, 64]), np.log(vals), 1)[0]
        assert slope > 0.2
