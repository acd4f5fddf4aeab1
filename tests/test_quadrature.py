import numpy as np
import pytest

from quadma import (AngularDiscretization, QuadratureRule, SchemeParams, build_grid,
                    damped_newton, hex_angles, integrate, l1_angles, poisson_init,
                    simpson_weights, square, trapezoid_weights, uniform_angles)


def test_trapezoid_hex_weights():
    rule = trapezoid_weights(hex_angles())
    assert np.allclose(rule.weights, np.pi / 6, atol=1e-14)


def test_trapezoid_l1_k2():
    rule = trapezoid_weights(l1_angles(2))
    assert np.allclose(rule.weights, np.pi / 4, atol=1e-14)


def test_trapezoid_weights_sum_and_lower_bound():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.integers(2, 30)
        angles = np.sort(rng.uniform(0, np.pi, m))
        angles = angles[np.concatenate([[True], np.diff(angles) > 1e-4])]
        if len(angles) < 2:
            continue
        d = AngularDiscretization(angles)
        rule = trapezoid_weights(d)
        assert rule.weights.sum() == pytest.approx(np.pi, abs=1e-10)
        assert np.all(rule.weights > 0)
        assert rule.weights.min() >= d.resolution / d.quasi_uniformity - 1e-12


def test_simpson_uniform_pattern():
    d = uniform_angles(8)
    rule = simpson_weights(d)
    dtheta = np.pi / 8
    assert np.allclose(rule.weights[1::2], 4 * dtheta / 3, atol=1e-13)
    assert np.allclose(rule.weights[0::2], 2 * dtheta / 3, atol=1e-13)


def test_simpson_l1_k2():
    rule = simpson_weights(l1_angles(2))
    assert np.allclose(rule.weights[1::2], np.pi / 3, atol=1e-13)
    assert np.allclose(rule.weights[0::2], np.pi / 6, atol=1e-13)


def test_simpson_positivity_bound_l1():
    for K in range(2, 65):
        d = l1_angles(K)
        rule = simpson_weights(d)
        Q = d.quasi_uniformity
        bound = min(4.0 / (3.0 * Q ** 3), (2.0 / (3.0 * Q)) * (2.0 - Q)) * d.resolution
        assert np.all(rule.weights > 0)
        assert rule.weights.min() >= bound - 1e-12


def test_simpson_rejects_odd_count():
    with pytest.raises(ValueError, match="even"):
        simpson_weights(uniform_angles(7))


def test_simpson_rejects_negative_weight_with_diagnostic():
    # gap ratio far above 2 drives an even-index weight negative
    bad = AngularDiscretization([0.0, 0.01, 0.02, 2.5])
    with pytest.raises(ValueError, match=r"w\[\d+\].*gap ratio"):
        simpson_weights(bad)


def test_rule_validation():
    d = uniform_angles(4)
    with pytest.raises(ValueError):
        QuadratureRule(d, [1.0, 1.0, 1.0])  # wrong length
    with pytest.raises(ValueError):
        QuadratureRule(d, [-0.1, 1.0, 1.0, np.pi - 1.9])  # negative
    with pytest.raises(ValueError):
        QuadratureRule(d, [1.0, 1.0, 1.0, 1.0])  # wrong sum
    with pytest.raises(ValueError, match="finite"):
        QuadratureRule(uniform_angles(2), [np.nan, np.pi])


def test_integrate_constant_gives_pi():
    for rule in (trapezoid_weights(hex_angles()), simpson_weights(l1_angles(5))):
        assert integrate(rule, np.ones(len(rule))) == pytest.approx(np.pi, abs=1e-12)


def test_integrate_validation():
    rule = trapezoid_weights(hex_angles())
    with pytest.raises(ValueError):
        integrate(rule, np.ones(5))
    with pytest.raises(ValueError):
        integrate(rule, [1, 2, 3, 4, 5, np.nan])


def test_integrate_reciprocal_quadratic_simpson():
    # analytic value of the integral of 1/(a cos^2 + b sin^2) is pi/sqrt(ab)
    d = l1_angles(32)
    rule = simpson_weights(d)
    fs = 1.0 / (2 * np.cos(d.angles) ** 2 + 3 * np.sin(d.angles) ** 2)
    assert integrate(rule, fs) == pytest.approx(np.pi / np.sqrt(6.0), abs=1e-4)


def test_integrate_sin_squared_hex_trapezoid():
    d = hex_angles()
    rule = trapezoid_weights(d)
    assert integrate(rule, np.sin(d.angles) ** 2) == pytest.approx(np.pi / 2, abs=1e-12)


def test_simpson_convergence_order():
    exact = np.pi / np.sqrt(6.0)
    ks = np.array([8, 16, 32, 64])
    errs = []
    for K in ks:
        d = l1_angles(K)
        rule = simpson_weights(d)
        fs = 1.0 / (2 * np.cos(d.angles) ** 2 + 3 * np.sin(d.angles) ** 2)
        errs.append(abs(integrate(rule, fs) - exact))
    order = -np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert order >= 3.5


def test_trapezoid_spectral_on_uniform_grids():
    exact = np.pi / np.sqrt(6.0)
    errs = {}
    for m in (6, 12, 24):
        d = uniform_angles(m)
        rule = trapezoid_weights(d)
        fs = 1.0 / (2 * np.cos(d.angles) ** 2 + 3 * np.sin(d.angles) ** 2)
        errs[m] = abs(integrate(rule, fs) - exact)
    # decays faster than any modest fixed power: the 6 -> 12 rate alone
    # exceeds order 6, and 24 angles reach rounding level
    order_6_12 = np.log(errs[6] / max(errs[12], 1e-300)) / np.log(2.0)
    assert order_6_12 > 6.0
    assert errs[24] < 1e-12


def test_simpson_beats_trapezoid_in_a_solve_on_an_anisotropic_quadratic():
    # The paper's claim in a solve: second differences are exact on a
    # quadratic, and eps = 1e-12 is far below every directional curvature,
    # so only the angular quadrature error is left.  Both rules use the same
    # L1 angles of the Cartesian grid.  Max errors at n=64:
    #   K   trapezoid  Simpson
    #   4   8.23e-3    1.36e-2
    #   5   4.76e-3    2.61e-3
    #   6   3.40e-3    7.86e-4
    #   8   1.97e-3    1.24e-4
    m = np.array([[4.0, 0.7], [0.7, 1.0]])

    def u(p):
        return 0.5 * np.einsum("ni,ij,nj->n", p, m, p)

    def f(p):
        return np.full(len(p), np.linalg.det(m))

    errors = {}
    for K in (4, 5, 6, 8):
        grid = build_grid(square((-1.0, -1.0), 2.0), "cartesian", 64, K)
        for rule in (trapezoid_weights, simpson_weights):
            params = SchemeParams(1e-12, rule(grid.angles))
            values, report = damped_newton(grid, params, f, u, poisson_init(grid, f, u))
            assert report.converged, (K, rule.__name__, report.message)
            errors[K, rule] = float(np.abs(values - u(grid.points)).max())

    for K in (5, 6, 8):
        assert errors[K, simpson_weights] < errors[K, trapezoid_weights], K
    assert errors[5, simpson_weights] > errors[6, simpson_weights] > errors[8, simpson_weights]
    # The reversal at K=4 (8 angles) is real and stays pinned as it is, not
    # hidden by the choice of K: trapezoid wins there.  ROADMAP item 4 asks
    # for its explanation.
    assert errors[4, trapezoid_weights] < errors[4, simpson_weights]
