"""Analytic reference values that the tests compare the scheme against."""

import numpy as np


def regularized_det_reference(hessian, epsilon: float, rule) -> float:
    """Regularized determinant of an exact 2x2 symmetric quadratic form.

    Evaluates ``(1/pi * sum_j w_j / max(v_j' M v_j, eps))**(-2)`` with the
    given rule's angles and weights.  Serves as the analytic oracle for
    ``scheme_apply`` on quadratic grid functions, whose directional
    differences reproduce ``v' M v`` exactly.
    """
    m = np.asarray(hessian, dtype=float)
    theta = rule.discretization.angles
    c, s = np.cos(theta), np.sin(theta)
    utt = m[0, 0] * c ** 2 + 2.0 * m[0, 1] * c * s + m[1, 1] * s ** 2
    total = rule.weights @ (1.0 / np.maximum(utt, epsilon)) / np.pi
    return float(total ** -2.0)
