"""Quadrature over an angular discretization of [0, pi).

Rules here approximate integrals of pi-periodic integrands sampled at the
angles of an :class:`~quadma.angles.AngularDiscretization`.  Weights are
nonnegative and sum to pi; both properties are enforced at construction
because the monotonicity of the finite difference scheme built on top of a
rule depends on them.

Two rules are provided.  The trapezoid rule works on any discretization and
is spectrally accurate on uniform ones.  The non-uniform Simpson rule needs
an even angle count and gap ratios close enough to 1 (quasi-uniformity
below 2 suffices) to keep its weights positive; it upgrades the quadrature
error from second to fourth order in the angular resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angles import AngularDiscretization

__all__ = ["QuadratureRule", "trapezoid_weights", "simpson_weights", "integrate"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nonnegative weights paired with the angles they integrate over."""

    discretization: AngularDiscretization
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(self.discretization):
            raise ValueError("one weight per angle required")
        if not np.all(np.isfinite(w)):
            raise ValueError("quadrature weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("quadrature weights must be nonnegative")
        if abs(w.sum() - np.pi) > 1e-10:
            raise ValueError("quadrature weights must sum to pi")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


def trapezoid_weights(d: AngularDiscretization) -> QuadratureRule:
    """Periodic trapezoid rule: ``w_i = (gap[i-1] + gap[i]) / 2``.

    Weights are automatically positive and bounded below by
    ``resolution / Q`` where ``Q`` is the quasi-uniformity constant.
    """
    if len(d) < 2:
        raise ValueError("trapezoid rule needs at least 2 angles")
    w = 0.5 * (np.roll(d.gaps, 1) + d.gaps)
    return QuadratureRule(d, w)


def simpson_weights(d: AngularDiscretization) -> QuadratureRule:
    """Composite Simpson rule on panels ``(theta_2i, theta_2i+1, theta_2i+2)``.

    With gaps ``g`` (periodic indexing), the weights are

    * odd  ``j``:  ``(g[j-1] + g[j])**3 / (6 g[j-1] g[j])``
    * even ``j``:  ``(g[j] + g[j+1])/6 * (2 - g[j+1]/g[j])
      + (g[j-2] + g[j-1])/6 * (2 - g[j-2]/g[j-1])``

    On uniform gaps this reduces to the familiar ``4/3, 2/3`` pattern.  A
    nonpositive weight is a hard error rather than a silent fallback: the
    monotonicity of the whole scheme depends on weight positivity.

    Raises
    ------
    ValueError
        If the angle count is odd, or if some weight is nonpositive (the
        diagnostic names the offending index and the local gap ratio).
    """
    m = len(d)
    if m % 2 != 0:
        raise ValueError(f"Simpson rule needs an even number of angles, got {m}")
    g = d.gaps
    gm1 = np.roll(g, 1)   # g[j-1]
    gm2 = np.roll(g, 2)   # g[j-2]
    gp1 = np.roll(g, -1)  # g[j+1]

    w_odd = (gm1 + g) ** 3 / (6.0 * gm1 * g)
    w_even = (g + gp1) / 6.0 * (2.0 - gp1 / g) + (gm2 + gm1) / 6.0 * (2.0 - gm2 / gm1)
    w = np.where(np.arange(m) % 2 == 1, w_odd, w_even)

    if np.any(w <= 0.0):
        j = int(np.argmin(w))
        ratio = gp1[j] / g[j]
        raise ValueError(
            f"nonpositive Simpson weight w[{j}] = {w[j]:.3e} "
            f"(gap ratio g[{(j + 1) % m}]/g[{j}] = {ratio:.3f}; "
            f"quasi-uniformity Q = {d.quasi_uniformity:.3f})"
        )
    return QuadratureRule(d, w)


def integrate(rule: QuadratureRule, samples) -> float:
    """Weighted sum ``sum_i w_i * samples[i]`` approximating an integral over [0, pi)."""
    s = np.asarray(samples, dtype=float)
    if s.shape != (len(rule),):
        raise ValueError(f"expected {len(rule)} samples, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    return float(rule.weights @ s)
