"""Discretizations of the half circle of directions [0, pi).

Directions are stored once per line through the origin: the angle ``theta``
stands for both ``theta`` and ``theta + pi``, since second directional
derivatives are invariant under that identification.  Gap arithmetic wraps
around accordingly: the gap after the last angle runs to the first angle
plus pi, so the gaps of any discretization sum to pi.

Two constructions are provided:

* :func:`uniform_angles` / :func:`hex_angles` -- equally spaced angles, the
  natural choice on a hexagon-vertex mesh (six directions, pi/6 apart);
* :func:`l1_angles` -- the directions of the lattice points on an L1 circle
  of integer radius K around a Cartesian grid node, a nearly uniform set
  whose largest/smallest-gap ratio stays bounded as K grows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AngularDiscretization",
    "uniform_angles",
    "hex_angles",
    "l1_angles",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, numpy's
    included, and not a bool (a str or bytes never is)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


class AngularDiscretization:
    """Ordered angles in ``[0, pi)`` with wraparound gap bookkeeping.

    Attributes
    ----------
    angles : ndarray
        Strictly increasing angles ``theta_0 < ... < theta_M`` in ``[0, pi)``.
    gaps : ndarray
        ``gaps[i] = angles[i+1] - angles[i]`` for ``i < M`` and
        ``gaps[M] = angles[0] + pi - angles[M]``.
    resolution : float
        The largest gap.
    quasi_uniformity : float
        Largest gap divided by smallest gap (>= 1).
    """

    def __init__(self, angles):
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if angles.ndim != 1 or len(angles) == 0:
            raise ValueError("need a nonempty 1-d array of angles")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        if angles[0] < 0.0 or angles[-1] >= np.pi:
            raise ValueError("angles must lie in [0, pi)")
        if len(angles) > 1 and not np.all(np.diff(angles) > 0.0):
            raise ValueError("angles must be strictly increasing")
        gaps = np.empty_like(angles)
        gaps[:-1] = np.diff(angles)
        gaps[-1] = angles[0] + np.pi - angles[-1]
        self.angles = angles
        self.gaps = gaps
        self.resolution = float(gaps.max())
        self.quasi_uniformity = float(gaps.max() / gaps.min())

    def __len__(self) -> int:
        return len(self.angles)

    def __repr__(self) -> str:
        return (f"AngularDiscretization({len(self)} angles, "
                f"resolution={self.resolution:.6g}, Q={self.quasi_uniformity:.6g})")

    def directions(self) -> np.ndarray:
        """Unit vectors ``(cos theta, sin theta)``, shape ``(M+1, 2)``."""
        return np.column_stack([np.cos(self.angles), np.sin(self.angles)])


def uniform_angles(count: int) -> AngularDiscretization:
    """``count`` equally spaced angles ``j * pi / count``, ``count`` a positive integer."""
    if not (_is_integer(count) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return AngularDiscretization(np.arange(count) * (np.pi / count))


def hex_angles() -> AngularDiscretization:
    """The six directions of a hexagon-vertex mesh: multiples of pi/6."""
    return uniform_angles(6)


def l1_offsets(K: int) -> np.ndarray:
    """Integer lattice offsets on the upper half of the L1 circle of radius K.

    Row ``j`` is ``(K - j, K - |K - j|)`` for ``j = 0, ..., 2K-1``; the
    opposite half of the circle is reached by negation.  ``K`` must be a
    positive integer.
    """
    if not (_is_integer(K) and K >= 1):
        raise ValueError(f"stencil depth K must be a positive integer, got {K!r}")
    j = np.arange(2 * K)
    return np.column_stack([K - j, K - np.abs(K - j)])


def l1_angles(K: int) -> AngularDiscretization:
    """Directions toward the lattice points on an L1 circle of radius K.

    Produces ``2K`` angles starting at 0, symmetric about pi/2.  The even
    count is what the Simpson weights require, and every gap lies strictly
    between ``1/K`` and ``2/K``, which keeps those weights positive: angle
    ``j <= K`` is ``atan2(j, K - j)``, whose derivative in ``j``,
    ``K / ((K - j)**2 + j**2)``, lies in ``[1/K, 2/K]`` and reaches either
    end only at single points, and the angles past pi/2 mirror these.  So
    ``Q < 2``, every ratio of adjacent gaps is below 2, and both Simpson
    weight formulas are positive for every K.
    """
    offs = l1_offsets(K)
    return AngularDiscretization(np.arctan2(offs[:, 1], offs[:, 0]))

