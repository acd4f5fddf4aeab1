"""Discretizations of the half circle of directions [0, pi).

Directions are stored once per line through the origin: the angle ``theta``
stands for both ``theta`` and ``theta + pi``, since second directional
derivatives are invariant under that identification.  Gap arithmetic wraps
around accordingly: the gap after the last angle runs to the first angle
plus pi, so the gaps of any discretization sum to pi.

Three constructions are provided:

* :func:`uniform_angles` / :func:`hex_angles` -- equally spaced angles, the
  natural choice on a hexagon-vertex mesh (six directions, pi/6 apart);
* :func:`l1_angles` -- the directions of the lattice points on an L1 circle
  of integer radius K around a Cartesian grid node, a nearly uniform set
  whose largest/smallest-gap ratio stays bounded as K grows;
* :func:`filter_angles` -- prunes an arbitrary angle set until consecutive
  gap ratios stay inside a prescribed window, the condition under which
  the non-uniform Simpson weights remain positive.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AngularDiscretization",
    "uniform_angles",
    "hex_angles",
    "l1_angles",
    "l1_offsets",
    "filter_angles",
]


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

    def gap_ratios(self) -> np.ndarray:
        """Cyclic consecutive gap ratios ``gaps[i+1] / gaps[i]``."""
        return np.roll(self.gaps, -1) / self.gaps


def uniform_angles(count: int) -> AngularDiscretization:
    """``count`` equally spaced angles ``j * pi / count``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return AngularDiscretization(np.arange(count) * (np.pi / count))


def hex_angles() -> AngularDiscretization:
    """The six directions of a hexagon-vertex mesh: multiples of pi/6."""
    return uniform_angles(6)


def l1_offsets(K: int) -> np.ndarray:
    """Integer lattice offsets on the upper half of the L1 circle of radius K.

    Row ``j`` is ``(K - j, K - |K - j|)`` for ``j = 0, ..., 2K-1``; the
    opposite half of the circle is reached by negation.
    """
    if K < 1:
        raise ValueError("stencil depth K must be at least 1")
    j = np.arange(2 * K)
    return np.column_stack([K - j, K - np.abs(K - j)])


def l1_angles(K: int) -> AngularDiscretization:
    """Directions toward the lattice points on an L1 circle of radius K.

    Produces ``2K`` angles starting at 0, symmetric about pi/2.  The even
    count is what the Simpson weights require, and the gap ratios of this
    set approach 1 as K grows, which keeps those weights positive.
    """
    offs = l1_offsets(K)
    return AngularDiscretization(np.arctan2(offs[:, 1], offs[:, 0]))


def filter_angles(candidate_angles, ratio_low: float, ratio_high: float) -> AngularDiscretization:
    """Select a subset of angles whose consecutive gap ratios stay in a window.

    A greedy left-to-right sweep keeps an angle only while the gap it forms
    stays within ``(ratio_low, ratio_high)`` of the previously kept gap: a
    candidate forming too small a gap is skipped, while a candidate forming
    too large a gap forces earlier kept angles to be dropped (merging their
    gaps).  A repair pass then drops trailing angles while the wraparound
    gap violates the window.  The postcondition is verified on the result,
    so any input the sweep cannot fix raises instead of returning a
    non-conforming set.

    Raises
    ------
    ValueError
        If fewer than 4 angles survive, if the surviving ratios still leave
        the window, or if the surviving resolution exceeds 3x the input
        resolution.
    """
    if not (0.0 < ratio_low < 1.0 < ratio_high):
        raise ValueError("need 0 < ratio_low < 1 < ratio_high")
    cand = AngularDiscretization(candidate_angles)  # validates ordering/range
    ang = cand.angles
    m = len(ang)

    kept = [0]
    gaps: list[float] = []
    for idx in range(1, m):
        gap = ang[idx] - ang[kept[-1]]
        if gaps and gap / gaps[-1] <= ratio_low:
            continue  # too close to the last kept angle: skip the candidate
        while gaps and gap / gaps[-1] >= ratio_high and len(kept) >= 2:
            # The last kept gap is too small to precede this one: drop the
            # previous angle, merging its gap into the current one.
            kept.pop()
            gaps.pop()
            gap = ang[idx] - ang[kept[-1]]
        kept.append(idx)
        gaps.append(gap)

    # Wraparound repair: drop trailing angles while the seam gap is too
    # small relative to its neighbors.  (A seam gap that is too large
    # cannot be shrunk by pruning, so leave it to the final check.)
    def _seam_bad(sel):
        g = AngularDiscretization(ang[sel]).gaps
        return (g[-1] / g[-2] <= ratio_low) or (g[0] / g[-1] >= ratio_high)

    while len(kept) > 4 and _seam_bad(kept):
        kept.pop()

    if len(kept) < 4:
        raise ValueError("fewer than 4 angles survive the gap-ratio filter")
    out = AngularDiscretization(ang[kept])
    ratios = out.gap_ratios()
    if not np.all((ratios > ratio_low) & (ratios < ratio_high)):
        raise ValueError("gap-ratio filter could not reach a conforming subset")
    if out.resolution > 3.0 * cand.resolution:
        raise ValueError("filtered subset coarsens the angular resolution by more than 3x")
    return out
