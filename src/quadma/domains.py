"""Convex planar domains described by signed distance functions.

A domain is represented by a callable returning the signed distance to its
boundary (negative strictly inside, zero on the boundary, positive outside)
together with an axis-aligned bounding box.  Mesh construction only ever
queries the signed distance, so arbitrary convex shapes can be supplied by
the user; ready-made rectangles and discs cover the common cases.

All geometric callables are vectorized: a "point array" has shape
``(..., 2)`` and signed distances come back with shape ``(...,)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ConvexDomain",
    "rectangle",
    "square",
    "disc",
    "make_domain",
]


@dataclass(frozen=True)
class ConvexDomain:
    """Bounded open convex region with a 1-Lipschitz signed distance.

    Parameters
    ----------
    sdf : callable
        Maps point arrays of shape ``(..., 2)`` to signed distances of
        shape ``(...,)``.  Must be negative strictly inside, zero on the
        boundary and positive outside, and 1-Lipschitz.  The mesh
        builders call it once on the tiling, then once per bisection
        pass (54 to 62 on the benchmark grids, see ``BISECTION_PASSES``)
        on every stencil arm that exits the domain, so its cost is grid
        build cost: write it on the coordinate planes ``p[..., 0]`` and
        ``p[..., 1]``, as the built-in shapes do, rather than with
        ``np.linalg.norm(..., axis=-1)``, whose reduction over the
        length-2 axis costs several times the arithmetic.
    bounding_box : tuple of float
        ``(xmin, xmax, ymin, ymax)`` containing the closure of the domain.
    name : str
        Short label used in reports and dumped files.
    """

    sdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    bounding_box: tuple[float, float, float, float]
    name: str = "custom"

    def signed_distance(self, p) -> np.ndarray:
        """Signed distance from ``p`` (shape ``(..., 2)``) to the boundary."""
        p = np.asarray(p, dtype=float)
        return np.asarray(self.sdf(p), dtype=float)


def rectangle(lower_left=(0.0, 0.0), size=1.0) -> ConvexDomain:
    """Axis-aligned open rectangle.

    Parameters
    ----------
    lower_left : pair of float
        Coordinates of the lower-left corner.
    size : float or pair of float
        Side length (square) or ``(width, height)``.
    """
    x0, y0 = float(lower_left[0]), float(lower_left[1])
    if np.isscalar(size):
        w = h = float(size)
    else:
        w, h = float(size[0]), float(size[1])
    if w <= 0 or h <= 0:
        raise ValueError("rectangle size must be positive")
    cx, cy = x0 + w / 2.0, y0 + h / 2.0
    hx, hy = w / 2.0, h / 2.0

    # on the coordinate planes: the float operations of
    # np.linalg.norm(max(q, 0), axis=-1), bit for bit, without its reduce
    def sdf(p):
        qx = np.abs(p[..., 0] - cx) - hx
        qy = np.abs(p[..., 1] - cy) - hy
        ox, oy = np.maximum(qx, 0.0), np.maximum(qy, 0.0)
        return np.sqrt(ox * ox + oy * oy) + np.minimum(np.maximum(qx, qy), 0.0)

    return ConvexDomain(sdf, (x0, x0 + w, y0, y0 + h), name="square" if w == h else "rectangle")


def square(lower_left=(0.0, 0.0), side=1.0) -> ConvexDomain:
    """Axis-aligned open square with the given lower-left corner and side."""
    return rectangle(lower_left, side)


def disc(center=(0.0, 0.0), radius=1.0) -> ConvexDomain:
    """Open disc of the given center and radius."""
    if radius <= 0:
        raise ValueError("disc radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)

    def sdf(p):
        dx, dy = p[..., 0] - cx, p[..., 1] - cy
        return np.sqrt(dx * dx + dy * dy) - r

    return ConvexDomain(sdf, (cx - r, cx + r, cy - r, cy + r), name="disc")


def make_domain(name: str, **params) -> ConvexDomain:
    """Build a named domain from CLI/config parameters.

    ``"square"`` takes ``lower_left`` and ``side``, ``"rectangle"`` takes
    ``lower_left`` and ``size``, and ``"disc"`` takes ``center`` and
    ``radius``; omitted ones keep their defaults.  An unknown name, or a
    parameter the named domain does not take, raises ``ValueError``.
    """
    builders = {"square": square, "rectangle": rectangle, "disc": disc}
    if not isinstance(name, str) or name not in builders:
        raise ValueError(f"unknown domain name {name!r} (expected 'square', 'rectangle' or 'disc')")
    builder = builders[name]
    accepted = list(inspect.signature(builder).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"domain {name!r} takes {', '.join(accepted)}, "
                         f"not {', '.join(unknown)}")
    return builder(**params)


# Upper bound on the bisection passes of _boundary_crossings: 80 take any
# bracket below double-precision resolution, while the mesh builders'
# brackets reach the fixed point in 54 to 62 passes.
BISECTION_PASSES = 80


def _boundary_crossings(domain: ConvexDomain, origins, directions, brackets):
    """Distance along each ray to the boundary, by vectorized bisection.

    ``origins`` and ``directions`` have shape ``(m, 2)``; ``brackets`` holds,
    per ray, an upper bound on the crossing distance at which the signed
    distance is already nonnegative.  The domain is convex and the origins
    interior, so each ray crosses the boundary once.  The mesh builders
    bracket with the nominal stencil arm length.  Halving stops at the fixed
    point, the first pass that changes no ``lo`` and no ``hi`` (every later
    pass would repeat it, so the result is the same bit for bit), and after
    ``BISECTION_PASSES`` passes at most.
    """
    lo = np.zeros(len(brackets))
    hi = np.asarray(brackets, dtype=float).copy()
    for _ in range(BISECTION_PASSES):
        mid = 0.5 * (lo + hi)
        inside = domain.signed_distance(origins + mid[:, None] * directions) < 0.0
        new_lo = np.where(inside, mid, lo)
        new_hi = np.where(inside, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)
