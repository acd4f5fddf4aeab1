"""Convex planar domains described by signed distance functions.

A domain is represented by a callable returning the signed distance to its
boundary (negative strictly inside, zero on the boundary, positive outside)
together with an axis-aligned bounding box, and optionally the exact
boundary crossing of rays.  Mesh construction needs nothing more: it
bisects the signed distance where no crossing is given, so arbitrary
convex shapes can be supplied by the user; ready-made rectangles and discs
cover the common cases, with their crossings in closed form.

All geometric callables are vectorized: a "point array" has shape
``(..., 2)`` and signed distances come back with shape ``(...,)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .angles import _is_real

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
        builders call it once on the tiling, and on a domain without a
        ``crossing`` once more per bisection pass (see
        ``ray_crossings``), on every stencil arm that exits the domain,
        so its cost is grid build cost.  Write it on the coordinate
        planes ``p[..., 0]`` and ``p[..., 1]``, as the built-in shapes
        do, rather than with ``np.linalg.norm(..., axis=-1)``, whose
        reduction over the length-2 axis costs several times the
        arithmetic; the points need not be C-ordered.
    bounding_box : tuple of float
        ``(xmin, xmax, ymin, ymax)`` containing the closure of the domain:
        four real numbers (see ``angles._is_real``), finite, with
        ``xmin < xmax`` and ``ymin < ymax``, else ValueError.  Stored as a
        tuple of floats.
    name : str
        Short label used in reports and dumped files.
    crossing : callable or None
        The exact boundary crossing of rays, if the shape has one in
        closed form: ``crossing(origins, directions)`` maps ``(m, 2)``
        interior origins and unit directions to the ``(m,)`` distances
        ``t > 0`` at which ``origins + t * directions`` meets the
        boundary, to within a few ulps of the coordinates.  It must not
        raise a floating-point warning.  ``rectangle``, ``square`` and
        ``disc`` supply one; without it, ``ray_crossings`` bisects the
        sdf.
    """

    sdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    bounding_box: tuple[float, float, float, float]
    name: str = "custom"
    crossing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(default=None,
                                                                         repr=False)

    def __post_init__(self):
        if not callable(self.sdf):
            raise ValueError(f"sdf must be callable, got {self.sdf!r}")
        if self.crossing is not None and not callable(self.crossing):
            raise ValueError(f"crossing must be callable or None, got {self.crossing!r}")
        entries = np.asarray(self.bounding_box, dtype=object)
        box = (entries.astype(float).tolist()
               if entries.shape == (4,) and all(map(_is_real, entries)) else None)
        if not (box and all(np.isfinite(box)) and box[0] < box[1] and box[2] < box[3]):
            raise ValueError("bounding box must be four finite numbers (xmin, xmax, ymin, ymax) "
                             f"with xmin < xmax and ymin < ymax, got {self.bounding_box!r}")
        object.__setattr__(self, "bounding_box", tuple(box))

    def signed_distance(self, p) -> np.ndarray:
        """Signed distance from ``p`` (shape ``(..., 2)``) to the boundary.

        A result of any shape but ``p.shape[:-1]`` is a ValueError.
        """
        p = np.asarray(p, dtype=float)
        dist = np.asarray(self.sdf(p), dtype=float)
        if dist.shape != p.shape[:-1]:
            raise ValueError(f"sdf must return shape {p.shape[:-1]} for points of shape "
                             f"{p.shape}, got shape {dist.shape}")
        return dist

    def ray_crossings(self, origins, directions, brackets) -> np.ndarray:
        """Distance along each ray to the boundary.

        ``origins`` are ``(m, 2)`` interior points, ``directions`` unit
        vectors of the same shape, and ``brackets`` the ``(m,)`` upper
        bounds at which the signed distance is already nonnegative.  With a
        ``crossing``, the result is its distances clamped to the brackets;
        a result that is not ``m`` finite, positive distances is a
        ValueError that names the domain.  Without one, the sdf is bisected
        (``_boundary_crossings``).
        """
        if self.crossing is None:
            return _boundary_crossings(self, origins, directions, brackets)
        m = len(brackets)
        t = np.asarray(self.crossing(origins, directions), dtype=float)
        if t.shape != (m,):
            raise ValueError(f"crossing of domain {self.name!r} must return shape ({m},) for "
                             f"{m} rays, got shape {t.shape}")
        bad = ~(np.isfinite(t) & (t > 0.0))
        if bad.any():
            raise ValueError(f"crossing of domain {self.name!r} must return finite, positive "
                             f"distances, got {float(t[bad][0])}")
        return np.minimum(t, brackets)


def _numbers(value, name: str, *shapes) -> list[float]:
    """The floats in ``value``, an array-like of real numbers (see
    ``angles._is_real``) of one of ``shapes``: ``()`` for a number (a 0-d
    array counts), ``(2,)`` for a pair.  Anything else, a bool, str or bytes
    included, is a ValueError that names the argument ``name``."""
    entries = np.asarray(value, dtype=object)
    if entries.shape not in shapes or not all(map(_is_real, entries.flat)):
        kinds = " or ".join("a pair of numbers" if shape else "a number" for shape in shapes)
        raise ValueError(f"{name} must be {kinds}, got {value!r}")
    return entries.astype(float).ravel().tolist()


def rectangle(lower_left=(0.0, 0.0), size=1.0) -> ConvexDomain:
    """Axis-aligned open rectangle.

    Parameters
    ----------
    lower_left : pair of float
        Coordinates of the lower-left corner.
    size : float or pair of float
        Side length (square) or ``(width, height)``.
    """
    x0, y0 = _numbers(lower_left, "lower_left", (2,))
    sides = _numbers(size, "size", (), (2,))
    w, h = sides if len(sides) == 2 else sides * 2
    if not (0 < w < np.inf and 0 < h < np.inf):
        raise ValueError(f"rectangle size must be finite and positive, got {size}")
    cx, cy = x0 + w / 2.0, y0 + h / 2.0
    hx, hy = w / 2.0, h / 2.0

    # on the coordinate planes: the float operations of
    # np.linalg.norm(max(q, 0), axis=-1), bit for bit, without its reduce
    def sdf(p):
        qx = np.abs(p[..., 0] - cx) - hx
        qy = np.abs(p[..., 1] - cy) - hy
        ox, oy = np.maximum(qx, 0.0), np.maximum(qy, 0.0)
        return np.sqrt(ox * ox + oy * oy) + np.minimum(np.maximum(qx, qy), 0.0)

    x1, y1 = x0 + w, y0 + h

    # the nearest side ahead: per axis, the distance to the side the ray
    # heads for over the speed along the axis, inf where that speed is 0
    def crossing(o, d):
        ox, oy, dx, dy = o[..., 0], o[..., 1], d[..., 0], d[..., 1]
        with np.errstate(divide="ignore"):
            tx = np.where(dx > 0.0, x1 - ox, ox - x0) / np.abs(dx)
            ty = np.where(dy > 0.0, y1 - oy, oy - y0) / np.abs(dy)
        return np.minimum(tx, ty)

    return ConvexDomain(sdf, (x0, x1, y0, y1), name="square" if w == h else "rectangle",
                        crossing=crossing)


def square(lower_left=(0.0, 0.0), side=1.0) -> ConvexDomain:
    """Axis-aligned open square with the given lower-left corner and side."""
    [side] = _numbers(side, "side", ())
    return rectangle(lower_left, side)


def disc(center=(0.0, 0.0), radius=1.0) -> ConvexDomain:
    """Open disc of the given center and radius."""
    cx, cy = _numbers(center, "center", (2,))
    [r] = _numbers(radius, "radius", ())
    if not 0 < r < np.inf:
        raise ValueError(f"disc radius must be finite and positive, got {radius}")

    def sdf(p):
        dx, dy = p[..., 0] - cx, p[..., 1] - cy
        return np.sqrt(dx * dx + dy * dy) - r

    # the positive root of t^2 + 2bt + c, b = d.(o - center) and
    # c = |o - center|^2 - r^2 < 0: root - b, or -c / (b + root) where
    # b > 0, which would cancel in root - b
    def crossing(o, d):
        px, py = o[..., 0] - cx, o[..., 1] - cy
        b = d[..., 0] * px + d[..., 1] * py
        c = px * px + py * py - r * r
        root = np.sqrt(b * b - c)
        t = root - b
        np.divide(-c, b + root, out=t, where=b > 0.0)
        return t

    return ConvexDomain(sdf, (cx - r, cx + r, cy - r, cy + r), name="disc", crossing=crossing)


_BUILDERS = {"square": square, "rectangle": rectangle, "disc": disc}


def make_domain(name: str, **params) -> ConvexDomain:
    """Build a named domain from CLI/config parameters.

    ``"square"`` takes ``lower_left`` and ``side``, ``"rectangle"`` takes
    ``lower_left`` and ``size``, and ``"disc"`` takes ``center`` and
    ``radius``; omitted ones keep their defaults.  An unknown name, or a
    parameter the named domain does not take, raises ``ValueError``.
    """
    if not isinstance(name, str) or name not in _BUILDERS:
        raise ValueError(f"unknown domain name {name!r} (expected 'square', 'rectangle' or 'disc')")
    builder = _BUILDERS[name]
    accepted = list(inspect.signature(builder).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"domain {name!r} takes {', '.join(accepted)}, "
                         f"not {', '.join(unknown)}")
    return builder(**params)


# Upper bound on the bisection passes of _boundary_crossings: 80 take any
# bracket below double-precision resolution, and the mesh builders' brackets
# reach the fixed point sooner.
BISECTION_PASSES = 80


def _boundary_crossings(domain: ConvexDomain, origins, directions, brackets):
    """Distance along each ray to the boundary, by vectorized bisection.

    ``origins`` and ``directions`` have shape ``(m, 2)``; ``brackets``
    holds, per ray, an upper bound on the crossing distance at which the
    signed distance is already nonnegative.  The domain is convex and the
    origins interior, so each ray crosses the boundary once.  Halving stops
    at the fixed point, the first pass that changes no ``lo`` and no
    ``hi``, and after ``BISECTION_PASSES`` passes at most.  Every pass
    after the fixed point repeats it, so the result is the same bit for bit
    as with all ``BISECTION_PASSES`` halvings.
    """
    lo = np.zeros(len(brackets))
    hi = np.asarray(brackets, dtype=float)
    for _ in range(BISECTION_PASSES):
        mid = 0.5 * (lo + hi)
        inside = domain.signed_distance(origins + mid[:, None] * directions) < 0.0
        # the pass changes nothing if every end it would move is mid already
        if np.array_equal(np.where(inside, lo, hi), mid):
            break
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)
