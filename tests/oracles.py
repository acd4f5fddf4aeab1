"""Analytic reference values and reference implementations that the tests
compare the library against."""

import math

import numpy as np
import scipy.sparse as sp

from quadma import ConvexDomain


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


def stencil_matrix_reference(grid, G) -> sp.coo_matrix:
    """Whole-grid COO matrix: interior rows ``sum_j G[:, j] * D_j``, identity
    boundary rows.

    The triplets of every arm and center, in the order plus arms, minus
    arms, diagonal, with no pattern reused; ``tocsr()`` would sum the
    entries of two arms ending at one point.  Its interior rows, split at
    column ``n_interior``, are the interior block that ``assemble_jacobian``
    builds from the Jacobian's ``G`` and the boundary coupling that the
    tests apply beside it; with the Laplacian's weights, they are
    ``operator._laplacian_system``'s ``A`` (as CSC, without stored zeros)
    and ``B``.
    """
    ni = grid.n_interior
    n = grid.n_points
    rows = np.concatenate([np.tile(np.repeat(np.arange(ni), len(grid.angles)), 2), np.arange(n)])
    cols = np.concatenate([grid.plus_index.ravel(), grid.minus_index.ravel(), np.arange(n)])
    data = np.concatenate([(G * grid.cp).ravel(), (G * grid.cm).ravel(),
                           -(G * (grid.cp + grid.cm)).sum(axis=1), np.ones(n - ni)])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n))


def boundary_crossings_reference(domain, origins, directions, brackets, iterations=80):
    """Plain bisection of every ray: exactly ``iterations`` halvings."""
    lo = np.zeros(len(brackets))
    hi = np.asarray(brackets, dtype=float).copy()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        inside = domain.signed_distance(origins + mid[:, None] * directions) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def augment_boundary_reference(domain, interior_points, angles, plus_index, minus_index,
                               h_plus, h_minus, *, dedup_tol):
    """``meshing.augment_boundary`` with its end points merged one at a time.

    Bisects every missing arm by :func:`boundary_crossings_reference`, then
    merges the end points in arm order, greedily, first come first served,
    into the boundary points inserted so far: a hash grid of ``dedup_tol``
    cells finds any within ``dedup_tol`` in the max norm, and the end point
    takes the first one found or is appended.
    """
    from quadma.meshing import NEAR_NODE

    interior_points = np.asarray(interior_points, dtype=float)
    n_int = len(interior_points)
    missing = np.stack([plus_index < 0, minus_index < 0], axis=2)
    rows, cols, signs = np.nonzero(missing)
    rays = angles.directions()[cols] * np.where(signs == 0, 1.0, -1.0)[:, None]
    ts = np.where(signs == 0, h_plus[rows, cols], h_minus[rows, cols])
    cross = np.where(signs == 0, plus_index[rows, cols], minus_index[rows, cols]) != NEAR_NODE
    origins = interior_points[rows]
    ts[cross] = boundary_crossings_reference(domain, origins[cross], rays[cross], ts[cross])
    crossings = origins + ts[:, None] * rays

    inserted = []
    cells = {}

    def lookup_or_insert(pt) -> int:
        cx = int(math.floor(pt[0] / dedup_tol))
        cy = int(math.floor(pt[1] / dedup_tol))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                k = cells.get((cx + dx, cy + dy))
                if k is not None and abs(inserted[k][0] - pt[0]) <= dedup_tol \
                        and abs(inserted[k][1] - pt[1]) <= dedup_tol:
                    return k
        k = len(inserted)
        inserted.append(pt)
        cells[(cx, cy)] = k
        return k

    for m in range(len(rows)):
        index, arm = (plus_index, h_plus) if signs[m] == 0 else (minus_index, h_minus)
        index[rows[m], cols[m]] = n_int + lookup_or_insert(crossings[m])
        arm[rows[m], cols[m]] = ts[m]

    points = np.vstack([interior_points, np.array(inserted).reshape(-1, 2)])
    return points, plus_index, minus_index, h_plus, h_minus


def rectangle_reference(lower_left=(0.0, 0.0), size=1.0) -> ConvexDomain:
    """``domains.rectangle`` with its signed distance reduced by ``np.linalg.norm``.

    ``q = |p - center| - half``; the distance is the norm of ``max(q, 0)``
    over the last axis plus ``min(max(q_x, q_y), 0)``.
    """
    x0, y0 = float(lower_left[0]), float(lower_left[1])
    w, h = (float(size), float(size)) if np.isscalar(size) else (float(size[0]), float(size[1]))
    center = np.array([x0 + w / 2.0, y0 + h / 2.0])
    half = np.array([w / 2.0, h / 2.0])

    def sdf(p):
        q = np.abs(p - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.maximum(q[..., 0], q[..., 1]), 0.0)
        return outside + inside

    return ConvexDomain(sdf, (x0, x0 + w, y0, y0 + h), name="rectangle")


def disc_reference(center=(0.0, 0.0), radius=1.0) -> ConvexDomain:
    """``domains.disc`` with its signed distance ``|p - center| - radius``
    reduced by ``np.linalg.norm``."""
    cx, cy = float(center[0]), float(center[1])
    c = np.array([cx, cy])
    r = float(radius)

    def sdf(p):
        return np.linalg.norm(p - c, axis=-1) - r

    return ConvexDomain(sdf, (cx - r, cx + r, cy - r, cy + r), name="disc")


def merge_labels_reference(points, tol) -> np.ndarray:
    """Smallest index in every point's connected component, by brute force.

    Two points are joined when both coordinates differ by at most ``tol``
    (the max-norm distance ``<= tol``, gaps of exactly ``tol`` included).
    Builds all ``m**2`` distances and labels the components by a search
    from each unlabelled point in index order, so the label is the smallest
    index in the component.
    """
    points = np.asarray(points, dtype=float)
    near = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2) <= tol
    labels = np.full(len(points), -1)
    for i in range(len(points)):
        if labels[i] >= 0:
            continue
        labels[i] = i
        stack = [i]
        while stack:
            for j in np.flatnonzero(near[stack.pop()] & (labels < 0)):
                labels[j] = i
                stack.append(j)
    return labels

