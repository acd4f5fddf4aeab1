"""Grid construction for the two mesh backends.

A backend is a tiling given as data: a mask of sites on an integer
``(row, col)`` lattice, node ``(row, col)`` lying at ``(xmin + dx*col,
ymin + dy*row)``; a sublattice label per site; and per sublattice, side and
angle, the ``(drow, dcol)`` offset and length of the stencil arm.  One core
builds every grid from it.  Interior nodes are the sites deeper inside the
domain than the boundary clearance (signed distance < -CLEARANCE*h).  An
arm whose target site is again interior keeps its full tiling length; an
arm that exits the domain is shortened to the point where its ray crosses
the boundary, and that crossing becomes a boundary point.  The crossing is
the domain's closed form where it has one (rectangles and discs), else a
bisection of its signed distance.  A target site inside the domain but
within the clearance of its boundary is not interior: the arm ends there,
and the site becomes a boundary point, where ``u = g`` as on the boundary
itself.  So every interior node has, for every stencil angle, a pair of
exactly aligned neighbors within the stencil width, and every boundary
point has signed distance in ``[-CLEARANCE*h, 0]`` up to roundoff.

The clearance keeps arms long: an arm runs from signed distance below
``-CLEARANCE*h`` to signed distance at least ``-CLEARANCE*h``, and the
signed distance is 1-Lipschitz, so every arm is longer than ``CLEARANCE*h``.
Without it, a node within roundoff of a curved boundary left arms of
1e-16*h, whose difference weights ``2 / (arm * (arm + arm'))`` stalled
Newton.  On squares no tiling node lies in the clearance band, so square
grids are unaffected.

Backends
--------
* Cartesian: every site of a uniform lattice of spacing ``h``, one
  sublattice; stencil arms point at the lattice sites on the L1 circle of
  integer radius ``K``, giving the 2K directions of
  :func:`~quadma.angles.l1_angles` with arm lengths between
  ``K*h/sqrt(2)`` and ``K*h``.
* Hexagonal: the vertex set of a tiling by regular hexagons of side ``s``
  (flat-top, one direction along the x axis), two sublattices.  Every
  vertex has aligned neighbors in all six directions ``j*pi/6``; three of
  them are centered at distance ``sqrt(3)*s`` and three are uncentered with
  arms ``s`` and ``2*s``, which side being short depending on the vertex's
  sublattice.

Interior points are stored first, in lexicographic ``(y, x)`` order;
boundary points follow, numbered by the first arm that ends at each.  Arm
end points within 1e-9*h of each other in the max norm are merged into one
boundary point, chains of such points included; a sort-and-sweep over
their coordinates finds the groups, with numpy alone.  (A greedy merge, first
come first served, would differ only where a chain of points spans more
than that tolerance; the tests compare against one, on random squares,
rectangles and discs, and find no such chain.)  Construction
is integer-exact: nodes are tracked on the integer lattice, so stencil
alignment never relies on floating-point matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .angles import AngularDiscretization, _is_integer, _is_real, hex_angles, l1_angles, l1_offsets
from .domains import ConvexDomain, _boundary_crossings

__all__ = [
    "Grid",
    "augment_boundary",
    "build_grid",
    "default_stencil_depth",
    "grid_to_jsonable",
    "grid_diagnostics",
]

MeshKind = Literal["cartesian", "hexagonal"]

# Boundary clearance, in units of the grid spacing h: a tiling node is
# interior only if its signed distance is below -CLEARANCE*h.
CLEARANCE = 0.01

# Marks, in the index maps and the arm index table handed to
# augment_boundary, a tiling node inside the domain but within the
# clearance of its boundary (-1 marks one outside the domain or the tiling).
NEAR_NODE = -2


@dataclass
class Grid:
    """Discretization points plus per-node aligned-neighbor stencils.

    ``points[:n_interior]`` are the interior nodes (in lexicographic
    ``(y, x)`` order), each deeper inside the domain than ``CLEARANCE*h``;
    the remaining rows are boundary points: boundary crossings of stencil
    arms, and tiling nodes within the clearance, where ``u = g`` too.  The
    mask ``interior`` is derived from ``n_interior``, the number of stencil
    rows.  Every arm is longer than ``CLEARANCE*h``.  Stencil row
    ``i`` belongs to interior point ``i`` and lists, per angle ``j``, the
    indices of the aligned neighbors ``points[plus_index[i, j]] =
    x + h_plus[i, j] * (cos theta_j, sin theta_j)`` (same with a minus
    sign), with all arm lengths in ``(0, r]``.

    ``cp = 2 / (h_plus * (h_plus + h_minus))`` and its mirror ``cm``, set
    once from the arm lengths, weight the aligned second difference
    ``D = cp*(u_plus - u_center) + cm*(u_minus - u_center)``, which is exact
    on quadratics for any arm lengths.
    """

    kind: MeshKind
    points: np.ndarray = field(repr=False)       # (N, 2)
    h: float                                     # characteristic spacing
    r: float                                     # stencil width (max arm length)
    angles: AngularDiscretization
    plus_index: np.ndarray = field(repr=False)   # (Ni, M+1) int
    minus_index: np.ndarray = field(repr=False)  # (Ni, M+1) int
    h_plus: np.ndarray = field(repr=False)       # (Ni, M+1) float
    h_minus: np.ndarray = field(repr=False)      # (Ni, M+1) float
    params: dict = field(default_factory=dict)
    cp: np.ndarray = field(init=False, repr=False)  # (Ni, M+1) float
    cm: np.ndarray = field(init=False, repr=False)  # (Ni, M+1) float

    def __post_init__(self):
        total = self.h_plus + self.h_minus
        self.cp = 2.0 / (self.h_plus * total)
        self.cm = 2.0 / (self.h_minus * total)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_interior(self) -> int:
        return self.plus_index.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """``(N,)`` bool mask of the interior points, the first ``n_interior``."""
        return np.arange(self.n_points) < self.n_interior

    def _stencil_block(self, boundary: bool = False, angles=None) -> sp.csr_matrix:
        """The stencil rows' CSR block over the interior columns, or the boundary ones.

        It holds the entries of the stencil table ``[plus_index | minus_index
        | self]``, shape ``(Ni, 2(M+1)+1)``, in those columns; with an
        ``(M+1,)`` angle mask ``angles``, the table spans only the angles it
        marks.  Each datum is the entry's flat position in the table, so a
        table of values in the same layout fills the block; scipy's
        ``sort_indices`` sorts the columns.  The arrays are read-only, the
        indices int32 (scipy's pick), so that matrices filled from the block
        share them.
        """
        ni = self.n_interior
        plus, minus = self.plus_index, self.minus_index
        if angles is not None:
            plus, minus = plus[:, angles], minus[:, angles]
        cols = np.hstack([plus, minus, np.arange(ni)[:, None]], dtype=np.int32)
        keep = cols >= ni if boundary else cols < ni
        positions = np.flatnonzero(keep)
        # row i's entries are the positions below (i + 1) * width
        indptr = np.searchsorted(positions, np.arange(ni + 1) * cols.shape[1]).astype(np.int32)
        indices = cols[keep]
        if boundary:
            indices -= ni
        block = sp.csr_matrix((positions, indices, indptr),
                              shape=(ni, self.n_points - ni if boundary else ni))
        block.sort_indices()
        for array in (block.indptr, block.indices, block.data):
            array.flags.writeable = False
        return block

    @cached_property
    def stencil_pattern(self) -> sp.csr_matrix:
        """The interior block that every Jacobian refills; a Newton step keeps
        the boundary values fixed, so arms to them have no entry."""
        return self._stencil_block()

    def __repr__(self) -> str:
        return (f"Grid({self.kind}, {self.n_points} points, "
                f"{self.n_interior} interior, h={self.h:.4g}, r={self.r:.4g})")


def _merge_labels(points: np.ndarray, tol: float) -> np.ndarray:
    """The smallest index in every point's group, for ``points`` of shape ``(m, 2)``.

    Two points are near when both coordinates differ by at most ``tol``;
    the groups are the connected components of that relation, so chains
    of near points, however long, are one group.  A sort-and-sweep finds
    them without a spatial index (Bentley, Stanat and Williams, IPL 6,
    1977): sorted by x, the points split into runs wherever consecutive x
    differ by more than ``tol``, and every run, sorted by y, splits into
    cells the same way.  Every near pair lands in one cell.  In a cell no
    wider than ``tol`` in x, each point is near the next in y, so the cell
    is one group; only a wider cell is searched pair by pair.
    """
    m = len(points)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    x, y = points[:, 0], points[:, 1]
    order = np.argsort(x, kind="stable")
    run = np.concatenate([[0], np.cumsum(np.diff(x[order]) > tol)])
    by_y = np.lexsort((y[order], run))
    order, run = order[by_y], run[by_y]
    xs, ys = x[order], y[order]
    new = np.ones(m, dtype=bool)
    new[1:] = (np.diff(run) != 0) | (np.diff(ys) > tol)
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], m)
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.repeat(np.minimum.reduceat(order, starts), ends - starts)

    wide = np.flatnonzero(np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts) > tol)
    for start, end in zip(starts[wide].tolist(), ends[wide].tolist()):
        members = np.sort(order[start:end])
        p = points[members]
        near = np.all(np.abs(p[:, None, :] - p[None, :, :]) <= tol, axis=2)
        # min over the neighbours (self included), then pointer jumping,
        # until a pass changes nothing; labels are positions in members
        own = np.arange(len(members))
        while True:
            low = np.where(near, own, len(members)).min(axis=1)
            low = low[low]
            if np.array_equal(low, own):
                break
            own = low
        labels[members] = members[own]
    return labels


def augment_boundary(domain: ConvexDomain, interior_points, angles: AngularDiscretization,
                     index, lengths, *, dedup_tol):
    """Resolve stencil arms that exit the domain by inserting boundary points.

    ``index`` and ``lengths`` are the ``(2, n, M+1)`` arm tables, by side
    (0 plus, 1 minus), interior node and angle.  On entry ``index`` holds
    interior point indices where the tiling neighbor is interior,
    ``NEAR_NODE`` where it lies inside the domain within the boundary
    clearance, and -1 where it is outside the domain; ``lengths`` holds the
    nominal tiling arm lengths.  Missing arms are processed per node, per
    angle, plus before minus.  An arm to a ``NEAR_NODE`` neighbor ends at
    that neighbor; any other gets the boundary crossing of its ray, which
    its nominal length bounds, since the node is interior and the tiling
    neighbor is outside.  End points within ``dedup_tol`` of each other in
    the max norm, chains included, become one boundary point, numbered by
    the first arm (in that order) that ends there.  The work is vectorized
    over all arms: one call of the domain's ``crossing``, clamped to the
    nominal lengths, or without one a bisection, for every crossing; and
    one sort-and-sweep (``_merge_labels``) for the groups of end points.

    Completes both tables in place and returns the full point array,
    interior first, boundary appended.
    """
    interior_points = np.asarray(interior_points, dtype=float)
    n_int = len(interior_points)

    # Missing arms in Algorithm-1 order (node, angle, plus before minus): their
    # flat slots in the (side, node, angle) tables, stably sorted by (node,
    # angle) position, 3x faster than reading a (node, angle, side) view.
    slot = np.flatnonzero(index < 0)
    slot = slot[np.argsort(slot % index[0].size, kind="stable")]
    side, rows, cols = np.unravel_index(slot, index.shape)

    # rays on coordinate planes, (2, m): x row, y row
    origins = interior_points.T.take(rows, axis=1)
    rays = angles.directions().T.take(cols, axis=1) * (1 - 2 * side)
    # An arm whose tiling neighbor lies inside the domain but within the
    # clearance ends at that neighbor, which becomes a boundary point
    # (u = g there); the arm keeps its full tiling length, and no
    # crossing is sought, since the crossing lies beyond the neighbor.
    cross = index.take(slot) != NEAR_NODE
    ts = lengths.take(slot)
    o, d, brackets = origins[:, cross].T, rays[:, cross].T, ts[cross]
    ts[cross] = (_boundary_crossings(domain, o, d, brackets) if domain.crossing is None
                 else np.minimum(domain.crossing(o, d), brackets))
    crossings = (origins + ts * rays).T

    # groups are numbered in order of their first end point
    heads, k = np.unique(_merge_labels(crossings, dedup_tol), return_inverse=True)
    np.put(index, slot, n_int + k)
    np.put(lengths, slot, ts)
    return np.vstack([interior_points, crossings[heads]])


def _tiling_grid(domain: ConvexDomain, kind: MeshKind, sites, spacing, sublattice,
                 offsets, lengths, h: float, angles: AngularDiscretization,
                 params: dict) -> Grid:
    """Build the grid of a tiling given as data (see the module docstring).

    ``sites`` is the ``(rows, cols)`` site mask, ``spacing`` the pair
    ``(dx, dy)`` and ``sublattice`` the label ``k`` of every lattice
    position.  ``offsets[k, side, j]`` is the ``(drow, dcol)`` of the arm of
    a sublattice-``k`` node along angle ``j``, side 0 plus and 1 minus, and
    ``lengths[k, side, j]`` its length; the longest is the stencil width.
    """
    xmin, _, ymin, _ = domain.bounding_box
    rows, cols = np.nonzero(sites)                  # (y, x) lexicographic order
    pts = np.column_stack([xmin + spacing[0] * cols, ymin + spacing[1] * rows])
    dist = domain.signed_distance(pts)
    inside = dist < -CLEARANCE * h
    n_int = int(inside.sum())
    if n_int == 0:
        raise ValueError("domain contains no interior tiling nodes")

    # The index map lives on the lattice padded by the longest arm offset
    # and flattened, so every arm is a fixed flat offset and needs no bounds
    # check.  Lookups stay on 1-D columns with scalar offsets, for the
    # square-lu grid (Cartesian n=72, K=5): one take over every arm's
    # per-node offset is 1.2x slower there (450 -> 590 us on a 2-core Xeon),
    # though 2-2.5x faster on discs at n=80 and at Cartesian n=256.
    pad = int(np.abs(offsets).max())
    width = sites.shape[1] + 2 * pad
    idx_map = np.full((sites.shape[0] + 2 * pad) * width, -1, dtype=np.int64)
    flat = (rows + pad) * width + cols + pad
    idx_map[flat[(dist < 0.0) & ~inside]] = NEAR_NODE
    flat = flat[inside]
    idx_map[flat] = np.arange(n_int)
    label = sublattice[rows[inside], cols[inside]]

    index = np.empty((2, n_int, len(angles)), dtype=np.int64)
    for k, steps in enumerate(offsets @ (width, 1)):
        members = np.flatnonzero(label == k)
        base = flat[members]
        for side, side_steps in enumerate(steps):
            for a, step in enumerate(side_steps.tolist()):
                index[side, members, a] = idx_map[base + step]
    arm = lengths.transpose(1, 0, 2).take(label, axis=1)

    points = augment_boundary(domain, pts[inside], angles, index, arm, dedup_tol=1e-9 * h)
    return Grid(kind, points, h, float(lengths.max()), angles,
                index[0], index[1], arm[0], arm[1], params=params)


def _cartesian_mesh(domain: ConvexDomain, n: int, K: int) -> Grid:
    """Uniform Cartesian lattice with depth-K L1-circle stencils.

    ``n`` is the lattice point count along the longer bounding-box side;
    the spacing is the same in both directions.  Requires ``n >= 2K + 3``
    so that at least the central nodes carry full-width stencils.
    """
    offs = l1_offsets(K)                            # (dx, dy) in lattice steps
    if n < 2 * K + 3:
        raise ValueError(f"need n >= 2K + 3 = {2 * K + 3} points per side, got {n}")
    xmin, xmax, ymin, ymax = domain.bounding_box
    width, height = xmax - xmin, ymax - ymin
    h = max(width, height) / (n - 1)
    shape = (int(math.ceil(height / h - 1e-9)) + 1, int(math.ceil(width / h - 1e-9)) + 1)

    arm = h * np.hypot(offs[:, 0], offs[:, 1])
    offs = offs[:, ::-1]
    return _tiling_grid(domain, "cartesian", np.ones(shape, dtype=bool), (h, h),
                        np.zeros(shape, dtype=np.int64), np.stack([offs, -offs])[None],
                        np.stack([arm, arm])[None], h, l1_angles(K), {"n": n, "K": K})


_SQRT3 = math.sqrt(3.0)

# Arms on the hexagon-vertex tiling, per sublattice, side (plus, minus) and
# angle j*pi/6, as (dq, dp) on the integer frame x = (sqrt(3)*s/2) * p,
# y = (s/2) * q, with lengths in units of s.  Sublattice A sits at rows
# q = 0 mod 3, sublattice B at rows q = 2 mod 3; B is the point reflection
# of A, which swaps the plus and minus sides and so the short and long
# sides of the uncentered arms.
_HEX_A = np.array([[(0, 2), (2, 2), (3, 1), (2, 0), (3, -1), (2, -2)],
                   [(0, -2), (-1, -1), (-3, -1), (-4, 0), (-3, 1), (-1, 1)]])
_HEX_A_LENGTHS = np.array([[_SQRT3, 2.0, _SQRT3, 1.0, _SQRT3, 2.0],
                           [_SQRT3, 1.0, _SQRT3, 2.0, _SQRT3, 1.0]])
_HEX_OFFSETS = np.stack([_HEX_A, -_HEX_A[::-1]])
_HEX_LENGTHS = np.stack([_HEX_A_LENGTHS, _HEX_A_LENGTHS[::-1]])


def _hexagonal_mesh(domain: ConvexDomain, n: int) -> Grid:
    """Hexagon-vertex tiling with the six-direction nearest-neighbor stencil.

    ``n`` sets the number of vertex rows across the bounding-box height
    (roughly half as many points sit along each row).  The hexagon side
    comes out as ``s = 4*height / (3*n)``; the covering radius of the
    vertex set -- the spatial resolution ``h`` -- equals ``s`` exactly, and
    the stencil width is ``r = 2*s``.
    """
    if n < 8:
        raise ValueError(f"need at least 8 vertex rows, got {n}")
    xmin, xmax, ymin, ymax = domain.bounding_box
    width, height = xmax - xmin, ymax - ymin
    s = 4.0 * height / (3.0 * n)

    q = np.arange(int(math.ceil(2.0 * height / s + 1e-9)) + 1)[:, None]
    p = np.arange(int(math.ceil(2.0 * width / (_SQRT3 * s) + 1e-9)) + 1)
    sites = (q % 3 != 1) & (p % 2 == (q // 3) % 2)  # no vertex rows at q = 1 mod 3
    sublattice = np.broadcast_to(q % 3 // 2, sites.shape)
    return _tiling_grid(domain, "hexagonal", sites, (_SQRT3 * s / 2.0, s / 2.0), sublattice,
                        _HEX_OFFSETS, _HEX_LENGTHS * s, s, hex_angles(),
                        {"n": n, "spacing": s})


def default_stencil_depth(n: int, c_K: float = 1.0) -> int:
    """Depth schedule ``K = max(2, round(c_K * n**(1/3)))``.

    With ``h ~ 1/n`` this realizes a stencil width ``r = K*h`` on the order
    of ``h**(2/3)``, the width that balances the angular and finite
    difference components of the truncation error.  ``n`` must be a
    positive integer and ``c_K`` finite and positive.
    """
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"grid size n must be a positive integer, got {n!r}")
    if not _is_real(c_K):
        raise ValueError(f"c_K must be a real number, got {c_K!r}")
    if not 0.0 < c_K < math.inf:
        raise ValueError(f"c_K must be finite and positive, got {c_K}")
    return max(2, int(round(c_K * n ** (1.0 / 3.0))))


def build_grid(domain: ConvexDomain, backend: str, n: int, K: int | None = None) -> Grid:
    """Build a grid for the named backend ("cartesian" or "hex"/"hexagonal").

    ``K`` is the Cartesian stencil depth, by default
    ``default_stencil_depth(n)``; the hex stencil has no depth, so a ``K``
    with it is a ValueError.  An ``n`` or ``K`` that is not an integer (a
    bool is not) is a ValueError; numpy integers are taken, and
    ``grid.params`` holds them as Python ints.
    """
    if not _is_integer(n):
        raise ValueError(f"grid size n must be an integer, got {n}")
    if K is not None and not _is_integer(K):
        raise ValueError(f"stencil depth K must be an integer, got {K}")
    n, K = int(n), None if K is None else int(K)
    if backend == "cartesian":
        return _cartesian_mesh(domain, n, default_stencil_depth(n) if K is None else K)
    if backend in ("hex", "hexagonal"):
        if K is not None:
            raise ValueError(f"the hex backend has no stencil depth K, got K={K}")
        return _hexagonal_mesh(domain, n)
    raise ValueError(f"unknown backend {backend!r} (expected 'cartesian' or 'hex')")


def grid_to_jsonable(grid: Grid) -> dict:
    """JSON-serializable dump of points, interior mask and stencil table."""
    return {
        "kind": grid.kind,
        "h": grid.h,
        "r": grid.r,
        "params": grid.params,
        "angles": grid.angles.angles.tolist(),
        "points": grid.points.tolist(),
        "interior": grid.interior.astype(int).tolist(),
        "stencil": {
            "interior_index": list(range(grid.n_interior)),
            "plus_index": grid.plus_index.tolist(),
            "minus_index": grid.minus_index.tolist(),
            "h_plus": grid.h_plus.tolist(),
            "h_minus": grid.h_minus.tolist(),
        },
    }


def grid_diagnostics(grid: Grid) -> dict:
    """Boundary points, the smallest arm over ``h``, and the clearance it keeps.

    Computed on demand from the grid's arrays, never while building it.
    """
    return {
        "boundary_points": grid.n_points - grid.n_interior,
        "min_arm_ratio": float(min(grid.h_plus.min(), grid.h_minus.min()) / grid.h),
        "clearance": CLEARANCE,
    }
