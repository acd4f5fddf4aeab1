import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadma import (ConvexDomain, build_grid, cartesian_mesh, default_stencil_depth,
                    disc, grid_to_jsonable, hexagonal_mesh, square)
from quadma.meshing import CLEARANCE


def _alignment_error(grid):
    """Worst deviation of stored neighbors from exact ray alignment."""
    dirs = grid.angles.directions()
    centers = grid.points[: grid.n_interior]
    worst = 0.0
    for idx, arm, sign in ((grid.plus_index, grid.h_plus, 1.0),
                           (grid.minus_index, grid.h_minus, -1.0)):
        target = centers[:, None, :] + sign * arm[:, :, None] * dirs[None, :, :]
        worst = max(worst, float(np.abs(grid.points[idx] - target).max()))
    return worst


def test_square9_basics(square9_k2):
    g = square9_k2
    assert g.h == pytest.approx(0.125)
    assert g.r == pytest.approx(0.25)
    assert g.n_interior == 49
    assert np.all(g.interior[:g.n_interior])
    assert not np.any(g.interior[g.n_interior:])


def test_interior_nodes_away_from_boundary_are_centered(square9_k2):
    g = square9_k2
    centers = g.points[:g.n_interior]
    far = np.abs(square((0, 0), 1.0).signed_distance(centers)) >= g.r
    assert far.any()
    assert np.allclose(g.h_plus[far], g.h_minus[far])
    # full tiling arms: lengths match the L1-circle radii
    arm = g.h * np.hypot(*np.abs(np.array([[2, 0], [1, 1], [0, 2], [-1, 1]]).T))
    assert np.allclose(g.h_plus[far], arm[None, :])


def test_near_boundary_arm_shortened(square9_k2):
    g = square9_k2
    centers = g.points[:g.n_interior]
    node = np.flatnonzero((np.abs(centers[:, 0] - 0.875) < 1e-12)
                          & (np.abs(centers[:, 1] - 0.5) < 1e-12))[0]
    # angle 0: the ray to the right exits at the boundary one spacing away,
    # while the interior side keeps its full two-spacing arm
    assert g.h_plus[node, 0] == pytest.approx(0.125, rel=1e-9)
    assert g.h_minus[node, 0] == pytest.approx(0.25)
    assert g.plus_index[node, 0] >= g.n_interior       # boundary point
    assert g.minus_index[node, 0] < g.n_interior       # lattice point


def test_alignment_invariant(square9_k2, hex_grid):
    for g in (square9_k2, hex_grid):
        assert _alignment_error(g) <= 1e-9 * g.h


def test_boundary_points_on_zero_level_set(square9_k2, hex_grid, unit_square):
    for g in (square9_k2, hex_grid):
        bdry = g.points[~g.interior]
        assert len(bdry) > 0
        assert np.abs(unit_square.signed_distance(bdry)).max() <= 1e-8


def test_boundary_points_on_disc():
    d = disc((0.0, 0.0), 1.0)
    for g in (cartesian_mesh(d, 17, 2), hexagonal_mesh(d, 16)):
        bdry = g.points[~g.interior]
        assert np.abs(d.signed_distance(bdry)).max() <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       radius=st.floats(0.3, 1.5), backend=st.sampled_from(["cartesian", "hex"]),
       n=st.integers(9, 40))
def test_boundary_clearance_on_random_discs(center, radius, backend, n):
    # interior nodes keep CLEARANCE*h from the boundary, so no arm is
    # shorter; boundary points are crossings or tiling nodes within it
    d = disc(center, radius)
    g = build_grid(d, backend, n)
    assert min(g.h_plus.min(), g.h_minus.min()) >= CLEARANCE * g.h
    dist = d.signed_distance(g.points[~g.interior])
    assert np.all(dist >= -CLEARANCE * g.h)
    assert np.all(dist <= 1e-8 * g.h)
    assert np.all(d.signed_distance(g.points[g.interior]) < -CLEARANCE * g.h)


def test_hex_structure(hex_grid):
    g = hex_grid
    assert np.allclose(g.angles.angles, np.arange(6) * np.pi / 6, atol=1e-15)
    assert g.r == pytest.approx(2 * g.h)
    # every aligned neighbor pair sits within twice the spacing
    assert g.h_plus.max() <= 2 * g.h + 1e-12
    assert g.h_minus.max() <= 2 * g.h + 1e-12
    # far from the boundary the arms take the three tiling lengths
    lengths = np.unique(np.round(np.concatenate([g.h_plus.ravel(), g.h_minus.ravel()])
                                 / g.h, 6))
    expected = {1.0, np.round(np.sqrt(3.0), 6), 2.0}
    assert expected.issubset(set(lengths))


def test_insertions_only_near_boundary(square9_k2, hex_grid, unit_square):
    # (equality holds when a tiling neighbor lands exactly on the boundary)
    for g in (square9_k2, hex_grid):
        centers = g.points[:g.n_interior]
        uses_boundary = ((g.plus_index >= g.n_interior) | (g.minus_index >= g.n_interior)).any(axis=1)
        dist = np.abs(unit_square.signed_distance(centers[uses_boundary]))
        assert np.all(dist <= g.r + 1e-12)


def test_far_nodes_reference_only_interior(square9_k2, hex_grid, unit_square):
    # no insertion happens for nodes farther than the stencil width from
    # the boundary: all their arms end on tiling points
    for g in (square9_k2, hex_grid):
        centers = g.points[:g.n_interior]
        far = np.abs(unit_square.signed_distance(centers)) > g.r + 1e-9 * g.h
        assert far.any()
        assert np.all(g.plus_index[far] < g.n_interior)
        assert np.all(g.minus_index[far] < g.n_interior)


def test_cartesian_mesh_on_non_square_box():
    from quadma import rectangle
    dom = rectangle((0.0, 0.0), (2.0, 1.0))
    g = cartesian_mesh(dom, 17, 2)
    assert g.h == pytest.approx(2.0 / 16)   # spacing set by the longer side
    assert _alignment_error(g) <= 1e-9 * g.h
    assert np.abs(dom.signed_distance(g.points[~g.interior])).max() <= 1e-8


def test_boundary_point_deduplication(square9_k2):
    g = square9_k2
    bdry = g.points[g.n_interior:]
    # the crossing (1, 0.375) is hit by several rays but stored once
    hits = np.flatnonzero((np.abs(bdry[:, 0] - 1.0) < 1e-9) & (np.abs(bdry[:, 1] - 0.375) < 1e-9))
    assert len(hits) == 1
    shared = int(hits[0]) + g.n_interior
    referencing = np.sum(g.plus_index == shared) + np.sum(g.minus_index == shared)
    assert referencing >= 2
    # no two stored boundary points coincide
    d2 = np.sum((bdry[:, None, :] - bdry[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > (1e-9 * g.h) ** 2


def test_determinism(unit_square):
    a = cartesian_mesh(unit_square, 13, 2)
    b = cartesian_mesh(unit_square, 13, 2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.plus_index, b.plus_index)
    assert np.array_equal(a.h_minus, b.h_minus)
    ha = hexagonal_mesh(unit_square, 10)
    hb = hexagonal_mesh(unit_square, 10)
    assert np.array_equal(ha.points, hb.points)
    assert np.array_equal(ha.minus_index, hb.minus_index)


def test_interior_ordering_lexicographic(square9_k2):
    pts = square9_k2.points[:square9_k2.n_interior]
    keys = pts[:, 1] * 10.0 + pts[:, 0]  # (y, x) lexicographic for this lattice
    assert np.all(np.diff(keys) > 0)


def test_spatial_resolution_bound(unit_square):
    g = cartesian_mesh(unit_square, 17, 2)
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.0, 1.0, size=(4000, 2))
    from scipy.spatial import cKDTree
    tree = cKDTree(g.points)
    dist, _ = tree.query(samples)
    assert dist.max() <= g.h * (1 / np.sqrt(2.0) + 0.05)


def test_empty_interior_rejected():
    empty = ConvexDomain(lambda p: np.ones(p.shape[:-1]), (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="interior"):
        cartesian_mesh(empty, 12, 2)
    with pytest.raises(ValueError, match="interior"):
        hexagonal_mesh(empty, 12)


def test_size_preconditions(unit_square):
    with pytest.raises(ValueError):
        cartesian_mesh(unit_square, 6, 2)   # below 2K + 3
    with pytest.raises(ValueError):
        cartesian_mesh(unit_square, 12, 0)
    with pytest.raises(ValueError):
        hexagonal_mesh(unit_square, 6)
    with pytest.raises(ValueError):
        build_grid(unit_square, "triangular", 12)


def test_default_stencil_depth_schedule():
    assert default_stencil_depth(16) == 3
    assert default_stencil_depth(32) == 3
    assert default_stencil_depth(64) == 4
    assert default_stencil_depth(128) == 5
    assert default_stencil_depth(8) == 2   # the floor
    assert default_stencil_depth(64, c_K=1.5) == 6


def test_grid_json_roundtrip(square9_k2):
    payload = grid_to_jsonable(square9_k2)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["kind"] == "cartesian"
    assert back["h"] == square9_k2.h
    assert len(back["points"]) == square9_k2.n_points
    assert len(back["stencil"]["plus_index"]) == square9_k2.n_interior
    assert back["interior"][0] == 1 and back["interior"][-1] == 0
