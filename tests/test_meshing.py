import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (augment_boundary_reference, boundary_crossings_reference, disc_reference,
                     merge_labels_reference, rectangle_reference)
from quadma import (ConvexDomain, build_grid, default_stencil_depth, disc, grid_diagnostics,
                    grid_to_jsonable, hex_angles, meshing, rectangle, square)
from quadma.domains import _boundary_crossings
from quadma.meshing import CLEARANCE, _merge_labels


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
    for g in (build_grid(d, "cartesian", 17, 2), build_grid(d, "hex", 16)):
        bdry = g.points[~g.interior]
        assert np.abs(d.signed_distance(bdry)).max() <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       radius=st.floats(0.3, 1.5), backend=st.sampled_from(["cartesian", "hex"]),
       n=st.integers(9, 40))
def test_boundary_clearance_on_random_discs(center, radius, backend, n):
    _assert_clearance(disc(center, radius), backend, n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lower_left=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       width=st.floats(0.5, 2.0), aspect=st.floats(0.3, 3.0),
       backend=st.sampled_from(["cartesian", "hex"]), n=st.integers(9, 40))
def test_boundary_clearance_on_random_rectangles(lower_left, width, aspect, backend, n):
    _assert_clearance(rectangle(lower_left, (width, aspect * width)), backend, n)


def _assert_clearance(domain, backend, n):
    # interior nodes keep CLEARANCE*h from the boundary, so no arm is
    # shorter; boundary points are crossings or tiling nodes within it
    g = build_grid(domain, backend, n)
    assert grid_diagnostics(g)["min_arm_ratio"] >= CLEARANCE
    dist = domain.signed_distance(g.points[~g.interior])
    assert np.all(dist >= -CLEARANCE * g.h)
    assert np.all(dist <= 1e-8 * g.h)
    assert np.all(domain.signed_distance(g.points[g.interior]) < -CLEARANCE * g.h)


def _sdf_only(domain):
    """``domain`` without its ``crossing``: the mesh builders bisect its sdf."""
    return ConvexDomain(domain.sdf, domain.bounding_box, domain.name)


def _assert_same_grid_as_reference(domain, backend, n, K=None):
    # on both crossing paths: the domain's closed form, and the bisection
    for dom in (domain, _sdf_only(domain)):
        grid = build_grid(dom, backend, n, K)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meshing, "augment_boundary", augment_boundary_reference)
            ref = build_grid(dom, backend, n, K)
        _assert_same_grids(grid, ref)


def _usable_depth(backend, n, K):
    """A drawn stencil depth as ``build_grid`` takes it: none on hex, which
    has no depth, and at most ``(n - 3) // 2`` on Cartesian grids."""
    return None if backend == "hex" or K is None else min(K, (n - 3) // 2)


def _assert_same_grids(grid, ref):
    for name in ("points", "interior", "plus_index", "minus_index", "h_plus", "h_minus"):
        assert np.array_equal(getattr(grid, name), getattr(ref, name)), name


_domains = st.one_of(
    st.builds(square, st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
              st.floats(0.5, 2.0)),
    st.builds(lambda ll, w, a: rectangle(ll, (w, a * w)),
              st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
              st.floats(0.5, 2.0), st.floats(0.3, 3.0)),
    st.builds(disc, st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
              st.floats(0.3, 1.5)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(domain=_domains, backend=st.sampled_from(["cartesian", "hex"]),
       n=st.integers(9, 48), K=st.one_of(st.none(), st.integers(1, 6)))
def test_boundary_dedup_matches_reference(domain, backend, n, K):
    # the vectorized merge of arm end points builds the same grid, bit for
    # bit, as merging them one at a time
    _assert_same_grid_as_reference(domain, backend, n, _usable_depth(backend, n, K))


@pytest.mark.parametrize("domain,backend,n,K", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5),   # the grid of ex1 and ex4 at n=72, K=5
    (square((0.0, 0.0), 1.0), "cartesian", 72, 5),
    (disc((0.1, 0.03), 0.77), "cartesian", 51, None),
    (disc((0.0, 0.0), 1.0), "cartesian", 79, None),
    (disc((-0.10832411072436261, -0.011629459537142173), 0.9166741524175653), "hex", 80, None),
])
def test_boundary_dedup_matches_reference_on_fixed_grids(domain, backend, n, K):
    _assert_same_grid_as_reference(domain, backend, n, K)


def _grid_digest(grid):
    """SHA-256 over every array and scalar that defines a grid."""
    digest = hashlib.sha256()
    for array in (grid.points, grid.interior, grid.plus_index, grid.minus_index,
                  grid.h_plus, grid.h_minus, grid.cp, grid.cm, grid.angles.angles):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
    digest.update(repr((grid.kind, grid.h, grid.r, sorted(grid.params.items()))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("domain,backend,n,K,expected", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5,
     "517d5c1c7388d3d701a58d384007a2a195c1fc11b2e24068373c36fc03a2d7cf"),
    (square((-1.0, -1.0), 2.0), "hex", 64, None,
     "598c41252a103f08134f095448cf4314630c053558b40f5dd8f881b3cc5cc8c5"),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "cartesian", 33, None,
     "9facf1622fb9e72c09c765a79c4b9cce61e79987854d5421b21f70395823bc8d"),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "hex", 40, None,
     "9e6dcf46a040fc17267436c7e0f8195898ab36492de56899f23ce6794f063de0"),
    (disc((0.1, 0.03), 0.77), "cartesian", 51, None,
     "35e31f58831497fbf3ce99feead8e9e17949f05431d9444b6dfd2fe139e53819"),
    (disc((0.1, 0.03), 0.77), "hex", 51, None,
     "fd1a67a6dc1ad00c1a7fe9056aa51c706666b93c8b80d77a1d781e4684e9c650"),
    (disc((0.0, 0.0), 1.0), "cartesian", 79, None,
     "7abdcb035bdf1c6afd2ba1b616b1440690eeff95ce54c82face9062c38e48200"),
    (disc((0.0, 0.0), 1.0), "hex", 79, None,
     "dcbaf072fcedeaada5b075d3a7a61d316350f3ad4373fe3348fd3af3e799bf3c"),
])
def test_grid_matches_golden_digest(domain, backend, n, K, expected):
    # Bit-for-bit pins on grids of both backends: the benchmark's square, a
    # non-square rectangle, and the benchmark's two fixed discs, whose
    # Cartesian grids (and the unit disc's hex grid) have arms ending at
    # clearance-band nodes.  A layout change hashes the arrays node-major.
    # The domains are sdf-only, so these pin the bisection path.
    assert _grid_digest(build_grid(_sdf_only(domain), backend, n, K)) == expected


@pytest.mark.parametrize("domain,backend,n,K,expected", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5,
     "229d9bdd6169e9b9fbe8224b5cb0656455042e80562c911cc1ae86e35fdb0801"),
    (square((-1.0, -1.0), 2.0), "hex", 64, None,
     "4713e9521fab157843725841df98d9f5d2dd900099d5f4c0fffa451127acd7cb"),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "cartesian", 33, None,
     "991399640c94406a2c58ca9df78a96ff1aca01343ab6c6839f2fdcc803cf1a17"),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "hex", 40, None,
     "3a015c2ad9ec9583f0aed68061f36e22466d56ee9e92b2a8d3fb602880ed9118"),
    (disc((0.1, 0.03), 0.77), "cartesian", 51, None,
     "f62eb56aaf66241d7c1bb71e9ab206972fea3d3beef8faaf0b539c606758e650"),
    (disc((0.1, 0.03), 0.77), "hex", 51, None,
     "6c07fc823d5fa5aede8502c6e698c2034103b50c44f04bebabf270151ec2bd79"),
    (disc((0.0, 0.0), 1.0), "cartesian", 79, None,
     "a8b97ee8128301dc6bc12254b8ea0a443327d034df22a0ee681b03d40e6727ce"),
    (disc((0.0, 0.0), 1.0), "hex", 79, None,
     "de0ea2ad44d3c5464406ab1c436ecddb4aac87ea3620081c36a1dc4203b7f519"),
])
def test_grid_matches_golden_digest_closed_form(domain, backend, n, K, expected):
    # the same grids on the built-in domains, whose arms are cut at the
    # closed-form crossings
    assert _grid_digest(build_grid(domain, backend, n, K)) == expected


@pytest.mark.parametrize("domain,backend,n,K", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5),
    (square((-1.0, -1.0), 2.0), "hex", 64, None),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "cartesian", 33, None),
    (rectangle((-0.3, 0.1), (1.7, 0.9)), "hex", 40, None),
    (disc((0.1, 0.03), 0.77), "cartesian", 51, None),
    (disc((0.1, 0.03), 0.77), "hex", 51, None),
    (disc((0.0, 0.0), 1.0), "cartesian", 79, None),
    (disc((0.0, 0.0), 1.0), "hex", 79, None),
])
def test_closed_form_and_bisection_build_the_same_grid(domain, backend, n, K):
    # the golden grids on both crossing paths: the same stencils, and
    # boundary points a few ulps apart (at most 22 ulps of the box's
    # largest coordinate over these and every benchmark grid)
    grid = build_grid(domain, backend, n, K)
    bisected = build_grid(_sdf_only(domain), backend, n, K)
    assert np.array_equal(grid.plus_index, bisected.plus_index)
    assert np.array_equal(grid.minus_index, bisected.minus_index)
    assert grid.points.shape == bisected.points.shape
    scale = np.abs(domain.bounding_box).max()
    assert np.abs(grid.points - bisected.points).max() <= 64.0 * np.finfo(float).eps * scale


_corner = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(
           st.tuples(st.just((rectangle, rectangle_reference)), _corner, st.floats(0.5, 2.0)),
           st.tuples(st.just((rectangle, rectangle_reference)), _corner,
                     st.builds(lambda w, a: (w, a * w), st.floats(0.5, 2.0), st.floats(0.3, 3.0))),
           st.tuples(st.just((disc, disc_reference)), _corner, st.floats(0.3, 1.5))),
       backend=st.sampled_from(["cartesian", "hex"]),
       n=st.integers(9, 48), K=st.one_of(st.none(), st.integers(1, 6)))
def test_grid_matches_norm_reference_sdf(shape, backend, n, K):
    # the built-in signed distances build the same grids, bit for bit, as
    # the np.linalg.norm formulas wrapped in a ConvexDomain, both bisected
    (build, build_reference), anchor, size = shape
    K = _usable_depth(backend, n, K)
    _assert_same_grids(build_grid(_sdf_only(build(anchor, size)), backend, n, K),
                       build_grid(build_reference(anchor, size), backend, n, K))


def _counting(domain):
    """``domain`` behind a ConvexDomain that records the shape of every sdf call."""
    shapes = []

    def sdf(p):
        shapes.append(p.shape)
        return domain.sdf(p)

    return ConvexDomain(sdf, domain.bounding_box, domain.name), shapes


@pytest.mark.parametrize("domain,backend,n,K", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5),
    (square((-1.0, -1.0), 2.0), "hex", 64, None),
    (disc((0.1, -0.05), 0.9), "cartesian", 80, None),
    (disc((0.1, -0.05), 0.9), "hex", 80, None),
])
def test_grid_build_sdf_calls(domain, backend, n, K):
    # one call on the whole tiling, then one per bisection pass on every
    # exiting arm at once: no per-angle or per-arm calls, and no more
    # passes than the fixed point takes (56 to 61 on these grids)
    counted, shapes = _counting(domain)
    grid = build_grid(counted, backend, n, K)
    tiling, passes = shapes[0], shapes[1:]
    assert tiling[0] > grid.n_interior
    assert len(set(passes)) == 1
    ni = grid.n_interior
    arms = int(np.sum(grid.plus_index >= ni) + np.sum(grid.minus_index >= ni))
    assert 0 < passes[0][0] <= arms
    assert len(shapes) <= 65


@pytest.mark.parametrize("domain,backend,n,K", [
    (square((-1.0, -1.0), 2.0), "cartesian", 72, 5),
    (square((-1.0, -1.0), 2.0), "hex", 64, None),
    (disc((0.1, -0.05), 0.9), "cartesian", 80, None),
    (disc((0.1, -0.05), 0.9), "hex", 80, None),
])
def test_grid_build_sdf_calls_with_crossing(domain, backend, n, K):
    # a built-in domain keeps its crossing, so the sdf is called once, on
    # the tiling, and no arm falls back to the bisection
    counted, shapes = _counting(domain)
    grid = build_grid(dataclasses.replace(domain, sdf=counted.sdf), backend, n, K)
    assert len(shapes) == 1 and shapes[0][0] > grid.n_interior
    assert np.any(grid.plus_index >= grid.n_interior)


@pytest.mark.parametrize("backend, K", [("cartesian", 3), ("hex", None)])
@pytest.mark.parametrize("domain", [square((0.0, 0.0), 1.0), disc((0.3, -0.2), 0.8)],
                         ids=["square", "disc"])
def test_stencil_tables_are_contiguous_intp_and_float64(domain, backend, K):
    # sdd_matrix gathers through the index tables with take and weights by
    # cp and cm; another layout or index type costs a copy or a cast on
    # every residual and Jacobian
    grid = build_grid(domain, backend, 20, K)
    shape = (grid.n_interior, len(grid.angles))
    for name, dtype in [("plus_index", np.intp), ("minus_index", np.intp), ("h_plus", np.float64),
                        ("h_minus", np.float64), ("cp", np.float64), ("cm", np.float64)]:
        table = getattr(grid, name)
        assert table.shape == shape and table.dtype == dtype, name
        assert table.flags.c_contiguous, name


def test_boundary_dedup_tolerance_and_chains():
    # arms at angle 0 that end at tiling nodes within the clearance put
    # their end points exactly at origin + (t, 0); no bisection runs
    tol = 1e-3
    ends = np.array([[1.0, 0.0], [1.0 + 0.8 * tol, 0.0], [1.0 + 1.6 * tol, 0.0],
                     [2.0, 0.0], [2.0 + 1.2 * tol, 0.5 * tol], [2.0, 0.9 * tol]])
    interior_points = np.column_stack([np.zeros(len(ends)), ends[:, 1]])
    angles = hex_angles()
    index = np.zeros((2, len(ends), len(angles)), dtype=np.int64)
    lengths = np.ones(index.shape)
    index[0, :, 0] = meshing.NEAR_NODE
    lengths[0, :, 0] = ends[:, 0]

    def augment(fn):
        table = index.copy()
        points = fn(square((0.0, -1.0), 3.0), interior_points, angles, table,
                    lengths.copy(), dedup_tol=tol)
        return points, table[0]

    n = len(ends)
    points, plus_index = augment(meshing.augment_boundary)
    # {0, 1, 2} is one chain, {3, 5} one pair; groups numbered by first end point
    assert np.array_equal(plus_index[:, 0] - n, [0, 0, 0, 1, 2, 1])
    assert np.array_equal(points[n:], ends[[0, 3, 4]])
    # merging greedily, first come first served, splits the chain: point 2 is
    # more than tol from point 0, the one stored
    _, greedy = augment(augment_boundary_reference)
    assert np.array_equal(greedy[:, 0] - n, [0, 0, 1, 2, 3, 2])


# End points for the merge, mostly on a lattice of spacing 1/8 with a
# tolerance of two steps: the coordinate differences are exact, so gaps of
# exactly the tolerance occur, which count as near.
_MERGE_TOL = 0.25
_site = st.tuples(st.integers(0, 16), st.integers(0, 16))


@st.composite
def _end_points(draw):
    sites = draw(st.lists(_site, min_size=1, max_size=30))
    # a square's side: many points on one x
    sites += [(0, y) for y in draw(st.lists(st.integers(0, 16), max_size=12))]
    # chains along x, y and both diagonals, with steps of 0 (a duplicate),
    # 1, 2 (exactly the tolerance) and 3 (a gap), so most span more than it
    for _ in range(draw(st.integers(0, 3))):
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]))
        x0, y0 = draw(_site)
        steps = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=1, max_size=20)))
        sites += [(x0 + dx * t, y0 + dy * t) for t in steps.tolist()]
    off_lattice = draw(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), max_size=12))
    points = np.vstack([np.array(sites, dtype=float) / 8.0,
                        np.array(off_lattice, dtype=float).reshape(-1, 2)])
    return points[draw(st.permutations(range(len(points))))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=_end_points())
@example(points=np.array([[0.3, -0.7]]))
@example(points=np.zeros((0, 2)))
def test_merge_labels_match_brute_force_components(points):
    # the sort-and-sweep labels every end point with the smallest index of
    # its connected component under max-norm distance <= tol
    labels = _merge_labels(points, _MERGE_TOL)
    assert np.array_equal(labels, merge_labels_reference(points, _MERGE_TOL))


def _exiting_rays(shape, lower_left, size, aspect, h, seed):
    """A disc or rectangle and rays from inside it: ``(domain, origins,
    directions, brackets, near)``.  The rays start anywhere inside, or
    (``near``) within CLEARANCE*h of the boundary and head out at 45
    degrees or steeper, like mesh arms; brackets are arm lengths or twice
    the bounding-box diagonal."""
    rng = np.random.default_rng(seed)
    if shape == "disc":
        center = np.array(lower_left)
        domain = disc(lower_left, size)
        phi = rng.uniform(0.0, 2.0 * np.pi, 100)
        normal = np.column_stack([np.cos(phi), np.sin(phi)])
        on_boundary = center + size * normal
    else:
        domain = rectangle(lower_left, (size, aspect * size))
        x0, x1, y0, y1 = domain.bounding_box
        side = rng.integers(0, 4, 100)
        normal = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])[side]
        u = rng.uniform(0.01, 0.99, 100)
        on_boundary = np.where((side < 2)[:, None],
                               np.column_stack([np.where(side == 0, x0, x1), y0 + u * (y1 - y0)]),
                               np.column_stack([x0 + u * (x1 - x0), np.where(side == 2, y0, y1)]))
    near = on_boundary - rng.uniform(1e-3, 1.0, 100)[:, None] * CLEARANCE * h * normal
    tilt = rng.uniform(-1.0, 1.0, 100)
    out = normal + tilt[:, None] * normal[:, ::-1] * np.array([-1.0, 1.0])
    out /= np.linalg.norm(out, axis=1)[:, None]
    x0, x1, y0, y1 = domain.bounding_box
    anywhere = np.column_stack([rng.uniform(x0, x1, 400), rng.uniform(y0, y1, 400)])
    phi = rng.uniform(0.0, 2.0 * np.pi, 400)
    origins = np.vstack([near, anywhere])
    directions = np.vstack([out, np.column_stack([np.cos(phi), np.sin(phi)])])
    keep = domain.signed_distance(origins) < 0.0
    origins, directions = origins[keep], directions[keep]
    brackets = np.full(len(origins), 2.0 * np.hypot(x1 - x0, y1 - y0))
    arm = domain.signed_distance(origins + h * directions) >= 0.0
    brackets[arm] = h
    assert arm.any()
    return domain, origins, directions, brackets, np.arange(len(keep))[keep] < len(near)


_rays = dict(shape=st.sampled_from(["disc", "rectangle"]),
             lower_left=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
             size=st.floats(0.3, 2.0), aspect=st.floats(0.3, 3.0), h=st.floats(1e-3, 0.2),
             seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_rays)
def test_boundary_crossings_match_plain_bisection(shape, lower_left, size, aspect, h, seed):
    # stopping at the fixed point gives the same crossings, bit for bit,
    # as all 80 halvings; rays start anywhere inside, or within
    # CLEARANCE*h of the boundary and head out, and brackets are arm
    # lengths or twice the bounding-box diagonal
    domain, origins, directions, brackets, _ = _exiting_rays(shape, lower_left, size, aspect,
                                                              h, seed)
    expected = boundary_crossings_reference(domain, origins, directions, brackets)
    assert np.array_equal(_boundary_crossings(domain, origins, directions, brackets), expected)
    # and the same whatever the inputs' memory layout: Fortran order, as
    # augment_boundary passes them, every third row, every other column,
    # rows reversed
    for layout in (np.asfortranarray,
                   lambda a: np.repeat(a, 3, axis=0)[1::3],
                   lambda a: np.insert(a, 1, np.nan, axis=1)[:, ::2],
                   lambda a: a[::-1].copy()[::-1]):
        o, d = layout(origins), layout(directions)
        assert np.array_equal(o, origins) and np.array_equal(d, directions)
        assert not (o.flags.c_contiguous and d.flags.c_contiguous)
        assert np.array_equal(_boundary_crossings(domain, o, d, brackets), expected)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_rays)
def test_ray_crossings_take_the_closed_form_or_bisect(shape, lower_left, size, aspect, h, seed):
    # a built-in domain clamps its crossing to the brackets, bit for bit; an
    # sdf-only wrapper gives the plain bisection's crossings; neither
    # passes a bracket
    domain, origins, directions, brackets, _ = _exiting_rays(shape, lower_left, size, aspect,
                                                              h, seed)
    t = domain.ray_crossings(origins, directions, brackets)
    assert np.array_equal(t, np.minimum(domain.crossing(origins, directions), brackets))
    bisected = _sdf_only(domain).ray_crossings(origins, directions, brackets)
    assert np.array_equal(bisected,
                          boundary_crossings_reference(domain, origins, directions, brackets))
    assert np.all(t <= brackets) and np.all(bisected <= brackets)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_rays)
def test_closed_form_crossings_are_on_the_boundary(shape, lower_left, size, aspect, h, seed):
    # the rectangle's and the disc's crossing lands within a few ulps of
    # the boundary, inside the bracket, and on rays that leave like mesh
    # arms within a few ulps of the bisection's crossing
    domain, origins, directions, brackets, near = _exiting_rays(shape, lower_left, size, aspect,
                                                                 h, seed)
    ulp = np.finfo(float).eps * np.abs(domain.bounding_box).max()
    t = domain.crossing(origins, directions)
    assert np.all((0.0 < t) & (t <= brackets))
    assert np.abs(domain.signed_distance(origins + t[:, None] * directions)).max() <= 4.0 * ulp
    bisected = _boundary_crossings(domain, origins[near], directions[near], brackets[near])
    assert np.abs(t[near] - bisected).max() <= 64.0 * ulp


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
    g = build_grid(dom, "cartesian", 17, 2)
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
    a = build_grid(unit_square, "cartesian", 13, 2)
    b = build_grid(unit_square, "cartesian", 13, 2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.plus_index, b.plus_index)
    assert np.array_equal(a.h_minus, b.h_minus)
    ha = build_grid(unit_square, "hex", 10)
    hb = build_grid(unit_square, "hex", 10)
    assert np.array_equal(ha.points, hb.points)
    assert np.array_equal(ha.minus_index, hb.minus_index)


def test_interior_ordering_lexicographic(square9_k2):
    pts = square9_k2.points[:square9_k2.n_interior]
    keys = pts[:, 1] * 10.0 + pts[:, 0]  # (y, x) lexicographic for this lattice
    assert np.all(np.diff(keys) > 0)


def test_spatial_resolution_bound(unit_square):
    g = build_grid(unit_square, "cartesian", 17, 2)
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.0, 1.0, size=(4000, 2))
    from scipy.spatial import cKDTree
    tree = cKDTree(g.points)
    dist, _ = tree.query(samples)
    assert dist.max() <= g.h * (1 / np.sqrt(2.0) + 0.05)


def test_empty_interior_rejected():
    empty = ConvexDomain(lambda p: np.ones(p.shape[:-1]), (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="interior"):
        build_grid(empty, "cartesian", 12, 2)
    with pytest.raises(ValueError, match="interior"):
        build_grid(empty, "hex", 12)


def test_size_preconditions(unit_square):
    with pytest.raises(ValueError):
        build_grid(unit_square, "cartesian", 6, 2)   # below 2K + 3
    with pytest.raises(ValueError):
        build_grid(unit_square, "cartesian", 12, 0)
    for backend in ("cartesian", "hex"):
        with pytest.raises(ValueError):
            build_grid(unit_square, backend, -5)
    with pytest.raises(ValueError):
        build_grid(unit_square, "hex", 6)
    with pytest.raises(ValueError):
        build_grid(unit_square, "triangular", 12)


@pytest.mark.parametrize("backend, n, K, named", [
    ("cartesian", 12.5, None, "n must be an integer, got 12.5"),
    ("hex", 16.0, None, "n must be an integer, got 16.0"),
    ("hex", True, None, "n must be an integer, got True"),
    ("cartesian", 12, 2.5, "K must be an integer, got 2.5"),
    ("cartesian", 12, True, "K must be an integer, got True"),
    ("cartesian", np.float64(12), None, "n must be an integer"),
])
def test_build_grid_requires_integer_sizes(unit_square, backend, n, K, named):
    # a float size used to build a grid with params["n"] == 12.5, a bool K a K=1 grid
    with pytest.raises(ValueError, match=named):
        build_grid(unit_square, backend, n, K)


def test_build_grid_takes_numpy_integers(unit_square):
    # the same grid as from Python ints, whose params hold Python ints, so
    # that the grid dumps to JSON
    for backend, n, K in [("cartesian", np.int64(12), np.int32(2)),
                          ("cartesian", np.int32(14), None),
                          ("hex", np.int64(12), None),
                          ("hex", np.uint16(13), None)]:
        grid = build_grid(unit_square, backend, n, K)
        reference = build_grid(unit_square, backend, int(n), None if K is None else int(K))
        assert _grid_digest(grid) == _grid_digest(reference)
        assert grid.params == reference.params
        assert all(type(grid.params[key]) is int for key in ("n", "K") if key in grid.params)
        assert json.dumps(grid_to_jsonable(grid)) == json.dumps(grid_to_jsonable(reference))


@pytest.mark.parametrize("backend", ["hex", "hexagonal"])
def test_build_grid_rejects_a_depth_on_hex(unit_square, backend):
    # the hex stencil has no depth: a K there would be dropped without a word
    with pytest.raises(ValueError, match="no stencil depth K"):
        build_grid(unit_square, backend, 16, 7)


def test_default_stencil_depth_schedule():
    assert default_stencil_depth(16) == 3
    assert default_stencil_depth(32) == 3
    assert default_stencil_depth(64) == 4
    assert default_stencil_depth(128) == 5
    assert default_stencil_depth(8) == 2   # the floor
    assert default_stencil_depth(64, c_K=1.5) == 6
    for c_K in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="c_K"):
            default_stencil_depth(64, c_K=c_K)
    assert default_stencil_depth(np.int64(64)) == 4
    # -5 raised TypeError (its cube root is complex), True gave depth 2
    for n in (-5, 0, True, 64.0):
        with pytest.raises(ValueError, match="positive integer"):
            default_stencil_depth(n)


def test_grid_json_roundtrip(square9_k2):
    payload = grid_to_jsonable(square9_k2)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["kind"] == "cartesian"
    assert back["h"] == square9_k2.h
    assert len(back["points"]) == square9_k2.n_points
    assert len(back["stencil"]["plus_index"]) == square9_k2.n_interior
    assert back["interior"][0] == 1 and back["interior"][-1] == 0
