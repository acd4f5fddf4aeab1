import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import disc_reference, rectangle_reference
from quadma import disc, make_domain, rectangle, square
from quadma.domains import _boundary_crossings


def test_square_signed_distance_examples(unit_square):
    assert unit_square.signed_distance((0.5, 0.5)) == pytest.approx(-0.5)
    assert unit_square.signed_distance((0.5, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert disc((0, 0), 1.0).signed_distance((2.0, 0.0)) == pytest.approx(1.0)


def test_signed_distance_vectorized(unit_square):
    pts = np.array([[0.5, 0.5], [0.5, 1.0], [2.0, 2.0]])
    d = unit_square.signed_distance(pts)
    assert d.shape == (3,)
    assert d[0] < 0 and abs(d[1]) < 1e-15 and d[2] > 0


def _probe_points(domain, rng):
    """96 points: random ones around the domain, on its boundary, at the
    bounding-box corners, at the centre and far outside."""
    x0, x1, y0, y1 = domain.bounding_box
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    u = rng.uniform(0.0, 1.0, 24)
    if domain.name == "disc":
        phi = 2.0 * np.pi * u
        edges = np.column_stack([cx + 0.5 * (x1 - x0) * np.cos(phi),
                                 cy + 0.5 * (y1 - y0) * np.sin(phi)])
    else:
        xs, ys = x0 + u[:12] * (x1 - x0), y0 + u[12:] * (y1 - y0)
        edges = np.vstack([np.column_stack([np.full(6, x0), ys[:6]]),
                           np.column_stack([np.full(6, x1), ys[6:]]),
                           np.column_stack([xs[:6], np.full(6, y0)]),
                           np.column_stack([xs[6:], np.full(6, y1)])])
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    span = np.hypot(x1 - x0, y1 - y0)
    phi = rng.uniform(0.0, 2.0 * np.pi, 19)
    far = np.column_stack([cx + 1e3 * span * np.cos(phi), cy + 1e3 * span * np.sin(phi)])
    near = rng.uniform([x0 - span, y0 - span], [x1 + span, y1 + span], size=(48, 2))
    return np.vstack([near, edges, corners, [[cx, cy]], far])


_coords = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(
           st.tuples(st.just((rectangle, rectangle_reference)), _coords,
                     st.one_of(st.floats(0.1, 3.0), st.tuples(st.floats(0.1, 3.0),
                                                              st.floats(0.1, 3.0)))),
           st.tuples(st.just((disc, disc_reference)), _coords, st.floats(0.1, 3.0))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_signed_distance_matches_norm_reference(shape, seed):
    # the built-in signed distances, written on the coordinate planes, equal
    # the np.linalg.norm formulas bit for bit, on every (..., 2) shape
    (build, build_reference), anchor, size = shape
    domain, reference = build(anchor, size), build_reference(anchor, size)
    assert domain.bounding_box == reference.bounding_box
    pts = _probe_points(domain, np.random.default_rng(seed))
    for p in (pts, pts.reshape(8, 12, 2), pts[:, None, :]):
        got = domain.signed_distance(p)
        assert got.shape == p.shape[:-1]
        assert np.array_equal(got, reference.signed_distance(p))
    for point in pts:
        got = domain.signed_distance(point)
        assert got.shape == ()
        assert np.array_equal(got, reference.signed_distance(point))


@pytest.mark.parametrize("domain", [square((0, 0), 1.0), rectangle((-1, 0.5), (2.0, 0.75)),
                                    disc((0.3, -0.2), 1.7)])
def test_lipschitz_property(domain):
    rng = np.random.default_rng(0)
    xmin, xmax, ymin, ymax = domain.bounding_box
    span = max(xmax - xmin, ymax - ymin)
    p = rng.uniform([xmin - span, ymin - span], [xmax + span, ymax + span], size=(500, 2))
    q = rng.uniform([xmin - span, ymin - span], [xmax + span, ymax + span], size=(500, 2))
    lhs = np.abs(domain.signed_distance(p) - domain.signed_distance(q))
    rhs = np.linalg.norm(p - q, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("domain", [square((0, 0), 1.0), disc((0.3, -0.2), 1.7)])
def test_convexity_probe(domain):
    rng = np.random.default_rng(1)
    xmin, xmax, ymin, ymax = domain.bounding_box
    pts = rng.uniform([xmin, ymin], [xmax, ymax], size=(2000, 2))
    inner = pts[domain.signed_distance(pts) < 0]
    half = len(inner) // 2
    mid = 0.5 * (inner[:half] + inner[half:2 * half])
    assert np.all(domain.signed_distance(mid) < 0)


def _crossing_distances(domain, origins, directions):
    """``_boundary_crossings`` of unit rays, bracketed by twice the
    bounding-box diagonal."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    x0, x1, y0, y1 = domain.bounding_box
    brackets = np.full(len(origins), 2.0 * np.hypot(x1 - x0, y1 - y0))
    return _boundary_crossings(domain, origins, directions, brackets)


def test_boundary_intersection_examples(unit_square):
    t = _crossing_distances(unit_square, (0.5, 0.5), (1.0, 0.0))[0]
    assert t == pytest.approx(0.5, rel=1e-12)
    t = _crossing_distances(unit_square, (0.5, 0.5), (np.cos(np.pi / 4), np.sin(np.pi / 4)))[0]
    assert t == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-12)
    theta = np.random.default_rng(2).uniform(0, 2 * np.pi, 5)
    ts = _crossing_distances(disc((0, 0), 1.0), np.zeros((5, 2)),
                             np.column_stack([np.cos(theta), np.sin(theta)]))
    assert ts == pytest.approx(np.ones(5), rel=1e-12)


def test_boundary_intersection_point_on_boundary(unit_square):
    origin = np.array([0.3, 0.4])
    direction = np.array([0.6, 0.8])
    t = _crossing_distances(unit_square, origin, direction)[0]
    assert abs(unit_square.signed_distance(origin + t * direction)) <= 1e-10


def test_boundary_intersection_monotone_in_origin(unit_square):
    origins = np.column_stack([[0.1, 0.3, 0.5, 0.7, 0.9], np.full(5, 0.5)])
    ts = _crossing_distances(unit_square, origins, np.tile([1.0, 0.0], (5, 1)))
    assert np.all(np.diff(ts) < 0)


def test_make_domain(unit_square):
    d = make_domain("square", lower_left=(0, 0), side=1.0)
    assert d.signed_distance((0.5, 0.5)) == pytest.approx(-0.5)
    d = make_domain("disc", center=(1, 1), radius=2.0)
    assert d.signed_distance((1.0, 1.0)) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        make_domain("triangle")
    with pytest.raises(ValueError, match="not side"):
        make_domain("rectangle", side=2.0)
    with pytest.raises(ValueError):
        rectangle((0, 0), -1.0)
