import numpy as np
import pytest

from quadma import ConvexDomain, boundary_intersection, disc, make_domain, rectangle, square


def test_square_signed_distance_examples(unit_square):
    assert unit_square.signed_distance((0.5, 0.5)) == pytest.approx(-0.5)
    assert unit_square.signed_distance((0.5, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert disc((0, 0), 1.0).signed_distance((2.0, 0.0)) == pytest.approx(1.0)


def test_signed_distance_vectorized(unit_square):
    pts = np.array([[0.5, 0.5], [0.5, 1.0], [2.0, 2.0]])
    d = unit_square.signed_distance(pts)
    assert d.shape == (3,)
    assert d[0] < 0 and abs(d[1]) < 1e-15 and d[2] > 0


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


def test_boundary_intersection_examples(unit_square):
    t = boundary_intersection(unit_square, (0.5, 0.5), (1.0, 0.0))
    assert t == pytest.approx(0.5, rel=1e-12)
    t = boundary_intersection(unit_square, (0.5, 0.5), (np.cos(np.pi / 4), np.sin(np.pi / 4)))
    assert t == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-12)
    d = disc((0, 0), 1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        t = boundary_intersection(d, (0.0, 0.0), (np.cos(theta), np.sin(theta)))
        assert t == pytest.approx(1.0, rel=1e-12)


def test_boundary_intersection_point_on_boundary(unit_square):
    origin = np.array([0.3, 0.4])
    direction = np.array([0.6, 0.8])
    t = boundary_intersection(unit_square, origin, direction)
    assert abs(unit_square.signed_distance(origin + t * direction)) <= 1e-10


def test_boundary_intersection_monotone_in_origin(unit_square):
    direction = np.array([1.0, 0.0])
    ts = [boundary_intersection(unit_square, (x, 0.5), direction)
          for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_boundary_intersection_errors(unit_square):
    with pytest.raises(ValueError):
        boundary_intersection(unit_square, (2.0, 2.0), (1.0, 0.0))  # origin outside
    with pytest.raises(ValueError):
        boundary_intersection(unit_square, (0.5, 0.5), (0.0, 0.0))  # zero direction
    unbounded = ConvexDomain(lambda p: np.full(p.shape[:-1], -1.0), (0, 1, 0, 1))
    with pytest.raises(RuntimeError):
        boundary_intersection(unbounded, (0.5, 0.5), (1.0, 0.0))


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
