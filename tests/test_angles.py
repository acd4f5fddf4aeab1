import numpy as np
import pytest

from quadma import AngularDiscretization, filter_angles, hex_angles, l1_angles, uniform_angles


def test_hex_angles():
    d = hex_angles()
    assert np.allclose(d.angles, np.arange(6) * np.pi / 6, atol=1e-15)
    assert d.resolution == pytest.approx(np.pi / 6, abs=1e-13)
    assert d.quasi_uniformity == pytest.approx(1.0, abs=1e-12)


def test_l1_angles_k2():
    d = l1_angles(2)
    assert np.allclose(d.angles, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-14)
    assert d.quasi_uniformity == pytest.approx(1.0, abs=1e-12)


def test_l1_angles_k3():
    # angles of the offsets (3,0), (2,1), (1,2), (0,3), (-1,2), (-2,1)
    expected = [0.0, np.arctan(0.5), np.arctan(2.0), np.pi / 2,
                np.pi - np.arctan(2.0), np.pi - np.arctan(0.5)]
    d = l1_angles(3)
    assert np.allclose(d.angles, expected, atol=1e-14)
    ratios = d.gap_ratios()
    assert np.all((ratios > 0.5) & (ratios < 2.0))


def test_l1_angle_count_and_symmetry():
    for K in (1, 2, 5, 9):
        d = l1_angles(K)
        assert len(d) == 2 * K
        assert d.angles[0] == 0.0
        # symmetric about pi/2: theta and pi - theta both present
        assert np.allclose(np.sort(np.pi - d.angles[1:]), d.angles[1:], atol=1e-12)


def test_l1_rejects_zero_depth():
    with pytest.raises(ValueError):
        l1_angles(0)


def test_gaps_sum_to_pi():
    for d in (hex_angles(), uniform_angles(7), l1_angles(3), l1_angles(8),
              AngularDiscretization([0.1, 0.5, 2.0, 3.0])):
        assert d.gaps.sum() == pytest.approx(np.pi, abs=1e-12)
        assert d.resolution == d.gaps.max()
        assert d.quasi_uniformity >= 1.0


def test_quasi_uniformity_bounded_by_2_2():
    for K in range(2, 65):
        assert l1_angles(K).quasi_uniformity <= 2.2


def test_quasi_uniformity_small_k_values():
    assert l1_angles(2).quasi_uniformity == pytest.approx(1.0, abs=1e-12)
    for K in (4, 8, 16, 32):
        assert l1_angles(K).quasi_uniformity <= 2.1


def test_gap_ratios_approach_one():
    dev8 = np.abs(l1_angles(8).gap_ratios() - 1.0).max()
    dev64 = np.abs(l1_angles(64).gap_ratios() - 1.0).max()
    assert dev64 < dev8


def test_validation_errors():
    with pytest.raises(ValueError):
        AngularDiscretization([])
    with pytest.raises(ValueError):
        AngularDiscretization([0.2, 0.1])  # not increasing
    with pytest.raises(ValueError):
        AngularDiscretization([0.0, np.pi])  # out of range
    with pytest.raises(ValueError):
        AngularDiscretization([-0.1, 0.5])
    with pytest.raises(ValueError):
        uniform_angles(0)


def test_filter_keeps_conforming_sets():
    uniform = np.arange(12) * np.pi / 12
    out = filter_angles(uniform, 0.5, 2.0)
    assert np.allclose(out.angles, uniform, atol=0)
    l1 = l1_angles(8)
    out = filter_angles(l1.angles, 0.5, 2.0)
    assert np.array_equal(out.angles, l1.angles)


def test_filter_pathological_input():
    # Two tight pairs separated by huge gaps: either an error or a
    # conforming pruned set is acceptable; here too few angles survive.
    with pytest.raises(ValueError):
        filter_angles([0.0, 0.01, np.pi / 2, np.pi / 2 + 0.01], 0.5, 2.0)


def test_filter_postcondition_on_random_sets():
    rng = np.random.default_rng(3)
    produced = 0
    for _ in range(50):
        m = rng.integers(6, 40)
        angles = np.sort(rng.uniform(0.0, np.pi, m))
        angles = angles[np.concatenate([[True], np.diff(angles) > 1e-6])]
        cand = AngularDiscretization(angles)
        try:
            out = filter_angles(angles, 0.5, 2.0)
        except ValueError:
            continue
        produced += 1
        ratios = out.gap_ratios()
        assert np.all((ratios > 0.5) & (ratios < 2.0))
        assert len(out) >= 4
        assert out.resolution <= 3.0 * cand.resolution + 1e-12
        assert set(out.angles).issubset(set(cand.angles))
    assert produced > 0  # the filter succeeds on a decent fraction of inputs


def test_filter_validates_ratio_window():
    with pytest.raises(ValueError):
        filter_angles([0.0, 1.0, 2.0, 3.0], 1.5, 2.0)
    with pytest.raises(ValueError):
        filter_angles([0.0, 1.0, 2.0, 3.0], 0.5, 0.9)
