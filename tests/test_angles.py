import numpy as np
import pytest

from oracles import gap_ratios
from quadma import (AngularDiscretization, NewtonConfig, build_grid, default_params,
                    default_stencil_depth, disc, hex_angles, l1_angles, rectangle,
                    simpson_weights, square, uniform_angles)


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
    ratios = gap_ratios(d)
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


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "4"])
def test_angle_counts_must_be_integers(value):
    # 2.5 built 5 L1 angles and 3 uniform ones, True one uniform angle
    with pytest.raises(ValueError, match="positive integer"):
        l1_angles(value)
    with pytest.raises(ValueError, match="positive integer"):
        uniform_angles(value)
    assert len(l1_angles(np.int64(3))) == 6
    assert len(uniform_angles(np.int32(4))) == 4


@pytest.mark.parametrize("build, named", [
    (lambda: square(("0", "0"), 2.0), "lower_left"),
    (lambda: square((0, 0), "2"), "side"),
    (lambda: square((0, 0), np.True_), "side"),
    (lambda: disc((0, 0), True), "radius"),
    (lambda: disc((0, b"0"), 1.0), "center"),
    (lambda: rectangle((False, 0), 1.5), "lower_left"),
    (lambda: rectangle((0, 0), b"1.5"), "size"),
    (lambda: rectangle((0, 0), (1.0, True)), "size"),
    (lambda: rectangle(np.array([True, False]), 1.0), "lower_left"),
    (lambda: default_params(build_grid(square(), "hex", 8), True), "epsilon"),
    (lambda: default_params(build_grid(square(), "hex", 8), "1e-3"), "epsilon"),
    (lambda: NewtonConfig(residual_threshold_factor=True), "residual_threshold_factor"),
    (lambda: NewtonConfig(residual_threshold_factor="1"), "residual_threshold_factor"),
    (lambda: default_stencil_depth(64, c_K=True), "c_K"),
    (lambda: default_stencil_depth(64, c_K="1"), "c_K"),
], ids=["square-str-corner", "square-str-side", "square-numpy-bool-side", "disc-bool-radius",
        "disc-bytes-center", "rectangle-bool-corner", "rectangle-bytes-size",
        "rectangle-bool-height", "rectangle-bool-array-corner", "epsilon-bool", "epsilon-str",
        "threshold-bool", "threshold-str", "c_K-bool", "c_K-str"])
def test_values_that_are_not_real_numbers_are_rejected(build, named):
    # a real number is an int or a float, numpy's included, as the integer
    # rule above has it; a bool, str or bytes was parsed as a number before
    with pytest.raises(ValueError, match=named):
        build()


def test_numpy_real_numbers_are_taken():
    assert square((np.int64(0), np.float32(0.0)), np.float64(2.0)).bounding_box == (0, 2, 0, 2)
    assert default_params(build_grid(square(), "hex", 8), np.float64(1e-3)).epsilon == 1e-3
    assert NewtonConfig(residual_threshold_factor=np.int64(2)).residual_threshold_factor == 2
    assert default_stencil_depth(64, c_K=np.float64(1.0)) == 4


def test_gaps_sum_to_pi():
    for d in (hex_angles(), uniform_angles(7), l1_angles(3), l1_angles(8),
              AngularDiscretization([0.1, 0.5, 2.0, 3.0])):
        assert d.gaps.sum() == pytest.approx(np.pi, abs=1e-12)
        assert d.resolution == d.gaps.max()
        assert d.quasi_uniformity >= 1.0


def test_quasi_uniformity_bounded_by_2_2():
    for K in range(2, 65):
        assert l1_angles(K).quasi_uniformity <= 2.2


def test_l1_gaps_lie_between_one_and_two_over_k():
    # the bound that keeps every Simpson weight positive, so the angles command cannot fail
    for K in range(1, 513):
        d = l1_angles(K)
        assert np.all((1.0 < K * d.gaps) & (K * d.gaps < 2.0))
        assert d.quasi_uniformity < 2.0
        assert np.all(simpson_weights(d).weights > 0.0)


def test_quasi_uniformity_small_k_values():
    assert l1_angles(2).quasi_uniformity == pytest.approx(1.0, abs=1e-12)
    for K in (4, 8, 16, 32):
        assert l1_angles(K).quasi_uniformity <= 2.1


def test_gap_ratios_approach_one():
    dev8 = np.abs(gap_ratios(l1_angles(8)) - 1.0).max()
    dev64 = np.abs(gap_ratios(l1_angles(64)) - 1.0).max()
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
    with pytest.raises(ValueError, match="finite"):
        AngularDiscretization([np.nan])
    with pytest.raises(ValueError):
        uniform_angles(0)

