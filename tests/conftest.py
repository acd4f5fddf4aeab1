import numpy as np
import pytest

from quadma import build_grid, default_params, square

pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def unit_square():
    return square((0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def square9_k2(unit_square):
    """Small reference configuration: unit square, 9 points per side, K=2."""
    return build_grid(unit_square, "cartesian", 9, 2)


@pytest.fixture(scope="session")
def cart_grid(unit_square):
    return build_grid(unit_square, "cartesian", 16, K=2)


@pytest.fixture(scope="session")
def hex_grid(unit_square):
    return build_grid(unit_square, "hex", 12)


@pytest.fixture(scope="session")
def both_grids(cart_grid, hex_grid):
    return {"cartesian": cart_grid, "hex": hex_grid}


def zero_field(p):
    return np.zeros(len(p))


@pytest.fixture(scope="session")
def zeros():
    return zero_field
