import numpy as np
import pytest

from vmlkit import landau
from vmlkit.macro_micro import MacroProjector
from vmlkit.phase_grid import SpatialGrid, VelocityGrid


@pytest.fixture(scope="session")
def vgrid8():
    return VelocityGrid(v_max=6.0, n_v=8)


@pytest.fixture(scope="session")
def tables8(vgrid8):
    return landau.build_collision_tables(vgrid8, -3.0)


@pytest.fixture(scope="session")
def tables9_soft():
    """Odd grid, non-Coulomb gamma: off the n_v = 8, gamma = -3 defaults."""
    return landau.build_collision_tables(VelocityGrid(v_max=6.0, n_v=9), -2.5)


@pytest.fixture(scope="session")
def proj8(vgrid8):
    return MacroProjector(vgrid8)


@pytest.fixture(scope="session")
def vgrid12():
    return VelocityGrid(v_max=6.0, n_v=12)


@pytest.fixture(scope="session")
def tables12(vgrid12):
    return landau.build_collision_tables(vgrid12, -3.0)


@pytest.fixture(scope="session")
def proj12(vgrid12):
    return MacroProjector(vgrid12)


@pytest.fixture(scope="session")
def sgrid32():
    return SpatialGrid(box_length=2.0 * np.pi * 10.0, n_x=32, active_axes=(0,))


def null_basis(grid):
    """The six collision invariants as species pairs on the grid."""
    mu_half = grid.mu_half()
    v1, v2, v3 = grid.axes()
    vsq = grid.vsq()
    zero = np.zeros_like(mu_half)
    return [
        np.stack([mu_half, zero]),
        np.stack([zero, mu_half]),
        np.stack([(v1 + zero) * mu_half, (v1 + zero) * mu_half]),
        np.stack([(v2 + zero) * mu_half, (v2 + zero) * mu_half]),
        np.stack([(v3 + zero) * mu_half, (v3 + zero) * mu_half]),
        np.stack([vsq * mu_half, vsq * mu_half]),
    ]
