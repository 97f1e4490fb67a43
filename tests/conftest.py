import numpy as np
import pytest

from confinement_lab.core import ModelParams
from confinement_lab.grid import build
from confinement_lab.ground_state import solve_ground_state
from confinement_lab.limits import shoot_3d


@pytest.fixture(scope="session")
def small_grid():
    return build(K=16, Mz=64, Lz=12.0)


@pytest.fixture(scope="session")
def medium_grid():
    return build(K=32, Mz=128, Lz=16.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_band_limited(grid, rng, even_z=True, k_frac=3, m_frac=6, real=True):
    """Random field supported on the lower part of the spectrum."""
    from confinement_lab.core import Field
    c = rng.standard_normal((grid.K, grid.Mz)) + 1j * rng.standard_normal((grid.K, grid.Mz))
    c[grid.K // k_frac:, :] = 0.0
    m = np.abs(np.fft.fftfreq(grid.Mz, 1.0 / grid.Mz))
    c[:, m > grid.Mz // m_frac] = 0.0
    flip = (-np.arange(grid.Mz)) % grid.Mz    # xi -> -xi, the reflection z -> -z
    if real:
        c = 0.5 * (c + np.conj(c[:, flip]))   # Hermitian symmetry in the axial index
    if even_z:
        c = 0.5 * (c + c[:, flip])
    return Field(grid, coeffs=c, real=real)


def zero_field(grid):
    from confinement_lab.core import Field
    return Field(grid, values=np.zeros((grid.nr, grid.Mz)), real=True)


@pytest.fixture(scope="session")
def shot3d_p4():
    return shoot_3d(4.0, rtol=1e-12)


@pytest.fixture(scope="session")
def state_near_p4():
    """Converged ground state at p=4, tau=0.05 (dimension-reduction end)."""
    return solve_ground_state(ModelParams(p=4.0, lam=1.95))


@pytest.fixture(scope="session")
def state_far_p4():
    """Converged ground state at p=4, lambda=-40 (free-soliton end)."""
    return solve_ground_state(ModelParams(p=4.0, lam=-40.0))


@pytest.fixture(scope="session")
def state_mid_p4():
    """Converged ground state at p=4, lambda=0 on the default grid."""
    return solve_ground_state(ModelParams(p=4.0, lam=0.0))
