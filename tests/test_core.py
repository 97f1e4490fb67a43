import math

import numpy as np
import pytest

from confinement_lab.core import LAMBDA0, Field, ModelParams, load_field, save_field
from confinement_lab.errors import ShapeMismatch


def test_lambda0_exact():
    assert LAMBDA0 == 2.0
    assert ModelParams(p=4.0, lam=0.0).tau == 2.0


@pytest.mark.parametrize("p,lam", [(1.9, 0.0), (6.0, 0.0), (4.0, 2.0), (4.0, 2.5)])
def test_params_rejects_out_of_range(p, lam):
    with pytest.raises(ValueError):
        ModelParams(p=p, lam=lam)


def test_reparametrize_examples():
    params = ModelParams(p=4.0, lam=-2.0)
    assert params.mu == 0.25 and params.tau == 4.0
    params = ModelParams(p=4.0, lam=1.9)
    assert params.mu is None
    assert params.tau == pytest.approx(0.1, abs=1e-15)
    params = ModelParams(p=10.0 / 3.0, lam=-10.0)
    assert params.mu == 0.01 and params.tau == 12.0


@pytest.mark.parametrize("lam", [-40.0, -10.0, -2.0, -0.5, 0.0, 0.5, 1.9, 1.9375])
def test_reparametrize_roundtrips(lam):
    params = ModelParams(p=4.0, lam=lam)
    mu, tau = params.mu, params.tau
    # tau roundtrip: exact for representable arithmetic, 1 ulp in general
    assert LAMBDA0 - tau == pytest.approx(lam, abs=4 * np.spacing(max(abs(lam), tau)))
    if lam in (-40.0, -10.0, -2.0, -0.5, 0.0, 0.5):
        assert LAMBDA0 - tau == lam
    if lam < 0:
        assert -1.0 / math.sqrt(mu) == pytest.approx(lam, rel=4e-16)


def test_field_requires_matching_shapes(small_grid):
    with pytest.raises(ShapeMismatch):
        Field(small_grid, values=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Field(small_grid)


def test_field_dual_representation_roundtrip(small_grid, rng):
    from conftest import random_band_limited
    f = random_band_limited(small_grid, rng)
    g = Field(small_grid, values=f.values, real=True, even_z=True)
    rel = np.abs(g.coeffs - f.coeffs).max() / np.abs(f.coeffs).max()
    assert rel <= 1e-10


def test_field_algebra_and_immutability(small_grid, rng):
    from conftest import random_band_limited
    f = random_band_limited(small_grid, rng)
    g = 2.0 * f - f
    assert np.allclose(g.coeffs, f.coeffs)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_snapshot_roundtrip(tmp_path, small_grid, rng):
    from conftest import random_band_limited
    f = random_band_limited(small_grid, rng)
    save_field(f, tmp_path / "u", p=4.0, lam=1.5)
    g, header = load_field(tmp_path / "u")
    assert header["p"] == 4.0 and header["lambda"] == 1.5
    assert header["dtype"] == "f64"
    assert header["layout"] == "row-major nodes (i,j)"
    assert np.array_equal(g.values, f.values)
    assert g.grid.compatible(f.grid)


def test_snapshot_complex(tmp_path, small_grid, rng):
    from conftest import random_band_limited
    f = random_band_limited(small_grid, rng, real=False)
    save_field(f, tmp_path / "psi", p=4.0, lam=0.0)
    g, header = load_field(tmp_path / "psi")
    assert header["dtype"] == "c128"
    assert np.array_equal(g.values, f.values)
