import numpy as np
import pytest

from confinement_lab.core import Field, ModelParams
from confinement_lab.functionals import gradient, pohozaev_residual, report
from confinement_lab.grid import build
from conftest import random_band_limited, zero_field


@pytest.fixture(scope="module")
def gauss_grid():
    # wide enough that the Gaussian tails are far below roundoff
    return build(K=24, Mz=96, Lz=14.0)


def gaussian_field(grid):
    vals = np.exp(-(grid.r[:, None] ** 2 + grid.z[None, :] ** 2) / 2.0)
    return Field(grid, values=vals, real=True)


def test_report_zero_field(small_grid):
    rep = report(zero_field(small_grid), ModelParams(p=4.0, lam=0.0))
    assert rep.l2_mass == 0.0 and rep.action == 0.0 and rep.lp_integral == 0.0


def test_report_gaussian_closed_forms(gauss_grid):
    # int e^{-|x|^2} = pi^{3/2}; int |grad|^2 = (3/2) pi^{3/2};
    # int (x1^2+x2^2) e^{-|x|^2} = pi^{3/2}; int e^{-2|x|^2} = (pi/2)^{3/2}
    u = gaussian_field(gauss_grid)
    rep = report(u, ModelParams(p=4.0, lam=0.0))
    pi32 = np.pi**1.5
    assert rep.l2_mass == pytest.approx(pi32, rel=1e-10)
    assert rep.lambda_norm_sq == pytest.approx(2.5 * pi32, rel=1e-9)
    assert rep.lp_integral == pytest.approx((np.pi / 2.0) ** 1.5, rel=1e-10)
    assert rep.h_norm_sq == pytest.approx(3.5 * pi32, rel=1e-9)
    assert rep.action == pytest.approx(0.5 * 2.5 * pi32 - 0.25 * (np.pi / 2) ** 1.5, rel=1e-9)


def test_action_is_consistent_with_parts(medium_grid, rng):
    u = random_band_limited(medium_grid, rng)
    params = ModelParams(p=3.5, lam=-1.2)
    rep = report(u, params)
    assert rep.action == pytest.approx(0.5 * rep.lambda_norm_sq - rep.lp_integral / 3.5,
                                       abs=1e-12 * max(1.0, abs(rep.action)))
    assert rep.nehari_residual == pytest.approx(rep.lambda_norm_sq - rep.lp_integral,
                                                rel=1e-12)


def test_spectral_lower_bound(medium_grid, rng):
    # int |grad u|^2 + (|y|^2 - lambda) u^2 >= (2 - lambda) int u^2 (discrete form)
    params = ModelParams(p=4.0, lam=1.5)
    for _ in range(5):
        u = random_band_limited(medium_grid, rng, even_z=False)
        rep = report(u, params)
        assert rep.lambda_norm_sq >= (2.0 - params.lam) * rep.l2_mass - 1e-8 * rep.h_norm_sq


@pytest.mark.parametrize("h_pair", [(1e-3, 1e-4)])
def test_gradient_matches_finite_differences(medium_grid, rng, h_pair):
    """Central differences of the action converge at second order to the
    pairing with the gradient, over 20 random direction pairs."""
    params = ModelParams(p=4.0, lam=-0.5)
    orders = []
    for _ in range(20):
        u = random_band_limited(medium_grid, rng)
        phi = random_band_limited(medium_grid, rng)
        gu = gradient(u, params)
        pairing = float(np.sum(gu.coeffs.real * phi.coeffs.real))
        errs = []
        for h in h_pair:
            fd = (report(u + h * phi, params).action
                  - report(u - h * phi, params).action) / (2 * h)
            errs.append(abs(fd - pairing))
        if errs[1] == 0.0:
            continue
        orders.append(np.log(errs[0] / errs[1]) / np.log(h_pair[0] / h_pair[1]))
    assert np.median(orders) >= 1.9


def test_gradient_zero_field(small_grid):
    g0 = gradient(zero_field(small_grid), ModelParams(p=4.0, lam=0.5))
    assert g0.l2_norm() == 0.0


def test_pohozaev_zero_and_scaling(small_grid):
    params = ModelParams(p=4.0, lam=0.0)
    assert pohozaev_residual(zero_field(small_grid), params) == 0.0


def test_nehari_scale_unimodal_action(medium_grid, rng):
    """t -> J(t u) increases up to the Nehari scale and decreases beyond."""
    from confinement_lab.ground_state import nehari_scale
    params = ModelParams(p=4.0, lam=0.3)
    u = random_band_limited(medium_grid, rng)
    t_star, _ = nehari_scale(u, params)
    ts = np.linspace(0.05, 3.0, 40) * t_star
    vals = [report(float(t) * u, params).action for t in ts]
    dv = np.diff(vals)
    before = ts[1:] < t_star
    assert all(d > 0 for d in dv[before[: len(dv)]])
    after = ts[:-1] > t_star
    assert all(d < 0 for d in dv[after])
