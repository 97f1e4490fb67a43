import numpy as np
import pytest

from confinement_lab.core import LAMBDA0, Field, ModelParams, project_Q
from confinement_lab.functionals import (action_stiff_plane, action_weak_trap,
                                         h1_distance, nehari_residual_stiff_plane,
                                         nehari_residual_weak_trap, report)
from confinement_lab.grid import DEFAULT_LZ, build
from confinement_lab.scaling import (action_factor_stretched, action_factor_weak_trap,
                                     from_v, from_w, mass_factor_weak_trap,
                                     resample, scaling_report, to_v, to_w)
from conftest import random_band_limited

P = 4.0


def test_weak_trap_identities(medium_grid, rng):
    """Action and mass equivalence factors under the weak-trap rescaling."""
    lam = -3.7
    params = ModelParams(p=P, lam=lam)
    for _ in range(5):
        u = random_band_limited(medium_grid, rng)
        v = to_v(u, lam, P)
        ju = report(u, params).action
        jv = action_weak_trap(v, params.mu, P)
        assert jv == pytest.approx(action_factor_weak_trap(P, lam) * ju, rel=1e-9)
        mass_u = u.l2_norm() ** 2
        mass_v = v.l2_norm() ** 2
        assert mass_v == pytest.approx(mass_factor_weak_trap(P, lam) * mass_u, rel=1e-9)


def test_stretched_identities(medium_grid, rng):
    lam = 1.4
    tau = LAMBDA0 - lam
    params = ModelParams(p=P, lam=lam)
    for _ in range(5):
        u = random_band_limited(medium_grid, rng)
        w = to_w(u, lam, P)
        ju = report(u, params).action
        jw = action_stiff_plane(w, tau, P)
        assert jw == pytest.approx(action_factor_stretched(P, tau) * ju, rel=1e-9)
        assert u.l2_norm() ** 2 == pytest.approx(
            tau ** (2.0 / (P - 2.0) - 0.5) * w.l2_norm() ** 2, rel=1e-9)


def test_nehari_membership_preserved(medium_grid, rng):
    from confinement_lab.ground_state import nehari_scale
    lam = -2.0
    params = ModelParams(p=P, lam=lam)
    u0 = random_band_limited(medium_grid, rng)
    _, u = nehari_scale(u0, params)
    assert abs(report(u, params).nehari_residual) <= 1e-10 * report(u, params).lp_integral
    v = to_v(u, lam, P)
    res_v = nehari_residual_weak_trap(v, params.mu, P)
    lp_v = v.grid.quad(np.abs(v.values) ** P)
    assert abs(res_v) <= 1e-9 * lp_v
    w = to_w(u, lam, P)
    res_w = nehari_residual_stiff_plane(w, params.tau, P)
    lp_w = w.grid.quad(np.abs(w.values) ** P)
    assert abs(res_w) <= 1e-9 * lp_w


def test_roundtrips(medium_grid, rng):
    u = random_band_limited(medium_grid, rng)
    lam = -5.0
    back = from_v(to_v(u, lam, P), lam, P)
    assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12 * np.abs(u.coeffs).max()
    assert back.grid.compatible(u.grid)
    lam2 = 0.9
    back2 = from_w(to_w(u, lam2, P), lam2, P)
    assert np.abs(back2.coeffs - u.coeffs).max() <= 1e-12 * np.abs(u.coeffs).max()


def test_unit_factors_are_identity(medium_grid, rng):
    u = random_band_limited(medium_grid, rng)
    v = to_v(u, -1.0, P)                       # |lambda| = 1: identity map
    assert np.abs(v.values - u.values).max() == 0.0
    assert v.grid.Lz == u.grid.Lz and v.grid.omega == u.grid.omega
    w = to_w(u, 1.0, P)                        # tau = 1: identity map
    assert np.abs(w.values - u.values).max() == 0.0


def test_scaling_report(medium_grid, rng):
    u = random_band_limited(medium_grid, rng)
    repv = scaling_report(u, -3.0, P, "v_mu")
    assert repv.observed_action_factor == pytest.approx(repv.predicted_action_factor, rel=1e-9)
    assert repv.observed_mass_factor == pytest.approx(repv.predicted_mass_factor, rel=1e-9)
    repw = scaling_report(u, 1.5, P, "w_tau")
    assert repw.observed_action_factor == pytest.approx(repw.predicted_action_factor, rel=1e-9)
    assert repw.observed_mass_factor == pytest.approx(repw.predicted_mass_factor, rel=1e-9)


def test_resample_roundtrip(medium_grid, rng):
    u = random_band_limited(medium_grid, rng)
    target = build(K=medium_grid.K + 8, Mz=medium_grid.Mz, Lz=medium_grid.Lz)
    moved = resample(u, target)
    back = resample(moved, medium_grid)
    assert np.abs(back.values - u.values).max() <= 1e-8 * np.abs(u.values).max()


def _grid(lam):
    from confinement_lab.ground_state import Resolution, grid_for
    return grid_for(ModelParams(p=P, lam=lam), Resolution(K=24, Mz=128))


# far (omega = 10), unit and near (stretched boxes) grids of the default family
GRID_PAIRS = [(-10.0, -5.0), (1.5, 0.5), (1.5, 1.9)]


@pytest.mark.parametrize("src_lam, dst_lam", GRID_PAIRS, ids=["far-unit", "near-unit", "near-near"])
def test_resample_matches_direct_complex_sum(src_lam, dst_lam):
    """On real even fields the even-sector evaluation equals the full
    expansion sum_{k,m} c_km phi_k(r) exp(i xi_m z) / sqrt(2 Lz) inside the
    source box and zero beyond it, where the series repeats the field."""
    from confinement_lab.grid import scaled_laguerre
    src, dst = _grid(src_lam), _grid(dst_lam)
    u = random_band_limited(src, np.random.default_rng(11))
    basis_r = scaled_laguerre(src.omega * dst.r**2, src.K) * np.sqrt(src.omega / np.pi)
    ez = np.exp(1j * np.outer(dst.z, src.xi)) / np.sqrt(2.0 * src.Lz)
    ez[np.abs(dst.z) > src.Lz] = 0.0
    direct = (basis_r @ u.coeffs @ ez.T).real
    moved = resample(u, dst)
    assert moved.grid is dst and moved.real
    assert np.abs(moved.values - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("src_lam, dst_lam", GRID_PAIRS, ids=["far-unit", "near-unit", "near-near"])
def test_resample_keeps_the_real_even_part(src_lam, dst_lam):
    """Odd-in-z and imaginary parts do not reach the target grid."""
    src, dst = _grid(src_lam), _grid(dst_lam)
    f = random_band_limited(src, np.random.default_rng(12), even_z=False, real=False)
    even = src.expand_even(src.reduce_even(f.coeffs))
    assert np.abs(f.coeffs - even).max() > 0.1 * np.abs(even).max()
    moved = resample(f, dst)
    ref = resample(Field(src, coeffs=even, real=True), dst)
    assert moved.real
    assert np.abs(moved.values - ref.values).max() <= 1e-14 * np.abs(ref.values).max()


def test_picture_independence(shot3d_p4):
    """Solving in physical variables on the far grid (trap-scale basis,
    tridiagonal linear algebra) and mapping agrees with solving the
    weak-trap problem [-Delta + mu |y|^2 + 1] v = |v|^{p-2} v, mu =
    1/lambda^2, directly on the unit grid (diagonal path): the pictures are
    exactly equivalent, so on identical spans the two discrete solutions
    must coincide to solver tolerance, far inside the 1e-4 contract."""
    from dataclasses import dataclass
    from confinement_lab.ground_state import (SolverOptions, StationaryProblem,
                                              iterate_ground_state, solve_ground_state)
    from confinement_lab.limits import free_soliton_field

    @dataclass(frozen=True)
    class WeakTrapProblem(StationaryProblem):
        mu: float = 0.0

        def apply_lin(self, coeffs):
            return self.grid.apply_lin(coeffs, 1.0) + (self.mu - 1.0) * self.grid._x1_mult(coeffs)

        def precond(self, x):
            g = self.grid
            d = g.lin_diag(g.Mz // 2 + 1, 1.0) + (self.mu - 1.0) * np.diag(g._x1)[:, None]
            return (x.reshape(d.size, -1) / d.reshape(-1, 1)).reshape(x.shape)

    lam = -8.0
    params = ModelParams(p=P, lam=lam)
    # physical route on the far grid (default for lambda <= -6)
    res_u = solve_ground_state(params)
    gu = res_u.u.grid
    assert gu.omega == 8.0
    # weak-trap route on the unit grid that the far grid relabels onto, to
    # the same tolerance: ||grad J_lambda(u)|| = |lambda|^{1/(p-2)+1/4} ||grad J_weak(v)||
    gv = build(K=gu.K, Mz=gu.Mz, Lz=DEFAULT_LZ)
    prob_v = WeakTrapProblem(grid=gv, p=P, lam=lam, mu=params.mu)
    tol = SolverOptions().tol_grad / (-lam) ** (1.0 / (P - 2.0) + 0.25)
    start = gv.reduce_even(free_soliton_field(P, gv, profile=shot3d_p4).coeffs)
    res_v = iterate_ground_state(prob_v, start, SolverOptions(tol_grad=tol))
    assert res_v.converged
    moved = resample(to_v(res_u.u, lam, P), gv)
    d = h1_distance(moved, res_v.u, relative=False)
    assert d <= 1e-4
    assert res_u.mass == pytest.approx(res_v.mass / mass_factor_weak_trap(P, lam), rel=1e-6)


def test_q_fraction_decreases_toward_limit(state_near_p4):
    """Non-ground-mode content of the stretched field shrinks with tau."""
    from confinement_lab.ground_state import solve_ground_state
    fracs = []
    for tau in (0.2, 0.05):
        res = state_near_p4 if tau == 0.05 else solve_ground_state(
            ModelParams(p=P, lam=LAMBDA0 - tau))
        w = to_w(res.u, res.params.lam, P)
        q = project_Q(w)
        fracs.append(q.l2_norm() / w.l2_norm())
    assert fracs[1] < fracs[0] <= 0.1