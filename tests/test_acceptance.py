"""Acceptance gate: one test (or clause) per criterion, stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Two clauses are implemented exactly as specified but are
strict-xfail because the measured physics contradicts the stated numbers;
each has a corrected companion test that pins the honest value.  The
analysis lives next to each xfail reason.
"""

import numpy as np
import pytest

from confinement_lab.core import LAMBDA0, Field, ModelParams
from confinement_lab.branch import (default_lambda_grid, find_mass_pair,
                                    mass_sup_scan, slope_finite_difference, sweep)
from confinement_lab.dynamics import EvolutionConfig, evolve, perturbed_state
from confinement_lab.functionals import gradient, h1_distance, h_distance, report
from confinement_lab.grid import build
from confinement_lab.ground_state import (Resolution, nehari_scale,
                                          solve_chi, solve_ground_state)
from confinement_lab.limits import (free_soliton_field, near_limit_field,
                                    planar_ground_mode, shoot_1d, shoot_3d,
                                    soliton_1d)
from confinement_lab.scaling import (action_factor_weak_trap, mass_factor_stretched,
                                     mass_factor_weak_trap, to_v, to_w)
from conftest import random_band_limited
from fd_oracle import oscillator_eigs_oracle


def _report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared expensive artifacts ----------------------------------------------------

@pytest.fixture(scope="module")
def near_sequence_p4():
    """Warm-started solves at tau = 0.2, 0.1, 0.05 (p = 4)."""
    out = {}
    warm = None
    for tau in (0.2, 0.1, 0.05):
        res = solve_ground_state(ModelParams(p=4.0, lam=LAMBDA0 - tau),
                                 init=warm.u if warm else None)
        warm = res
        out[tau] = res
    return out


@pytest.fixture(scope="module")
def far_sequence_p4():
    out = {}
    warm = None
    for lam in (-10.0, -20.0, -40.0):
        res = solve_ground_state(ModelParams(p=4.0, lam=lam),
                                 init=warm.u if warm else None)
        warm = res
        out[lam] = res
    return out


@pytest.fixture(scope="module")
def near_sequence_p103():
    out = {}
    warm = None
    for tau in (0.2, 0.1, 0.05):
        res = solve_ground_state(ModelParams(p=10.0 / 3.0, lam=LAMBDA0 - tau),
                                 init=warm.u if warm else None)
        warm = res
        out[tau] = res
    return out


@pytest.fixture(scope="module")
def full_sweep_p4():
    """Branch sweep over lambda in [-40, LAMBDA0 - 0.01] (criterion 10)."""
    grid = default_lambda_grid(lam_min=-40.0, tau_min=0.01)
    return sweep(4.0, grid, compute_eig=False)


@pytest.fixture(scope="module")
def dyn_stable():
    """Collocation-grid stable-branch state (tau = 0.2) for dynamics runs."""
    return solve_ground_state(ModelParams(p=4.0, lam=1.8),
                              resolution=Resolution(K=32, Mz=192, oversample=1))


@pytest.fixture(scope="module")
def dyn_unstable():
    """Collocation-grid unstable-branch state (lambda = -10)."""
    g = build(K=64, Mz=256, Lz=12.0, oversample=1)
    return solve_ground_state(ModelParams(p=4.0, lam=-10.0), grid=g)


# -- criterion 1: oscillator spectrum ----------------------------------------------

def test_criterion_01_oscillator_spectrum():
    oracle = oscillator_eigs_oracle(9)
    g = build(K=32, Mz=64, Lz=12.0)
    ok0 = abs(oracle[0] - 2.0) <= 1e-10 and abs(g.osc_eigs[0] - oracle[0]) <= 1e-10
    devs = [abs(g.osc_eigs[k] - (4 * k + 2)) + abs(oracle[k] - (4 * k + 2))
            for k in range(9)]
    ok = ok0 and max(devs) <= 1e-8
    _report("1", ok, f"lowest eigenvalue {oracle[0]:.12f} (target 2 within 1e-10); "
                     f"max |eig - (4k+2)| = {max(devs):.2e} for k<=8 (tol 1e-8)")


# -- criterion 2: 1D soliton -------------------------------------------------------

def test_criterion_02_soliton_closed_form():
    sups = {}
    z = np.linspace(0.0, 20.0, 2001)
    for p in (3.0, 10.0 / 3.0, 4.0, 5.0):
        sol = soliton_1d(p)
        prof = shoot_1d(p)
        sups[p] = float(np.abs(prof(z) - sol(z)).max())
    mass4 = soliton_1d(4.0).mass
    mass_ok = abs(mass4 / (8.0 * np.pi) - 1.0) <= 1e-6
    ok = max(sups.values()) <= 1e-8 and mass_ok
    _report("2", ok, f"sup|shoot - closed form| = {max(sups.values()):.2e} over p grid "
                     f"(tol 1e-8); mass(p=4) = {mass4:.10f} vs 8*pi rel err "
                     f"{abs(mass4/(8*np.pi)-1):.2e} (tol 1e-6)")


# -- criterion 3: Nehari projection -------------------------------------------------

def test_criterion_03_nehari_projection(rng):
    g = build(K=24, Mz=96, Lz=14.0)
    params = ModelParams(p=4.0, lam=0.0)
    vals = np.exp(-(g.r[:, None] ** 2 + g.z[None, :] ** 2) / 2.0)
    gauss = Field(g, values=vals, real=True)
    t_g, proj = nehari_scale(gauss, params)
    gauss_ok = abs(t_g - np.sqrt(5.0 * np.sqrt(2.0))) <= 1e-8
    t_fix, _ = nehari_scale(proj, params)
    onmanifold_ok = abs(t_fix - 1.0) <= 1e-12
    u = random_band_limited(g, rng)
    t1, p1 = nehari_scale(u, params)
    t2, p2 = nehari_scale(3.0 * u, params)
    cov_ok = (abs(t2 * 3.0 - t1) <= 1e-12 * t1
              and np.abs(p2.coeffs - p1.coeffs).max() <= 1e-12 * np.abs(p1.coeffs).max())
    ok = gauss_ok and onmanifold_ok and cov_ok
    _report("3", ok, f"gaussian t = {t_g:.10f} vs (5*sqrt2)^(1/2) (tol 1e-8); "
                     f"manifold fixed point |t-1| = {abs(t_fix-1):.2e} (tol 1e-12); "
                     f"scale covariance exact to 1e-12: {cov_ok}")


# -- criterion 4: gradient consistency ----------------------------------------------

def test_criterion_04_gradient_consistency(rng):
    g = build(K=32, Mz=128, Lz=16.0)
    params = ModelParams(p=4.0, lam=-0.5)
    orders = []
    for _ in range(20):
        u = random_band_limited(g, rng)
        phi = random_band_limited(g, rng)
        pairing = float(np.sum(gradient(u, params).coeffs.real * phi.coeffs.real))
        errs = []
        for h in (1e-3, 1e-4):
            fd = (report(u + h * phi, params).action
                  - report(u - h * phi, params).action) / (2 * h)
            errs.append(abs(fd - pairing))
        if errs[1] > 0:
            orders.append(np.log(errs[0] / errs[1]) / np.log(10.0))
    order = float(np.median(orders))
    _report("4", order >= 1.9, f"median observed order {order:.3f} over 20 random "
                               f"pairs, h in {{1e-3, 1e-4}} (need >= 1.9)")


# -- criterion 5: scaling identities ------------------------------------------------

def test_criterion_05_scaling_identities(rng):
    g = build(K=32, Mz=128, Lz=16.0)
    p = 4.0
    lam = -3.0
    tau = LAMBDA0 - 0.7
    worst = 0.0
    for _ in range(5):
        u = random_band_limited(g, rng)
        params = ModelParams(p=p, lam=lam)
        from confinement_lab.functionals import action_weak_trap
        v = to_v(u, lam, p)
        ja = action_weak_trap(v, params.mu, p) / report(u, params).action
        worst = max(worst, abs(ja / action_factor_weak_trap(p, lam) - 1.0))
        worst = max(worst, abs((v.l2_norm()**2 / u.l2_norm()**2)
                               / mass_factor_weak_trap(p, lam) - 1.0))
        w = to_w(u, 0.7, p)
        worst = max(worst, abs((w.l2_norm()**2 / u.l2_norm()**2)
                               / mass_factor_stretched(p, LAMBDA0 - 0.7) - 1.0))
    _report("5", worst <= 1e-8,
            f"worst relative factor error {worst:.2e} across action and both mass "
            f"identities on random band-limited fields (tol 1e-8)")


# -- criterion 6: dimension-reduction regime ----------------------------------------

def test_criterion_06_near_regime(near_sequence_p4):
    dists, premult = [], []
    for tau, res in near_sequence_p4.items():
        w = to_w(res.u, res.params.lam, 4.0)
        dists.append(h_distance(w, near_limit_field(4.0, w.grid), relative=True))
        premult.append(mass_factor_stretched(4.0, tau) * res.mass)
    monotone = dists[1] < dists[0] and dists[2] < dists[1]
    mass_err = abs(premult[-1] / (8 * np.pi) - 1.0)
    ok = monotone and dists[-1] <= 0.05 and mass_err <= 0.05
    _report("6", ok, f"H-distances {[f'{d:.4f}' for d in dists]} at tau=0.2,0.1,0.05 "
                     f"(monotone, last <= 0.05); tau^-1/2 M = {premult[-1]:.4f} vs "
                     f"8*pi = {8*np.pi:.4f} (err {mass_err:.3%}, tol 5%)")


# -- criterion 7: free-soliton regime ------------------------------------------------

def test_criterion_07_far_regime(far_sequence_p4, shot3d_p4):
    coarse = shoot_3d(4.0, rtol=1e-9)
    res_ok = abs(coarse.mass / shot3d_p4.mass - 1.0) <= 1e-3
    dists, premult = [], []
    for lam, res in far_sequence_p4.items():
        v = to_v(res.u, lam, 4.0)
        dists.append(h1_distance(v, free_soliton_field(4.0, v.grid, profile=shot3d_p4),
                                 relative=True))
        premult.append(mass_factor_weak_trap(4.0, lam) * res.mass)
    monotone = dists[1] < dists[0] and dists[2] < dists[1]
    mass_err = abs(premult[-1] / shot3d_p4.mass - 1.0)
    ok = res_ok and monotone and dists[-1] <= 0.05 and mass_err <= 0.05
    _report("7", ok, f"H1-distances {[f'{d:.5f}' for d in dists]} at lambda=-10,-20,-40 "
                     f"(monotone, last <= 0.05); |lambda|^1/2 M = {premult[-1]:.4f} vs "
                     f"oracle {shot3d_p4.mass:.4f} (err {mass_err:.3%}, tol 5%); "
                     f"two shooting resolutions agree to "
                     f"{abs(coarse.mass/shot3d_p4.mass-1):.2e} (tol 1e-3)")


# -- criterion 8: slope signs, cross-validation, mass-critical constant --------------

def test_criterion_08_slopes(far_sequence_p4, near_sequence_p4):
    far = far_sequence_p4[-40.0]
    near = near_sequence_p4[0.05]
    _, slope_far = solve_chi(far)
    _, slope_near = solve_chi(near)
    fd_far = slope_finite_difference(4.0, -40.0, warm=far)
    fd_near = slope_finite_difference(4.0, LAMBDA0 - 0.05, warm=near)
    agree_far = abs(slope_far - fd_far) <= max(0.01 * abs(fd_far), 1e-6)
    agree_near = abs(slope_near - fd_near) <= max(0.01 * abs(fd_near), 1e-6)
    ok = slope_far > 0 and slope_near < 0 and agree_far and agree_near
    _report("8 (signs+cross-validation)", ok,
            f"slope(-40) = {slope_far:.5g} > 0, slope(tau=0.05) = {slope_near:.5g} < 0; "
            f"chi-vs-fd rel err {abs(slope_far/fd_far-1):.2e} / {abs(slope_near/fd_near-1):.2e} "
            f"(tol 1%)")


@pytest.mark.xfail(strict=True, reason=(
    "stated clause pins ||u||_H at p=10/3, tau=0.05 to sqrt(8*pi)=5.013 within 5%, "
    "but the trap-weighted norm of the state vanishes like sqrt(tau) at the "
    "reduction end (measured 4.47 / 3.18 / 2.26 at tau = 0.2 / 0.1 / 0.05), and "
    "sqrt(8*pi) is the p=4 value of the limit constant, not the p=10/3 value "
    "5.854; the sound form of the claim is asserted in the companion test"))
def test_criterion_08_mass_critical_literal(near_sequence_p103):
    res = near_sequence_p103[0.05]
    hn = float(np.sqrt(report(res.u, res.params).h_norm_sq))
    target = np.sqrt(8.0 * np.pi)
    _report("8 (p=10/3 literal)", abs(hn / target - 1.0) <= 0.05,
            f"||u||_H = {hn:.4f} vs sqrt(8*pi) = {target:.4f}")


def test_criterion_08_mass_critical_corrected(near_sequence_p103):
    """At the mass-critical exponent the scaled mass converges to the limit
    constant sqrt(int |y|^2 e1^2 dy * int what^2 dz): with the Gaussian second
    moment equal to one (checked by quadrature), that is sqrt(int what^2)."""
    p = 10.0 / 3.0
    g = build(K=24, Mz=64, Lz=10.0)
    e1 = planar_ground_mode(g)
    second_moment = float(g.wrad @ (g.r**2 * e1**2))
    c0 = float(np.sqrt(second_moment * soliton_1d(p).mass))
    res = near_sequence_p103[0.05]
    measured = float(np.sqrt(res.mass / 0.05))
    hn = float(np.sqrt(report(res.u, res.params).h_norm_sq))
    ok = abs(measured / c0 - 1.0) <= 0.05 and abs(second_moment - 1.0) <= 1e-10
    _report("8 (p=10/3 corrected)", ok,
            f"sqrt(M/tau) = {measured:.4f} vs limit constant {c0:.4f} "
            f"(err {abs(measured/c0-1):.3%}, tol 5%); second moment = "
            f"{second_moment:.12f}; literal ||u||_H = {hn:.4f} -> 0 as tau -> 0")


# -- criterion 9: prescribed-mass pair ----------------------------------------------

def test_criterion_09_mass_pair():
    c = np.sqrt(2.0)
    pair = find_mass_pair(4.0, float(c), mass_rel_tol=1e-6)
    mass_err = max(abs(pair.low.mass / c**2 - 1.0), abs(pair.high.mass / c**2 - 1.0))
    order_ok = pair.lambda_low < pair.lambda_high < LAMBDA0
    tags_ok = pair.tag_low == "unstable" and pair.tag_high == "stable"
    ok = mass_err <= 1e-6 and order_ok and tags_ok
    _report("9", ok, f"c^2 = 2: lambda_low = {pair.lambda_low:.5f} [{pair.tag_low}], "
                     f"lambda_high = {pair.lambda_high:.6f} [{pair.tag_high}]; "
                     f"worst mass err {mass_err:.2e} (tol 1e-6)")


# -- criterion 10: mass bound scan ---------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "stated clause needs both tail masses below 10% of the interior maximum on "
    "lambda in [-40, 1.99], but the tails are pinned by the limit problems: "
    "M(-40) = 18.897/sqrt(40) = 2.99 and M(1.99) = 8*pi*0.1 = 2.51 against a "
    "measured peak of 17.03, i.e. 17.5% and 14.7%; reaching 10% would need "
    "lambda about -124 and tau about 0.005, outside the stated grid; the "
    "companion test asserts the honest decay properties"))
def test_criterion_10_mass_scan_literal(full_sweep_p4):
    scan = mass_sup_scan(full_sweep_p4)
    masses = full_sweep_p4.masses()
    ok = (scan.interior_max and masses[0] <= 0.10 * scan.max_mass
          and masses[-1] <= 0.10 * scan.max_mass)
    _report("10 (literal)", ok,
            f"max {scan.max_mass:.4f} at lambda={scan.argmax_lambda:.3f}; tails "
            f"{masses[0]:.4f} / {masses[-1]:.4f} = "
            f"{masses[0]/scan.max_mass:.1%} / {masses[-1]/scan.max_mass:.1%} of max")


def test_criterion_10_mass_scan_properties(full_sweep_p4):
    """Finite interior maximum, decaying monotone tails (20% at the stated
    extremes, consistent with the limit-problem rates), no failed samples."""
    scan = mass_sup_scan(full_sweep_p4)
    masses = full_sweep_p4.masses()
    lams = full_sweep_p4.lambdas()
    i_max = int(np.argmax(masses))
    far_tail = masses[: max(i_max - 1, 1)]
    near_tail = masses[i_max + 2:]
    ok = (scan.interior_max
          and not full_sweep_p4.failures
          and masses[0] <= 0.20 * scan.max_mass
          and masses[-1] <= 0.20 * scan.max_mass
          and (np.diff(far_tail) > 0).all()
          and (np.diff(near_tail) < 0).all()
          and np.isfinite(scan.action_bound))
    _report("10 (properties)", ok,
            f"interior max {scan.max_mass:.4f} at lambda={scan.argmax_lambda:.3f} over "
            f"{len(lams)} samples; tail fractions "
            f"{masses[0]/scan.max_mass:.1%} / {masses[-1]/scan.max_mass:.1%} (<=20%); "
            f"monotone tails; analytic bound {scan.action_bound:.3f} >= "
            f"sqrt(max M) = {np.sqrt(scan.max_mass):.3f}")


# -- criterion 11: dynamics ----------------------------------------------------------

def test_criterion_11a_mass_drift_and_stable(dyn_stable):
    params = dyn_stable.params
    cfg = EvolutionConfig(dt=2e-3, T=20.0, perturbation=0.01, shape="even_random",
                          record_every=100)
    tr = evolve(perturbed_state(dyn_stable.u, cfg), params, cfg, reference=dyn_stable.u)
    n_steps = int(round(cfg.T / cfg.dt))
    drift = float(np.abs(tr.mass / tr.mass[0] - 1.0).max())
    wander = float(tr.orbital_distance.max())
    ok = n_steps == 10**4 and drift <= 1e-10 and wander <= 0.05
    _report("11 (mass drift + stable branch)", ok,
            f"relative mass drift {drift:.2e} over {n_steps} steps (tol 1e-10); "
            f"1% perturbation wanders to {wander:.4f} by T=20 (tol 0.05)")


def test_criterion_11b_energy_drift_order(dyn_stable):
    params = dyn_stable.params
    drifts = []
    for dt in (4e-3, 2e-3):
        cfg = EvolutionConfig(dt=dt, T=4.0, perturbation=0.05, shape="even_random",
                              record_every=int(0.1 / dt))
        tr = evolve(perturbed_state(dyn_stable.u, cfg), params, cfg)
        drifts.append(float(np.abs(tr.energy - tr.energy[0]).max()))
    factor = drifts[0] / drifts[1]
    _report("11 (energy order)", 3.0 <= factor <= 5.0,
            f"halving dt reduces energy drift by {factor:.2f} (need within [3, 5])")


def test_criterion_11c_standing_wave(dyn_stable):
    params = dyn_stable.params
    cfg = EvolutionConfig(dt=1e-3, T=20.0, record_every=200)
    tr = evolve(perturbed_state(dyn_stable.u, cfg), params, cfg, reference=dyn_stable.u)
    dist = float(tr.orbital_distance.max())
    _report("11 (standing wave)", dist <= 1e-6,
            f"exact standing wave stays within {dist:.2e} of its orbit over T=20 "
            f"(tol 1e-6)")


def test_criterion_11d_unstable_escape(dyn_unstable):
    _, slope = solve_chi(dyn_unstable)
    cfg = EvolutionConfig(dt=5e-4, T=50.0, perturbation=0.01, shape="even_random",
                          record_every=100, stop_when_distance=0.6)
    tr = evolve(perturbed_state(dyn_unstable.u, cfg), dyn_unstable.params, cfg,
                reference=dyn_unstable.u)
    t_escape = float(tr.t[-1])
    escaped = bool((tr.orbital_distance > 0.5).any())
    ok = slope > 0 and escaped and t_escape < 50.0
    _report("11 (unstable escape)", ok,
            f"slope {slope:.4g} > 0 (unstable branch); 1% symmetric perturbation "
            f"exceeds 0.5 at t = {t_escape:.2f} < 50")
