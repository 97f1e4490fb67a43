import numpy as np
import pytest

from confinement_lab.branch import (BranchCurve, BranchSample,
                                    asymptotic_constants, classify_slope,
                                    default_lambda_grid, find_mass_pair,
                                    mass_sup_scan, slope_prefactor_far,
                                    slope_prefactor_near, sweep)
from confinement_lab.core import LAMBDA0
from confinement_lab.errors import InsufficientTail
from confinement_lab.ground_state import Resolution


@pytest.fixture(scope="module")
def small_curve():
    """Coarse but real sweep used by several structural tests."""
    grid = [-12.0, -6.0, -2.0, -0.5, 0.5, 1.0, 1.5, 1.8, 1.95]
    return sweep(4.0, grid, resolution=Resolution(K=32, Mz=192),
                 compute_eig=False)


def test_default_grid_shape():
    g = default_lambda_grid()
    assert (np.diff(g) > 0).all()
    assert g[0] == -40.0
    assert g[-1] == pytest.approx(LAMBDA0 - 0.05)


def test_sweep_orders_and_converges(small_curve):
    lams = small_curve.lambdas()
    assert (np.diff(lams) > 0).all()
    assert not small_curve.failures
    assert len(small_curve.samples) == 9


def test_sweep_slope_signs_at_tails(small_curve):
    assert small_curve.samples[0].slope_chi > 0      # far tail grows toward 0
    assert small_curve.samples[-1].slope_chi < 0     # collapse toward the edge
    assert small_curve.samples[0].stability == "unstable"
    assert small_curve.samples[-1].stability == "stable"


def test_mass_tends_to_zero_at_both_ends(small_curve):
    masses = small_curve.masses()
    assert masses[0] < masses.max() and masses[-1] < masses.max()


def test_classify_slope():
    assert classify_slope(-1.0) == "stable"
    assert classify_slope(+1.0) == "unstable"
    assert classify_slope(0.0) == "undetermined"


def test_csv_roundtrip(tmp_path, small_curve):
    path = tmp_path / "branch.csv"
    small_curve.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "lambda,mass,action,slope_chi,slope_fd,stability,eig_min"
    loaded = BranchCurve.from_csv(path, p=4.0)
    assert len(loaded.samples) == len(small_curve.samples)
    assert loaded.samples[0].lam == small_curve.samples[0].lam
    assert loaded.samples[3].mass == pytest.approx(small_curve.samples[3].mass)


def test_mass_sup_scan_properties(small_curve):
    scan = mass_sup_scan(small_curve)
    assert scan.interior_max
    assert scan.max_mass == small_curve.masses().max()
    assert scan.lambda_tilde_1 <= scan.argmax_lambda <= scan.lambda_tilde_2
    assert np.isfinite(scan.action_bound) and scan.action_bound > 0
    # the analytic bound dominates the masses sampled inside the window
    lams = small_curve.lambdas()
    inside = (lams >= scan.lambda_tilde_1) & (lams <= scan.lambda_tilde_2)
    assert (np.sqrt(small_curve.masses()[inside]) <= scan.action_bound + 1e-9).all()


def test_mass_sup_scan_subgrid_monotone(small_curve):
    scan_full = mass_sup_scan(small_curve)
    sub = BranchCurve(p=4.0, samples=small_curve.samples[::2])
    scan_sub = mass_sup_scan(sub)
    assert scan_sub.max_mass <= scan_full.max_mass + 1e-12


def test_mass_sup_scan_empty_interior_flagged():
    # only tail samples with inconsistent slope signs: falls back, flagged
    s = [BranchSample(-30.0, 1.0, 5.0, -1e-3, np.nan, "stable", np.nan),
         BranchSample(1.9, 0.5, 0.2, 1e-3, np.nan, "unstable", np.nan)]
    scan = mass_sup_scan(BranchCurve(p=4.0, samples=s))
    assert scan.flagged


def test_asymptotic_constants(small_curve, shot3d_p4, soliton_p4):
    far = asymptotic_constants(small_curve, "far")
    assert far.exponent == pytest.approx(0.5)
    assert far.predicted == pytest.approx(shot3d_p4.mass, rel=1e-6)
    assert abs(far.premultiplied[0] / far.predicted - 1.0) <= 0.05
    near = asymptotic_constants(small_curve, "near")
    assert near.exponent == pytest.approx(-0.5)
    assert near.predicted == pytest.approx(soliton_p4.mass, rel=1e-12)
    assert abs(near.premultiplied[0] / near.predicted - 1.0) <= 0.05
    # extrapolation improves on the closest raw sample
    assert abs(near.extrapolated / near.predicted - 1.0) <= \
        abs(near.premultiplied[0] / near.predicted - 1.0)


def test_asymptotic_constants_insufficient_tail():
    s = [BranchSample(1.9, 0.5, 0.2, -1e-3, np.nan, "stable", np.nan)]
    with pytest.raises(InsufficientTail):
        asymptotic_constants(BranchCurve(p=4.0, samples=s), "far")


def test_slope_prefactors_signs():
    # mass-supercritical window: far prefactor positive, near always negative
    assert slope_prefactor_far(4.0) > 0
    assert slope_prefactor_near(4.0) < 0
    assert slope_prefactor_near(3.0) < 0
    assert slope_prefactor_far(3.0) < 0     # subcritical: far tail slope flips


def test_find_mass_pair_preconditions():
    with pytest.raises(ValueError):
        find_mass_pair(3.0, 1.0)            # needs 10/3 < p
    with pytest.raises(ValueError):
        find_mass_pair(4.0, 0.0)


def test_sweep_failures_are_typed(monkeypatch):
    """Package errors inside a solve become failure rows; a programming
    error (here a TypeError) propagates out of the sweep."""
    from confinement_lab import branch
    from confinement_lab.errors import NotConverged

    def not_converged(*args, **kwargs):
        raise NotConverged(1, 1.0)

    monkeypatch.setattr(branch, "solve_ground_state", not_converged)
    curve = sweep(4.0, [0.5], resolution=Resolution(K=16, Mz=64))
    assert not curve.samples and [lam for lam, _ in curve.failures] == [0.5]

    def broken(*args, **kwargs):
        raise TypeError("bug in a solve")

    monkeypatch.setattr(branch, "solve_ground_state", broken)
    with pytest.raises(TypeError, match="bug in a solve"):
        sweep(4.0, [0.5], resolution=Resolution(K=16, Mz=64))


def test_sweep_parallel_jobs_match_serial():
    grid = [-8.0, 1.5]
    serial = sweep(4.0, grid, resolution=Resolution(K=24, Mz=128),
                   compute_eig=False, jobs=1)
    parallel = sweep(4.0, grid, resolution=Resolution(K=24, Mz=128),
                     compute_eig=False, jobs=2)
    assert len(serial.samples) == len(parallel.samples) == 2
    for a, b in zip(serial.samples, parallel.samples):
        assert a.mass == pytest.approx(b.mass, rel=1e-12)
        assert a.slope_chi == pytest.approx(b.slope_chi, rel=1e-9)
