import numpy as np
import pytest

from confinement_lab.branch import (BranchCurve, BranchSample, analyze_sample,
                                    asymptotic_constants, classify_slope,
                                    default_lambda_grid, find_mass_pair,
                                    mass_sup_scan, slope_prefactor_far,
                                    slope_finite_difference, slope_prefactor_near, sweep)
from confinement_lab.core import LAMBDA0, ModelParams
from confinement_lab.errors import BracketNotFound, InsufficientTail, MassTooLarge
from confinement_lab.ground_state import (Resolution, SolverOptions, solve_chi,
                                          solve_ground_state)


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


# (p, c, lambda_low, lambda_high) on the default grid at mass_rel_tol = 1e-7,
# frozen from the linear-lambda bisection that preceded the log-tau search;
# every lambda_low lies on the far grid (below FAR_SWITCH)
PAIR_REFERENCES = [
    (3.6, 1.4142, -134829.30508708424, 1.9724870962255765),
    (4.0, 1.0, -357.1414147792448, 1.9984149302723735),
    (4.0, 2.0, -22.22568309528081, 1.974162701794856),
]


@pytest.mark.parametrize("p, c, lam_low, lam_high", PAIR_REFERENCES,
                         ids=[f"p{p:g}-c{c:g}" for p, c, *_ in PAIR_REFERENCES])
def test_find_mass_pair_matches_frozen_references(p, c, lam_low, lam_high):
    pair = find_mass_pair(p, c, mass_rel_tol=1e-7)
    assert pair.lambda_low == pytest.approx(lam_low, rel=1e-6)
    assert pair.lambda_high == pytest.approx(lam_high, rel=1e-6)
    assert (pair.tag_low, pair.tag_high) == ("unstable", "stable")
    for res in (pair.low, pair.high):
        assert abs(res.mass / c**2 - 1.0) <= 1e-7


@pytest.mark.parametrize("p, c, to", [(5.5, 0.5, "LAMBDA0"), (5.5, 1.0, "LAMBDA0"),
                                      (5.0, 0.5, "the last solve's lambda")],
                         ids=["p5.5-c0.5", "p5.5-c1", "p5-c0.5"])
def test_find_mass_pair_near_tau_underflow_is_typed(p, c, to):
    """At p = 5.5 the near-tail power law puts c^2 at tau = 4e-26 (c = 0.5)
    and 1e-17 (c = 1), where LAMBDA0 - tau rounds to LAMBDA0; at p = 5,
    c = 0.5 the root lies near tau = 1.9e-12, where the secant's next step
    rounds to the lambda just solved.  The search names p, c and tau
    instead of letting ModelParams refuse lambda or stepping on a secant
    of roundoff."""
    with pytest.raises(BracketNotFound, match=rf"p={p:g}, c={c:g}: lambda cannot resolve "
                                              rf"the near-tail tau=\S+: LAMBDA0 - tau rounds to {to},"):
        find_mass_pair(p, c)


def test_find_mass_pair_mass_too_large():
    """c^2 = 20.25 lies above the p = 4 far tail: its mass at the tail's
    edge lambda = 0 is 15.8."""
    with pytest.raises(MassTooLarge, match=r"20.25 above the far tail .* lambda=0\)"):
        find_mass_pair(4.0, 4.5)


def test_find_mass_pair_stops_at_mass_jump(monkeypatch):
    """At p = 5 the far-tail mass jumps at FAR_SWITCH = -6, from 0.817 on the
    far grid to 1.49 just above it on the unit grid, and c^2 = 1 lies in the
    gap: the bracket collapses onto the switch, and the search names it
    within its solve budget instead of running the budget out."""
    from confinement_lab import branch
    solves = []
    real_solve = branch.solve_ground_state

    def counted(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(branch, "solve_ground_state", counted)
    with pytest.raises(BracketNotFound,
                       match=r"far-tail mass jumps across 1 between lambda=-(6\.0|5\.9)"):
        find_mass_pair(5.0, 1.0)
    assert len(solves) < branch.MASS_MAX_ITER


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


def _recorded_starts(monkeypatch):
    """Wrap branch.solve_ground_state to record each solve's (lambda, init)."""
    from confinement_lab import branch
    real, starts = branch.solve_ground_state, []

    def recording(params, init=None, **kwargs):
        starts.append((params.lam, init))
        return real(params, init=init, **kwargs)

    monkeypatch.setattr(branch, "solve_ground_state", recording)
    return starts


def test_chain_starts_from_euler_predictor(monkeypatch):
    from confinement_lab.branch import _solve_chain
    from confinement_lab.ground_state import solve_chi
    resolution = Resolution(K=16, Mz=64)
    starts = _recorded_starts(monkeypatch)
    _solve_chain((4.0, [0.5, 0.6], resolution, SolverOptions(), False, False))
    assert [lam for lam, _ in starts] == [0.5, 0.6] and starts[0][1] is None
    warm = solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=resolution)
    chi, _ = solve_chi(warm)
    predictor = warm.u + (0.6 - 0.5) * chi
    assert starts[1][1].grid is warm.u.grid
    assert np.abs(starts[1][1].coeffs - predictor.coeffs).max() <= 1e-12 * np.abs(predictor.coeffs).max()
    assert np.abs(starts[1][1].coeffs - warm.u.coeffs).max() > 1e-3 * np.abs(warm.u.coeffs).max()


def test_chain_falls_back_to_warm_state_without_tangent(monkeypatch):
    """When solve_chi is near singular the slope comes from finite
    differences and the next solve starts from the previous state itself."""
    from confinement_lab import branch
    from confinement_lab.errors import NearSingular

    def near_singular(result):
        raise NearSingular("forced")

    monkeypatch.setattr(branch, "solve_chi", near_singular)
    monkeypatch.setattr(branch, "slope_finite_difference", lambda *a, **k: -1.0)
    resolution = Resolution(K=16, Mz=64)
    starts = _recorded_starts(monkeypatch)
    samples, _ = branch._solve_chain((4.0, [0.5, 0.6], resolution, SolverOptions(), False, False))
    warm = solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=resolution)
    assert [s.stability for s in samples] == ["stable", "stable"]
    assert np.array_equal(starts[1][1].coeffs, warm.u.coeffs)


def test_predicted_chain_matches_cold_solves():
    """Euler-predicted starts across the picture switch at FAR_SWITCH and
    along the near tail reach the same states as independent cold solves."""
    from confinement_lab.ground_state import FAR_SWITCH, solve_chi
    resolution = Resolution(K=24, Mz=128)
    grid = [-10.0, -7.0, -5.0, -3.0, 1.6, 1.8]
    assert min(grid) < -7.0 < FAR_SWITCH < -5.0
    curve = sweep(4.0, grid, resolution=resolution, compute_eig=False)
    assert not curve.failures and list(curve.lambdas()) == grid
    for s in curve.samples:
        cold = solve_ground_state(ModelParams(p=4.0, lam=s.lam), resolution=resolution)
        assert s.mass == pytest.approx(cold.mass, rel=1e-8)
        assert s.stability == classify_slope(solve_chi(cold)[1])


def test_failed_analysis_fails_that_sample_alone(monkeypatch, tmp_path):
    """An eigensolve that fails at one frequency makes that frequency a
    failure row; the sweep keeps the other samples, continues from the last
    good one (here across the far-grid switch), and the CLI writes
    branch.csv and exits 3."""
    from confinement_lab import branch
    from confinement_lab.cli import main
    from confinement_lab.errors import EigsNotConverged
    real = branch.linearized_smallest_eigs

    def failing_at_minus_7(problem, *args, **kwargs):
        if problem.lam == -7.0:
            raise EigsNotConverged("forced")
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(branch, "linearized_smallest_eigs", failing_at_minus_7)
    starts = _recorded_starts(monkeypatch)
    curve = sweep(4.0, [-10.0, -7.0, -5.0], resolution=Resolution(K=24, Mz=128))
    assert list(curve.lambdas()) == [-10.0, -5.0]
    assert [lam for lam, _ in curve.failures] == [-7.0]
    init = next(init for lam, init in starts if lam == -5.0)
    assert init.grid.omega == 10.0    # predicted from the sample at -10, not -7
    out = tmp_path / "sw"
    rc = main(["sweep", "--p", "4", "--lambda-grid=-10,-7,-5", "--K", "24", "--Mz", "128",
               "--outdir", str(out)])
    assert rc == 3
    assert len((out / "branch.csv").read_text().splitlines()) == 3


def test_analysis_runs_no_full_grid_transform(state_mid_p4, monkeypatch):
    """The slope, the tangent and the lowest sector eigenvalue of a
    converged state are computed in the even sector alone: the full-grid
    transforms are never called."""
    from confinement_lab.grid import Discretization

    def forbidden(*args, **kwargs):
        raise AssertionError("full-grid transform called")

    monkeypatch.setattr(Discretization, "to_coeffs", forbidden)
    monkeypatch.setattr(Discretization, "from_coeffs", forbidden)
    sample = analyze_sample(state_mid_p4)
    assert sample.tangent is not None and sample.eig_min < 0.0


@pytest.mark.parametrize("state", ["state_near_p4", "state_far_p4"])
def test_sample_eig_min_is_smallest_sector_eigenvalue(state, request):
    """The one-column eigensolve of the sweep finds the same smallest
    sector eigenvalue as a three-column one, on the unit-frequency grid and
    on the far grid of radial basis frequency |lambda|."""
    from confinement_lab.ground_state import linearized_smallest_eigs
    res = request.getfixturevalue(state)
    ref = linearized_smallest_eigs(res.problem, res.u.values, n=3)[0][0]
    assert analyze_sample(res).eig_min == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("chain", [[-10.0, -8.0], [1.9, 1.8]])
def test_failed_predicted_solve_falls_back_to_cold_start(monkeypatch, chain):
    """A failed predicted solve is redone once from the cold start, on the
    sample's own grid: in the weak-trap picture (lambda <= FAR_SWITCH) and
    in the stretched near-tail box that grid differs from the previous
    sample's."""
    from confinement_lab import branch
    from confinement_lab.errors import NotConverged
    resolution = Resolution(K=24, Mz=128)
    real, calls, inits = branch.solve_ground_state, [], []
    first, second = chain

    def fail_first_predicted(params, init=None, **kwargs):
        calls.append(params.lam)
        inits.append(init)
        if params.lam == second and calls.count(second) == 1:
            raise NotConverged(0, 1.0)
        return real(params, init=init, **kwargs)

    monkeypatch.setattr(branch, "solve_ground_state", fail_first_predicted)
    samples, failures = branch._solve_chain(
        (4.0, chain, resolution, SolverOptions(), False, False))
    assert not failures and [s.lam for s in samples] == chain
    assert calls == [first, second, second] and inits[1] is not None and inits[-1] is None
    cold = real(ModelParams(p=4.0, lam=second), resolution=resolution)
    assert samples[1].mass == pytest.approx(cold.mass, rel=1e-8)


def test_sweep_falls_back_to_cold_start_on_real_failures(monkeypatch):
    """At p = 2.5 on a coarse grid some predicted starts just above the
    far-grid switch fail on their own; each of those samples is solved
    once more from the cold start, at its own frequency, and the sweep has
    no failures.  No solve runs between samples: apart from the samples,
    only a finite-difference slope's pair at +-FD_DELTA is solved."""
    from confinement_lab.branch import FD_DELTA
    resolution = Resolution(K=24, Mz=128)
    starts = _recorded_starts(monkeypatch)
    curve = sweep(2.5, resolution=resolution, compute_eig=False)
    assert not curve.failures
    lams = list(curve.lambdas())
    assert lams == list(default_lambda_grid())
    offsets = [min(abs(lam - s) for s in lams) for lam, _ in starts]
    assert all(d == 0.0 or d == pytest.approx(FD_DELTA, rel=1e-9) for d in offsets)
    by_lam = {lam: [init is None for at, init in starts if at == lam] for lam in lams}
    assert all(cold in ([True], [False], [False, True]) for cold in by_lam.values())
    assert any(cold == [False, True] for cold in by_lam.values())


def test_solve_chi_refines_past_minres_estimate():
    """At p = 2.5, lambda = -40 MINRES stops on its preconditioned residual
    estimate with a true residual above the 1e-8 check; one refinement on
    the true residual solves it, and the slope agrees with the centered
    difference to its O(FD_DELTA^2) error."""
    res = Resolution(K=24, Mz=128)
    state = solve_ground_state(ModelParams(p=2.5, lam=-40.0), resolution=res)
    _, slope = solve_chi(state)
    fd = slope_finite_difference(2.5, -40.0, resolution=res, warm=state)
    assert slope == pytest.approx(fd, rel=1e-4)
