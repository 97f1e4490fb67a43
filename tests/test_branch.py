import csv

import numpy as np
import pytest

from confinement_lab.branch import (SLOPE_TOL, BranchCurve, BranchSample, analyze_sample,
                                    classify_slope, default_lambda_grid, find_mass_pair,
                                    mass_sup_scan, slope_prefactor_far,
                                    slope_finite_difference, slope_prefactor_near, sweep)
from confinement_lab.core import LAMBDA0, ModelParams
from confinement_lab.errors import BracketNotFound, MassTooLarge
from confinement_lab.ground_state import Resolution, solve_chi, solve_ground_state


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
    """classify_slope reads tau (dM/dlambda) / M against the dimensionless SLOPE_TOL."""
    assert classify_slope(-1.0) == "stable"
    assert classify_slope(+1.0) == "unstable"
    assert classify_slope(0.0) == "undetermined"
    assert classify_slope(-2 * SLOPE_TOL) == "stable"
    assert classify_slope(2 * SLOPE_TOL) == "unstable"
    assert classify_slope(0.5 * SLOPE_TOL) == "undetermined"


def test_find_mass_pair_tags_a_far_root_of_tiny_slope():
    """At p = 3.5, c = 1.5 the far root lies near lambda = -7.46e7, where
    dM/dlambda is 5.0e-9 but tau (dM/dlambda) / M is the far tail's 1/6:
    the low state is tagged unstable, the high one stable."""
    pair = find_mass_pair(3.5, 1.5)
    assert pair.lambda_low == pytest.approx(-7.46e7, rel=1e-2)
    assert (pair.tag_low, pair.tag_high) == ("unstable", "stable")


def test_csv_roundtrip(tmp_path, small_curve):
    path = tmp_path / "branch.csv"
    small_curve.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "lambda,mass,action,slope_chi,slope_fd,stability,eig_min"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_curve.samples)
    for row, s in zip(rows, small_curve.samples):
        assert list(row.values()) == [str(v) for v in s.row()]


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


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_find_mass_pair_rejects_non_finite_norm(c, monkeypatch):
    """A non-finite norm is refused before any solve: with c = inf every
    mass would pass the relative test |M - c^2| <= rel_tol c^2."""
    from confinement_lab import branch

    def no_solve(*args, **kwargs):
        raise AssertionError("solved for a non-finite norm")

    monkeypatch.setattr(branch, "continued_solve", no_solve)
    with pytest.raises(ValueError, match="finite"):
        find_mass_pair(4.0, c)


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


def test_sweep_failures_are_typed(monkeypatch, tmp_path, capsys):
    """Package errors inside a solve become failure rows that keep the
    exception itself, and the sweep command names each on stderr and exits
    3; a programming error (here a TypeError) propagates out of the sweep."""
    from confinement_lab import branch
    from confinement_lab.cli import main
    from confinement_lab.errors import NotConverged
    real = branch.solve_ground_state

    def not_converged(*args, **kwargs):
        raise NotConverged(3, 1.0)

    monkeypatch.setattr(branch, "solve_ground_state", not_converged)
    curve = sweep(4.0, [0.5], resolution=Resolution(K=16, Mz=64))
    assert not curve.samples and [lam for lam, _ in curve.failures] == [0.5]
    exc = curve.failures[0][1]
    assert isinstance(exc, NotConverged) and exc.iterations == 3

    def fails_at_half(params, *args, **kwargs):
        if params.lam == 0.5:
            raise NotConverged(3, 1.0)
        return real(params, *args, **kwargs)

    monkeypatch.setattr(branch, "solve_ground_state", fails_at_half)
    assert main(["sweep", "--lambda-grid=0.5,1.5", "--K", "16", "--Mz", "64", "--Lz", "8",
                 "--skip-eigs", "--outdir", str(tmp_path / "sw")]) == 3
    assert capsys.readouterr().err.splitlines() == [f"failed: lambda=0.5: NotConverged: {exc}"]
    assert len((tmp_path / "sw" / "branch.csv").read_text().splitlines()) == 2

    def broken(*args, **kwargs):
        raise TypeError("bug in a solve")

    monkeypatch.setattr(branch, "solve_ground_state", broken)
    with pytest.raises(TypeError, match="bug in a solve"):
        sweep(4.0, [0.5], resolution=Resolution(K=16, Mz=64))


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
    from confinement_lab.ground_state import solve_chi
    resolution = Resolution(K=16, Mz=64)
    starts = _recorded_starts(monkeypatch)
    sweep(4.0, [0.5, 0.6], resolution=resolution, compute_eig=False)
    assert [lam for lam, _ in starts] == [0.5, 0.6] and starts[0][1] is None
    warm = solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=resolution)
    chi, _ = solve_chi(warm)
    predictor = warm.u + (0.6 - 0.5) * chi
    assert starts[1][1].grid is warm.u.grid
    assert np.abs(starts[1][1].coeffs - predictor.coeffs).max() <= 1e-12 * np.abs(predictor.coeffs).max()
    assert np.abs(starts[1][1].coeffs - warm.u.coeffs).max() > 1e-3 * np.abs(warm.u.coeffs).max()


def test_near_singular_sample_fails_typed(monkeypatch):
    """A near-singular chi solve fails its sample with NearSingular; no
    finite-difference slope stands in for it, and the chain goes on."""
    from confinement_lab import branch
    from confinement_lab.errors import NearSingular
    real = branch.solve_chi
    fd_calls = []

    def near_singular_at_0_6(result):
        if result.params.lam == 0.6:
            raise NearSingular("forced")
        return real(result)

    monkeypatch.setattr(branch, "solve_chi", near_singular_at_0_6)
    monkeypatch.setattr(branch, "slope_finite_difference",
                        lambda *a, **k: fd_calls.append(a) or -1.0)
    curve = sweep(4.0, [0.5, 0.6, 0.7], Resolution(K=16, Mz=64), compute_eig=False)
    assert list(curve.lambdas()) == [0.5, 0.7]
    assert [(lam, type(exc)) for lam, exc in curve.failures] == [(0.6, NearSingular)]
    assert not fd_calls


def test_sweep_records_finite_difference_slopes():
    """sweep(compute_fd=True) fills slope_fd, which agrees with slope_chi
    within the 1% of verify --theorem slopes."""
    curve = sweep(4.0, [-40.0, 0.5, 1.5], compute_fd=True)
    assert not curve.failures
    for s in curve.samples:
        assert np.isfinite(s.slope_fd)
        assert abs(s.slope_fd - s.slope_chi) <= 0.01 * abs(s.slope_chi)
    assert [s.stability for s in curve.samples] == ["unstable", "unstable", "stable"]


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
        assert s.stability == classify_slope(cold.params.tau * solve_chi(cold)[1] / cold.mass)


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
    ref = linearized_smallest_eigs(res.problem, res.u.values, n=3)[0]
    assert analyze_sample(res).eig_min == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("chain", [[-10.0, -8.0], [1.8, 1.9]])
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
    curve = sweep(4.0, chain, resolution=resolution, compute_eig=False)
    assert not curve.failures and list(curve.lambdas()) == chain
    assert calls == [first, second, second] and inits[1] is not None and inits[-1] is None
    cold = real(ModelParams(p=4.0, lam=second), resolution=resolution)
    assert curve.samples[1].mass == pytest.approx(cold.mass, rel=1e-8)


def test_sweep_p25_matches_cold_solves_with_one_cold_start(monkeypatch):
    """At p = 2.5 the default sweep crosses both grid-family switches; a
    warm start resampled onto a longer box is zero beyond its own, so no
    sample continues into a periodic copy of the state (a three-bump state
    of three times the mass at lambda = -5.43 when resample repeated it).
    Every sample matches its cold solve, and only the first starts cold."""
    starts = _recorded_starts(monkeypatch)
    curve = sweep(2.5, compute_eig=False)
    assert not curve.failures and list(curve.lambdas()) == list(default_lambda_grid())
    for s in curve.samples:
        cold = solve_ground_state(ModelParams(p=2.5, lam=s.lam))
        assert s.mass == pytest.approx(cold.mass, rel=1e-6), s.lam
    assert [init is None for _, init in starts] == [True] + [False] * (len(starts) - 1)


def test_find_mass_pair_redoes_a_failed_warm_solve_cold(monkeypatch):
    """A warm-started solve of the mass search that fails is solved once
    more from the cold start at the same frequency, and the search goes on
    to the same pair."""
    from confinement_lab import branch
    from confinement_lab.errors import NotConverged
    resolution = Resolution(K=24, Mz=128)
    ref = find_mass_pair(4.0, 1.4142, resolution=resolution)
    real, calls = branch.solve_ground_state, []

    def fail_first_warm(params, init=None, **kwargs):
        calls.append((params.lam, init is None))
        if init is not None and all(cold for _, cold in calls[:-1]):
            raise NotConverged(0, 1.0)
        return real(params, init=init, **kwargs)

    monkeypatch.setattr(branch, "solve_ground_state", fail_first_warm)
    pair = find_mass_pair(4.0, 1.4142, resolution=resolution)
    assert calls[1][0] == calls[2][0] and [cold for _, cold in calls[:3]] == [True, False, True]
    assert pair.lambda_low == pytest.approx(ref.lambda_low, rel=1e-8)
    assert pair.lambda_high == pytest.approx(ref.lambda_high, rel=1e-8)


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


def test_finite_difference_slope_solves_on_own_grid():
    """Both ends of the centered difference are solved on lambda's own grid,
    so at lambda = -40 (weak-trap grids, which dilate with lambda) the
    difference agrees with chi's slope to its O(FD_DELTA^2) error, not to
    the 8e-4 that two dilated grids left."""
    state = solve_ground_state(ModelParams(p=4.0, lam=-40.0))
    _, slope = solve_chi(state)
    fd = slope_finite_difference(4.0, -40.0, warm=state)
    assert abs(fd / slope - 1.0) <= 1e-6


def _counted(monkeypatch, module, name):
    """Wrap module.name to record the result of each call."""
    real, results = getattr(module, name), []

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recording)
    return results


def test_find_mass_pair_relabels_within_grid_families(monkeypatch):
    """On the default grid the pair at p = 4, c = 1.4142 takes at most 8
    solves and 55 descent/Newton iterations, and no warm start is
    resampled: each tail's grids are dilations of one another (9, 84 and
    7 when every cross-grid start was resampled and the bracket took
    Illinois steps)."""
    from confinement_lab import branch, ground_state
    resamples = _counted(monkeypatch, ground_state, "resample")
    solves = _counted(monkeypatch, branch, "solve_ground_state")
    pair = find_mass_pair(4.0, 1.4142)
    assert (pair.tag_low, pair.tag_high) == ("unstable", "stable")
    assert len(solves) <= 8 and sum(r.iterations for r in solves) <= 55 and not resamples


def test_sweep_resamples_only_at_family_switches(monkeypatch):
    """The default p = 4 sweep resamples one start per grid-family switch:
    far to unit at FAR_SWITCH and unit to near at tau = 1."""
    from confinement_lab import ground_state
    resamples = _counted(monkeypatch, ground_state, "resample")
    curve = sweep(4.0, compute_eig=False)
    assert not curve.failures and len(resamples) == 2


def test_continued_solve_relabels_in_family_and_resamples_across(monkeypatch, state_far_p4):
    """From the far state at lambda = -40, a step to -50 starts from the
    same nodal values on the dilated far grid, with no resample; a step to
    -5, on the unit grid, resamples the start."""
    from confinement_lab import branch, ground_state
    from confinement_lab.ground_state import grid_for
    resamples = _counted(monkeypatch, ground_state, "resample")
    starts = _recorded_starts(monkeypatch)
    for lam in (-50.0, -5.0):
        branch.continued_solve(ModelParams(p=4.0, lam=lam), state_far_p4, None, Resolution())
    (_, far), (_, unit) = starts
    assert far.grid is grid_for(ModelParams(p=4.0, lam=-50.0))
    assert np.array_equal(far.values, state_far_p4.u.values)
    assert unit is state_far_p4.u and len(resamples) == 1


@pytest.mark.parametrize("c", [2**0.5, 1.0])
def test_mass_root_secant_inside_bracket(monkeypatch, c):
    """On the synthetic far-tail law M = C tau^{-1/2} (1 + a/tau), modelled
    on p = 4 (C = 19, a = 1), the search reaches c^2 to 1e-7 in at most 5
    solves; Illinois steps on the bracket took 6."""
    import math
    from types import SimpleNamespace
    from confinement_lab import branch
    taus = []

    def law(params, warm, tangent, resolution):
        taus.append(params.tau)
        return SimpleNamespace(params=params, mass=19.0 * params.tau**-0.5 * (1.0 + 1.0 / params.tau))

    monkeypatch.setattr(branch, "continued_solve", law)
    res = branch._tail_mass_root(4.0, c, "far", math.log(10.0), -0.5, (math.log(LAMBDA0), math.inf),
                                 Resolution(), 1e-7)
    assert abs(res.mass / c**2 - 1.0) <= 1e-7 and len(taus) <= 5


def test_find_mass_pair_far_root_beyond_the_search_is_typed(monkeypatch):
    """At p = 3.5 the far-tail exponent is -1/6, and the first solve puts
    c^2 = 0.09 at tau ~ 2e16, beyond FAR_TAU_MAX, where the cold start
    holds no mass above COLLAPSE_MASS: the search names p, c, the far tail
    and that tau after one solve, instead of collapsing there."""
    from confinement_lab import branch
    solves = _counted(monkeypatch, branch, "solve_ground_state")
    with pytest.raises(BracketNotFound, match=r"p=3.5, c=0.3: the far-tail mass is \S+ at "
                                              r"tau=10, .* tau=2.\d+e\+16, beyond the search's "
                                              r"end tau=3.14e\+08"):
        find_mass_pair(3.5, 0.3)
    assert len(solves) == 1


def test_find_mass_pair_far_root_at_large_amplitude():
    """At p = 3.5, c = 1.79 the far root lies near lambda = -8.9e6, where
    the state's amplitude puts the gradient's roundoff floor above tol_grad:
    the solves there stop at that floor and the pair resolves."""
    pair = find_mass_pair(3.5, 1.79)
    assert pair.lambda_low == pytest.approx(-8.94e6, rel=1e-2)
    assert (pair.tag_low, pair.tag_high) == ("unstable", "stable")
    for res in (pair.low, pair.high):
        assert abs(res.mass / 1.79**2 - 1.0) <= 1e-7
