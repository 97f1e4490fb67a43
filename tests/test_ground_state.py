import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from confinement_lab.core import LAMBDA0, Field, ModelParams
from confinement_lab.errors import (CollapsedToZero, EigsNotConverged, NearSingular,
                                    NotConverged, ZeroField)
from confinement_lab.functionals import pohozaev_residual, report
from confinement_lab.grid import build
from confinement_lab import ground_state
from confinement_lab.ground_state import (Resolution, SolverOptions, StationaryProblem,
                                          linearized_smallest_eigs, nehari_scale,
                                          grid_for, solve_chi, solve_ground_state)
from confinement_lab.limits import near_limit_field, free_soliton_field, soliton_1d
from confinement_lab.scaling import branch_derivative_to_w, from_v, from_w, to_v, to_w
from confinement_lab.functionals import h_distance, h1_distance
from conftest import random_band_limited, zero_field


def gaussian_field(grid):
    vals = np.exp(-(grid.r[:, None] ** 2 + grid.z[None, :] ** 2) / 2.0)
    return Field(grid, values=vals, real=True)


# -- Nehari projection --------------------------------------------------------

def test_nehari_scale_gaussian():
    g = build(K=24, Mz=96, Lz=14.0)
    t, tu = nehari_scale(gaussian_field(g), ModelParams(p=4.0, lam=0.0))
    assert t == pytest.approx(np.sqrt(5.0 * np.sqrt(2.0)), abs=1e-8)
    rep = report(tu, ModelParams(p=4.0, lam=0.0))
    assert abs(rep.nehari_residual) <= 1e-12 * rep.lp_integral


def test_nehari_scale_fixed_point(medium_grid, rng):
    params = ModelParams(p=4.0, lam=0.5)
    u = random_band_limited(medium_grid, rng)
    _, tu = nehari_scale(u, params)
    t2, tu2 = nehari_scale(tu, params)
    assert t2 == pytest.approx(1.0, abs=1e-12)


def test_nehari_scale_covariance(medium_grid, rng):
    params = ModelParams(p=4.0, lam=0.5)
    u = random_band_limited(medium_grid, rng)
    t1, pu1 = nehari_scale(u, params)
    for s in (0.25, 3.0):
        t2, pu2 = nehari_scale(s * u, params)
        assert t2 * s == pytest.approx(t1, rel=1e-12)
        assert np.abs(pu2.coeffs - pu1.coeffs).max() <= 1e-12 * np.abs(pu1.coeffs).max()


def test_nehari_zero_field_raises(small_grid):
    with pytest.raises(ZeroField):
        nehari_scale(zero_field(small_grid), ModelParams(p=4.0, lam=0.0))


# -- solver ---------------------------------------------------------------------

def test_zero_init_rejected(small_grid):
    with pytest.raises((ZeroField, CollapsedToZero)):
        solve_ground_state(ModelParams(p=4.0, lam=0.0), init=zero_field(small_grid))


def test_near_solve_matches_limit_profile(state_near_p4):
    res = state_near_p4
    assert res.converged
    assert res.gradient_norm <= 1e-9
    assert abs(res.nehari_residual) <= 1e-10 * report(res.u, res.params).lp_integral
    assert res.u.even_z and res.u.values.min() > -1e-8 * res.u.values.max()
    w = to_w(res.u, res.params.lam, 4.0)
    ref = near_limit_field(4.0, w.grid)
    assert h_distance(w, ref, relative=True) <= 0.05


def test_far_solve_matches_free_soliton(state_far_p4, shot3d_p4):
    res = state_far_p4
    assert res.converged
    v = to_v(res.u, res.params.lam, 4.0)
    ref = free_soliton_field(4.0, v.grid, profile=shot3d_p4)
    assert h1_distance(v, ref, relative=True) <= 0.05
    assert res.gradient_norm <= 1e-9


def test_action_history_non_increasing(state_mid_p4):
    hist = np.array(state_mid_p4.action_history)
    assert (np.diff(hist) <= 1e-12 * np.abs(hist[:-1]) + 1e-15).all()


@pytest.mark.parametrize("state", ["state_far_p4", "state_mid_p4", "state_near_p4"])
def test_descent_action_matches_recomputed_action(state, request):
    """The action the descent carries from its Nehari projections is the
    action 0.5 <u, L u> - int |u|^p / p of the state it returns."""
    res = request.getfixturevalue(state)
    rep = report(res.u, res.params)
    assert res.action == pytest.approx(0.5 * rep.lambda_norm_sq - rep.lp_integral / res.params.p,
                                       rel=1e-12)


def test_critical_point_characterization(state_mid_p4):
    res = state_mid_p4
    rep = report(res.u, res.params)
    assert abs(rep.nehari_residual) <= 1e-9 * rep.lp_integral
    assert abs(pohozaev_residual(res.u, res.params)) <= 1e-6 * rep.h_norm_sq
    # action = (1/2 - 1/p) * int |u|^p on the manifold
    assert res.action == pytest.approx(0.25 * rep.lp_integral, rel=1e-8)
    # a rescaled non-solution has a decisively nonzero dilation residual
    assert abs(pohozaev_residual(2.0 * res.u, res.params)) > 1e-2 * rep.h_norm_sq


def test_profile_monotone_in_r_and_z(state_mid_p4):
    """Qualitative monotone decay away from the origin: enforced to 1e-8
    above the spectral ringing floor (tails below 1e-4 of the peak sit at
    the representation noise level and are excluded)."""
    vals = state_mid_p4.u.values
    g = state_mid_p4.u.grid
    j0 = np.searchsorted(g.z, 0.0)
    vmax = vals.max()
    radial = vals[:, j0]
    body = radial >= 1e-4 * vmax
    assert (np.diff(radial[body]) <= 1e-8 * vmax).all()
    axial = vals[0, j0:]
    body_z = axial >= 1e-4 * vmax
    assert (np.diff(axial[body_z]) <= 1e-8 * vmax).all()


def test_failed_minres_gives_no_newton_step(monkeypatch):
    """A Newton-tail MINRES solve that reports info != 0 yields no step;
    the iteration resumes descent and still converges."""
    params, resolution = ModelParams(p=4.0, lam=1.5), Resolution(K=16, Mz=64)
    healthy = solve_ground_state(params, resolution=resolution)
    real_minres = ground_state.minres
    calls = []

    def failing_minres(*args, **kwargs):
        x, _ = real_minres(*args, **kwargs)
        calls.append(1)
        return x, 1

    monkeypatch.setattr(ground_state, "minres", failing_minres)
    res = solve_ground_state(params, resolution=resolution)
    assert calls
    assert res.converged and res.gradient_norm <= 1e-9
    # the returned (accurate) solution was not used: descent took longer
    assert res.iterations > healthy.iterations
    assert res.action == pytest.approx(healthy.action, rel=1e-9)


@pytest.mark.parametrize("lam", [-5.43, 0.0])
def test_cold_solve_iterations(lam):
    """The Barzilai-Borwein length in the preconditioner's metric keeps the
    cold solve short where the state is narrow on the unit grid (lambda =
    -5.43) as well as where it fits it (lambda = 0)."""
    res = solve_ground_state(ModelParams(p=4.0, lam=lam))
    assert res.converged and res.iterations <= 40


def _roundoff_floor(res):
    """10 eps <c, L c>/||c|| at a converged state; <c, L c> = action / (1/2 - 1/p) on the Nehari set."""
    return 10.0 * np.finfo(float).eps * res.action / (0.5 - 1.0 / res.params.p) / np.sqrt(res.mass)


@pytest.mark.parametrize("p, lam", [(4.0, -1e8), (3.5, -1e6), (3.5, -1e8)])
def test_far_solve_stops_at_roundoff_floor(p, lam):
    """Far below zero frequency the amplitude grows like |lambda|^{1/(p-2)},
    and roundoff in L c keeps the gradient norm above the absolute
    tol_grad; the stopping test accepts it at 10 eps <c, L c>/||c||, so
    these cold solves converge in a few iterations instead of running out
    of all 5,000."""
    res = solve_ground_state(ModelParams(p=p, lam=lam))
    assert res.converged and res.iterations <= 30
    assert SolverOptions().tol_grad < _roundoff_floor(res)
    assert res.gradient_norm <= _roundoff_floor(res)


@pytest.mark.parametrize("state", ["state_far_p4", "state_mid_p4", "state_near_p4"])
def test_roundoff_floor_below_tolerance_on_default_states(state, request):
    """On the states of the default sweep the floor lies far below tol_grad,
    which alone decides convergence there."""
    res = request.getfixturevalue(state)
    assert _roundoff_floor(res) < 1e-2 * SolverOptions().tol_grad
    assert res.gradient_norm <= SolverOptions().tol_grad


@pytest.mark.parametrize("lam", [-40.0, -8.0, -2.0, 1.5, 1.95])
@pytest.mark.parametrize("p", [3.5, 4.0, 5.0, 5.5])
def test_default_start_matches_limit_start(p, lam):
    """The Gaussian cold start reaches the state that the rescaled limit
    profile reaches: the free soliton (from_v) below zero frequency, the
    planar mode times the 1D soliton (from_w) above it."""
    params, resolution = ModelParams(p=p, lam=lam), Resolution(K=24, Mz=256)
    unit = build(K=resolution.K, Mz=resolution.Mz, Lz=resolution.Lz)
    if lam < 0:
        limit = from_v(free_soliton_field(p, unit), lam, p)
    else:
        limit = from_w(near_limit_field(p, unit), lam, p)
    res = solve_ground_state(params, resolution=resolution)
    ref = solve_ground_state(params, init=limit, resolution=resolution)
    assert res.action == pytest.approx(ref.action, rel=1e-8)
    assert res.mass == pytest.approx(ref.mass, rel=1e-8)


@pytest.mark.parametrize("lam", [-40.0, -7.57, 0.0, 1.5, 1.95])
def test_default_box_matches_doubled_box(lam):
    """Every grid family holds the half-box at Lz = 12 in the state's own
    units, leaving a tail mass of about exp(-2 Lz) outside it: doubling the
    box and the node count at the same spacing gives the same state."""
    params = ModelParams(p=4.0, lam=lam)
    res = solve_ground_state(params)
    ref = solve_ground_state(params, resolution=Resolution(Mz=256, Lz=24.0))
    assert res.mass == pytest.approx(ref.mass, rel=1e-8)
    assert res.action == pytest.approx(ref.action, rel=1e-8)


def test_positivity_floor_counts_axial_tail(state_near_p4):
    """At tau = 0.05 on K=24, Mz=128, Lz=24 the ground state dips to -1.1e-8
    of its peak: deeper than its radial coefficient tail (9.2e-9), within its
    axial one (9.5e-6).  It is accepted, and matches the default-grid action."""
    res = solve_ground_state(ModelParams(p=4.0, lam=1.95),
                             resolution=Resolution(K=24, Mz=128, Lz=24.0))
    assert res.u.values.min() < -1e-8 * res.u.values.max()
    assert res.action == pytest.approx(state_near_p4.action, rel=1e-7)


def test_sign_changing_state_refused(monkeypatch):
    """A converged state that changes sign well above its spectral tail is
    not a ground state."""
    from dataclasses import replace
    real = ground_state.iterate_ground_state

    def sign_changing(problem, *args, **kwargs):
        res = real(problem, *args, **kwargs)
        g = problem.grid
        coeffs = np.zeros((g.K, g.Mz))
        coeffs[0, 0], coeffs[1, 0] = 1.0, 2.0    # phi_0 + 2 phi_1, constant in z
        return replace(res, u=Field(g, coeffs=coeffs, real=True))

    monkeypatch.setattr(ground_state, "iterate_ground_state", sign_changing)
    with pytest.raises(NotConverged, match="sign-changing"):
        solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=Resolution(K=16, Mz=64))


def test_unconverged_start_reports_its_counts():
    """A start that runs out of iterations raises NotConverged with its own
    iteration count and gradient norm."""
    with pytest.raises(NotConverged) as exc:
        solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=Resolution(K=16, Mz=64),
                           opts=SolverOptions(max_iter=1))
    assert exc.value.iterations == 1
    assert np.isfinite(exc.value.last_residual) and exc.value.last_residual > 1e-9


# -- linearization at a ground state ----------------------------------------------

def _free(grid):
    """The problem at p = 4, lambda = 0 and the zero state: the linear part alone."""
    return StationaryProblem(grid, 4.0, 0.0), np.zeros((grid.nr, grid.Mz))


def _sector_op(prob, values):
    return ground_state._sector_hessian(prob, prob.grid.half_values(values))


def test_free_oscillator_smallest_eig(small_grid):
    eigs = linearized_smallest_eigs(*_free(small_grid), n=3)
    assert eigs[0] == pytest.approx(2.0, abs=1e-8)


@pytest.fixture(scope="module", params=["unit", "far", "free"])
def tiny_lin(request):
    """Problems and states with 72 sector unknowns (K=8, Mz=16): a ground
    state on the unit grid (diagonal linear part), one on the far grid of
    radial basis frequency 8 (tridiagonal), and the zero state."""
    if request.param == "free":
        return _free(build(K=8, Mz=16, Lz=8.0))
    lam = {"unit": 0.5, "far": -8.0}[request.param]
    res = solve_ground_state(ModelParams(p=4.0, lam=lam), resolution=Resolution(K=8, Mz=16))
    assert res.u.grid.omega == max(1.0, -lam)
    return res.problem, res.u.values


def _dense_eigh(lin):
    op = _sector_op(*lin)
    return np.linalg.eigh(op.matmat(np.eye(op.shape[0])))


@pytest.mark.parametrize("n", [1, 3])
def test_smallest_eigs_match_dense_reference(tiny_lin, n, monkeypatch):
    """The block iteration (no Lanczos fallback) finds the n smallest
    eigenvalues of the densified sector operator, and from a random start
    its lowest vector."""
    def no_fallback(*args, **kwargs):
        raise AssertionError("the block iteration fell back to eigsh")

    monkeypatch.setattr(ground_state, "eigsh", no_fallback)
    vals, vecs = _dense_eigh(tiny_lin)
    eigs = linearized_smallest_eigs(*tiny_lin, n=n)
    assert np.allclose(eigs, vals[:n], rtol=1e-9, atol=0.0)
    X = np.random.default_rng(n).standard_normal((vecs.shape[0], n))
    phi = ground_state.lobpcg(_sector_op(*tiny_lin), X, M=tiny_lin[0].precond)[1][:, 0]
    assert abs(phi @ vecs[:, 0]) == pytest.approx(np.linalg.norm(phi), rel=1e-9)


def test_lobpcg_applies_blocks_once_per_iteration(tiny_lin):
    """Only matmat touches the Hessian and the preconditioner sees only
    blocks, with one non-negative shift per active column, and each
    iteration applies the Hessian once, to the preconditioned residuals:
    one apply more than the preconditioner, for the start block.  The
    search directions P keep it under 100 iterations here (13-34); without
    them it takes 170 at the unit-grid state, 174 at the far one and 35 at
    the free operator."""
    calls = {"A": 0, "M": 0}

    class BlocksOnly(LinearOperator):
        def __init__(self, op):
            super().__init__(op.dtype, op.shape)
            self.op = op

        def _matvec(self, x):
            raise AssertionError("column applied through matvec")

        def _matmat(self, X):
            calls["A"] += 1
            return self.op.matmat(X)

    def precond(X, shifts):
        assert X.ndim == 2
        assert shifts.shape == (X.shape[1],) and (shifts >= 0.0).all()
        calls["M"] += 1
        return tiny_lin[0].precond(X, shifts)

    op = _sector_op(*tiny_lin)
    X = np.random.default_rng(1).standard_normal((op.shape[0], 3))
    vals, _ = ground_state.lobpcg(BlocksOnly(op), X, M=precond)
    assert np.allclose(vals, _dense_eigh(tiny_lin)[0][:3], rtol=1e-9, atol=0.0)
    assert 0 < calls["M"] < 100 and calls["A"] == calls["M"] + 1


def test_unconverged_block_iteration_falls_back_to_lanczos(tiny_lin, monkeypatch):
    """An iteration that runs out of iterations raises, and the sweep's
    eigensolve then takes the eigsh fallback and still passes its
    residual check."""
    op = _sector_op(*tiny_lin)
    with pytest.raises(EigsNotConverged):
        ground_state.lobpcg(op, np.ones((op.shape[0], 1)), M=tiny_lin[0].precond, maxiter=1)
    calls = []
    eigsh = ground_state.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(ground_state, "eigsh", counted)
    eigs = linearized_smallest_eigs(*tiny_lin, n=1, maxiter=1)
    assert calls == [1]
    assert eigs[0] == pytest.approx(_dense_eigh(tiny_lin)[0][0], rel=1e-9)


@pytest.mark.parametrize("error, raised", [
    (ArpackNoConvergence("no convergence", np.empty(0), np.empty((72, 0))), EigsNotConverged),
    (TypeError("not an eigensolver failure"), TypeError)])
def test_failed_fallback_raises(tiny_lin, monkeypatch, error, raised):
    """When the fallback fails too, EigsNotConverged is raised from its
    error; an error that is no eigensolver failure is not caught."""
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(ground_state, "eigsh", failing)
    with pytest.raises(raised) as info:
        linearized_smallest_eigs(*tiny_lin, n=1, maxiter=1)
    assert info.value is error or info.value.__cause__ is error


# -- MINRES ----------------------------------------------------------------------

def test_minres_matches_dense_solve(tiny_lin):
    """The in-repo MINRES solves the densified sector system, indefinite at
    the two ground states, to the dense solution; the callback sees every
    iterate, one per Hessian apply, and the last one is the returned x."""
    op, pre = _sector_op(*tiny_lin), tiny_lin[0].precond
    b = np.random.default_rng(2).standard_normal(op.shape[0])
    applies, iterates = [], []

    def counted(x):
        applies.append(1)
        return op.matvec(x)

    A = ground_state.Operator(op.shape, counted, op.matmat)
    x, info = ground_state.minres(A, b, M=pre, rtol=1e-13, maxiter=500,
                                  callback=iterates.append)
    ref = np.linalg.solve(op.matmat(np.eye(op.shape[0])), b)
    assert info == 0
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
    assert 0 < len(iterates) == len(applies) < 500
    assert iterates[-1] is x


def test_minres_reports_iteration_limit(tiny_lin):
    """An unconverged solve returns info == maxiter (the preconditioner is the
    identity: the diagonal one inverts the free operator in one step); a
    zero right-hand side returns x = 0 at once."""
    op = _sector_op(*tiny_lin)
    b = np.ones(op.shape[0])
    x, info = ground_state.minres(op, b, M=np.copy, rtol=1e-13, maxiter=1)
    assert info == 1 and np.isfinite(x).all()
    x, info = ground_state.minres(op, np.zeros_like(b), M=np.copy, rtol=1e-13, maxiter=1)
    assert info == 0 and not x.any()


def test_precond_inverts_linear_part(tiny_lin):
    """The preconditioner is the exact inverse of the densified linear part
    L0, and with a shift sigma of L0 + sigma: a diagonal divide at radial
    basis frequency 1, fast diagonalization of the radial block on the far
    grid; on blocks with one shift per column and on single vectors with a
    scalar one."""
    prob = tiny_lin[0]
    g = prob.grid
    m = g.Mz // 2 + 1
    n = g.K * m
    eye = np.eye(n)
    lin = prob.apply_lin(eye.reshape(n, g.K, m)).reshape(n, n).T
    assert np.abs(prob.precond(eye) @ lin - eye).max() <= 1e-10
    rng = np.random.default_rng(3)
    b = rng.standard_normal(n)
    assert np.abs(prob.precond(lin @ b) - b).max() <= 1e-10 * np.abs(b).max()
    for sigma in (0.5, 600.0):
        shifted = lin + sigma * eye
        assert np.abs(prob.precond(shifted @ b, sigma) - b).max() <= 1e-10 * np.abs(b).max()
    B = rng.standard_normal((n, 3))
    sigmas = np.array([0.0, 3.0, 600.0])
    AB = np.stack([(lin + s * eye) @ B[:, j] for j, s in enumerate(sigmas)], axis=1)
    assert np.abs(prob.precond(AB, sigmas) - B).max() <= 1e-10 * np.abs(B).max()


def test_solve_chi_iterations_on_far_grid(monkeypatch):
    """At lambda = -20 the linearized solve on the far grid converges in a
    few MINRES iterations; preconditioned by the diagonal of the linear
    part alone it took 85."""
    res = solve_ground_state(ModelParams(p=4.0, lam=-20.0))
    assert res.u.grid.omega == 20.0
    real_minres, iters = ground_state.minres, []

    def counted(*args, **kwargs):
        return real_minres(*args, callback=lambda x: iters.append(1), **kwargs)

    monkeypatch.setattr(ground_state, "minres", counted)
    solve_chi(res)
    assert 0 < len(iters) <= 30


def test_eigensolve_applies_on_far_grid(state_far_p4, monkeypatch):
    """At lambda = -40 the lowest sector eigenvalue, near -612, takes few
    block applies, because each column's preconditioner is shifted by its
    Ritz value; with the unshifted inverse of the linear part it took 50."""
    real_lobpcg, applies = ground_state.lobpcg, []

    def counted(A, X, M, **kwargs):
        def mm(x):
            applies.append(1)
            return A.matmat(x)
        return real_lobpcg(ground_state.Operator(A.shape, A.matvec, mm), X, M, **kwargs)

    monkeypatch.setattr(ground_state, "lobpcg", counted)
    eig, = linearized_smallest_eigs(state_far_p4.problem, state_far_p4.u.values, n=1)
    assert eig < -600.0
    assert 0 < len(applies) <= 16


def test_minres_matches_scipy_on_solve_chi_system(state_mid_p4):
    """On the default-grid system of solve_chi, the iteration count and the
    solution agree with scipy's MINRES, whose recurrences it follows."""
    from scipy.sparse.linalg import minres as scipy_minres
    prob, g = state_mid_p4.problem, state_mid_p4.u.grid
    op, pre = _sector_op(prob, state_mid_p4.u.values), prob.precond
    rhs = g.reduce_even(state_mid_p4.u.coeffs).ravel()
    counts = {"ours": 0, "scipy": 0}

    def counter(key):
        return lambda x: counts.__setitem__(key, counts[key] + 1)

    x, info = ground_state.minres(op, rhs, M=pre, rtol=1e-10, maxiter=3000,
                                  callback=counter("ours"))
    ref, ref_info = scipy_minres(op, rhs, M=LinearOperator(op.shape, matvec=pre),
                                 rtol=1e-10, maxiter=3000, callback=counter("scipy"))
    assert info == ref_info == 0
    assert abs(counts["ours"] - counts["scipy"]) <= 1 and counts["ours"] > 5
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def _full_hessian(res, f):
    """Coefficients of the second variation at res applied to a field f of
    the full space, odd parts included."""
    prob = res.problem
    w = (prob.p - 1.0) * np.abs(res.u.values) ** (prob.p - 2.0)
    return prob.grid.apply_lin(f.coeffs, -prob.lam) - prob.grid.to_coeffs(w * f.values)


def test_selfadjointness(state_near_p4, rng):
    g = state_near_p4.u.grid
    a = random_band_limited(g, rng, even_z=False)
    b = random_band_limited(g, rng, even_z=False)
    lhs = np.sum(np.conj(_full_hessian(state_near_p4, a)) * b.coeffs)
    rhs = np.sum(np.conj(a.coeffs) * _full_hessian(state_near_p4, b))
    assert abs(lhs - rhs) <= 1e-9 * a.l2_norm() * b.l2_norm()


def test_single_negative_direction_and_nondegeneracy(state_near_p4):
    vals = linearized_smallest_eigs(state_near_p4.problem, state_near_p4.u.values, n=3)
    assert vals[0] < 0 < vals[1]                 # exactly one negative direction
    assert min(abs(v) for v in vals) > 1e-3      # numerically non-degenerate sector


def test_translation_direction_in_kernel(state_near_p4):
    """The axial derivative of the state is (discretely) annihilated by the
    full-sector linearized operator: the translation degeneracy lives in the
    odd sector only."""
    res = state_near_p4
    g = res.u.grid
    dz_coeffs = res.u.coeffs * (1j * g.xi[None, :])
    dz_u = Field(g, coeffs=dz_coeffs, real=True)
    assert np.linalg.norm(_full_hessian(res, dz_u)) <= 1e-6 * dz_u.l2_norm()


# -- branch derivative ---------------------------------------------------------------

def test_chi_slope_matches_finite_difference(state_near_p4):
    from confinement_lab.branch import slope_finite_difference
    chi, slope = solve_chi(state_near_p4)
    fd = slope_finite_difference(4.0, state_near_p4.params.lam, warm=state_near_p4)
    assert abs(slope - fd) <= max(0.01 * abs(fd), 1e-6)


def test_chi_near_limit_profile(state_near_p4):
    """Rescaled frequency derivative approaches
    ((1/(2-p)) what - (1/2) z what') e1 at the dimension-reduction end:
    the distance shrinks with tau and is O(tau) small at tau = 0.05."""
    p = 4.0
    sol = soliton_1d(p)

    def chi_distance(res):
        chi, _ = solve_chi(res)
        chi_w = branch_derivative_to_w(chi, res.params.lam, p)
        g = chi_w.grid
        e1 = np.exp(-g.r**2 / 2.0) / np.sqrt(np.pi)
        model = np.outer(e1, sol(g.z) / (2.0 - p) - 0.5 * g.z * sol.derivative(g.z))
        return h_distance(chi_w, Field(g, values=model, real=True),
                          relative=True)

    coarse = solve_ground_state(ModelParams(p=p, lam=LAMBDA0 - 0.1))
    d_coarse = chi_distance(coarse)
    d_fine = chi_distance(state_near_p4)
    assert d_fine < d_coarse
    assert d_fine <= 0.1


def test_chi_far_limit_profile(state_far_p4, shot3d_p4):
    """Rescaled frequency derivative approaches (1/(2-p)) v - (1/2) x.grad v
    at the free-soliton end."""
    p = 4.0
    res = state_far_p4
    lam = res.params.lam
    chi, _ = solve_chi(res)
    chi_v = (-lam) ** ((3.0 - p) / (p - 2.0)) * 1.0  # amplitude handled by the map below
    from confinement_lab.scaling import branch_derivative_to_v
    chi_v = branch_derivative_to_v(chi, lam, p)
    g = chi_v.grid
    rad = np.sqrt(g.r[:, None] ** 2 + g.z[None, :] ** 2)
    v = shot3d_p4(rad)
    dv = shot3d_p4.derivative(rad)
    model = v / (2.0 - p) - 0.5 * rad * dv
    ref = Field(g, values=model, real=True)
    assert h1_distance(chi_v, ref, relative=True) <= 0.05


def test_solve_chi_requires_invertibility(state_near_p4):
    with pytest.raises(NearSingular):
        solve_chi(state_near_p4, rtol=1.0, maxiter=1)


def test_solve_chi_checks_true_residual(monkeypatch):
    """A solution that MINRES reports as converged (info == 0) but that
    does not solve L chi = u fails the residual check on the sector
    operator."""
    res = solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=Resolution(K=8, Mz=16))
    real_minres = ground_state.minres

    def damaged(*args, **kwargs):
        x, info = real_minres(*args, **kwargs)
        assert info == 0
        return 1.01 * x, info

    monkeypatch.setattr(ground_state, "minres", damaged)
    with pytest.raises(NearSingular):
        solve_chi(res)


def test_eigenpairs_check_true_residual(tiny_lin, monkeypatch):
    """An eigenvector that LOBPCG returns without raising but that is off
    its eigenvalue fails the residual check on the sector operator."""
    real_lobpcg = ground_state.lobpcg

    def damaged(*args, **kwargs):
        vals, vecs = real_lobpcg(*args, **kwargs)
        vecs[:, -1] += 1e-3 * np.random.default_rng(5).standard_normal(vecs.shape[0])
        return vals, vecs

    monkeypatch.setattr(ground_state, "lobpcg", damaged)
    with pytest.raises(EigsNotConverged):
        linearized_smallest_eigs(*tiny_lin, n=2)


# -- symmetrization of iterates ---------------------------------------------------

def test_symmetrize_coeffs_idempotent(rng):
    """Reducing full coefficients to the even sector and expanding back is
    a projection onto real, axially even coefficients that kills odd ones."""
    g = build(K=8, Mz=16, Lz=8.0)
    c = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    s1 = g.expand_even(g.reduce_even(c))
    s2 = g.expand_even(g.reduce_even(s1))
    assert np.isrealobj(s1) and np.array_equal(s1, s1[:, -np.arange(16)])
    assert (np.abs(s2 - s1) <= 4e-16 * np.abs(s1)).all()
    odd = c - c[:, -np.arange(16)]
    assert np.abs(g.reduce_even(odd)).max() == 0.0


@pytest.mark.parametrize("lam", [0.5, -8.0, -40.0, 1.95])
def test_sector_hessian_block_product(lam, rng):
    """The block product equals the column-by-column product and, with the
    even transforms' scalars folded into its weight, the transform-pair
    form apply_lin(c) - to_even(w from_even(c)), w = (p-1)|u|^{p-2}; and it
    is symmetric.  On the unit grid (diagonal linear part), on far grids
    of radial basis frequency |lambda| (tridiagonal linear part) and on
    the stretched near grid."""
    params = ModelParams(p=4.0, lam=lam)
    g = grid_for(params, Resolution(K=12, Mz=32, Lz=8.0))
    assert g.omega == max(1.0, -lam)
    prob = StationaryProblem(g, params.p, params.lam)
    z = g.dz * np.arange(g.Mz // 2 + 1)
    base = 2.0 * np.exp(-g.omega * (g.r[:, None] ** 2 + z[None, :] ** 2) / 2.0)
    hess = ground_state._sector_hessian(prob, base)
    X = rng.standard_normal((hess.shape[0], 3))
    block = hess.matmat(X)
    columns = np.column_stack([hess.matvec(X[:, i]) for i in range(3)])
    assert np.abs(block - columns).max() <= 1e-13 * np.abs(columns).max()
    c = X.T.reshape(3, g.K, -1)
    w = (params.p - 1.0) * np.abs(base) ** (params.p - 2.0)
    pair = (prob.apply_lin(c) - g.to_even(w * g.from_even(c))).reshape(3, -1).T
    assert np.abs(block - pair).max() <= 1e-13 * np.abs(pair).max()
    gram = X.T @ block
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lobpcg_matches_dense_eigh(n):
    """On a tiny grid (54 sector unknowns) lobpcg from a random start finds
    the n smallest eigenvalues of the densified sector Hessian at a ground
    state, one of them negative, and returns orthonormal vectors."""
    res = solve_ground_state(ModelParams(p=4.0, lam=0.5), resolution=Resolution(K=6, Mz=16))
    op = _sector_op(res.problem, res.u.values)
    dense = np.linalg.eigvalsh(op.matmat(np.eye(op.shape[0])))
    X = np.random.default_rng(n).standard_normal((op.shape[0], n))
    vals, vecs = ground_state.lobpcg(op, X, M=res.problem.precond)
    assert dense[0] < 0.0 < dense[1]
    assert np.abs(vals - dense[:n]).max() <= 1e-10
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("lam", [0.5, -40.0], ids=["unit", "far"])
def test_project_returns_linear_apply(lam):
    """The Nehari projection returns t L c, which the gradient and the step
    length reuse: it equals apply_lin of the projected coefficients."""
    params = ModelParams(p=4.0, lam=lam)
    g = grid_for(params, Resolution(K=12, Mz=32, Lz=8.0))
    prob = StationaryProblem(g, params.p, params.lam)
    z = g.dz * np.arange(g.Mz // 2 + 1)
    start = g.to_even(np.exp(-g.omega * (g.r[:, None] ** 2 + z[None, :] ** 2) / 2.0))
    c, values, _, lc = ground_state._project(prob, start)
    ref = prob.apply_lin(c)
    assert np.abs(lc - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(values - g.from_even(c)).max() <= 1e-13 * np.abs(values).max()


# -- level monotonicity across the rescaled problems --------------------------------

def test_weak_trap_levels_decrease_toward_limit(shot3d_p4):
    """The weak-trap minimization level is nondecreasing in the trap
    strength and bounded below by the free-soliton level."""
    from confinement_lab.scaling import action_factor_weak_trap
    p = 4.0
    levels = {}
    for lam in (-2.0, -4.0):
        res = solve_ground_state(ModelParams(p=p, lam=lam))
        levels[1.0 / lam**2] = action_factor_weak_trap(p, lam) * res.action
    # free level from the shot profile: (1/2 - 1/p) * int v^p over R^3
    rr = np.linspace(0.0, 25.0, 40001)
    vp = shot3d_p4(rr) ** p
    level0 = (0.5 - 1.0 / p) * 4.0 * np.pi * np.trapezoid(vp * rr**2, rr)
    mus = sorted(levels)          # smaller mu = weaker trap
    assert level0 <= levels[mus[0]] + 1e-9 * level0
    assert levels[mus[0]] <= levels[mus[1]] + 1e-12 * level0


def test_stretched_levels_bounded_by_limit(state_near_p4):
    """The stretched-picture level never exceeds the 1D limit level (the
    factorized profile is admissible at every tau)."""
    from confinement_lab.scaling import action_factor_stretched
    p = 4.0
    sol = soliton_1d(p)
    level0 = (p - 2.0) / (2.0 * p) * (sol.grad_sq + sol.mass)
    for res in (state_near_p4,
                solve_ground_state(ModelParams(p=p, lam=1.0))):
        tau = LAMBDA0 - res.params.lam
        level_tau = action_factor_stretched(p, tau) * res.action
        assert level_tau <= level0 * (1.0 + 1e-9)
