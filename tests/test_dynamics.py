import numpy as np
import pytest

from confinement_lab import dynamics
from confinement_lab.core import Field, ModelParams, load_field
from confinement_lab.dynamics import (PERTURBATION_SHAPES, EvolutionConfig, energy_value,
                                      evolve, make_perturbation, orbital_distance,
                                      perturbed_state)
from confinement_lab.errors import ShapeMismatch, StepTooLarge
from confinement_lab.grid import Discretization, build
from confinement_lab.ground_state import Resolution, grid_for, solve_ground_state


@pytest.fixture(scope="module")
def stable_state():
    """Ground state at p=4, tau=0.2, solved on the collocation resolution
    so it is exactly stationary for the discrete flow."""
    params = ModelParams(p=4.0, lam=1.8)
    g = grid_for(params, Resolution(K=32, Mz=192))
    return solve_ground_state(params, grid=build(g.K, g.Mz, g.Lz, g.omega, oversample=1))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        EvolutionConfig(perturbation=0.5)
    with pytest.raises(ValueError):
        EvolutionConfig(shape="wiggle")


@pytest.mark.parametrize("dt, T", [(np.inf, 1.0), (np.nan, 1.0), (2e-3, np.inf), (2e-3, np.nan)])
def test_config_rejects_non_finite_times(dt, T):
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig(dt=dt, T=T)


def test_standing_wave_short(stable_state):
    params = stable_state.params
    cfg = EvolutionConfig(dt=1e-3, T=1.0, record_every=100)
    tr = evolve(perturbed_state(stable_state.u, cfg), params, cfg,
                reference=stable_state.u)
    assert tr.orbital_distance.max() <= 1e-6
    assert abs(tr.mass[-1] / tr.mass[0] - 1.0) <= 1e-12
    assert (np.diff(tr.t) > 0).all()


def test_mass_conservation_unit(stable_state):
    params = stable_state.params
    cfg = EvolutionConfig(dt=2e-3, T=2.0, perturbation=0.05, record_every=250)
    tr = evolve(perturbed_state(stable_state.u, cfg), params, cfg)
    assert abs(tr.mass[-1] / tr.mass[0] - 1.0) <= 1e-12


def test_time_reversal(stable_state):
    params = stable_state.params
    cfg = EvolutionConfig(dt=1e-3, T=1.0, perturbation=0.03, record_every=1000)
    psi0 = perturbed_state(stable_state.u, cfg)
    g = psi0.grid

    def run(state, dt):
        vals = state.values.astype(complex)
        p = params.p
        lin = np.exp(-1j * dt * (g.osc_eigs[:, None] + g.xi[None, :] ** 2))
        # direct splitting loop so the final state is available
        import numpy as _np
        n = int(round(1.0 / abs(dt)))
        for _ in range(n):
            vals = vals * _np.exp(1j * (0.5 * dt) * _np.abs(vals) ** (p - 2.0))
            vals = g.from_coeffs(g.to_coeffs(vals) * lin)
            vals = vals * _np.exp(1j * (0.5 * dt) * _np.abs(vals) ** (p - 2.0))
        return vals

    gc = g
    forward = run(psi0, 1e-3)
    back = run(Field(gc, values=forward, real=False), -1e-3)
    err = np.abs(back - psi0.values).max() / np.abs(psi0.values).max()
    assert err <= 1e-8


@pytest.mark.parametrize("p", [4.0, 3.0])
def test_fused_steps_match_two_half_step_loop(stable_state, tmp_path, monkeypatch, p):
    # evolve fuses the nonlinear half-steps of consecutive steps; every state
    # it observes (records, the early energy check, the last step) must be
    # the state of the plain two-half-step Strang loop (p = 3 takes the
    # power in the rotation; the initial state need not be stationary)
    params = ModelParams(p=p, lam=stable_state.params.lam)
    cfg = EvolutionConfig(dt=1e-3, T=0.05, perturbation=0.03, record_every=7)
    psi0 = perturbed_state(stable_state.u, cfg)
    g = psi0.grid
    observed = []

    def spy(grid, coeffs, mod, power, diag):
        vals = grid.from_even(coeffs)
        # the |psi|^2 the record reuses is the observed state's
        assert np.abs(mod - vals[0] ** 2 - vals[1] ** 2).max() <= 1e-12 * mod.max()
        full = grid.expand_even(coeffs, vals)[1]
        observed.append(full[0] + 1j * full[1])
        return energy_value(grid, coeffs, mod, power, diag)

    monkeypatch.setattr(dynamics, "energy_value", spy)
    tr = evolve(psi0, params, cfg, snapshot_dir=tmp_path)

    dt = cfg.dt
    lin = np.exp(-1j * dt * (g.osc_eigs[:, None] + g.xi[None, :] ** 2))
    vals = psi0.values.astype(complex)
    states = [vals]
    for _ in range(50):
        vals = vals * np.exp(1j * (0.5 * dt) * np.abs(vals) ** (p - 2.0))
        vals = g.from_coeffs(g.to_coeffs(vals) * lin)
        vals = vals * np.exp(1j * (0.5 * dt) * np.abs(vals) ** (p - 2.0))
        states.append(vals)

    # energy_value sees psi0, then record 0, 7, the check at 10, 14, ..., 49, 50
    steps = [0, 0, 7, 10, 14, 21, 28, 35, 42, 49, 50]
    assert len(observed) == len(steps)
    scale = np.abs(psi0.values).max()
    for step, seen in zip(steps, observed):
        assert np.abs(seen - states[step]).max() <= 1e-12 * scale
    recorded = [0, 7, 14, 21, 28, 35, 42, 49, 50]
    assert np.allclose(tr.t, np.array(recorded) * dt, rtol=0, atol=1e-15)
    mass = np.array([float(g.quad(np.abs(states[s]) ** 2)) for s in recorded])
    assert np.abs(tr.mass - mass).max() <= 1e-12 * mass[0]
    final, _ = load_field(tmp_path / "psi_00000050")
    assert np.abs(final.values - states[50]).max() <= 1e-12 * scale


def test_observing_does_not_perturb_the_trajectory(stable_state):
    # a record splits the rotation into two half-steps that turn by one
    # angle; recording every step or every 7th must give the same records
    u, params = stable_state.u, stable_state.params
    every_step, every_7th = (
        evolve(perturbed_state(u, cfg), params, cfg, reference=u)
        for cfg in (EvolutionConfig(dt=1e-3, T=0.049, perturbation=0.03, record_every=n)
                    for n in (1, 7)))
    assert len(every_step.t) == 50 and len(every_7th.t) == 8
    for name in ("t", "mass", "energy", "orbital_distance"):
        a, b = getattr(every_step, name)[::7], getattr(every_7th, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_energy_check_reads_the_record_at_step_10(stable_state, monkeypatch):
    # at the default cadence step 10 is a record point, and the drift check
    # reads that record's energy instead of computing it again
    cfg = EvolutionConfig(dt=1e-3, T=0.05, perturbation=0.03)
    assert cfg.record_every == dynamics.ENERGY_CHECK_STEP
    calls = []

    def counting(*args):
        calls.append(args)
        return energy_value(*args)

    monkeypatch.setattr(dynamics, "energy_value", counting)
    tr = evolve(perturbed_state(stable_state.u, cfg), stable_state.params, cfg)
    # the start's e0, then records 0, 10, ..., 50
    assert len(tr.t) == 6 and len(calls) == 7


@pytest.mark.parametrize("p", [4.0, 3.0], ids=["p=4", "p=3"])
def test_odd_start_is_refused(stable_state, monkeypatch, p):
    # the even start shifted by whole nodes is not even, and evolve steps
    # the even half grid only: it refuses the start before any step runs,
    # whichever form the nonlinear rotation takes
    params = ModelParams(p=p, lam=stable_state.params.lam)
    cfg = EvolutionConfig(dt=1e-3, T=0.1, perturbation=0.03)
    even = perturbed_state(stable_state.u, cfg)
    odd = Field(even.grid, values=np.roll(even.values, 7, axis=1), real=False)
    assert not odd.even_z

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(dynamics, "_turn", no_step)
    with pytest.raises(ShapeMismatch, match="even in z"):
        evolve(odd, params, cfg, reference=stable_state.u)


def test_symmetric_sector_runs_no_full_grid_transform(stable_state, tmp_path, monkeypatch):
    # the step, the records (mass, energy, distance) and the snapshots all
    # run on the even half grid
    cfg = EvolutionConfig(dt=1e-3, T=0.05, perturbation=0.03, record_every=10)
    psi0 = perturbed_state(stable_state.u, cfg)

    def forbidden(self, arr):
        raise AssertionError("full-grid transform in the symmetric sector")

    monkeypatch.setattr(Discretization, "to_coeffs", forbidden)
    monkeypatch.setattr(Discretization, "from_coeffs", forbidden)
    tr = evolve(psi0, stable_state.params, cfg, reference=stable_state.u,
                snapshot_dir=tmp_path)
    assert len(tr.t) == 6 and np.isfinite(tr.orbital_distance).all()
    assert (tmp_path / "psi_00000050.bin").exists()


def _full_grid_record(psi, u, p):
    """Mass, energy and orbital distance of psi by the full-grid formulas."""
    g, c = psi.grid, psi.coeffs
    mod = np.abs(psi.values) ** 2
    energy = 0.5 * float(np.vdot(c, g.apply_lin(c, 0.0)).real) - float(g.quad(mod ** (0.5 * p))) / p
    return float(g.quad(mod)), energy, orbital_distance(psi, u)


def test_records_match_full_grid_after_50_steps(stable_state, tmp_path):
    # the records read the even pair; the snapshot is its expanded Field
    u, params = stable_state.u, stable_state.params
    cfg = EvolutionConfig(dt=1e-3, T=0.05, perturbation=0.03, record_every=50)
    tr = evolve(perturbed_state(u, cfg), params, cfg, reference=u, snapshot_dir=tmp_path)
    psi, _ = load_field(tmp_path / "psi_00000050")
    mass, energy, dist = _full_grid_record(psi, u, params.p)
    assert tr.mass[-1] == pytest.approx(mass, rel=1e-12)
    assert tr.energy[-1] == pytest.approx(energy, rel=1e-12)
    assert abs(tr.orbital_distance[-1] - dist) <= 1e-12


@pytest.mark.parametrize("p", [4.0, 3.0])
def test_two_bump_record_values_match_full_grid(stable_state, p):
    # e^{i theta} (u(z - a) + u(z + a)), a half a node off the grid: its best
    # shift lies between nodes near a, not at 0, so the half-grid scan and
    # the Newton polish both act
    u = stable_state.u
    g = u.grid
    a = (g.Mz // 8 + 0.5) * g.dz
    c = np.exp(1.1j) * u.coeffs * 2.0 * np.cos(g.xi * a)[None, :]
    psi = Field(g, coeffs=c, real=False)
    assert psi.even_z
    pair = np.stack([g.reduce_even(c), g.reduce_even(c.imag)])
    vals = g.half_values(np.stack([psi.values.real, psi.values.imag]))
    mod = vals[0] ** 2 + vals[1] ** 2
    mass, energy, dist = _full_grid_record(psi, u, p)
    assert float(g.quad_even(mod)) == pytest.approx(mass, rel=1e-12)
    assert energy_value(g, pair, mod, p, g.lin_diag(pair.shape[-1], 0.0)) == \
        pytest.approx(energy, rel=1e-12)
    assert abs(dynamics.orbital_distance_data(pair, dynamics._reference_data(u)) - dist) <= 1e-12
    # unshifted, the best phase leaves a larger distance
    hw = g.lin_diag(g.Mz, 1.0)
    un, pn = np.sum(hw * np.abs(u.coeffs) ** 2), np.sum(hw * np.abs(c) ** 2)
    unshifted = np.sqrt((pn + un - 2.0 * abs(np.sum(hw * c * np.conj(u.coeffs)))) / un)
    assert dist < 0.9 * unshifted


def test_propagator_matches_coefficient_turn(stable_state):
    # U_r psi U_z is to_even, the turn of each even coefficient by
    # exp(-i dt (osc_k + xi_m^2)), and from_even
    g, dt = stable_state.u.grid, 2e-3
    psi = perturbed_state(stable_state.u, EvolutionConfig(perturbation=0.03))
    c = np.exp(0.7j) * psi.coeffs
    state = g.from_even(np.stack([g.reduce_even(c), g.reduce_even(c.imag)]))
    coeffs = g.to_even(state)
    angle = dt * g.lin_diag(coeffs.shape[-1], 0.0)
    dynamics._turn(coeffs, np.cos(angle), -np.sin(angle))
    expected = g.from_even(coeffs)
    dynamics._propagator(g, dt)(state)
    assert np.abs(state - expected).max() <= 1e-13 * np.abs(expected).max()


def test_reference_not_real_and_even_is_refused(stable_state):
    u = stable_state.u
    cfg = EvolutionConfig(dt=1e-3, T=0.01)
    for ref in (Field(u.grid, values=np.roll(u.values, 7, axis=1), real=True),
                Field(u.grid, coeffs=1j * u.coeffs, real=False)):
        with pytest.raises(ShapeMismatch, match="real and even"):
            evolve(u, stable_state.params, cfg, reference=ref)


def test_orbital_distance_quotients(stable_state, rng):
    u = stable_state.u
    g = u.grid
    # exact state: zero distance
    psi = Field(g, coeffs=u.coeffs.astype(complex), real=False)
    assert orbital_distance(psi, u) <= 1e-9
    # pure phase: still zero
    psi = Field(g, coeffs=np.exp(1j * 0.83) * u.coeffs, real=False)
    assert orbital_distance(psi, u) <= 1e-9
    # pure shift: quotiented away by the translation scan
    z0 = 1.3
    shifted = Field(g, coeffs=u.coeffs * np.exp(-1j * g.xi[None, :] * z0), real=False)
    assert orbital_distance(shifted, u) <= 1e-8
    # a genuine perturbation is seen
    pert = make_perturbation(u, "even_random", 0.05, seed=7)
    psi = Field(g, coeffs=u.coeffs + pert.coeffs, real=False)
    assert orbital_distance(psi, u) >= 0.01


def test_orbital_distance_on_orbit_is_roundoff(stable_state):
    # the distance is evaluated directly, not as a difference of squared
    # norms, so points of the orbit measure 0 to roundoff, not to sqrt(eps)
    u = stable_state.u
    g = u.grid
    assert orbital_distance(u, u) <= 1e-12
    # the last shift lies halfway between two nodes, the farthest the
    # Newton polish ever starts from its optimum
    mid = g.z[g.Mz // 2 + 5] + 0.5 * g.dz
    for theta, z0 in ((0.83, 0.0), (0.0, 1.3), (-2.1, -4.7), (1.1, mid)):
        c = np.exp(1j * theta) * u.coeffs * np.exp(-1j * g.xi[None, :] * z0)
        assert orbital_distance(Field(g, coeffs=c, real=False), u) <= 1e-12


def test_perturbation_shapes_and_amplitude(stable_state):
    u = stable_state.u
    from confinement_lab.functionals import quadratic_parts
    qu = quadratic_parts(u)
    hu = np.sqrt(qu["kin_y"] + qu["kin_z"] + qu["trap"] + qu["l2"])
    flip = (-np.arange(u.grid.Mz)) % u.grid.Mz     # the node reflection z -> -z
    for shape in PERTURBATION_SHAPES:
        pert = make_perturbation(u, shape, 0.01, seed=3)
        qp = quadratic_parts(pert)
        hp = np.sqrt(qp["kin_y"] + qp["kin_z"] + qp["trap"] + qp["l2"])
        assert hp == pytest.approx(0.01 * hu, rel=1e-10)
        # every shape of an even state is even
        assert np.abs(pert.values - pert.values[:, flip]).max() <= 1e-12 * np.abs(pert.values).max()


@pytest.mark.parametrize("sector", ["symmetric", "full"])
@pytest.mark.parametrize("shape", PERTURBATION_SHAPES)
def test_perturbation_is_the_real_field_of_its_coefficients(stable_state, shape, sector):
    """The perturbation added to the start is the real field its values
    describe, for a start on either grid: its coefficients are those of
    their real part.  A real-flagged field with non-Hermitian coefficients
    would give the start an imaginary, odd part.  The full-grid case
    perturbs the ground state shifted by whole nodes, which is not even."""
    u = stable_state.u
    g = u.grid
    if sector == "full":
        u = Field(g, values=np.roll(u.values, 7, axis=1), real=True)
    cfg = EvolutionConfig(perturbation=0.01, shape=shape, seed=3)
    psi0 = perturbed_state(u, cfg)
    assert psi0.even_z is (sector == "symmetric")
    pert = psi0.coeffs - u.coeffs
    real_part = g.to_coeffs(g.from_coeffs(pert).real)
    assert np.abs(real_part - pert).max() <= 1e-12 * np.abs(pert).max()


def test_seeded_perturbations_reproducible(stable_state):
    a = make_perturbation(stable_state.u, "even_random", 0.01, seed=11)
    b = make_perturbation(stable_state.u, "even_random", 0.01, seed=11)
    assert np.array_equal(a.values, b.values)


def test_step_too_large_guard(stable_state):
    params = stable_state.params
    cfg = EvolutionConfig(dt=0.8, T=8.0, perturbation=0.1)
    with pytest.raises(StepTooLarge):
        evolve(perturbed_state(stable_state.u, cfg), params, cfg)


def test_energy_functional_value(stable_state):
    u = stable_state.u
    g = u.grid
    pair = np.stack([g.reduce_even(u.coeffs), np.zeros((g.K, g.Mz // 2 + 1))])
    mod = g.half_values(u.values) ** 2
    e = energy_value(g, pair, mod, 4.0, g.lin_diag(pair.shape[-1], 0.0))
    assert np.isfinite(e)
    # energy of the standing wave: action at lambda=0 identity
    from confinement_lab.functionals import report
    rep = report(u, ModelParams(p=4.0, lam=0.0))
    assert e == pytest.approx(rep.action, rel=1e-12)
