"""Split-step time integration and empirical orbital-stability probes.

The Cauchy problem

    i psi_t + Delta psi - (x1^2 + x2^2) psi + |psi|^{p-2} psi = 0

is integrated by Strang splitting: a half-step of the nonlinear phase
rotation exp(+i dt/2 |psi|^{p-2}) (exact, since |psi| is pointwise
invariant), a full linear step (exact in the spectral basis, multiplier
exp(-i dt (osc_k + xi_m^2))), and another nonlinear half-step.  Since
|psi| is invariant under the rotation, a step's trailing half-step and
the next step's leading one compose exactly to one full rotation
exp(+i dt |psi|^{p-2}); :func:`evolve` applies them as one and splits
the rotation into two half-steps only where the state is observed (the
record points, the early energy check and the last step), so the run
is still exact Strang splitting at half the pointwise work.  Both
sub-steps are L^2 isometries, so the mass drift is pure roundoff,
provided the discrete transform pair is orthonormal to roundoff.  It is:
:func:`grid.build` polishes the radial pair in sqrt(w) form, giving
Q = sqrt(w) phi orthonormal columns and deriving phi and proj from Q.
Polishing phi alone and forming proj afterwards leaves a fixed error in
the low-mode block the state lives in, which every step applies again:
a steady bias of about -1e-15 in relative mass per step.

The flow keeps an even state even, and the start must be even in z (as
Field.even_z measures it): the state is held on the even half grid (the
Mz/2+1 nodes z >= 0) as the real pair (Re psi, Im psi), and the linear
step is to_even, a turn of each even coefficient by the multiplier, and
from_even: real GEMMs.  On the collocation grid the sqrt(w)-weighted
DCT-I is orthogonal and the radial pair square, so to_even maps the
half-grid norm (quad_even) onto the Euclidean norm of the even
coefficients, the full-grid L^2 norm: both sub-steps stay isometries and
the argument above carries over.  A record point expands one to_even and
the half-grid values to a Field, so no full-grid transform runs.

Orbital distance to a standing-wave orbit quotients out the global phase
(closed form) and axial translations (trig-polynomial scan over the box
followed by a Newton polish), in the trap-weighted H metric, reported
relative to the H norm of the reference state.  The distance at the
optimal phase and shift is evaluated directly in coefficient space, so
a state on the orbit measures 0 to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Field, ModelParams
from .errors import ShapeMismatch, StepTooLarge
from .functionals import quadratic_parts

PERTURBATION_SHAPES = ("even_random", "ground_mode", "z_dilation")
NEWTON_STEPS = 8    # orbital distance: Newton steps on the best shift


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 2e-3
    T: float = 20.0
    perturbation: float = 0.0           # relative H-norm amplitude, in [0, 0.2]
    shape: str = "even_random"
    record_every: int = 10
    seed: int = 1234
    check_first_steps: int = 10
    stop_when_distance: float | None = None   # early exit for escape runs

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if not 0.0 <= self.perturbation <= 0.2:
            raise ValueError("perturbation amplitude outside [0, 0.2]")
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive step count")


@dataclass
class EvolutionTrace:
    t: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    orbital_distance: np.ndarray
    dt: float

    def to_csv(self, path) -> None:
        arr = np.column_stack([self.t, self.mass, self.energy, self.orbital_distance])
        np.savetxt(path, arr, delimiter=",",
                   header="t,mass,energy,orbital_distance", comments="")


def energy_value(psi: Field, p: float) -> float:
    """Conserved energy: (1/2) int |grad psi|^2 + |y|^2 |psi|^2 - (1/p) int |psi|^p.

    The quadratic part is <c, (-Delta + |y|^2) c> on the coefficients c."""
    g, c, vals = psi.grid, psi.coeffs, psi.values
    quad = float(np.vdot(c, g.apply_lin(c, 0.0)).real)
    mod = vals.real ** 2
    if np.iscomplexobj(vals):
        mod += vals.imag ** 2
    return 0.5 * quad - float(g.quad(mod ** (0.5 * p))) / p


def make_perturbation(u: Field, shape: str, amplitude: float, seed: int) -> Field:
    """Real perturbation field with the given relative H amplitude; even in
    z when u is."""
    g = u.grid
    rng = np.random.default_rng(seed)
    if shape == "even_random":
        c = rng.standard_normal((g.K, g.Mz))
        # band-limit: keep the lower third of each direction
        c[g.K // 3:, :] = 0.0
        keep = np.abs(np.fft.fftfreq(g.Mz, 1.0 / g.Mz)) <= g.Mz // 6
        c[:, ~keep] = 0.0
        # real coefficients: the real part sum_m c_m cos(xi_m z) is even
        pert = Field(g, values=g.from_coeffs(c).real, real=True)
    elif shape == "ground_mode":
        c = np.zeros((g.K, g.Mz), dtype=complex)
        c[0, :] = u.coeffs[0, :]
        pert = Field(g, coeffs=c, real=True)
    elif shape == "z_dilation":
        dc = u.coeffs * (1j * g.xi[None, :])
        dz_vals = g.from_coeffs(dc).real
        pert = Field(g, values=-g.z[None, :] * dz_vals, real=True)
    else:
        raise ValueError(f"unknown perturbation shape {shape!r}")
    qp = quadratic_parts(pert)
    hn = np.sqrt(qp["kin_y"] + qp["kin_z"] + qp["trap"] + qp["l2"])
    if hn == 0.0:
        raise ValueError("degenerate perturbation")
    qu = quadratic_parts(u)
    hu = np.sqrt(qu["kin_y"] + qu["kin_z"] + qu["trap"] + qu["l2"])
    return (amplitude * hu / hn) * pert


def perturbed_state(u: Field, cfg: EvolutionConfig) -> Field:
    """Complex initial state u + perturbation, per the config."""
    psi_c = u.coeffs
    if cfg.perturbation > 0.0:
        pert = make_perturbation(u, cfg.shape, cfg.perturbation, cfg.seed)
        psi_c = psi_c + pert.coeffs
    return Field(u.grid, coeffs=psi_c, real=False)


def evolve(psi0: Field, params: ModelParams, cfg: EvolutionConfig,
           reference: Field | None = None,
           snapshot_dir=None) -> EvolutionTrace:
    """Integrate the flow and record mass, energy, and orbital distance.

    The reference (typically the ground state the run probes) is only used
    for the distance series; pass None to skip it.  With snapshot_dir set,
    the state is written in the Field snapshot format at every record point.
    psi0 is stepped on the even half grid; a start that is not even in z
    raises ShapeMismatch.  Raises StepTooLarge if the relative energy drift
    over the first few steps exceeds 1e-3.
    """
    g = psi0.grid
    if g.omega != 1.0:
        raise ShapeMismatch("time integration requires a unit-frequency grid")
    if not psi0.even_z:
        raise ShapeMismatch("time integration requires a start even in z")
    if reference is not None and not g.compatible(reference.grid):
        raise ShapeMismatch("reference on a different grid")
    if g.nr != g.K:
        # move to the collocation (square-transform) grid: same basis, same
        # coefficients, but nodal <-> spectral is unitary there, which makes
        # both split sub-steps exact L^2 isometries
        from .grid import build
        g = build(K=g.K, Mz=g.Mz, Lz=g.Lz, omega=g.omega, oversample=1)
        if reference is not None:
            reference = Field(g, coeffs=reference.coeffs, real=reference.real)
    p = params.p
    dt = cfg.dt
    n_steps = int(round(cfg.T / dt))
    ref_data = _reference_data(reference) if reference is not None else None

    c = psi0.coeffs
    state = g.from_even(np.stack([g.reduce_even(c), g.reduce_even(c.imag)]))
    angle = dt * g.lin_diag(state.shape[-1], 0.0)
    lin_cos, lin_sin = np.cos(angle), -np.sin(angle)

    def linear(state):
        coeffs = g.to_even(state)
        _turn(coeffs, lin_cos, lin_sin)
        return g.from_even(coeffs)

    def observe(state):
        # the mass and the Field of the state, through one to_even
        coeffs, vals = g.expand_even(g.to_even(state), state)
        fld = Field(g, values=vals[0] + 1j * vals[1], coeffs=coeffs[0] + 1j * coeffs[1],
                    real=False)
        return float(g.quad_even(state[0] ** 2 + state[1] ** 2)), fld

    e0 = energy_value(observe(state)[1], p)
    scale = max(abs(e0), 1.0)

    times, masses, energies, dists = [], [], [], []

    def record(step, state):
        mass, fld = observe(state)
        times.append(step * dt)
        masses.append(mass)
        energies.append(energy_value(fld, p))
        dists.append(orbital_distance_data(fld, ref_data) if ref_data else float("nan"))
        if snapshot_dir is not None:
            from .core import save_field
            save_field(fld, Path(snapshot_dir) / f"psi_{step:08d}",
                       p=p, lam=params.lam, extra={"t": step * dt})

    def rotate(state, h):
        # re + i im *= exp(i h |psi|^{p-2}) in place; cos and sin of the
        # angle cost less than a complex exp
        re, im = state
        mod = re ** 2
        mod += im ** 2
        if p != 4.0:
            mod **= 0.5 * (p - 2.0)
        mod *= h
        _turn(state, np.cos(mod), np.sin(mod))

    record(0, state)
    # a full rotation is one step's trailing half-step and the next step's
    # leading one; it is split in two only where the state is observed
    rotate(state, 0.5 * dt)
    for step in range(1, n_steps + 1):
        state = linear(state)
        recorded = step % cfg.record_every == 0 or step == n_steps
        if not recorded and step != cfg.check_first_steps:
            rotate(state, dt)
            continue
        rotate(state, 0.5 * dt)
        if recorded:
            record(step, state)
            if cfg.stop_when_distance is not None and ref_data and \
                    dists[-1] > cfg.stop_when_distance:
                break
        if step == cfg.check_first_steps:
            drift = abs(energy_value(observe(state)[1], p) - e0) / scale
            if drift > 1e-3:
                raise StepTooLarge(f"energy drift {drift:.2e} over the first {step} steps")
        rotate(state, 0.5 * dt)     # the next step's leading half-step
    return EvolutionTrace(t=np.array(times), mass=np.array(masses),
                          energy=np.array(energies), orbital_distance=np.array(dists), dt=dt)


def _turn(pair, cos, sin):
    """re + i im *= cos + i sin in place, on the real pair (re, im) of planes."""
    re, im = pair
    t = sin * im
    u = sin * re
    re *= cos
    re -= t
    im *= cos
    im += u


# -- orbital distance -------------------------------------------------------------

def _reference_data(u: Field) -> dict:
    g = u.grid
    if g.omega != 1.0:
        raise ShapeMismatch("H weights are diagonal only on unit-frequency grids")
    hw = g.lin_diag(g.Mz, 1.0)
    uc = u.coeffs
    qu = quadratic_parts(u)
    h_norm_sq = qu["kin_y"] + qu["kin_z"] + qu["trap"] + qu["l2"]
    return {"grid": g, "hw": hw, "uc": uc, "h_norm_sq": h_norm_sq}


def orbital_distance_data(psi: Field, ref: dict) -> float:
    """Distance to the orbit {e^{i theta} u(.,. - z0)} in the H metric.

    The best shift maximizes |B(z0)|, where B(z0) = sum_m b_m e^{i xi_m z0}
    is a trigonometric polynomial with b_m = sum_k hw_km psi_km conj(u_km);
    the best phase is then theta = arg B(z0).  B is evaluated at every grid
    shift at once through one FFT, and the best node is refined by Newton's
    method on d|B|^2/dz0 = 0.  The distance itself is evaluated
    directly in coefficient space,
        d^2 = sum_km hw_km |psi_km - e^{i theta} u_km e^{-i xi_m z0}|^2,
    not as ||psi||_H^2 + ||u||_H^2 - 2|B(z0)|, whose cancellation would put
    a floor of about sqrt(eps) under d.  Returned relative to ||u||_H.
    """
    g = ref["grid"]
    hw, uc = ref["hw"], ref["uc"]
    pc = psi.coeffs
    b = np.sum(hw * pc * np.conj(uc), axis=0)
    # big[j] = B(z_j): sum_m b_m e^{i xi_m z} on every node at once
    big = np.fft.ifft(g.phase * b) * g.Mz
    j0 = int(np.argmax(np.abs(big)))

    # |B| is flat to O(dz^2) at its peak, so comparing values would leave z0
    # off by up to ~sqrt(eps); Newton on the root of d|B|^2/dz, started from
    # the best node, fixes it to roundoff.  A step is taken only where |B|^2
    # is concave and the step stays within one grid spacing; if the first
    # step is refused, the node itself is kept.
    z0 = g.z[j0]
    for _ in range(NEWTON_STEPS):
        bm = b * np.exp(1j * g.xi * z0)
        bz, b1, b2 = bm.sum(), (1j * g.xi * bm).sum(), (-g.xi**2 * bm).sum()
        slope = np.real(np.conj(bz) * b1)
        curv = abs(b1) ** 2 + np.real(np.conj(bz) * b2)
        if curv >= 0.0 or abs(slope) >= -curv * g.dz:
            break
        step = slope / curv
        z0 -= step
        if abs(step) <= 1e-12 * g.dz:
            break
    theta = np.angle(np.sum(b * np.exp(1j * g.xi * z0)))
    resid = pc - np.exp(1j * theta) * uc * np.exp(-1j * g.xi * z0)[None, :]
    d2 = float(np.sum(hw * np.abs(resid) ** 2))
    return float(np.sqrt(d2 / ref["h_norm_sq"]))


def orbital_distance(psi: Field, u: Field) -> float:
    """Relative H-distance from psi to the phase/translation orbit of u."""
    if not psi.grid.compatible(u.grid):
        raise ShapeMismatch("fields on different grids")
    return orbital_distance_data(psi, _reference_data(u))
