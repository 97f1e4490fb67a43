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
is still exact Strang splitting at half the pointwise work.  A rotation
by theta takes one transcendental, t = tan(theta/2): with q = 2/(1 + t^2),
cos theta = (1 - t^2)/(1 + t^2) = q - 1 and sin theta = 2t/(1 + t^2) = q t
(no double is an odd multiple of pi/2, so t^2 cannot overflow).

The flow keeps an even state even, and the start must be even in z (as
Field.even_z measures it): the state is held on the even half grid (the
Mz/2+1 nodes z >= 0) as the real pair (Re psi, Im psi).  The multiplier
separates, so the linear step is psi <- U_r psi U_z with one nodal
propagator per axis, built once per run: U_r = (phi e^{-i dt osc}) proj
(K x K) and U_z = (fwd e^{-i dt xi^2}) inv / Mz (M x M, fwd and inv the
sqrt(w)-weighted DCT-I of grid._even_dct), applied in real GEMMs to the
pair.  Both sub-steps are L^2 isometries, so the mass drift is pure
roundoff, provided the transforms are orthonormal to roundoff.  They
are: on the collocation grid (oversample=1) Q = sqrt(wrad) phi is
square with orthonormal columns, polished in that form by
:func:`grid.build`, so U_r = W^{-1/2} Q diag(e) Q^T W^{1/2} is unitary
in the wrad-weighted norm (polishing phi alone and forming proj
afterwards left a steady mass bias of about -1e-15 per step), and the
sqrt(w)-weighted DCT-I makes U_z unitary in the wz-weighted norm of
quad_even in the same way.  A record reads the pair between its two
half-steps, and reuses what the first one computed: the rotation leaves
|psi| unchanged, so the second half-step turns by the first one's
(cos, sin), and the same |psi|^2 gives the mass and the energy's
int |psi|^p.  One to_even gives the sqrt(w)-weighted even coefficients,
from which come the energy's quadratic part and the orbital distance; a
full-grid Field is built only for a snapshot.

Orbital distance to a standing-wave orbit quotients out the global phase
(closed form) and axial translations (scan and Newton polish) in the
trap-weighted H metric, evaluated directly in coefficient space, so a
state on the orbit measures 0 to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Field, ModelParams, save_field
from .errors import ShapeMismatch, StepTooLarge
from .functionals import quadratic_parts
from .grid import Discretization, _even_dct, build

PERTURBATION_SHAPES = ("even_random", "ground_mode", "z_dilation")
NEWTON_STEPS = 8    # orbital distance: Newton steps on the best shift
ENERGY_CHECK_STEP = 10    # the step after which the energy drift is checked


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 2e-3
    T: float = 20.0
    perturbation: float = 0.0           # relative H-norm amplitude, in [0, 0.2]
    shape: str = "even_random"
    record_every: int = 10
    seed: int = 1234
    stop_when_distance: float | None = None   # early exit for escape runs

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.T < np.inf):
            raise ValueError(f"dt={self.dt} and T={self.T} must be positive and finite")
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


def energy_value(g: Discretization, coeffs: np.ndarray, mod: np.ndarray, p: float,
                 diag: np.ndarray) -> float:
    """Conserved energy (1/2) int |grad psi|^2 + |y|^2 |psi|^2 - (1/p) int |psi|^p
    of an even state, from the sqrt(w)-weighted even coefficients of
    (Re psi, Im psi) and |psi|^2 on the half grid of the unit-frequency grid
    g; diag is g.lin_diag(coeffs.shape[-1], 0), built once per run."""
    quad = float((np.square(coeffs).reshape(2, -1) @ diag.ravel()).sum())
    return 0.5 * quad - float(g.quad_even(mod ** (0.5 * p))) / p


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

    The reference (typically the ground state the run probes) gives the
    distance series; pass None to skip it.  With snapshot_dir set, the
    state is written in the Field snapshot format at every record point.
    psi0 is stepped on the even half grid; a start that is not even in z,
    or a reference that is not real and even, raises ShapeMismatch.  Raises
    StepTooLarge if the relative energy drift over the first
    ENERGY_CHECK_STEP steps exceeds 1e-3.
    """
    g = psi0.grid
    if g.omega != 1.0:
        raise ShapeMismatch("time integration requires a unit-frequency grid")
    if not psi0.even_z:
        raise ShapeMismatch("time integration requires a start even in z")
    if reference is not None and not g.compatible(reference.grid):
        raise ShapeMismatch("reference on a different grid")
    if g.nr != g.K:
        # the collocation grid: same basis and coefficients, but nodal <->
        # spectral is unitary, so both sub-steps are exact L^2 isometries
        g = build(K=g.K, Mz=g.Mz, Lz=g.Lz, omega=g.omega, oversample=1)
    p, dt = params.p, cfg.dt
    n_steps = int(round(cfg.T / dt))
    ref_data = _reference_data(reference) if reference is not None else None

    c = psi0.coeffs
    state = g.from_even(np.stack([g.reduce_even(c), g.reduce_even(c.imag)]))
    linear = _propagator(g, dt)
    diag = g.lin_diag(state.shape[-1], 0.0)
    mod = _modulus(state)
    e0 = energy_value(g, g.to_even(state), mod, p, diag)
    scale = max(abs(e0), 1.0)

    times, masses, energies, dists = [], [], [], []

    def record(step, state, mod):
        coeffs = g.to_even(state)
        times.append(step * dt)
        masses.append(float(g.quad_even(mod)))
        energies.append(energy_value(g, coeffs, mod, p, diag))
        dists.append(orbital_distance_data(coeffs, ref_data) if ref_data else float("nan"))
        if snapshot_dir is not None:
            full, vals = g.expand_even(coeffs, state)
            fld = Field(g, values=vals[0] + 1j * vals[1], coeffs=full[0] + 1j * full[1], real=False)
            save_field(fld, Path(snapshot_dir) / f"psi_{step:08d}",
                       p=p, lam=params.lam, extra={"t": step * dt})

    def rotation(t, h):
        # (cos, sin) of theta = h |psi|^{p-2} from t = |psi|^2, overwritten,
        # through tan(theta/2): one transcendental instead of a cos and a sin
        if p != 4.0:
            t **= 0.5 * (p - 2.0)
        t *= 0.5 * h
        np.tan(t, out=t)
        q = t * t
        q += 1.0
        np.divide(2.0, q, out=q)    # 2 / (1 + t^2)
        t *= q                      # sin = 2t / (1 + t^2)
        q -= 1.0                    # cos = (1 - t^2) / (1 + t^2)
        return q, t

    record(0, state, mod)
    # a full rotation is one step's trailing half-step and the next step's
    # leading one; it is split in two only where the state is observed
    _turn(state, *rotation(mod, 0.5 * dt))
    for step in range(1, n_steps + 1):
        linear(state)
        recorded = step % cfg.record_every == 0 or step == n_steps
        if not recorded and step != ENERGY_CHECK_STEP:
            _turn(state, *rotation(_modulus(state), dt))
            continue
        # |psi| is invariant under the rotation, so both half-steps turn by
        # the same angle and the observation reads the same |psi|^2
        mod = _modulus(state)
        half = rotation(mod.copy(), 0.5 * dt)
        _turn(state, *half)
        if recorded:
            record(step, state, mod)
            if cfg.stop_when_distance is not None and ref_data and \
                    dists[-1] > cfg.stop_when_distance:
                break
        if step == ENERGY_CHECK_STEP:
            energy = energies[-1] if recorded else energy_value(g, g.to_even(state), mod, p, diag)
            drift = abs(energy - e0) / scale
            if drift > 1e-3:
                raise StepTooLarge(f"energy drift {drift:.2e} over the first {step} steps")
        _turn(state, *half)     # the next step's leading half-step
    return EvolutionTrace(t=np.array(times), mass=np.array(masses),
                          energy=np.array(energies), orbital_distance=np.array(dists), dt=dt)


def _propagator(g: Discretization, dt: float):
    """The linear step psi <- U_r psi U_z, in place on the real pair of
    shape (2, K, Mz/2+1) on the collocation grid g: one radial GEMM on the
    pair's (2K, M) view, then one axial GEMM into each of its planes."""
    K, M = g.K, g.Mz // 2 + 1
    fwd, inv = _even_dct(g.Mz)
    u_r = (g.phi * np.exp(-1j * dt * g.osc_eigs)) @ g.proj
    u_z = ((fwd * np.exp(-1j * dt * g.xi[:M] ** 2)) @ inv) / g.Mz
    # [[Re U_r, -Im U_r], [Im U_r, Re U_r]] with its rows interleaved, so
    # that the (K, 2M) view of its product with the pair is [Re | Im] U_r psi
    r_block = np.stack([np.hstack([u_r.real, -u_r.imag]),
                        np.hstack([u_r.imag, u_r.real])], axis=1).reshape(2 * K, 2 * K)
    z_re, z_im = np.vstack([u_z.real, -u_z.imag]), np.vstack([u_z.imag, u_z.real])
    left = np.empty((K, 2 * M))

    def linear(state):
        np.matmul(r_block, state.reshape(2 * K, M), out=left.reshape(2 * K, M))
        np.matmul(left, z_re, out=state[0])
        np.matmul(left, z_im, out=state[1])
    return linear


def _modulus(pair):
    """|psi|^2 = re^2 + im^2 of the real pair (re, im) of planes."""
    re, im = pair
    mod = re ** 2
    mod += im ** 2
    return mod


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
    """H weights hw (raveled), even coefficients uc, hw uc, per-column and total
    squared H norms of a real, even reference u, the scan's cosines, the
    half-grid frequencies xi and the Newton series' factors [1, -xi, -xi^2]."""
    g = u.grid
    if not u.even_z or np.abs(u.coeffs.imag).max() > 1e-12 * np.abs(u.coeffs).max():
        raise ShapeMismatch("the reference must be real and even in z")
    M = g.Mz // 2 + 1
    hw = g.lin_diag(M, 1.0)
    uc = g.reduce_even(u.coeffs)
    col = np.sum(hw * uc**2, axis=0)
    xi = g.xi[:M]
    return {"grid": g, "hw": hw.ravel(), "uc": uc, "hu": hw * uc, "col": col,
            "h_norm_sq": float(col.sum()), "cos": _even_dct(g.Mz)[1] / g.sqrt_wz[:, None],
            "xi": xi, "derivs": np.stack([np.ones_like(xi), -xi, -xi**2])}


def orbital_distance_data(coeffs: np.ndarray, ref: dict) -> float:
    """Relative H-distance from an even state, given by its sqrt(w)-weighted
    even coefficients (C_re, C_im), to the orbit {e^{i theta} u(.,. - z0)}
    of ref = _reference_data(u).

    The best shift maximizes |B(z0)|, B(z0) = sum_m b_m cos(xi_m z0) with
    b_m = sum_k hw_km u_km C_km, C = C_re + i C_im, and theta = arg B(z0).
    B is even, so one cosine-matrix product scans every shift on the Mz/2+1
    half-grid nodes; _best_shift refines the best.  The distance averages
    the two axial directions of each mode,
        d^2 = (1/2) sum_{+-} sum hw |C - e^{i theta} u e^{-+i xi z0}|^2
            = sum hw (|C - e^{i theta} u cos(xi z0)|^2 + u^2 sin^2(xi z0)),
    both sums of squares taken directly.
    """
    g, xi = ref["grid"], ref["xi"]
    b2 = np.einsum("jkm,km->jm", coeffs, ref["hu"])
    scan = b2 @ ref["cos"]                  # (Re, Im) B(n dz), n = 0, ..., Mz/2
    terms = (b2[0] + 1j * b2[1]) * ref["derivs"]

    def series(z):
        cos = np.cos(xi * z)
        return terms[0] @ cos, terms[1] @ np.sin(xi * z), terms[2] @ cos

    z0, bz = _best_shift(series, g.dz * int(np.argmax(np.hypot(*scan))), g.dz)
    phase = np.exp(1j * np.angle(bz))
    shifted = np.cos(xi * z0) * ref["uc"]
    d2 = ref["col"] @ np.sin(xi * z0) ** 2
    for plane, r in zip(coeffs, (phase.real, phase.imag)):
        resid = r * shifted
        resid -= plane
        resid *= resid
        d2 += resid.ravel() @ ref["hw"]
    return float(np.sqrt(d2 / ref["h_norm_sq"]))


def orbital_distance(psi: Field, u: Field) -> float:
    """Relative H-distance from any psi to the phase/translation orbit of u,
    on the full grid: as orbital_distance_data with B(z0) = sum_m b_m
    e^{i xi_m z0}, b = sum_k hw psi conj(u), scanned by one FFT, and
    d^2 = sum hw |psi - e^{i theta} u e^{-i xi z0}|^2."""
    g = u.grid
    if not psi.grid.compatible(g):
        raise ShapeMismatch("fields on different grids")
    if g.omega != 1.0:
        raise ShapeMismatch("H weights are diagonal only on unit-frequency grids")
    hw, uc, pc = g.lin_diag(g.Mz, 1.0), u.coeffs, psi.coeffs
    b = np.sum(hw * pc * np.conj(uc), axis=0)

    def series(z):
        bm = b * np.exp(1j * g.xi * z)
        return bm.sum(), (1j * g.xi * bm).sum(), (-g.xi**2 * bm).sum()

    # np.fft.ifft(phase b) Mz is B on every node at once
    big = np.fft.ifft(g.phase * b) * g.Mz
    z0, bz = _best_shift(series, g.z[int(np.argmax(np.abs(big)))], g.dz)
    resid = pc - np.exp(1j * np.angle(bz)) * uc * np.exp(-1j * g.xi * z0)[None, :]
    return float(np.sqrt(np.sum(hw * np.abs(resid) ** 2) / np.sum(hw * np.abs(uc) ** 2)))


def _best_shift(series, z0, dz):
    """The shift near the best scan node z0 that maximizes |B|, and B there;
    series(z) = (B, B', B'')(z).

    |B| is flat to O(dz^2) at its peak, so comparing values would leave z0
    off by up to ~sqrt(eps); Newton on d|B|^2/dz = 0 fixes it to roundoff.
    A step is taken only where |B|^2 is concave and within one grid
    spacing, and none below 1e-12 dz.  The callers evaluate d directly, not
    as ||psi||_H^2 + ||u||_H^2 - 2|B(z0)|, whose cancellation would put a
    floor of about sqrt(eps) under it.
    """
    bz, b1, b2 = series(z0)
    for _ in range(NEWTON_STEPS):
        slope = np.real(np.conj(bz) * b1)
        curv = abs(b1) ** 2 + np.real(np.conj(bz) * b2)
        if curv >= 0.0 or abs(slope) >= -curv * dz:
            break
        step = slope / curv
        if abs(step) <= 1e-12 * dz:
            break
        z0 -= step
        bz, b1, b2 = series(z0)
    return z0, bz
