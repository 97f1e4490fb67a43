"""Changes of variables between the physical and rescaled pictures.

For lambda < 0, with s = sqrt(|lambda|):

    v(x) = |lambda|^{-1/(p-2)} u(x/s)        (weak-trap picture, mu = 1/lambda^2)

For tau = LAMBDA0 - lambda > 0:

    w(y, z) = tau^{-1/(p-2)} u(y, z/sqrt(tau))   (stretched picture)

Both maps send the tensor grid onto a matched tensor grid exactly (radial
nodes scale with the basis frequency, axial nodes with the box), so the
default transform is a relabeling: same arrays, new grid metadata, one
amplitude factor.  No interpolation error enters, and the action/mass
equivalence factors hold to roundoff.  Resampling onto an arbitrary grid
goes through spectral evaluation of the field's real, even-in-z part,
the only part a ground-state solve reads, and zero-fills the target
beyond the source box, where the Fourier series would repeat the field.

Every solve runs in physical variables; these maps carry its results to
the limit problems for the asymptotic checks.  The far-regime solve grid
(ground_state.grid_for) is the image of the unit grid under from_v, so
to_v of a far ground state lands on the unit grid.  The grids of one
grid_for family are dilations of one another as well, so a warm start
within a family keeps its nodal values on the dilated nodes
(branch.continued_solve); resample carries a start only across a family
switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LAMBDA0, Field
from .grid import Discretization, build


@dataclass(frozen=True)
class ScalingReport:
    """Observed vs predicted equivalence factors for one transformed field."""

    picture: str
    action_in: float
    action_out: float
    mass_in: float
    mass_out: float
    predicted_action_factor: float
    predicted_mass_factor: float
    observed_action_factor: float
    observed_mass_factor: float


def action_factor_weak_trap(p: float, lam: float) -> float:
    """J_weak(v) = |lambda|^{3/2 - p/(p-2)} * J_lambda(u)."""
    return (-lam) ** (1.5 - p / (p - 2.0))

def mass_factor_weak_trap(p: float, lam: float) -> float:
    """int v^2 = |lambda|^{3/2 - 2/(p-2)} * int u^2."""
    return (-lam) ** (1.5 - 2.0 / (p - 2.0))

def action_factor_stretched(p: float, tau: float) -> float:
    """J_stretched(w) = tau^{-(1/2 + 2/(p-2))} * J_lambda(u).

    Derived by the same change of variables as the weak-trap identity;
    note -(1/2 + 2/(p-2)) = 1/2 - p/(p-2).
    """
    return tau ** (0.5 - p / (p - 2.0))

def mass_factor_stretched(p: float, tau: float) -> float:
    """int w^2 = tau^{1/2 - 2/(p-2)} * int u^2."""
    return tau ** (0.5 - 2.0 / (p - 2.0))


def _relabel(field: Field, omega_factor: float, z_factor: float, amplitude: float) -> Field:
    """Exact transform onto the matched grid, the image of the field's grid.

    Coordinate map (r, z) -> (r * rf, z * zf) with rf = omega_factor^{-1/2};
    values pick up `amplitude`, coefficients pick up
    amplitude * rf * sqrt(zf) (from the basis rescaling).
    """
    g = field.grid
    gt = build(K=g.K, Mz=g.Mz, Lz=g.Lz * z_factor, omega=g.omega * omega_factor,
               oversample=g.nr // g.K)
    return Field(gt,
                 values=amplitude * field.values if field._values is not None else None,
                 coeffs=(amplitude * omega_factor**-0.5 * np.sqrt(z_factor)) * field._coeffs
                 if field._coeffs is not None else None,
                 real=field.real)


def to_v(u: Field, lam: float, p: float) -> Field:
    """Physical field at frequency lam < 0 -> weak-trap picture."""
    if lam >= 0:
        raise ValueError("weak-trap picture needs lambda < 0")
    s = np.sqrt(-lam)
    return _relabel(u, omega_factor=1.0 / (-lam), z_factor=s,
                    amplitude=(-lam) ** (-1.0 / (p - 2.0)))


def from_v(v: Field, lam: float, p: float) -> Field:
    if lam >= 0:
        raise ValueError("weak-trap picture needs lambda < 0")
    s = np.sqrt(-lam)
    return _relabel(v, omega_factor=(-lam), z_factor=1.0 / s,
                    amplitude=(-lam) ** (1.0 / (p - 2.0)))


def to_w(u: Field, lam: float, p: float) -> Field:
    """Physical field at frequency lam < LAMBDA0 -> stretched picture."""
    tau = LAMBDA0 - lam
    if tau <= 0:
        raise ValueError("stretched picture needs lambda < LAMBDA0")
    return _relabel(u, omega_factor=1.0, z_factor=np.sqrt(tau),
                    amplitude=tau ** (-1.0 / (p - 2.0)))


def from_w(w: Field, lam: float, p: float) -> Field:
    tau = LAMBDA0 - lam
    if tau <= 0:
        raise ValueError("stretched picture needs lambda < LAMBDA0")
    return _relabel(w, omega_factor=1.0, z_factor=1.0 / np.sqrt(tau),
                    amplitude=tau ** (1.0 / (p - 2.0)))


def branch_derivative_to_v(chi: Field, lam: float, p: float) -> Field:
    """Map the frequency-derivative field into the weak-trap picture."""
    if lam >= 0:
        raise ValueError("weak-trap picture needs lambda < 0")
    s = np.sqrt(-lam)
    return _relabel(chi, omega_factor=1.0 / (-lam), z_factor=s,
                    amplitude=(-lam) ** ((p - 3.0) / (p - 2.0)))


def branch_derivative_to_w(chi: Field, lam: float, p: float) -> Field:
    """Map the frequency-derivative field into the stretched picture."""
    tau = LAMBDA0 - lam
    if tau <= 0:
        raise ValueError("stretched picture needs lambda < LAMBDA0")
    return _relabel(chi, omega_factor=1.0, z_factor=np.sqrt(tau),
                    amplitude=tau ** ((p - 3.0) / (p - 2.0)))


def resample(field: Field, target: Discretization) -> Field:
    """The real, even-in-z part of `field`, spectrally evaluated on the
    nodes of `target`: on its half grid, then expanded by reflection.
    Target nodes beyond the source box (|z| > Lz of field's grid) are zero,
    not the periodic images of the source that its Fourier series repeats."""
    src, j = field.grid, np.arange(target.Mz)
    z = target.half_values(target.z)
    half = src.evaluate_even(src.reduce_even(field.coeffs), target.r, z)
    half[:, np.abs(z) > src.Lz] = 0.0   # the last half node is z = -Lz
    return Field(target, values=half[:, np.abs(j - target.Mz // 2)], real=True)


def scaling_report(u: Field, lam: float, p: float, picture: str) -> ScalingReport:
    """Transform u and record observed vs predicted action/mass factors."""
    from . import functionals as fn
    from .core import ModelParams

    params = ModelParams(p=p, lam=lam)
    rep_u = fn.report(u, params)
    if picture == "v_mu":
        out = to_v(u, lam, p)
        act_out = fn.action_weak_trap(out, 1.0 / lam**2, p)
        pred_a = action_factor_weak_trap(p, lam)
        pred_m = mass_factor_weak_trap(p, lam)
    elif picture == "w_tau":
        tau = LAMBDA0 - lam
        out = to_w(u, lam, p)
        act_out = fn.action_stiff_plane(out, tau, p)
        pred_a = action_factor_stretched(p, tau)
        pred_m = mass_factor_stretched(p, tau)
    else:
        raise ValueError(f"unknown picture {picture!r}")
    mass_out = out.l2_norm() ** 2
    mass_in = rep_u.l2_mass
    return ScalingReport(
        picture=picture,
        action_in=rep_u.action, action_out=act_out,
        mass_in=mass_in, mass_out=mass_out,
        predicted_action_factor=pred_a, predicted_mass_factor=pred_m,
        observed_action_factor=act_out / rep_u.action if rep_u.action else np.nan,
        observed_mass_factor=mass_out / mass_in if mass_in else np.nan,
    )


