"""Scalar functionals of a field: norms, actions, residuals, gradients.

All integrals use the grid's own quadrature, so the discrete action and
the discrete gradient are exactly dual (finite differences of the action
match the gradient to roundoff, not merely to quadrature accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LAMBDA0, Field, ModelParams


@dataclass(frozen=True)
class FunctionalReport:
    """Quadratic forms and action data for one field at one frequency."""

    l2_mass: float          # int u^2
    h1_norm_sq: float       # int |grad u|^2 + u^2
    h_norm_sq: float        # int |grad u|^2 + (|y|^2 + 1) u^2
    lambda_norm_sq: float   # int |grad u|^2 + (|y|^2 - lambda) u^2
    lp_integral: float      # int |u|^p
    action: float           # lambda_norm_sq/2 - lp_integral/p
    nehari_residual: float  # lambda_norm_sq - lp_integral


def quadratic_parts(u: Field) -> dict:
    """Component integrals: l2, trap (|y|^2 weight), kin_y, kin_z."""
    g = u.grid
    c = u.coeffs
    absc2 = np.abs(c) ** 2
    l2 = float(absc2.sum())
    kin_z = float((g.xi[None, :] ** 2 * absc2).sum())
    osc = float((g.osc_eigs[:, None] * absc2).sum())  # <u,(-Lap_y + w^2|y|^2)u>
    trap = float(np.real(np.sum(np.conj(c) * g._x1_mult(c))))
    kin_y = osc - g.omega**2 * trap
    return {"l2": l2, "trap": trap, "kin_y": kin_y, "kin_z": kin_z}


def lp_integral(u: Field, p: float) -> float:
    return float(u.grid.quad(np.abs(u.values) ** p))


def report(u: Field, params: ModelParams) -> FunctionalReport:
    q = quadratic_parts(u)
    lp = lp_integral(u, params.p)
    lam_sq = q["kin_y"] + q["kin_z"] + q["trap"] - params.lam * q["l2"]
    return FunctionalReport(
        l2_mass=q["l2"],
        h1_norm_sq=q["kin_y"] + q["kin_z"] + q["l2"],
        h_norm_sq=q["kin_y"] + q["kin_z"] + q["trap"] + q["l2"],
        lambda_norm_sq=lam_sq,
        lp_integral=lp,
        action=0.5 * lam_sq - lp / params.p,
        nehari_residual=lam_sq - lp,
    )


def gradient(u: Field, params: ModelParams) -> Field:
    """L^2 gradient of the action: (-Delta + |y|^2 - lambda) u - |u|^{p-2} u."""
    g = u.grid
    lin = g.apply_lin(u.coeffs, -params.lam)
    vals = u.values
    nl = g.to_coeffs(np.abs(vals) ** (params.p - 2.0) * vals)
    return Field(g, coeffs=lin - nl, real=u.real)


def action_weak_trap(v: Field, mu: float, p: float) -> float:
    """Action of the weak-trap problem -Delta v + mu |y|^2 v + v = |v|^{p-2} v."""
    q = quadratic_parts(v)
    quad = q["kin_y"] + q["kin_z"] + mu * q["trap"] + q["l2"]
    return 0.5 * quad - lp_integral(v, p) / p


def nehari_residual_weak_trap(v: Field, mu: float, p: float) -> float:
    q = quadratic_parts(v)
    return q["kin_y"] + q["kin_z"] + mu * q["trap"] + q["l2"] - lp_integral(v, p)


def action_stiff_plane(w: Field, tau: float, p: float) -> float:
    """Action of the stretched problem
    (1/tau)(-Delta_y + |y|^2 - LAMBDA0) w - w_zz + w = |w|^{p-2} w."""
    q = quadratic_parts(w)
    osc_excess = q["kin_y"] + q["trap"] - LAMBDA0 * q["l2"]
    return (0.5 / tau) * osc_excess + 0.5 * (q["kin_z"] + q["l2"]) - lp_integral(w, p) / p


def nehari_residual_stiff_plane(w: Field, tau: float, p: float) -> float:
    q = quadratic_parts(w)
    osc_excess = q["kin_y"] + q["trap"] - LAMBDA0 * q["l2"]
    return osc_excess / tau + q["kin_z"] + q["l2"] - lp_integral(w, p)


def scaled_actions(u: Field, params: ModelParams) -> tuple[float | None, float]:
    """Actions of the two rescaled problems, evaluated on the mapped field.

    Returns (weak-trap action at mu, stretched action at tau); the first is
    None when lambda >= 0 (the weak-trap picture needs lambda < 0).
    """
    from .scaling import to_v, to_w

    jv = None
    if params.lam < 0:
        jv = action_weak_trap(to_v(u, params.lam, params.p), params.mu, params.p)
    jw = action_stiff_plane(to_w(u, params.lam, params.p), params.tau, params.p)
    return jv, jw


def pohozaev_residual(u: Field, params: ModelParams) -> float:
    """Derivative of the action along the axial dilation u_s(y,z) = u(y, z/s).

    d/ds J(u_s) at s=1 equals
        (1/2) int (|grad_y u|^2 + (|y|^2 - lambda) u^2)
      - (1/2) int |u_z|^2 - (1/p) int |u|^p,
    which vanishes on solutions; used as a convergence diagnostic
    independent of the gradient norm.
    """
    q = quadratic_parts(u)
    return (0.5 * (q["kin_y"] + q["trap"] - params.lam * q["l2"])
            - 0.5 * q["kin_z"] - lp_integral(u, params.p) / params.p)


def h_distance(a: Field, b: Field, relative: bool = True) -> float:
    """Trap-weighted H distance ||a-b||_H, relative to ||b||_H by default."""
    d = a - b
    qd = quadratic_parts(d)
    dist = np.sqrt(qd["kin_y"] + qd["kin_z"] + qd["trap"] + qd["l2"])
    if not relative:
        return float(dist)
    qb = quadratic_parts(b)
    return float(dist / np.sqrt(qb["kin_y"] + qb["kin_z"] + qb["trap"] + qb["l2"]))


def h1_distance(a: Field, b: Field, relative: bool = True) -> float:
    """H^1 distance (no trap weight), relative to ||b||_{H^1} by default."""
    d = a - b
    qd = quadratic_parts(d)
    dist = np.sqrt(qd["kin_y"] + qd["kin_z"] + qd["l2"])
    if not relative:
        return float(dist)
    qb = quadratic_parts(b)
    return float(dist / np.sqrt(qb["kin_y"] + qb["kin_z"] + qb["l2"]))
