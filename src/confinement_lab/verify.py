"""Numerical verification of the asymptotic and stability claims.

Each check returns a JSON-ready dict with measured values, predictions,
and a verdict in {"pass", "fail", "undetermined"}.  The tool never hard
fails on a verdict: thresholds for CI live in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .core import LAMBDA0, ModelParams
from .errors import NotConverged
from .functionals import h1_distance, h_distance, quadratic_parts, report
from .ground_state import Resolution, linearized_smallest_eigs, solve_ground_state
from .branch import (analyze_sample, continued_solve, default_lambda_grid,
                     mass_sup_scan, slope_prefactor_far, slope_prefactor_near, sweep)
from .limits import free_soliton_field, near_limit_field, shoot_3d, soliton_1d
from .scaling import (mass_factor_stretched, mass_factor_weak_trap, scaling_report,
                      to_v, to_w)

DIST_TOL = 0.05         # relative distance to the limit profile at the last sample
MASS_REL_TOL = 0.05     # premultiplied mass against the limit-problem mass
TAIL_FRAC = 0.10        # both tail masses below this fraction of the maximum
LAM_FAR, TAU_NEAR = -40.0, 0.05   # the two ends check_slopes probes


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def check_far_regime(p: float, lambdas, resolution=Resolution()) -> dict:
    """Rescaled states approach the free soliton; premultiplied mass approaches
    its squared L^2 norm."""
    lambdas = sorted(lambdas, reverse=True)        # toward -infinity
    if not lambdas:
        raise ValueError("far-regime check needs at least one frequency")
    prof = shoot_3d(p, rtol=1e-10)
    rows = []
    warm = None
    for lam in lambdas:
        res = warm = continued_solve(ModelParams(p=p, lam=lam), warm, None, resolution)
        vfield = to_v(res.u, lam, p)
        ref = free_soliton_field(p, vfield.grid, profile=prof)
        dist = h1_distance(vfield, ref, relative=True)
        premult = mass_factor_weak_trap(p, lam) * res.mass
        rows.append({"lambda": lam, "h1_distance_rel": dist,
                     "premultiplied_mass": premult})
    dists = [r["h1_distance_rel"] for r in rows]
    monotone = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    mass_ok = abs(rows[-1]["premultiplied_mass"] / prof.mass - 1.0) <= MASS_REL_TOL
    ok = monotone and dists[-1] <= DIST_TOL and mass_ok
    return {"check": "far_regime", "p": p, "rows": rows,
            "predicted_mass": prof.mass, "monotone_decreasing": monotone,
            "final_distance": dists[-1], "distance_tol": DIST_TOL,
            "mass_ok": mass_ok,
            "scaling_report": asdict(scaling_report(warm.u, warm.params.lam, p, "v_mu")),
            "verdict": _verdict(ok)}


def check_near_regime(p: float, taus, resolution=Resolution()) -> dict:
    """Rescaled states factorize into (planar mode) x (1D soliton)."""
    taus = sorted(taus, reverse=True)              # toward 0+
    if not taus:
        raise ValueError("near-regime check needs at least one tau")
    sol = soliton_1d(p)
    rows = []
    warm = None
    for tau in taus:
        lam = LAMBDA0 - tau
        params = ModelParams(p=p, lam=lam)
        res = warm = continued_solve(params, warm, None, resolution)
        w = to_w(res.u, lam, p)
        ref = near_limit_field(p, w.grid)
        dist = h_distance(w, ref, relative=True)
        premult = mass_factor_stretched(p, tau) * res.mass
        qw = quadratic_parts(w)
        p_part = float(np.sum(np.abs(w.coeffs[0]) ** 2))   # planar ground-mode content
        q_frac = float(np.sqrt(max(qw["l2"] - p_part, 0.0) / qw["l2"]))
        rep = report(res.u, params)
        rows.append({"tau": tau, "h_distance_rel": dist,
                     "premultiplied_mass": premult,
                     "q_fraction_l2": q_frac,
                     "u_h_norm": float(np.sqrt(rep.h_norm_sq))})
    dists = [r["h_distance_rel"] for r in rows]
    monotone = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    mass_ok = abs(rows[-1]["premultiplied_mass"] / sol.mass - 1.0) <= MASS_REL_TOL
    out = {"check": "near_regime", "p": p, "rows": rows,
           "predicted_mass": sol.mass, "monotone_decreasing": monotone,
           "final_distance": dists[-1], "distance_tol": DIST_TOL,
           "mass_ok": mass_ok,
           "scaling_report": asdict(scaling_report(warm.u, warm.params.lam, p, "w_tau"))}
    # mass-critical exponent: the scaled-mass limit constant sqrt(int |y|^2 e1^2 * int w^2)
    if abs(p - 10.0 / 3.0) < 1e-9:
        c0 = float(np.sqrt(sol.mass))      # int |y|^2 e1^2 dy = 1
        out["scaled_norm_constant"] = c0
        out["scaled_norm_measured"] = float(np.sqrt(rows[-1]["premultiplied_mass"]))
    out["verdict"] = _verdict(monotone and dists[-1] <= DIST_TOL and mass_ok)
    return out


def check_mass_bound(p: float, resolution=Resolution()) -> dict:
    """Finite interior maximum of the mass curve; both tails decay below it."""
    grid = default_lambda_grid(lam_min=-40.0, tau_min=0.01)
    curve = sweep(p, grid, resolution=resolution, compute_eig=False)
    if not curve.samples:       # every sample failed: no curve to bound
        return {"check": "mass_bound", "p": p, "n_failures": len(curve.failures),
                "verdict": "undetermined"}
    scan = mass_sup_scan(curve)
    masses = curve.masses()
    tails_ok = (masses[0] <= TAIL_FRAC * scan.max_mass
                and masses[-1] <= TAIL_FRAC * scan.max_mass)
    ok = scan.interior_max and tails_ok and not curve.failures
    return {"check": "mass_bound", "p": p,
            "max_mass": scan.max_mass, "argmax_lambda": scan.argmax_lambda,
            "far_tail_mass": float(masses[0]), "near_tail_mass": float(masses[-1]),
            "tail_fraction_required": TAIL_FRAC,
            "action_bound": scan.action_bound,
            "lambda_tilde_1": scan.lambda_tilde_1, "lambda_tilde_2": scan.lambda_tilde_2,
            "interior_max": scan.interior_max, "n_failures": len(curve.failures),
            "verdict": _verdict(ok)}


def check_slopes(p: float, resolution=Resolution()) -> dict:
    """Slope signs at both ends, slope estimator cross-validation, the sign
    of the analytic tail prefactors, and the slope criterion's hypothesis:
    exactly one negative sector eigenvalue (Morse index one)."""
    rows = []
    for lam in (LAM_FAR, LAMBDA0 - TAU_NEAR):
        params = ModelParams(p=p, lam=lam)
        res = solve_ground_state(params, resolution=resolution)
        sample = analyze_sample(res, compute_fd=True, compute_eig=False, resolution=resolution)
        eig_min, eig_second = linearized_smallest_eigs(res.problem, res.u.values, n=2).tolist()
        agree = abs(sample.slope_chi - sample.slope_fd) <= max(
            0.01 * abs(sample.slope_fd), 1e-6)
        rows.append({"lambda": lam, "slope_chi": sample.slope_chi,
                     "slope_fd": sample.slope_fd, "agree": bool(agree),
                     "eig_min": eig_min, "eig_second": eig_second,
                     "stability": sample.stability})
    pref_far = slope_prefactor_far(p)
    pref_near = slope_prefactor_near(p)
    signs_ok = rows[0]["slope_chi"] > 0 and rows[1]["slope_chi"] < 0
    pref_ok = (np.sign(pref_far) == np.sign(rows[0]["slope_chi"])
               and np.sign(pref_near) == np.sign(rows[1]["slope_chi"]))
    morse_ok = all(r["eig_min"] < 0.0 <= r["eig_second"] for r in rows)
    ok = signs_ok and pref_ok and morse_ok and all(r["agree"] for r in rows)
    return {"check": "slopes", "p": p, "rows": rows,
            "prefactor_far": pref_far, "prefactor_near": pref_near,
            "signs_ok": bool(signs_ok), "prefactors_sign_ok": bool(pref_ok),
            "morse_index_one": bool(morse_ok), "verdict": _verdict(ok)}


def run_check(theorem: str, p: float, lambdas, taus, resolution=Resolution()) -> dict:
    try:
        if theorem == "1.3":
            return check_far_regime(p, lambdas, resolution)
        if theorem == "A.3":
            return check_near_regime(p, taus, resolution)
        if theorem == "A.8":
            return check_mass_bound(p, resolution)
        if theorem == "slopes":
            return check_slopes(p, resolution)
    except NotConverged as exc:
        return {"check": theorem, "p": p, "error": str(exc), "verdict": "undetermined"}
    raise ValueError(f"unknown check {theorem!r}")
