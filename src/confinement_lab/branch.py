"""Continuation of the ground-state branch and everything read off it.

The branch lambda -> u_lambda is swept with warm starts, the mass curve
M(lambda) = int u_lambda^2 recorded, and each sample classified by the
slope criterion: dM/dlambda < 0 means the standing wave is orbitally
stable, > 0 unstable, tagged by the dimensionless tau dM/dlambda / M.
The slope's primary estimator solves the linearized equation for the
frequency derivative chi = du/dlambda (one linear solve); centered
finite differences are the cross-check.  The same chi is the branch
tangent: every warm-started solve is a continued_solve from the previous
state, by the Euler predictor u + (lambda' - lambda) chi unless the grid
changes within its family, that falls back to the cold start, and the
sweep is one such chain over its sorted grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import LAMBDA0, Field, ModelParams
from .errors import (BracketNotFound, ConfinementLabError, InsufficientTail,
                     MassTooLarge, NotConverged)
from .ground_state import (COLLAPSE_MASS, FAR_SWITCH, GroundStateResult, Resolution,
                           SolverOptions, grid_for, linearized_smallest_eigs, solve_chi,
                           solve_ground_state)
from .limits import shoot_3d, soliton_1d

SLOPE_TOL = 1e-8        # |tau dM/dlambda / M| at or below this is "undetermined"
FD_DELTA = 1e-3         # half-width of the centered mass difference


@dataclass
class BranchSample:
    lam: float
    mass: float
    action: float
    slope_chi: float
    slope_fd: float          # nan when not computed
    stability: str           # "stable" | "unstable" | "undetermined"
    eig_min: float           # smallest symmetric-sector eigenvalue (nan if skipped)
    # chi = du/dlambda; not in the CSV, and a sweep drops it once the
    # next solve has its start
    tangent: Field | None = field(default=None, repr=False, compare=False)

    def row(self) -> list:
        return [self.lam, self.mass, self.action, self.slope_chi,
                self.slope_fd, self.stability, self.eig_min]


@dataclass
class BranchCurve:
    p: float
    samples: list[BranchSample] = field(default_factory=list)
    failures: list[tuple[float, ConfinementLabError]] = field(default_factory=list)

    CSV_HEADER = ["lambda", "mass", "action", "slope_chi", "slope_fd",
                  "stability", "eig_min"]

    def lambdas(self) -> np.ndarray:
        return np.array([s.lam for s in self.samples])

    def masses(self) -> np.ndarray:
        return np.array([s.mass for s in self.samples])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.CSV_HEADER)
            for s in self.samples:
                wr.writerow(s.row())


def classify_slope(log_slope: float) -> str:
    """Tag by the dimensionless slope tau (dM/dlambda) / M = -d log M / d log tau,
    of the sign of dM/dlambda but free of the mass's scale along the branch."""
    if log_slope < -SLOPE_TOL:
        return "stable"
    if log_slope > SLOPE_TOL:
        return "unstable"
    return "undetermined"


REFINE_ITERS = 500      # iteration budget of a warm-started solve


def continued_solve(params: ModelParams, warm: GroundStateResult | None, tangent: Field | None,
                    resolution: Resolution) -> GroundStateResult:
    """Continue the branch from warm to params.lam within REFINE_ITERS
    iterations, from the cold start when that fails or there is no warm state.

    Within one grid_for family (both lambda <= FAR_SWITCH, or both tau < 1)
    the grids are dilations of one another, so a start onto a new grid of
    warm's family is warm.u's nodal values on the dilated nodes, its
    amplitude left to the Nehari projection.  Otherwise it is the Euler
    predictor warm.u + (lambda - warm.lambda) * tangent (warm.u without a
    tangent), which solve_ground_state resamples across a family switch.
    """
    grid = grid_for(params, resolution)
    if warm is not None:
        src, old = warm.u.grid, warm.params
        if (not src.compatible(grid) and (src.K, src.Mz, src.nr) == (grid.K, grid.Mz, grid.nr)
                and (old.lam <= FAR_SWITCH) == (params.lam <= FAR_SWITCH)
                and (old.tau < 1.0) == (params.tau < 1.0)):
            init = Field(grid, values=warm.u.values, real=True)
        else:
            init = warm.u if tangent is None else warm.u + (params.lam - old.lam) * tangent
        try:
            return solve_ground_state(params, init=init, opts=SolverOptions(max_iter=REFINE_ITERS),
                                      grid=grid)
        except ConfinementLabError:
            pass
    return solve_ground_state(params, grid=grid)


def slope_finite_difference(p: float, lam: float,
                            resolution: Resolution = Resolution(),
                            warm: GroundStateResult | None = None) -> float:
    """Centered difference (M(lam+FD_DELTA) - M(lam-FD_DELTA)) / (2 FD_DELTA),
    both ends solved from warm.u (cold without it) on lam's own grid, so
    the discretization error of grid_for's lambda-dependent grids cancels."""
    grid, init = grid_for(ModelParams(p=p, lam=lam), resolution), warm.u if warm else None
    lo, hi = (solve_ground_state(ModelParams(p=p, lam=lam + s * FD_DELTA), init=init,
                                 grid=grid).mass for s in (-1.0, 1.0))
    return (hi - lo) / (2.0 * FD_DELTA)


def analyze_sample(result: GroundStateResult, compute_fd: bool = False,
                   compute_eig: bool = True,
                   resolution: Resolution = Resolution()) -> BranchSample:
    """Slope, stability tag, lowest sector eigenvalue and tangent of one
    state; solve_chi's error on a near-singular chi solve propagates."""
    tangent, slope = solve_chi(result)
    slope_fd = float("nan")
    if compute_fd:
        slope_fd = slope_finite_difference(result.params.p, result.params.lam,
                                           resolution=resolution, warm=result)
    eig_min = float("nan")
    if compute_eig:
        eig_min = linearized_smallest_eigs(result.problem, result.u.values, n=1)[0][0]
    return BranchSample(lam=result.params.lam, mass=result.mass, action=result.action,
                        slope_chi=slope, slope_fd=slope_fd,
                        stability=classify_slope(result.params.tau * slope / result.mass),
                        eig_min=eig_min,
                        tangent=tangent)


def default_lambda_grid(lam_min: float = -40.0, tau_min: float = 0.05) -> np.ndarray:
    """Geometric refinement toward both ends of (-inf, LAMBDA0): 10 far, 10
    middle and 8 near samples."""
    far = -np.geomspace(-lam_min, 2.0, 10)
    mid = np.linspace(-1.5, LAMBDA0 - 0.6, 10)
    near = LAMBDA0 - np.geomspace(0.5, tau_min, 8)
    grid = np.concatenate([far, mid, near])
    return np.unique(np.round(grid, 12))


def sweep(p: float, lambda_grid: Sequence[float] | None = None,
          resolution: Resolution = Resolution(),
          compute_fd: bool = False, compute_eig: bool = True) -> BranchCurve:
    """Solve along a frequency grid as one continuation chain, from the most
    negative frequency up.

    The first sample starts cold; each later one is a continued_solve from
    the last sample that succeeded, with that sample's tangent chi.  A
    sample that fails (its solve, its chi solve or its eigensolve) is kept
    in failures as (lambda, exception) and fails alone.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if not lams.size:
        raise ValueError("sweep needs at least one frequency")
    if lams[-1] >= LAMBDA0:
        raise ValueError("grid must stay below the planar spectral bottom")
    curve = BranchCurve(p=p)
    warm = tangent = None
    for lam in lams:
        try:
            result = continued_solve(ModelParams(p=p, lam=lam), warm, tangent, resolution)
            sample = analyze_sample(result, compute_fd=compute_fd, compute_eig=compute_eig,
                                    resolution=resolution)
        except ConfinementLabError as exc:
            curve.failures.append((lam, exc))
            continue
        warm, tangent, sample.tangent = result, sample.tangent, None
        curve.samples.append(sample)
    return curve


# -- asymptotic constants --------------------------------------------------------

N_TAIL = 3    # tail samples in an asymptotic fit


@dataclass(frozen=True)
class AsymptoticFit:
    regime: str
    exponent: float                 # power of |lambda| (far) or tau (near)
    parameters: np.ndarray          # |lambda| or tau per sample, ascending toward the limit
    premultiplied: np.ndarray       # factor * M(lambda) per sample
    extrapolated: float
    predicted: float                # limit-problem mass integral


def asymptotic_constants(curve: BranchCurve, regime: str) -> AsymptoticFit:
    """Premultiplied mass along the N_TAIL samples of a tail closest to
    its limit, and the limit-problem prediction.

    far:  |lambda|^{3/2 - 2/(p-2)} M(lambda) -> int vtilde^2
    near: tau^{1/2 - 2/(p-2)} M(lambda)      -> int what^2
    """
    p = curve.p
    lams = curve.lambdas()
    masses = curve.masses()
    if regime == "far":
        sel = lams < 0
        if sel.sum() < N_TAIL:
            raise InsufficientTail(f"need {N_TAIL} far samples, have {int(sel.sum())}")
        order = np.argsort(lams[sel])[:N_TAIL]          # most negative first
        par = -lams[sel][order]
        expo = 1.5 - 2.0 / (p - 2.0)
        vals = par**expo * masses[sel][order]
        predicted = shoot_3d(p, rtol=1e-10).mass
    elif regime == "near":
        tau = LAMBDA0 - lams
        order = np.argsort(tau)[:N_TAIL]                # smallest tau first
        if order.size < N_TAIL:
            raise InsufficientTail(f"need {N_TAIL} near samples")
        par = tau[order]
        expo = 0.5 - 2.0 / (p - 2.0)
        vals = par**expo * masses[order]
        predicted = soliton_1d(p).mass
    else:
        raise ValueError(f"unknown regime {regime!r}")
    # linear-in-parameter extrapolation from the two samples closest to the limit
    q1, q0 = vals[1], vals[0]
    p1, p0 = par[1], par[0]
    extrap = q0 - p0 * (q1 - q0) / (p1 - p0)
    return AsymptoticFit(regime=regime, exponent=expo, parameters=par,
                         premultiplied=vals, extrapolated=float(extrap),
                         predicted=float(predicted))


def slope_prefactor_far(p: float) -> float:
    """Limit of |lambda|^{(p-4)/(p-2) + 3/2} dM/dlambda: 2(1/(2-p) + 3/4) int vtilde^2."""
    return 2.0 * (1.0 / (2.0 - p) + 0.75) * shoot_3d(p, rtol=1e-10).mass


def slope_prefactor_near(p: float) -> float:
    """Limit of tau^{(p-4)/(p-2) + 1/2} dM/dlambda: 2(1/(2-p) + 1/4) int what^2."""
    return 2.0 * (1.0 / (2.0 - p) + 0.25) * soliton_1d(p).mass


# -- prescribed-mass pair ---------------------------------------------------------

@dataclass
class MassPair:
    c: float
    lambda_low: float
    lambda_high: float
    low: GroundStateResult
    high: GroundStateResult
    tag_low: str
    tag_high: str


MASS_MAX_ITER = 80      # solves of one tail's mass search
# The far search stops at tau = pi COLLAPSE_MASS^{-2/3}: beyond it the cold
# start exp(-omega |x|^2 / 2), of mass (pi / omega)^{3/2}, holds less than
# COLLAPSE_MASS.
FAR_TAU_MAX = math.pi * COLLAPSE_MASS ** (-2.0 / 3.0)


def _tail_mass_root(p, c, tail, x, expo, window, resolution, rel_tol):
    """The ground state with M(lambda) = c^2 on one monotone tail, from x.

    Each tail's mass follows a power law of tau = LAMBDA0 - lambda, so
    f(x) = log(M / c^2) is nearly linear in x = log tau, with slope expo.
    Until f changes sign each step follows the secant of the last two
    points (expo after the first), clamped to window, the tail's range of
    x.  A step that needs less mass beyond the window is BracketNotFound,
    unsolved; one that needs more is solved at the window's edge, and
    MassTooLarge when it needs more there too.  Inside the bracket each
    step follows the secant of the last two solves when that falls
    strictly inside, else the Illinois step on the bracket, else
    bisection.  A bracket that collapses without a root is a jump in M,
    and a tau that lambda cannot resolve (lambda rounds to LAMBDA0 or to
    the last solve's) is BracketNotFound too.
    """
    target = c * c
    warm = x1 = f1 = None           # x1, f1: the last solve
    xa = fa = xb = fb = None        # the last two solves, then the bracket
    side = 0   # Illinois damping: halve the retained end when it repeats
    for _ in range(MASS_MAX_ITER):
        tau = math.exp(x)
        lam = LAMBDA0 - tau
        if lam == LAMBDA0 or (warm is not None and lam == warm.params.lam):
            to = "LAMBDA0" if lam == LAMBDA0 else "the last solve's lambda"
            raise BracketNotFound(f"p={p:g}, c={c:g}: lambda cannot resolve the {tail}-tail "
                                  f"tau={tau:.3g}: LAMBDA0 - tau rounds to {to}, {lam!r}")
        res = warm = continued_solve(ModelParams(p=p, lam=lam), warm, None, resolution)
        if abs(res.mass - target) <= rel_tol * target:
            return res
        f = math.log(res.mass / target)
        slope = expo if x1 is None else (f - f1) / (x - x1)
        x1, f1 = x, f
        if fa is None or (fa > 0) == (fb > 0):     # not bracketed: keep the last two
            xa, fa, xb, fb = xb, fb, x, f
        elif (f > 0) == (fa > 0):
            xa, fa = x, f
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            xb, fb = x, f
            if side == +1:
                fa *= 0.5
            side = +1
        if fa is None or (fa > 0) == (fb > 0):
            # a secant of the wrong sign (M not monotone there) gives way to expo
            step = x - f / (slope if slope * expo > 0 else expo)
            x = min(max(step, window[0]), window[1])
            if f > 0 and x != step:
                raise BracketNotFound(
                    f"p={p:g}, c={c:g}: the {tail}-tail mass is {res.mass:.4g} at tau={tau:.3g}, "
                    f"and its power law puts M={target:.4g} at tau={math.exp(step):.3g}, beyond "
                    f"the search's end tau={math.exp(x):.3g}")
            if x == x1:
                raise MassTooLarge(f"target mass {target:.4g} above the {tail} tail "
                                   f"(M={res.mass:.4g} at its edge lambda={lam:.4g})")
        else:
            lo, hi = min(xa, xb), max(xa, xb)
            x = x - f / slope if slope else math.nan   # no secant: nan fails the test
            if not lo < x < hi:
                x = xb - fb * (xb - xa) / (fb - fa)
            if not lo < x < hi:
                x = 0.5 * (xa + xb)
            if not lo < x < hi:
                raise BracketNotFound(
                    f"p={p:g}, c={c:g}: the {tail}-tail mass jumps across {target:.4g} "
                    f"between lambda={LAMBDA0 - math.exp(xa)!r} and {LAMBDA0 - math.exp(xb)!r}")
    raise NotConverged(MASS_MAX_ITER, abs(res.mass - target) / target,
                       what=f"{tail}-tail mass search")


def find_mass_pair(p: float, c: float,
                   resolution: Resolution = Resolution(),
                   mass_rel_tol: float = 1e-7) -> MassPair:
    """Two ground states of prescribed L^2 norm c on opposite monotone tails.

    Requires the mass-supercritical window 10/3 < p < 6 where both tails
    of M(lambda) decay, and c small enough that the target mass c^2 lies
    below both tails' reach.  Each tail's root is sought in log tau from
    its power law (_tail_mass_root): the far tail (lambda <= 0) from
    lambda = -8 out to tau = FAR_TAU_MAX, the near tail (tau <= 1) from the tau at which the 1D
    soliton's mass law gives c^2.  The returned pair carries stability
    tags from the slope criterion: the larger frequency is the stable one.
    """
    if not (10.0 / 3.0 < p < 6.0):
        raise ValueError(f"mass pair needs 10/3 < p < 6, got p={p}")
    if c <= 0:
        raise ValueError("prescribed norm must be positive")

    # far tail: M ~ |lambda|^{2/(p-2)-3/2} int vtilde^2, increasing in lambda
    low = _tail_mass_root(p, c, "far", math.log(LAMBDA0 + 8.0), 2.0 / (p - 2.0) - 1.5,
                          (math.log(LAMBDA0), math.log(FAR_TAU_MAX)), resolution, mass_rel_tol)
    # near tail: M ~ tau^{2/(p-2)-1/2} int what^2, decreasing in lambda
    expo_near = 2.0 / (p - 2.0) - 0.5
    x_est = math.log(c * c / soliton_1d(p).mass) / expo_near
    high = _tail_mass_root(p, c, "near", min(x_est, 0.0), expo_near, (-math.inf, 0.0),
                           resolution, mass_rel_tol)
    tag_low, tag_high = (classify_slope(r.params.tau * solve_chi(r)[1] / r.mass)
                         for r in (low, high))
    return MassPair(c=c, lambda_low=low.params.lam, lambda_high=high.params.lam,
                    low=low, high=high, tag_low=tag_low, tag_high=tag_high)


# -- mass supremum scan -----------------------------------------------------------

@dataclass(frozen=True)
class MassScan:
    max_mass: float
    argmax_lambda: float
    lambda_tilde_1: float     # end of the sign-consistent far tail
    lambda_tilde_2: float     # start of the sign-consistent near tail
    action_bound: float       # analytic bound on sup ||u||_{L^2} from the action window
    interior_max: bool
    flagged: bool             # True when the window had to fall back to the tails


def mass_sup_scan(curve: BranchCurve) -> MassScan:
    """Maximum sampled mass and the action-based bound over the middle window.

    On the window [lambda~1, lambda~2] between the sign-consistent tails,
    the Nehari identity turns the action level C~ = max J into
        int u^2 <= ||u||_lambda^2 / (LAMBDA0 - lambda)
                <= (2p/(p-2)) C~ / (LAMBDA0 - lambda~2),
    so C = sqrt(2p C~ / ((p-2)(LAMBDA0 - lambda~2))) dominates the mass
    supremum there.
    """
    if not curve.samples:
        raise ValueError("empty curve")
    p = curve.p
    lams = curve.lambdas()
    masses = curve.masses()
    slopes = np.array([s.slope_chi for s in curve.samples])

    i_max = int(np.argmax(masses))
    interior = 0 < i_max < len(masses) - 1

    # last sign-consistent samples walking in from each tail
    i = 0
    while i + 1 < len(slopes) and slopes[i] > 0:
        i += 1
    j = len(slopes) - 1
    while j - 1 >= 0 and slopes[j] < 0:
        j -= 1
    tails_found = slopes[0] > 0 and slopes[-1] < 0 and i > 0 and j < len(slopes) - 1
    flagged = not (tails_found and lams[i - 1] < lams[j + 1])
    lt1, lt2 = (lams[0], lams[-1]) if flagged else (lams[i - 1], lams[j + 1])
    window = (lams >= lt1) & (lams <= lt2)
    actions = np.array([s.action for s in curve.samples])
    c_tilde = float(actions[window].max())
    denom = LAMBDA0 - lt2
    bound = np.sqrt(2.0 * p * c_tilde / ((p - 2.0) * denom)) if denom > 0 else float("inf")
    return MassScan(max_mass=float(masses[i_max]), argmax_lambda=float(lams[i_max]),
                    lambda_tilde_1=float(lt1), lambda_tilde_2=float(lt2),
                    action_bound=float(bound), interior_max=interior, flagged=flagged)
