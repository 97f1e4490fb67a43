"""Continuation of the ground-state branch and everything read off it.

The branch lambda -> u_lambda is swept with warm starts, the mass curve
M(lambda) = int u_lambda^2 recorded, and each sample classified by the
slope criterion: dM/dlambda < 0 means the standing wave is orbitally
stable, > 0 unstable.  The slope's primary estimator solves the
linearized equation for the frequency derivative chi = du/dlambda (one
linear solve); centered finite differences are the cross-check.  The same
chi is the branch tangent, so each solve along the sweep starts from the
Euler predictor u + (lambda' - lambda) chi of the previous sample; a
predicted start that fails falls back to the cold start.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import LAMBDA0, Field, ModelParams
from .errors import (BracketNotFound, ConfinementLabError, InsufficientTail,
                     MassTooLarge, NearSingular, NotConverged)
from .ground_state import (GroundStateResult, Resolution, SolverOptions,
                           linearized_smallest_eigs, solve_chi, solve_ground_state)
from .limits import shoot_3d, soliton_1d

SLOPE_TOL = 1e-8        # |dM/dlambda| at or below this is "undetermined"
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
    # chi = du/dlambda (None on the FD fallback); not in the CSV, and
    # a sweep drops it once the next solve has its start
    tangent: Field | None = field(default=None, repr=False, compare=False)

    def row(self) -> list:
        return [self.lam, self.mass, self.action, self.slope_chi,
                self.slope_fd, self.stability, self.eig_min]


@dataclass
class BranchCurve:
    p: float
    samples: list[BranchSample] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)

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

    @classmethod
    def from_csv(cls, path, p: float = float("nan")) -> "BranchCurve":
        curve = cls(p=p)
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            for row in rd:
                curve.samples.append(BranchSample(
                    lam=float(row[0]), mass=float(row[1]), action=float(row[2]),
                    slope_chi=float(row[3]), slope_fd=float(row[4]),
                    stability=row[5], eig_min=float(row[6])))
        return curve


def classify_slope(slope: float) -> str:
    if slope < -SLOPE_TOL:
        return "stable"
    if slope > SLOPE_TOL:
        return "unstable"
    return "undetermined"


def slope_finite_difference(p: float, lam: float,
                            resolution: Resolution = Resolution(),
                            opts: SolverOptions = SolverOptions(),
                            warm: GroundStateResult | None = None) -> float:
    """Centered difference (M(lam+FD_DELTA) - M(lam-FD_DELTA)) / (2 FD_DELTA)."""
    init = warm.u if warm is not None else None
    lo = solve_ground_state(ModelParams(p=p, lam=lam - FD_DELTA), init=init,
                            resolution=resolution, opts=opts)
    hi = solve_ground_state(ModelParams(p=p, lam=lam + FD_DELTA), init=init,
                            resolution=resolution, opts=opts)
    return (hi.mass - lo.mass) / (2.0 * FD_DELTA)


def analyze_sample(result: GroundStateResult, compute_fd: bool = False,
                   compute_eig: bool = True,
                   resolution: Resolution = Resolution(),
                   opts: SolverOptions = SolverOptions()) -> BranchSample:
    """Slope, stability tag, lowest sector eigenvalue and tangent of one state."""
    try:
        tangent, slope = solve_chi(result)
    except NearSingular:
        tangent = None
        slope = slope_finite_difference(result.params.p, result.params.lam,
                                        resolution=resolution, opts=opts, warm=result)
    slope_fd = float("nan")
    if compute_fd:
        slope_fd = slope_finite_difference(result.params.p, result.params.lam,
                                           resolution=resolution, opts=opts, warm=result)
    eig_min = float("nan")
    if compute_eig:
        eig_min = linearized_smallest_eigs(result.problem, result.u.values, n=1)[0][0]
    return BranchSample(lam=result.params.lam, mass=result.mass, action=result.action,
                        slope_chi=slope, slope_fd=slope_fd,
                        stability=classify_slope(slope), eig_min=eig_min,
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
          opts: SolverOptions = SolverOptions(),
          compute_fd: bool = False, compute_eig: bool = True,
          jobs: int = 1) -> BranchCurve:
    """Solve along a frequency grid with warm starts, tails inward.

    The far tail is climbed from the most negative frequency and the near
    tail descended from the frequency closest to LAMBDA0.  Each chain
    starts a solve from the Euler predictor u + dlambda * chi of its
    previous sample (from u alone where the slope fell back to finite
    differences); with jobs >= 2 the two chains run in separate processes.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.size and lams[-1] >= LAMBDA0:
        raise ValueError("grid must stay below the planar spectral bottom")
    split = np.searchsorted(lams, 0.25)   # far/mid chain vs near chain
    chains = [list(lams[:split]), list(reversed(lams[split:]))]
    chains = [c for c in chains if c]

    args = [(p, chain, resolution, opts, compute_fd, compute_eig) for chain in chains]
    if jobs >= 2 and len(chains) >= 2:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=min(jobs, len(chains))) as ex:
            chain_results = list(ex.map(_solve_chain, args))
    else:
        chain_results = [_solve_chain(a) for a in args]

    curve = BranchCurve(p=p)
    for samples, failures in chain_results:
        curve.samples.extend(samples)
        curve.failures.extend(failures)
    curve.samples.sort(key=lambda s: s.lam)
    curve.failures.sort()
    return curve


REFINE_ITERS = 500      # iteration budget of a predicted solve


def _continued_solve(p, lam, warm, tangent, resolution, opts):
    """Solve from the Euler predictor warm.u + (lam - warm.lam) * tangent (warm.u
    without a tangent) within REFINE_ITERS iterations; when that fails, solve
    once more from the cold start, as the first sample of a chain does."""
    params = ModelParams(p=p, lam=lam)
    if warm is not None:
        init = warm.u if tangent is None else warm.u + (lam - warm.params.lam) * tangent
        budget = replace(opts, max_iter=min(opts.max_iter, REFINE_ITERS))
        try:
            return solve_ground_state(params, init=init, resolution=resolution, opts=budget)
        except ConfinementLabError:
            pass
    return solve_ground_state(params, resolution=resolution, opts=opts)


def _solve_chain(packed) -> tuple[list[BranchSample], list[tuple[float, str]]]:
    p, chain, resolution, opts, compute_fd, compute_eig = packed
    samples: list[BranchSample] = []
    failures: list[tuple[float, str]] = []
    warm = tangent = None
    for lam in chain:
        # a failed solve or analysis fails that sample alone; the next one
        # continues from the last sample that succeeded
        try:
            result = _continued_solve(p, lam, warm, tangent, resolution, opts)
            sample = analyze_sample(result, compute_fd=compute_fd, compute_eig=compute_eig,
                                    resolution=resolution, opts=opts)
        except ConfinementLabError as exc:
            failures.append((lam, repr(exc)))
            continue
        warm, tangent, sample.tangent = result, sample.tangent, None
        samples.append(sample)
    return samples, failures


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
    if len(vals) >= 2:
        q1, q0 = vals[1], vals[0]
        p1, p0 = par[1], par[0]
        extrap = q0 - p0 * (q1 - q0) / (p1 - p0)
    else:
        extrap = vals[0]
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


def _warm_ok(prev_lam: float, lam: float) -> bool:
    """Warm starts are only trustworthy across modest frequency rescalings;
    resampling a state across a large scale jump rings enough to seed the
    solver with spurious (e.g. multi-bump) critical points."""
    a, b = LAMBDA0 - prev_lam, LAMBDA0 - lam
    return 0.5 <= a / b <= 2.0


def _mass_at(p, lam, resolution, opts, warm):
    init = None
    if warm[0] is not None and _warm_ok(warm[0].params.lam, lam):
        init = warm[0].u
    res = solve_ground_state(ModelParams(p=p, lam=lam), init=init,
                             resolution=resolution, opts=opts)
    warm[0] = res
    return res


MASS_MAX_ITER = 80      # solves of one tail's mass search


def _tail_mass_root(p, c, tail, x, expo, window, resolution, opts, rel_tol):
    """The ground state with M(lambda) = c^2 on one monotone tail, from x.

    Each tail's mass follows a power law of tau = LAMBDA0 - lambda, so
    f(x) = log(M / c^2) is nearly linear in x = log tau, with slope expo.
    Until f changes sign each step follows the secant of the last two
    points (expo after the first), clamped to window, the tail's range of
    x; then Illinois on the bracket.  Reaching the window's edge is
    MassTooLarge; a bracket that collapses without a root is a jump in M,
    and a tau that lambda cannot resolve (lambda rounds to LAMBDA0 or to
    the last solve's) is BracketNotFound too.
    """
    target = c * c
    warm = [None]
    xa = fa = xb = fb = None
    side = 0   # Illinois damping: halve the retained end when it repeats
    for _ in range(MASS_MAX_ITER):
        tau = math.exp(x)
        lam = LAMBDA0 - tau
        if lam == LAMBDA0 or (warm[0] is not None and lam == warm[0].params.lam):
            to = "LAMBDA0" if lam == LAMBDA0 else "the last solve's lambda"
            raise BracketNotFound(f"p={p:g}, c={c:g}: lambda cannot resolve the {tail}-tail "
                                  f"tau={tau:.3g}: LAMBDA0 - tau rounds to {to}, {lam!r}")
        res = _mass_at(p, lam, resolution, opts, warm)
        if abs(res.mass - target) <= rel_tol * target:
            return res
        f = math.log(res.mass / target)
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
            slope = expo if fa is None else (fb - fa) / (xb - xa)
            # a secant of the wrong sign (M not monotone there) gives way to expo
            x = min(max(xb - fb / (slope if slope * expo > 0 else expo), window[0]), window[1])
            if x == xb:
                raise MassTooLarge(f"target mass {target:.4g} above the {tail} tail "
                                   f"(M={res.mass:.4g} at its edge lambda={res.params.lam:.4g})")
        else:
            x = xb - fb * (xb - xa) / (fb - fa)
            if not min(xa, xb) < x < max(xa, xb):
                x = 0.5 * (xa + xb)
            if not min(xa, xb) < x < max(xa, xb):
                raise BracketNotFound(
                    f"p={p:g}, c={c:g}: the {tail}-tail mass jumps across {target:.4g} "
                    f"between lambda={LAMBDA0 - math.exp(xa)!r} and {LAMBDA0 - math.exp(xb)!r}")
    raise NotConverged(MASS_MAX_ITER, abs(res.mass - target) / target,
                       what=f"{tail}-tail mass search")


def find_mass_pair(p: float, c: float,
                   resolution: Resolution = Resolution(),
                   opts: SolverOptions = SolverOptions(),
                   mass_rel_tol: float = 1e-7) -> MassPair:
    """Two ground states of prescribed L^2 norm c on opposite monotone tails.

    Requires the mass-supercritical window 10/3 < p < 6 where both tails
    of M(lambda) decay, and c small enough that the target mass c^2 lies
    below both tails' reach.  Each tail's root is sought in log tau from
    its power law (_tail_mass_root): the far tail (lambda <= 0) from
    lambda = -8, the near tail (tau <= 1) from the tau at which the 1D
    soliton's mass law gives c^2.  The returned pair carries stability
    tags from the slope criterion: the larger frequency is the stable one.
    """
    if not (10.0 / 3.0 < p < 6.0):
        raise ValueError(f"mass pair needs 10/3 < p < 6, got p={p}")
    if c <= 0:
        raise ValueError("prescribed norm must be positive")

    # far tail: M ~ |lambda|^{2/(p-2)-3/2} int vtilde^2, increasing in lambda
    low = _tail_mass_root(p, c, "far", math.log(LAMBDA0 + 8.0), 2.0 / (p - 2.0) - 1.5,
                          (math.log(LAMBDA0), math.inf), resolution, opts, mass_rel_tol)
    # near tail: M ~ tau^{2/(p-2)-1/2} int what^2, decreasing in lambda
    expo_near = 2.0 / (p - 2.0) - 0.5
    x_est = math.log(c * c / soliton_1d(p).mass) / expo_near
    high = _tail_mass_root(p, c, "near", min(x_est, 0.0), expo_near, (-math.inf, 0.0),
                           resolution, opts, mass_rel_tol)

    _, slope_low = solve_chi(low)
    _, slope_high = solve_chi(high)
    return MassPair(c=c, lambda_low=low.params.lam, lambda_high=high.params.lam,
                    low=low, high=high,
                    tag_low=classify_slope(slope_low), tag_high=classify_slope(slope_high))


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
    if tails_found:
        lt1 = lams[max(i - 1, 0)]
        lt2 = lams[min(j + 1, len(lams) - 1)]
    else:
        lt1, lt2 = lams[0], lams[-1]
    flagged = not tails_found or not lt1 < lt2
    if flagged:
        lt1, lt2 = lams[0], lams[-1]
    window = (lams >= lt1) & (lams <= lt2)
    actions = np.array([s.action for s in curve.samples])
    c_tilde = float(actions[window].max()) if window.any() else float(actions.max())
    denom = LAMBDA0 - lt2
    bound = np.sqrt(2.0 * p * c_tilde / ((p - 2.0) * denom)) if denom > 0 else float("inf")
    return MassScan(max_mass=float(masses[i_max]), argmax_lambda=float(lams[i_max]),
                    lambda_tilde_1=float(lt1), lambda_tilde_2=float(lt2),
                    action_bound=float(bound), interior_max=interior, flagged=flagged)
