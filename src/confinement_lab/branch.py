"""Continuation of the ground-state branch and everything read off it.

The branch lambda -> u_lambda is swept with warm starts, the mass curve
M(lambda) = int u_lambda^2 recorded, and each sample classified by the
slope criterion: dM/dlambda < 0 means the standing wave is orbitally
stable, > 0 unstable.  The slope's primary estimator solves the
linearized equation for the frequency derivative chi = du/dlambda (one
linear solve); centered finite differences are the cross-check.  The same
chi is the branch tangent, so each solve along the sweep starts from the
Euler predictor u + (lambda' - lambda) chi of the previous sample.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
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


REFINE_ITERS = 500      # warm solves above this trigger step halving
REFINE_MIN_STEP = 1e-4  # stop refining the continuation step here


def _continued_solve(p, lam, warm, tangent, resolution, opts, depth=0):
    """Solve from the Euler predictor warm.u + (lam - warm.lam) * tangent (warm.u
    without a tangent); when that struggles (fails or exceeds the iteration
    budget), first solve at the midpoint from that predictor, then from the
    bridge state alone (its grid need not match the tangent's), to |dlambda| = 1e-4."""
    params = ModelParams(p=p, lam=lam)
    init = warm.u if warm is not None else None
    if tangent is not None:
        init = init + (lam - warm.params.lam) * tangent
    try:
        result = solve_ground_state(params, init=init, resolution=resolution, opts=opts)
        if result.iterations <= REFINE_ITERS or warm is None:
            return result
    except ConfinementLabError:
        result = None
    if warm is None or abs(lam - warm.params.lam) <= REFINE_MIN_STEP or depth >= 8:
        if result is not None:
            return result
        return solve_ground_state(params, resolution=resolution, opts=opts)
    mid = 0.5 * (lam + warm.params.lam)
    bridge = _continued_solve(p, mid, warm, tangent, resolution, opts, depth + 1)
    return _continued_solve(p, lam, bridge, None, resolution, opts, depth + 1)


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


BISECT_MAX_ITER = 80    # secant steps of a mass bisection


def _bisect_mass(p, target, lam_a, lam_b, resolution, opts, rel_tol):
    """Find lam in [lam_a, lam_b] with M(lam) = target on a monotone stretch."""
    warm = [None]
    ra = _mass_at(p, lam_a, resolution, opts, warm)
    rb = _mass_at(p, lam_b, resolution, opts, warm)
    fa, fb = ra.mass - target, rb.mass - target
    if fa * fb > 0:
        if target > max(ra.mass, rb.mass):
            raise MassTooLarge(
                f"target mass {target:.4g} above the tail "
                f"(M={ra.mass:.4g} at {lam_a:.4g}, M={rb.mass:.4g} at {lam_b:.4g})")
        raise BracketNotFound(
            f"mass {target:.4g} not bracketed on [{lam_a:.4g}, {lam_b:.4g}] "
            f"(M={ra.mass:.4g}, {rb.mass:.4g})")
    best = ra if abs(fa) < abs(fb) else rb
    side = 0   # Illinois damping: halve the retained endpoint when it repeats
    for _ in range(BISECT_MAX_ITER):
        if abs(best.mass - target) <= rel_tol * target:
            return best
        lam_mid = lam_b - fb * (lam_b - lam_a) / (fb - fa) if fb != fa else \
            0.5 * (lam_a + lam_b)
        if not lam_a < lam_mid < lam_b:
            lam_mid = 0.5 * (lam_a + lam_b)
        rm = _mass_at(p, lam_mid, resolution, opts, warm)
        fm = rm.mass - target
        if abs(fm) < abs(best.mass - target):
            best = rm
        if (fm > 0) == (fa > 0):
            lam_a, fa = lam_mid, fm
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            lam_b, fb = lam_mid, fm
            if side == +1:
                fa *= 0.5
            side = +1
    raise NotConverged(BISECT_MAX_ITER, abs(best.mass - target) / target,
                       what="mass bisection")


def find_mass_pair(p: float, c: float,
                   resolution: Resolution = Resolution(),
                   opts: SolverOptions = SolverOptions(),
                   mass_rel_tol: float = 1e-7) -> MassPair:
    """Two ground states of prescribed L^2 norm c on opposite monotone tails.

    Requires the mass-supercritical window 10/3 < p < 6 where both tails
    of M(lambda) decay, and c small enough that the target mass c^2 lies
    below both tails' reach.  The returned pair carries stability tags
    from the slope criterion: the larger frequency is the stable one.
    """
    if not (10.0 / 3.0 < p < 6.0):
        raise ValueError(f"mass pair needs 10/3 < p < 6, got p={p}")
    if c <= 0:
        raise ValueError("prescribed norm must be positive")
    target = c * c

    # far tail: M ~ |lambda|^{2/(p-2)-3/2} int vtilde^2, increasing in lambda
    m3 = shoot_3d(p, rtol=1e-10).mass
    expo_far = 2.0 / (p - 2.0) - 1.5
    lam_est = -((target / m3) ** (1.0 / expo_far))
    lam_a = min(4.0 * lam_est, -8.0)
    lam_b = max(lam_est / 4.0, lam_a / 16.0)
    # near tail: M ~ tau^{2/(p-2)-1/2} int what^2, decreasing in lambda
    m1 = soliton_1d(p).mass
    expo_near = 2.0 / (p - 2.0) - 0.5
    tau_est = (target / m1) ** (1.0 / expo_near)
    tau_a, tau_b = min(4.0 * tau_est, 1.0), tau_est / 8.0

    low = _bisect_mass(p, target, lam_a, lam_b, resolution, opts, rel_tol=mass_rel_tol)
    high = _bisect_mass(p, target, LAMBDA0 - tau_a, LAMBDA0 - tau_b,
                        resolution, opts, rel_tol=mass_rel_tol)

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
