"""Ground states by Nehari-projected gradient descent with a Newton tail.

The solver minimizes the action over the Nehari manifold, in physical
variables at every frequency, on a grid whose scale follows the state
(grid_for): far below zero frequency the radial basis frequency grows and
the axial box shrinks with |lambda|, near LAMBDA0 the box stretches so the
axial tail fits.  The Barzilai-Borwein step length is measured in the
preconditioner's metric, which makes the descent covariant under these
rescalings, so the narrow far states cost no more iterations than the
O(1) ones.

The full-space Hessian at a ground state has exactly one negative
direction in the symmetric sector, so the Newton refinement solves its
(indefinite, self-adjoint) linear systems with MINRES.  Iterates, the
Hessian (with a block product for LOBPCG) and the linearized solves all
live on the grid's real even-in-z representation (Discretization.to_even:
a DCT-I over the nodes z >= 0), which freezes the axial translation
invariance; results are expanded to the full grid once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, lobpcg, minres

from .core import Field, ModelParams
from .errors import (CollapsedToZero, EigsNotConverged, NearSingular,
                     NotCoercive, NotConverged, ZeroField)
from .grid import DEFAULT_K, DEFAULT_LZ, DEFAULT_MZ, Discretization, build
from .limits import reference_profile, soliton_1d, planar_ground_mode
from .scaling import resample

# At and below this frequency the grid takes the free-soliton scale |lambda|^{-1/2}.
FAR_SWITCH = -6.0
MAX_NEWTON = 50           # Newton steps per solve
COLLAPSE_MASS = 1e-12     # an iterate with less squared L^2 norm has collapsed


@dataclass(frozen=True)
class Resolution:
    K: int = DEFAULT_K
    Mz: int = DEFAULT_MZ
    Lz: float = DEFAULT_LZ
    oversample: int = 2


@dataclass(frozen=True)
class SolverOptions:
    tol_grad: float = 1e-9        # absolute L^2 norm of the action gradient
    tol_nehari: float = 1e-10     # relative to int |u|^p
    max_iter: int = 5000


@dataclass(frozen=True)
class StationaryProblem:
    """[-Delta + |y|^2 - lam] u = |u|^{p-2}u on the grid's even-sector
    arrays (apply_lin also takes full ones)."""

    grid: Discretization
    p: float
    lam: float

    def apply_lin(self, coeffs: np.ndarray) -> np.ndarray:
        return self.grid.apply_operator(coeffs, 1.0, 1.0, 1.0, -self.lam)

    def quadform_lin(self, coeffs: np.ndarray) -> float:
        return self.grid.quadform(coeffs, 1.0, 1.0, 1.0, -self.lam)

    def precond_diag(self) -> np.ndarray:
        g = self.grid
        d = (g.diagonal(g.Mz // 2 + 1, 1.0, 1.0, -self.lam)
             + g.tridiag_coef(1.0, 1.0) * g._x1_diag[:, None])
        return np.maximum(d, 1e-6)

    def nonlinear_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self.grid.to_even(np.abs(values) ** (self.p - 2.0) * values)

    def gradient_coeffs(self, coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self.apply_lin(coeffs) - self.nonlinear_coeffs(values)

    def lp_integral(self, values: np.ndarray) -> float:
        return float(self.grid.quad_even(np.abs(values) ** self.p))

    def action_value(self, coeffs: np.ndarray, values: np.ndarray) -> float:
        return 0.5 * self.quadform_lin(coeffs) - self.lp_integral(values) / self.p


def problem_physical(params: ModelParams, grid: Discretization) -> StationaryProblem:
    return StationaryProblem(grid=grid, p=params.p, lam=params.lam)


# -- core iteration --------------------------------------------------------------

@dataclass
class IterationResult:
    coeffs: np.ndarray      # full grid (K, Mz), real
    values: np.ndarray      # full grid (nr, Mz), real
    action: float
    grad_norm: float
    nehari_residual: float
    lp: float
    iterations: int
    converged: bool
    action_history: list


def nehari_scale_t(problem: StationaryProblem, quad: float, lp: float) -> float:
    """Unique positive scale t with t*u on the Nehari set of the problem,
    from the quadratic form and the L^p integral of u."""
    if lp <= 0.0:
        raise ZeroField("Nehari projection of a (numerically) zero field")
    if quad <= 0.0:
        raise NotCoercive("quadratic form not positive; frequency out of range")
    return (quad / lp) ** (1.0 / (problem.p - 2.0))


def _project(problem, coeffs):
    values = problem.grid.from_even(coeffs)
    t = nehari_scale_t(problem, problem.quadform_lin(coeffs), problem.lp_integral(values))
    return t * coeffs, t * values


def _sector_hessian(problem: StationaryProblem, values: np.ndarray) -> LinearOperator:
    """Hessian on flattened even-sector coefficients; the block product
    applies all columns with one transform pair."""
    g = problem.grid
    w = (problem.p - 1.0) * np.abs(values) ** (problem.p - 2.0)
    n = g.K * (g.Mz // 2 + 1)

    def mm(x):
        c = x.T.reshape(-1, g.K, g.Mz // 2 + 1)
        nodal = g.from_even(c)
        nodal *= w
        out = problem.apply_lin(c)
        out -= g.to_even(nodal)
        return out.reshape(-1, n).T

    return LinearOperator((n, n), matvec=mm, matmat=mm, dtype=float)


def _sector_precond(problem: StationaryProblem) -> LinearOperator:
    dv = problem.precond_diag().reshape(-1, 1)

    def mm(x):
        return (x.reshape(dv.size, -1) / dv).reshape(x.shape)

    return LinearOperator((dv.size, dv.size), matvec=mm, matmat=mm, dtype=float)


def iterate_ground_state(problem: StationaryProblem, coeffs0: np.ndarray,
                         opts: SolverOptions = SolverOptions()) -> IterationResult:
    """Nehari-projected preconditioned descent, then Newton refinement.

    coeffs0 is an even-sector start (see Discretization.reduce_even).
    """
    c = np.array(coeffs0, dtype=float)
    if float(np.sum(c * c)) < COLLAPSE_MASS:
        raise CollapsedToZero("initial iterate has (numerically) zero mass")
    c, un = _project(problem, c)
    J = problem.action_value(c, un)
    actions = [J]
    pre = problem.precond_diag()
    mpre = _sector_precond(problem)
    alpha = 1.0
    prev_c = prev_grad = None
    it = 0
    newton_used = 0
    newton_below = np.inf   # after a failed Newton step, descend below this first
    mode = "gradient"

    while True:
        it += 1
        grad = problem.gradient_coeffs(c, un)
        gn = float(np.sqrt(np.sum(grad * grad)))
        lp = problem.lp_integral(un)
        quad = problem.quadform_lin(c)
        res = quad - lp
        converged = gn <= opts.tol_grad and abs(res) <= opts.tol_nehari * max(lp, 1e-300)
        if converged or it > opts.max_iter:
            break
        mass = float(np.sum(c * c))
        if mass < COLLAPSE_MASS:
            raise CollapsedToZero(f"iterate mass collapsed at iteration {it}")

        # Newton only once the gradient is small relative to the state's own
        # scale, else the refinement can lock onto a nearby excited critical
        # point before the descent has relaxed the profile
        gscale = quad / np.sqrt(mass)
        if mode == "gradient" and gn < min(1e-4 * gscale, newton_below):
            mode = "newton"
        if mode == "newton":
            if newton_used >= MAX_NEWTON:
                break
            newton_used += 1
            rtol = min(0.1, np.sqrt(gn))
            delta, info = minres(_sector_hessian(problem, un), grad.ravel(), M=mpre,
                                 rtol=rtol, maxiter=400)
            step = delta.reshape(c.shape)
            ok = False
            for _ in range(8 if info == 0 else 0):   # a failed solve gives no step
                try:
                    c_try, un_try = _project(problem, c - step)
                except ZeroField:
                    step = 0.5 * step
                    continue
                grad_try = problem.gradient_coeffs(c_try, un_try)
                if float(np.sqrt(np.sum(grad_try * grad_try))) < gn:
                    c, un = c_try, un_try
                    J = problem.action_value(c, un)
                    ok = True
                    break
                step = 0.5 * step
            if not ok:
                mode = "gradient"   # Newton stalled; resume descent
                newton_below = 0.5 * gn
                alpha = 1.0
            continue

        # preconditioned Barzilai-Borwein step with backtracking; the length
        # s^T P s / s^T y is measured in the preconditioner's metric, so it
        # stays O(1) under the rescalings that grid_for applies
        direction = grad / pre
        if prev_c is not None:
            s = c - prev_c
            y = grad - prev_grad
            sy = float(np.sum(s * y))
            if sy > 0:
                alpha = float(np.sum(pre * s * s)) / sy
            alpha = float(np.clip(alpha, 1e-4, 1e4))
        prev_c, prev_grad = c, grad
        accepted = False
        a = alpha
        for _ in range(50):
            c_try, un_try = _project(problem, c - a * direction)
            J_try = problem.action_value(c_try, un_try)
            if J_try <= J + 1e-12 * abs(J):
                accepted = True
                break
            a *= 0.5
        if not accepted:
            mode = "newton"   # descent exhausted at this scale
            continue
        c, un, J = c_try, un_try, J_try
        actions.append(J)

    coeffs, values = problem.grid.expand_even(c, un)
    return IterationResult(coeffs, values, J, gn, res, lp, min(it, opts.max_iter),
                           converged, actions)


# -- public API -------------------------------------------------------------------

@dataclass
class GroundStateResult:
    u: Field
    params: ModelParams
    action: float
    mass: float
    gradient_norm: float
    nehari_residual: float
    iterations: int
    converged: bool
    problem: StationaryProblem
    action_history: list = field(default_factory=list)


def nehari_scale(u: Field, params: ModelParams) -> tuple[float, Field]:
    """Scale any field u onto the Nehari set of the physical problem at params."""
    prob = problem_physical(params, u.grid)
    lp = float(u.grid.quad(np.abs(u.values) ** prob.p))
    t = nehari_scale_t(prob, prob.quadform_lin(u.coeffs), lp)
    return t, t * u


def grid_for(params: ModelParams, resolution: Resolution = Resolution()) -> Discretization:
    """The grid for a frequency, its scale following the state's.

    Far solves (lambda <= FAR_SWITCH) take radial basis frequency |lambda|
    and an axial box shrunk by |lambda|^{-1/2}, the free-soliton scale;
    near LAMBDA0 the box stretches like tau^{-1/2} so the elongated state
    keeps a fixed box in stretched coordinates; in between the grid is the
    unit one.
    """
    omega, stretch = 1.0, 1.0
    if params.lam <= FAR_SWITCH:
        omega = -params.lam
        stretch = 1.0 / np.sqrt(omega)
    elif params.tau < 1.0:
        stretch = 1.0 / np.sqrt(params.tau)
    return build(resolution.K, resolution.Mz, resolution.Lz * stretch,
                 omega=omega, oversample=resolution.oversample)


def _starts(params: ModelParams, grid: Discretization) -> dict[str, np.ndarray]:
    """Even-sector start coefficients by name."""
    p = params.p
    out = {}
    z = grid.half_values(grid.z)   # only even functions of z are sampled
    if params.tau < 1.0:
        out["near"] = grid.reduce_even(reference_profile(params, "near", grid).coeffs)
    elif params.lam > FAR_SWITCH:
        sol = soliton_1d(p)   # factorized guess without the tau-rescale
        out["near"] = grid.to_even(np.outer(planar_ground_mode(grid), sol(z)))
    if params.lam < 0:
        out["far"] = grid.reduce_even(reference_profile(params, "far", grid).coeffs)
    # isotropic Gaussian at the grid's own radial scale
    out["gaussian"] = grid.to_even(
        np.exp(-grid.omega * (grid.r[:, None] ** 2 + z[None, :] ** 2) / 2.0))
    return out


def solve_ground_state(params: ModelParams, init: Field | str | None = None,
                       resolution: Resolution = Resolution(),
                       opts: SolverOptions = SolverOptions(),
                       grid: Discretization | None = None) -> GroundStateResult:
    """Compute the positive, even-in-z ground state at the given frequency.

    With init=None a small multi-start sweep runs (asymptotic references
    plus an isotropic Gaussian) and the least-action converged candidate
    wins, actions within 1e-12 relative counting as tied and going to the
    start with fewer iterations; pass a Field or one of
    "near"/"far"/"gaussian" to pin the start.
    """
    if grid is None:
        grid = grid_for(params, resolution)
    prob = problem_physical(params, grid)

    if isinstance(init, Field):
        if not init.grid.compatible(grid):
            init = resample(init, grid, check_tail=False)
        starts = [grid.reduce_even(init.coeffs)]
        if float(np.sum(starts[0] ** 2)) < COLLAPSE_MASS:
            raise ZeroField("init field is zero after symmetrization")
    elif isinstance(init, str):
        cands = _starts(params, grid)
        if init not in cands:
            raise ValueError(f"start {init!r} unavailable here (have {sorted(cands)})")
        starts = [cands[init]]
    else:
        starts = list(_starts(params, grid).values())

    best = None
    for c0 in starts:
        try:
            res = iterate_ground_state(prob, c0, opts)
        except (CollapsedToZero, ZeroField):
            continue
        tie = 1e-12 * abs(res.action)
        if res.converged and (best is None or res.action < best.action - tie or (
                res.action <= best.action + tie and res.iterations < best.iterations)):
            best = res
    if best is None:
        raise NotConverged(opts.max_iter, np.nan, what="ground state")

    return _package_result(params, prob, best)


def _package_result(params: ModelParams, prob: StationaryProblem,
                    res: IterationResult) -> GroundStateResult:
    vmax = float(np.abs(res.values).max())
    vmin = float(res.values.min())
    # positivity up to discretization noise: exponential tails in a
    # Gaussian-weighted basis ring at the level of the radial spectral
    # tail, so the floor is measured rather than fixed
    tail = float(np.linalg.norm(res.coeffs[-4:, :]) / np.linalg.norm(res.coeffs))
    if not vmin >= -max(1e-8, tail) * vmax:
        raise NotConverged(res.iterations, res.grad_norm,
                           what="ground state (converged to a sign-changing state)")
    u = Field(prob.grid, values=res.values, coeffs=res.coeffs,
              real=True, even_z=True, positive=True)
    return GroundStateResult(u=u, params=params, action=res.action,
                             mass=float(np.sum(res.coeffs**2)),
                             gradient_norm=res.grad_norm, nehari_residual=res.nehari_residual,
                             iterations=res.iterations, converged=res.converged,
                             problem=prob, action_history=res.action_history)


# -- linearized operator ----------------------------------------------------------

@dataclass
class LinearizedOperator:
    """Second variation of the action at a state: linear part minus
    (p-1)|u|^{p-2}; self-adjoint on L^2, restricted here to the radial,
    even-in-z sector unless applied to a full field directly."""

    problem: StationaryProblem
    base_values: np.ndarray     # nodal values of the state (real)

    @classmethod
    def at(cls, result: GroundStateResult) -> "LinearizedOperator":
        return cls(problem=result.problem, base_values=result.u.values)

    @classmethod
    def free(cls, params: ModelParams, grid: Discretization) -> "LinearizedOperator":
        prob = problem_physical(params, grid)
        return cls(problem=prob, base_values=np.zeros((grid.nr, grid.Mz)))

    def apply_field(self, f: Field) -> Field:
        prob = self.problem
        w = (prob.p - 1.0) * np.abs(self.base_values) ** (prob.p - 2.0)
        out = prob.apply_lin(f.coeffs)
        out = out - prob.grid.to_coeffs(w * f.values)
        return Field(prob.grid, coeffs=out, real=f.real, even_z=f.even_z)

    def sector_operator(self) -> LinearOperator:
        """Restriction to the even sector, on flattened even coefficients."""
        return _sector_hessian(self.problem, self.problem.grid.half_values(self.base_values))


# what a failed block or Lanczos eigensolve raises (ArpackNoConvergence included)
_EIG_ERRORS = (np.linalg.LinAlgError, ValueError, ArpackError)


def linearized_smallest_eigs(lin: LinearizedOperator, n: int = 3,
                             tol: float = 2e-7, maxiter: int = 800):
    """n smallest eigenpairs of the symmetric-sector restriction.

    Preconditioned block iteration (LOBPCG) seeded with the base state,
    which spans the single negative direction of a ground state; falls
    back to Lanczos if the block iteration fails.  Each returned pair is
    residual-checked to 1e-6 * ||phi||.
    """
    g = lin.problem.grid
    op = lin.sector_operator()
    pre = _sector_precond(lin.problem)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((op.shape[0], n))
    seed = g.to_even(g.half_values(lin.base_values)).ravel()
    if np.linalg.norm(seed) > 1e-10:
        X[:, 0] = seed
    try:
        vals, vecs = lobpcg(op, X, M=pre, largest=False, tol=tol,
                            maxiter=maxiter, verbosityLevel=0)
    except _EIG_ERRORS:
        try:
            vals, vecs = eigsh(op, k=n, which="SA", tol=1e-9, maxiter=5000)
        except _EIG_ERRORS as exc:
            raise EigsNotConverged(str(exc)) from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    out = []
    for i in range(n):
        f = Field(g, coeffs=g.expand_even(vecs[:, i].reshape(g.K, -1)), real=True, even_z=True)
        resid = lin.apply_field(f) - float(vals[i]) * f
        if resid.l2_norm() > 1e-6 * f.l2_norm():
            raise EigsNotConverged(f"eigenpair {i} residual {resid.l2_norm():.2e}")
        out.append((float(vals[i]), f))
    return out


def solve_chi(result: GroundStateResult, rtol: float = 1e-10,
              maxiter: int = 3000) -> tuple[Field, float]:
    """Solve the linearized equation L chi = u in the symmetric sector.

    Returns the frequency-derivative field chi = du/dlambda and the mass
    slope d/dlambda int u^2 = 2 int u*chi.
    """
    lin = LinearizedOperator.at(result)
    u = result.u
    g = u.grid
    rhs = g.reduce_even(u.coeffs).ravel()
    x, info = minres(lin.sector_operator(), rhs, M=_sector_precond(result.problem),
                     rtol=rtol, maxiter=maxiter)
    chi = Field(g, coeffs=g.expand_even(x.reshape(g.K, -1)), real=True, even_z=True)
    resid = (lin.apply_field(chi) - u).l2_norm()
    if resid > 1e-8 * u.l2_norm():
        raise NearSingular(f"linearized solve residual {resid:.2e} (info={info})")
    return chi, 2.0 * float(x @ rhs)
