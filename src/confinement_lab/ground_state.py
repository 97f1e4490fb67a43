"""Ground states by Nehari-projected gradient descent with a Newton tail.

The solver minimizes the action over the Nehari manifold, in physical
variables at every frequency, on a grid whose scale follows the state
(grid_for): far below zero frequency the radial basis frequency grows and
the axial box shrinks with |lambda|, near LAMBDA0 the box stretches so the
axial tail fits.  The descent, MINRES and LOBPCG are preconditioned with
the exact inverse of the linear part: a diagonal divide on the unit grid,
fast diagonalization of its radial block on the others (precond).  LOBPCG
shifts it per column by the current Ritz value theta_j, applying
(L0 + sigma_j)^{-1} with sigma_j = max(0, -theta_j), so that it stays
positive definite (Davidson 1975; Morgan & Scott 1986).  The
Barzilai-Borwein step length is measured in the linear part's metric,
which makes the descent covariant under these rescalings, so the narrow
far states cost no more iterations than the O(1) ones, and a cold solve
needs one start: the isotropic Gaussian at the grid's own radial scale.
Each iterate costs one linear apply: the Nehari projection returns t L c,
and the gradient, <c, L c> and the step length s^T L s = s^T (L c - L c_prev)
reuse it.  The gradient norm passes at max(tol_grad, 10 eps <c, L c>/||c||):
roundoff in L c floors it near the second term for states of large amplitude.

The full-space Hessian at a ground state has exactly one negative
direction in the symmetric sector, so the Newton refinement solves its
(indefinite, self-adjoint) linear systems with MINRES.  Iterates, the
Hessian (applied in blocks by the in-repo LOBPCG) and the linearized
solves all live on the grid's real even-in-z representation
(Discretization.to_even: a DCT-I over the nodes z >= 0), which freezes the
axial translation invariance; a result is expanded to the full grid once.
The Hessian apply folds the DCT-I's scalars into its weight; LOBPCG keeps
[X, P, W] orthonormal by block Gram-Schmidt, P against X in the small basis.
The true residuals of solve_chi and the eigenpairs are checked with the
sector operator solved with (sqrt(w) weights make its norms L^2 norms);
solve_chi refines once on the true residual before it gives up.
MINRES and LOBPCG are in-repo; this module loads scipy only for ARPACK (eigsh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import Field, ModelParams
from .errors import CollapsedToZero, EigsNotConverged, NearSingular, NotCoercive, NotConverged, ZeroField
from .grid import DEFAULT_K, DEFAULT_LZ, DEFAULT_MZ, Discretization, _even_dct, build
from .scaling import resample

# At and below this frequency the grid takes the free-soliton scale |lambda|^{-1/2}.
FAR_SWITCH = -6.0
MAX_NEWTON = 50           # Newton steps per solve
COLLAPSE_MASS = 1e-12     # an iterate with less squared L^2 norm has collapsed
LOBPCG_TOL = 2e-7         # eigenpair residual 2-norm at which LOBPCG stops
TOL_NEHARI = 1e-10        # Nehari residual at which a solve stops, relative to int |u|^p
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Resolution:
    K: int = DEFAULT_K
    Mz: int = DEFAULT_MZ
    Lz: float = DEFAULT_LZ


@dataclass(frozen=True)
class SolverOptions:
    tol_grad: float = 1e-9        # absolute L^2 norm of the action gradient
    max_iter: int = 5000


@dataclass(frozen=True)
class StationaryProblem:
    """[-Delta + |y|^2 - lam] u = |u|^{p-2}u on the grid's even-sector arrays."""

    grid: Discretization
    p: float
    lam: float

    @cached_property
    def _diag(self) -> np.ndarray:
        """The linear part's even-sector diagonal."""
        return self.grid.lin_diag(self.grid.Mz // 2 + 1, -self.lam)

    def apply_lin(self, coeffs: np.ndarray) -> np.ndarray:
        return self.grid.apply_lin(coeffs, -self.lam, diag=self._diag)

    @cached_property
    def _precond_scale(self) -> np.ndarray:
        """What precond divides by, shape (K, Mz/2+1, 1): the even-sector
        diagonal of the linear part at omega = 1, else its eigenvalues
        Lambda + xi^2 - lam in the radial eigenbasis."""
        g, m = self.grid, self.grid.Mz // 2 + 1
        if g.omega == 1.0:
            return self._diag[:, :, None]
        return (g.radial_eig[0][:, None] + g.xi[None, :m] ** 2 - self.lam)[:, :, None]

    def precond(self, x: np.ndarray, shift: float | np.ndarray = 0.0) -> np.ndarray:
        """Apply (L0 + shift)^{-1}, L0 the linear part, exactly to even-sector
        coefficients of shape (K, Mz/2+1), (n,) or (n, k): a divide at
        omega = 1, else a divide between two K x K GEMMs with the radial
        eigenvectors.  shift is a scalar or, on (n, k) blocks, one
        non-negative value per column."""
        g, d = self.grid, self._precond_scale + shift
        blocks = (g.K, d.shape[1], -1)
        if g.omega == 1.0:
            return (x.reshape(blocks) / d).reshape(x.shape)
        s = g.radial_eig[1]
        y = (s.T @ x.reshape(g.K, -1)).reshape(blocks) / d
        return (s @ y.reshape(g.K, -1)).reshape(x.shape)

    def gradient(self, coeffs: np.ndarray, values: np.ndarray, lc: np.ndarray) -> tuple[np.ndarray, float, float]:
        """The action gradient L c - |u|^{p-2}u, <c, L c> and int |u|^p, from lc = L c."""
        nl = np.abs(values) ** (self.p - 2.0) * values
        return lc - self.grid.to_even(nl), float(np.vdot(coeffs, lc)), float(self.grid.quad_even(nl * values))


# -- core iteration --------------------------------------------------------------

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


def nehari_scale_t(p: float, quad: float, lp: float) -> float:
    """Unique positive scale t with t*u on the Nehari set at exponent p,
    from the quadratic form and the L^p integral of u."""
    if lp <= 0.0:
        raise ZeroField("Nehari projection of a (numerically) zero field")
    if quad <= 0.0:
        raise NotCoercive("quadratic form not positive; frequency out of range")
    return (quad / lp) ** (1.0 / (p - 2.0))


def _project(problem, coeffs):
    """t*coeffs on the Nehari set, its half-grid values, its action, which
    there is (1/2 - 1/p) t^2 <c, L c>, and t L c."""
    values, lc = problem.grid.from_even(coeffs), problem.apply_lin(coeffs)
    quad = float(np.vdot(coeffs, lc))
    t = nehari_scale_t(problem.p, quad, float(problem.grid.quad_even((values * values) ** (problem.p / 2))))
    return t * coeffs, t * values, (0.5 - 1.0 / problem.p) * t * t * quad, t * lc


@dataclass(frozen=True)
class Operator:
    """Linear map on (n,) or (n, k) arrays; what minres, lobpcg and eigsh read."""

    shape: tuple[int, int]
    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Callable[[np.ndarray], np.ndarray]
    dtype = np.dtype(float)


def _sector_hessian(problem: StationaryProblem, values: np.ndarray) -> Operator:
    """Hessian on flattened even-sector coefficients; the block product
    applies all columns with one transform pair, from_even's 1/sqrt(2 Lz)
    and to_even's sqrt(2 Lz)/Mz folded into the weight."""
    g, (fwd, inv) = problem.grid, _even_dct(problem.grid.Mz)
    w = (problem.p - 1.0) / g.Mz * np.abs(values) ** (problem.p - 2.0)
    n = g.K * (g.Mz // 2 + 1)

    def mm(x):
        c = x.T.reshape(-1, g.K, g.Mz // 2 + 1)
        nodal = g.phi @ (c @ inv)
        nodal *= w
        out = problem.apply_lin(c)
        out -= (g.proj @ nodal) @ fwd
        return out.reshape(-1, n).T.reshape(x.shape)

    return Operator((n, n), mm, mm)


def minres(A: Operator, b: np.ndarray, M: Callable[[np.ndarray], np.ndarray],
           rtol: float, maxiter: int, callback=None) -> tuple[np.ndarray, int]:
    """Solve the symmetric, possibly indefinite A x = b from x = 0 by MINRES
    (Paige & Saunders 1975), M a positive definite approximation of A^{-1}.
    Recurrences and stopping tests are scipy's (its 1 + t <= 1 is t <= eps/2).
    callback(x) runs once per iteration; info is 0, or maxiter if unconverged."""
    x, w, w2 = np.zeros(b.shape[0]), 0.0, 0.0   # no direction precedes the first
    r1, r2, y = 0.0, b, M(b)     # no Lanczos vector precedes the first
    # math.sqrt raises ValueError on a negative r^T M r: M or A is not symmetric
    beta1 = beta = oldb = phibar = math.sqrt(float(b @ y))
    if beta1 == 0.0:
        return x, 0
    dbar = epsln = tnorm2 = gmax = sn = 0.0
    gmin, cs = np.inf, -1.0
    for itn in range(1, maxiter + 1):
        v = (1.0 / beta) * y
        y = A.matvec(v) - (beta / oldb) * r1
        alfa = float(v @ y)
        r1, r2 = r2, y - (alfa / beta) * r2
        y = M(r2)
        oldb, beta = beta, math.sqrt(float(r2 @ y))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        oldeps, delta, gbar = epsln, cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        root, gamma = math.hypot(gbar, dbar), max(math.hypot(gbar, beta), EPS)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w, w2 = (v - oldeps * w2 - delta * w) * (1.0 / gamma), w
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm, ynorm = math.sqrt(tnorm2), math.sqrt(x @ x)   # anorm >= beta1 > 0
        test1 = phibar / (anorm * ynorm) if ynorm > 0.0 else np.inf  # ||r|| / (||A|| ||x||)
        if callback is not None:
            callback(x)
        if (min(test1, root / anorm) <= max(rtol, 0.5 * EPS) or gmax / gmin >= 0.1 / EPS
                or anorm * ynorm * EPS >= beta1 or (itn == 1 and beta <= 10.0 * EPS * beta1)):
            return x, 0
    return x, maxiter


def eigsh(A: Operator, *args, **kwargs):
    """ARPACK's Lanczos (scipy.sparse.linalg.eigsh), imported when called."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh
    return arpack_eigsh(A, *args, **kwargs)


def iterate_ground_state(problem: StationaryProblem, coeffs0: np.ndarray,
                         opts: SolverOptions = SolverOptions()) -> GroundStateResult:
    """Nehari-projected preconditioned descent, then Newton refinement.

    coeffs0 is an even-sector start (see Discretization.to_even).
    """
    c = np.array(coeffs0, dtype=float)
    if float(np.sum(c * c)) < COLLAPSE_MASS:
        raise CollapsedToZero("initial iterate has (numerically) zero mass")
    c, un, J, lc = _project(problem, c)
    actions = [J]
    state = problem.gradient(c, un, lc)   # (grad, quad, lp) of c
    alpha, mode = 1.0, "gradient"
    prev_c = prev_grad = prev_lc = None
    it = newton_used = 0
    newton_below = np.inf   # after a failed Newton step, descend below this first

    while True:
        it += 1
        grad, quad, lp = state
        gn = float(np.sqrt(np.sum(grad * grad)))
        res = quad - lp
        mass = float(np.sum(c * c))
        gscale = quad / np.sqrt(mass)   # <= ||L c||, whose roundoff floors ||grad|| near eps * it
        converged = (gn <= max(opts.tol_grad, 10.0 * EPS * gscale)
                     and abs(res) <= TOL_NEHARI * max(lp, 1e-300))
        if converged or it > opts.max_iter:
            break
        if mass < COLLAPSE_MASS:
            raise CollapsedToZero(f"iterate mass collapsed at iteration {it}")

        # Newton only once the gradient is small relative to the state's own
        # scale, else the refinement can lock onto a nearby excited critical
        # point before the descent has relaxed the profile
        if mode == "gradient" and gn < min(1e-4 * gscale, newton_below):
            mode = "newton"
        if mode == "newton":
            if newton_used >= MAX_NEWTON:
                break
            newton_used += 1
            delta, info = minres(_sector_hessian(problem, un), grad.ravel(), M=problem.precond,
                                 rtol=min(0.1, np.sqrt(gn)), maxiter=400)
            step = delta.reshape(c.shape)
            for _ in range(8 if info == 0 else 0):   # a failed solve gives no step
                try:
                    c_try, un_try, J_try, lc_try = _project(problem, c - step)
                except ZeroField:
                    step = 0.5 * step
                    continue
                trial = problem.gradient(c_try, un_try, lc_try)
                if float(np.sqrt(np.sum(trial[0] * trial[0]))) < gn:
                    c, un, J, lc, state = c_try, un_try, J_try, lc_try, trial
                    break
                step = 0.5 * step
            else:
                mode = "gradient"   # Newton stalled; resume descent
                newton_below = 0.5 * gn
                alpha = 1.0
            continue

        # preconditioned Barzilai-Borwein step with backtracking; the length
        # s^T L0 s / s^T y is measured in the metric of the linear part L0,
        # whose inverse preconditions, so it stays O(1) under the
        # rescalings that grid_for applies; L0 s = L0 c - L0 c_prev
        direction = problem.precond(grad)
        if prev_c is not None:
            s = c - prev_c
            y = grad - prev_grad
            sy = float(np.vdot(s, y))
            if sy > 0:
                alpha = float(np.vdot(s, lc - prev_lc)) / sy
            alpha = float(np.clip(alpha, 1e-4, 1e4))
        prev_c, prev_grad, prev_lc = c, grad, lc
        a = alpha
        for _ in range(50):
            c_try, un_try, J_try, lc_try = _project(problem, c - a * direction)
            if J_try <= J + 1e-12 * abs(J):
                break
            a *= 0.5
        else:
            mode = "newton"   # descent exhausted at this scale
            continue
        c, un, J, lc = c_try, un_try, J_try, lc_try
        state = problem.gradient(c, un, lc)
        actions.append(J)

    coeffs, values = problem.grid.expand_even(c, un)
    u = Field(problem.grid, values=values, coeffs=coeffs, real=True)
    return GroundStateResult(u=u, params=ModelParams(problem.p, problem.lam), action=J,
                             mass=float(np.sum(coeffs**2)), gradient_norm=gn,
                             nehari_residual=res, iterations=min(it, opts.max_iter),
                             converged=converged, problem=problem, action_history=actions)


# -- public API -------------------------------------------------------------------

def nehari_scale(u: Field, params: ModelParams) -> tuple[float, Field]:
    """Scale any field u onto the Nehari set of the physical problem at params."""
    quad = float(np.real(np.vdot(u.coeffs, u.grid.apply_lin(u.coeffs, -params.lam))))
    t = nehari_scale_t(params.p, quad, float(u.grid.quad(np.abs(u.values) ** params.p)))
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
    return build(resolution.K, resolution.Mz, resolution.Lz * stretch, omega=omega)


def solve_ground_state(params: ModelParams, init: Field | None = None,
                       resolution: Resolution = Resolution(),
                       opts: SolverOptions = SolverOptions(),
                       grid: Discretization | None = None) -> GroundStateResult:
    """Compute the positive, even-in-z ground state at the given frequency.

    With init=None the solve starts from the isotropic Gaussian
    exp(-omega (r^2 + z^2) / 2) at the grid's own radial scale; a Field
    start is reduced to its even sector, after a resample onto the grid
    (zero beyond its own axial box) when its grid is not compatible: a
    start continued within a grid family arrives relabeled onto the grid
    (branch.continued_solve), so only one across a family switch is
    resampled.  One start is run: a start of (numerically) zero mass raises
    CollapsedToZero, one that does not converge or lands on a
    sign-changing state NotConverged.
    """
    if grid is None:
        grid = grid_for(params, resolution)
    if init is None:
        z = grid.half_values(grid.z)   # only even functions of z are sampled
        c0 = grid.to_even(np.exp(-grid.omega * (grid.r[:, None] ** 2 + z[None, :] ** 2) / 2.0))
    else:
        if not init.grid.compatible(grid):
            init = resample(init, grid)
        c0 = grid.reduce_even(init.coeffs)
    res = iterate_ground_state(StationaryProblem(grid, params.p, params.lam), c0, opts)
    if not res.converged:
        raise NotConverged(res.iterations, res.gradient_norm, what="ground state")
    # positivity up to discretization noise: exponential tails in a
    # Gaussian-weighted basis ring at the level of the spectral tail, so the
    # floor is measured rather than fixed: the larger of the four highest
    # radial modes and the four highest axial wavenumbers
    values, c = res.u.values, grid.reduce_even(res.u.coeffs)
    tail = float(max(np.linalg.norm(c[-4:, :]), np.linalg.norm(c[:, -4:])) / np.linalg.norm(c))
    if not float(values.min()) >= -max(1e-8, tail) * float(np.abs(values).max()):
        raise NotConverged(res.iterations, res.gradient_norm,
                           what="ground state (converged to a sign-changing state)")
    return res


# -- linearization at a ground state ---------------------------------------------

def _orthonormalize(W: np.ndarray, Q: np.ndarray | None = None) -> None:
    """Make the columns of W orthonormal, and orthogonal to the orthonormal
    columns of Q, in place: two block Gram-Schmidt passes, then a division
    by the norm (a QR factorization for more than one column)."""
    for _ in range(0 if Q is None else 2):
        W -= Q @ (Q.T @ W)
    if W.shape[1] == 1:
        norm = math.sqrt(W[:, 0] @ W[:, 0])
    else:
        W[...], R = np.linalg.qr(W)
        norm = np.abs(np.diagonal(R)).min()
    if not norm > 0.0:
        raise np.linalg.LinAlgError("LOBPCG search block lost rank")
    if W.shape[1] == 1:
        W /= norm


def lobpcg(A: Operator, X: np.ndarray, M: Callable[[np.ndarray], np.ndarray],
           maxiter: int = 800) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenpairs of the symmetric A by block LOBPCG (Knyazev 2001),
    one per column of the start X: Rayleigh-Ritz on the orthonormal basis
    [X, P, W], W = M(R, shifts), with one A apply (to W) per iteration;
    raises EigsNotConverged unless every ||A x - theta x|| <= LOBPCG_TOL by
    maxiter.  M(R, shifts) is called on the residuals R of the active
    columns with shifts[j] = max(0, -theta_j) >= 0 from column j's current
    Ritz value, and must be positive definite for every such shift
    (StationaryProblem.precond applies (L0 + shifts[j])^{-1} to column j)."""
    N, n = X.shape
    # the basis S stacked over A S; each Ritz update is written to the other array
    B, B_next = np.empty((2 * N, 3 * n), order="F"), np.empty((2 * N, 3 * n), order="F")
    S, AS = B[:N], B[N:]
    S[:, :n] = X
    _orthonormalize(S[:, :n])
    AS[:, :n] = A.matmat(S[:, :n])
    k, pick = n, np.arange(n)     # columns of S in use; the Ritz vectors the next X and P take
    for it in range(maxiter + 1):
        G = S[:, :k].T @ AS[:, :k]
        vals, C = np.linalg.eigh(0.5 * (G + G.T))
        # next X: the Ritz vectors; next P: the P and W parts of those that
        # were active, made orthonormal to them here (Hetmaniuk & Lehoucq 2006)
        C2, p = C[:, pick], len(pick) - n
        C2[:n, n:] = 0.0
        if p:
            _orthonormalize(C2[:, n:], C2[:, :n])
        np.matmul(B[:, :k], C2, out=B_next[:, :n + p])
        B, B_next = B_next, B
        S, AS = B[:N], B[N:]
        R = AS[:, :n] - S[:, :n] * vals[:n]
        rnorm = np.sqrt(np.einsum("ij,ij->j", R, R))
        active = rnorm > LOBPCG_TOL     # converged columns get no new directions
        if not active.any():
            return vals[:n], S[:, :n].copy()
        if it < maxiter:
            pick = np.concatenate((pick[:n], np.flatnonzero(active)))
            k = p + len(pick)
            S[:, n + p:k] = M(R[:, active], np.maximum(0.0, -vals[:n][active]))
            _orthonormalize(S[:, n + p:k], S[:, :n + p])
            AS[:, n + p:k] = A.matmat(S[:, n + p:k])
    raise EigsNotConverged(f"LOBPCG residual {rnorm.max():.2e} after {maxiter} iterations")


def linearized_smallest_eigs(problem: StationaryProblem, values: np.ndarray, n: int, maxiter: int = 800):
    """The n smallest eigenvalues, ascending, of the second variation of the
    action at the real, even state with full-grid nodal values `values`,
    restricted to the symmetric sector: the linear part minus (p-1)|u|^{p-2}.

    lobpcg started from the state, which spans the single negative
    direction of a ground state; falls back to Lanczos if it fails or does
    not converge.  Each eigenpair is residual-checked to 1e-6 * ||phi||.
    """
    g, half = problem.grid, problem.grid.half_values(values)
    op = _sector_hessian(problem, half)
    X = seed = g.to_even(half).reshape(-1, 1)
    if n > 1 or not np.linalg.norm(seed) > 1e-10:   # random columns beside the state, or for a zero one
        X = np.random.default_rng(0).standard_normal((op.shape[0], n))
        if np.linalg.norm(seed) > 1e-10:
            X[:, :1] = seed
    try:
        vals, vecs = lobpcg(op, X, M=problem.precond, maxiter=maxiter)
    except (EigsNotConverged, np.linalg.LinAlgError):
        from scipy.sparse.linalg import ArpackError
        try:
            vals, vecs = eigsh(op, k=n, which="SA", tol=1e-9, maxiter=5000)
        except (np.linalg.LinAlgError, ValueError, ArpackError) as exc:
            raise EigsNotConverged(str(exc)) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    resid = np.linalg.norm(op.matmat(vecs) - vecs * vals, axis=0)
    bad = np.flatnonzero(resid > 1e-6 * np.linalg.norm(vecs, axis=0))
    if bad.size:
        raise EigsNotConverged(f"eigenpair {bad[0]} residual {resid[bad[0]]:.2e}")
    return vals


def solve_chi(result: GroundStateResult, rtol: float = 1e-10, maxiter: int = 3000) -> tuple[Field, float]:
    """Solve the linearized equation L chi = u in the symmetric sector.

    Returns the frequency-derivative field chi = du/dlambda and the mass
    slope d/dlambda int u^2 = 2 int u*chi.
    """
    g = result.u.grid
    op = _sector_hessian(result.problem, g.half_values(result.u.values))
    rhs = g.reduce_even(result.u.coeffs).ravel()
    x, info = minres(op, rhs, M=result.problem.precond, rtol=rtol, maxiter=maxiter)
    bound, r = 1e-8 * np.linalg.norm(rhs), rhs - op.matvec(x)
    if np.linalg.norm(r) > bound:   # MINRES stops on a preconditioned estimate; refine once
        x = x + minres(op, r, M=result.problem.precond, rtol=rtol, maxiter=maxiter)[0]
        r = rhs - op.matvec(x)
    resid = float(np.linalg.norm(r))
    if resid > bound:
        raise NearSingular(f"linearized solve residual {resid:.2e} (info={info})")
    chi = Field(g, coeffs=g.expand_even(x.reshape(g.K, -1)), real=True)
    return chi, 2.0 * float(x @ rhs)
