"""Independent solvers for the two limiting profiles.

Far end (frequency -> -infinity): after rescaling, the ground state
approaches the radial solution of  -Delta v + v = v^{p-1}  in R^3,
computed here by shooting on the radial ODE.

Dimension-reduction end (frequency -> LAMBDA0): the rescaled state
factorizes into the planar Gaussian mode times the 1D soliton solving
-w'' + w = (2/p) pi^{1-p/2} w^{p-1}, which has the closed form

    w(z) = A(p) sech^{2/(p-2)}(beta z),
    A(p) = sqrt(pi) (p^2/4)^{1/(p-2)},  beta = (p-2)/2.

The closed form is cross-checked against an independent shooting solve
before it is trusted anywhere else.

Shooting brackets the peak value by doubling/halving, then finds the
threshold by Brent's method on the growing-mode coefficient B(a), which
changes sign linearly there (about ten integrations; bisection took fifty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import Field
from .errors import BisectionStalled
from .grid import Discretization

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

SHOOT_R_END = 25.0      # radius where a shot stops if no event ends it first
SPLICE_FRAC = 1e-5      # splice the exponential tail below this fraction of the peak


def sech_power_integral(s: float) -> float:
    """int_R sech^s(x) dx = sqrt(pi) Gamma(s/2) / Gamma((s+1)/2)."""
    return math.sqrt(math.pi) * math.gamma(s / 2.0) / math.gamma((s + 1.0) / 2.0)


def _check_p(p: float) -> None:
    if not 2.0 < p < 6.0:
        raise ValueError(f"p={p} outside (2, 6)")


# -- 1D soliton ----------------------------------------------------------------

@dataclass(frozen=True)
class Soliton1D:
    """Closed-form even 1D soliton of the reduced axial problem."""

    p: float
    amplitude: float    # A(p), also the peak value w(0)
    width: float        # beta = (p-2)/2

    def __call__(self, z):
        return self.amplitude * np.cosh(self.width * np.asarray(z)) ** (-2.0 / (self.p - 2.0))

    def derivative(self, z):
        z = np.asarray(z)
        g = 2.0 / (self.p - 2.0)
        return (-self.amplitude * g * self.width
                * np.cosh(self.width * z) ** (-g) * np.tanh(self.width * z))

    def ode_residual(self, z) -> np.ndarray:
        """-w'' + w - (2/p) pi^{1-p/2} w^{p-1}, analytically assembled."""
        z = np.asarray(z)
        w = self(z)
        g = 2.0 / (self.p - 2.0)
        b = self.width
        th2 = np.tanh(b * z) ** 2
        wpp = w * (g**2 * b**2 * th2 - g * b**2 * (1.0 - th2))
        coef = (2.0 / self.p) * np.pi ** (1.0 - self.p / 2.0)
        return -wpp + w - coef * w ** (self.p - 1.0)

    @property
    def mass(self) -> float:
        """int w^2 dz in closed form (8*pi at p = 4)."""
        return self.amplitude**2 * sech_power_integral(4.0 / (self.p - 2.0)) / self.width

    @property
    def grad_sq(self) -> float:
        """int (w')^2 dz in closed form."""
        g = 2.0 / (self.p - 2.0)
        b = self.width
        i1 = sech_power_integral(2.0 * g)
        i2 = sech_power_integral(2.0 * g + 2.0)
        return self.amplitude**2 * g**2 * b * (i1 - i2)


def soliton_1d(p: float) -> Soliton1D:
    _check_p(p)
    return Soliton1D(p=p, amplitude=float(np.sqrt(np.pi) * (p * p / 4.0) ** (1.0 / (p - 2.0))),
                     width=(p - 2.0) / 2.0)


# -- shooting ------------------------------------------------------------------

@dataclass
class ShotProfile:
    """Shooting solution: dense samples to z_splice, exponential tail beyond.

    The forward problem is exponentially unstable, so samples past the
    splice point are replaced by the analytic decay model; `mass` includes
    the exact tail integral.
    """

    p: float
    v0: float                     # shooting parameter (peak value)
    grid_r: np.ndarray            # sample coordinates in [0, R]
    samples: np.ndarray
    splice: float
    dimension: int                # 1 (axial problem) or 3 (free soliton)
    mass: float
    _spline: CubicSpline = field(repr=False, default=None)
    _tail_value: float = field(repr=False, default=0.0)

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        inside = x <= self.splice
        out[inside] = self._spline(x[inside])
        xo = x[~inside]
        if self.dimension == 3:
            out[~inside] = self._tail_value * (self.splice / xo) * np.exp(-(xo - self.splice))
        else:
            out[~inside] = self._tail_value * np.exp(-(xo - self.splice))
        return out

    def derivative(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        inside = x <= self.splice
        out[inside] = self._spline(x[inside], 1)
        xo = x[~inside]
        if self.dimension == 3:
            out[~inside] = -self._tail_value * self.splice * np.exp(-(xo - self.splice)) * (1.0 / xo + 1.0 / xo**2)
        else:
            out[~inside] = -self._tail_value * np.exp(-(xo - self.splice))
        return out


def _integrate(p: float, a: float, dimension: int, r_end: float, rtol: float,
               dense: bool = False):
    """Integrate the radial profile ODE from a series start near 0.

    dimension 1:  -w'' + w = c_p w^{p-1},        c_p = (2/p) pi^{1-p/2}
    dimension 3:  v'' + (2/r) v' - v + v^{p-1} = 0
    Events end the shot: crossing zero (overshoot) or a turning point
    with the value still positive (undershoot).
    """
    from scipy.integrate import solve_ivp
    cp = (2.0 / p) * np.pi ** (1.0 - p / 2.0) if dimension == 1 else 1.0
    friction = dimension - 1.0

    def rhs(r, y):
        w, dw = y
        force = w - cp * np.abs(w) ** (p - 2.0) * w
        if friction:
            force -= friction * dw / r
        return (dw, force)

    def overshoot(r, y):
        return y[0]
    overshoot.terminal = True
    overshoot.direction = -1.0

    def undershoot(r, y):
        return y[1]
    undershoot.terminal = True
    undershoot.direction = 1.0

    # two-term series start removes the friction singularity and the
    # exact zero of w' at the origin
    r0 = 1e-6
    curv = (a - cp * a ** (p - 1.0)) / (1.0 + friction)
    y0 = (a + 0.5 * curv * r0**2, curv * r0)
    return solve_ivp(rhs, (r0, r_end), y0, method="DOP853", rtol=rtol, atol=1e-14,
                     events=(overshoot, undershoot), dense_output=dense)


def _growth_coefficient(p: float, a: float, dimension: int, rtol: float) -> float:
    """Coefficient B of e^{+r} in w ~ A e^{-r} + B e^{r} (w = r v in 3D, v in 1D)
    where the shot stops: B > 0 on undershoot (turning point, or SHOOT_R_END),
    B < 0 on overshoot (zero crossing), linear in a near the threshold."""
    sol = _integrate(p, a, dimension, SHOOT_R_END, rtol)
    r = sol.t[-1]
    v, dv = sol.y[:, -1]
    w, dw = (r * v, v + r * dv) if dimension == 3 else (v, dv)
    return float(0.5 * (w + dw) * np.exp(-r))


def _threshold_amplitude(p: float, dimension: int, rtol: float) -> float:
    """Bracket the threshold amplitude by doubling/halving, then Brent on B(a)."""
    from scipy.optimize import brentq
    growth = lru_cache(None)(lambda a: _growth_coefficient(p, a, dimension, rtol))
    a = 1.0
    step = 0.5 if growth(a) < 0.0 else 2.0     # overshoot: amplitude too large
    for _ in range(200):
        if (growth(a * step) < 0.0) != (growth(a) < 0.0):
            lo, hi = sorted((a, a * step))
            break
        a *= step
    else:
        raise BisectionStalled(f"no bracket for p={p}, dimension={dimension}")
    a_star, info = brentq(growth, lo, hi, xtol=1e-12 * lo, full_output=True, disp=False)
    if not info.converged:
        raise BisectionStalled(f"root find for p={p}, dimension={dimension}: {info.flag}")
    return a_star


def _profile_from_amplitude(p: float, a_star: float, dimension: int,
                            rtol: float) -> ShotProfile:
    from scipy.interpolate import CubicSpline
    sol = _integrate(p, a_star, dimension, SHOOT_R_END, rtol, dense=True)
    stop = sol.t[-1]
    grid = np.linspace(1e-6, stop, 20001)
    vals = sol.sol(grid)[0]
    # splice where the profile has decayed far below the peak but the
    # forward error (amplified like e^{+r}) is still negligible
    target = SPLICE_FRAC * a_star
    below = np.nonzero(vals < target)[0]
    i_spl = below[0] if below.size else len(grid) - 1
    grid = grid[: i_spl + 1]
    vals = vals[: i_spl + 1]
    # prepend the exact symmetric origin value
    grid = np.concatenate(([0.0], grid))
    vals = np.concatenate(([a_star], vals))
    spline = CubicSpline(grid, vals, bc_type=((1, 0.0), "not-a-knot"))
    zs = grid[-1]
    ws = vals[-1]
    fine = np.linspace(0.0, zs, 20001)
    fv = spline(fine)
    if dimension == 3:
        body = np.trapezoid(fv**2 * fine**2, fine) * 4.0 * np.pi
        tail = 4.0 * np.pi * ws**2 * zs**2 * 0.5
    else:
        body = 2.0 * np.trapezoid(fv**2, fine)
        tail = 2.0 * ws**2 * 0.5
    prof = ShotProfile(p=p, v0=a_star, grid_r=grid, samples=vals, splice=zs,
                       dimension=dimension, mass=body + tail)
    prof._spline = spline
    prof._tail_value = ws
    return prof


@lru_cache(maxsize=32)
def shoot_1d(p: float) -> ShotProfile:
    """Independent oracle for the 1D soliton (no closed form assumed)."""
    _check_p(p)
    a_star = _threshold_amplitude(p, dimension=1, rtol=1e-12)
    return _profile_from_amplitude(p, a_star, 1, 1e-12)


@lru_cache(maxsize=32)
def shoot_3d(p: float, rtol: float = 1e-12) -> ShotProfile:
    """Radial ground state of -Delta v + v = v^{p-1} in R^3 by shooting."""
    _check_p(p)
    a_star = _threshold_amplitude(p, dimension=3, rtol=rtol)
    return _profile_from_amplitude(p, a_star, 3, rtol)


# -- limit profiles on the 3D grid ----------------------------------------------

def planar_ground_mode(grid: Discretization) -> np.ndarray:
    """Nodal values of the normalized planar Gaussian mode pi^{-1/2} e^{-r^2/2}."""
    return np.exp(-grid.r**2 / 2.0) / np.sqrt(np.pi)


def near_limit_field(p: float, grid: Discretization) -> Field:
    """The factorized limit profile e1(y) * what(z) on a stretched-picture grid."""
    sol = soliton_1d(p)
    vals = np.outer(planar_ground_mode(grid), sol(grid.z))
    return Field(grid, values=vals, real=True)


def free_soliton_field(p: float, grid: Discretization,
                       profile: ShotProfile | None = None) -> Field:
    """The 3D free soliton sampled on a weak-trap-picture grid."""
    prof = profile if profile is not None else shoot_3d(p, rtol=1e-10)
    rad = np.sqrt(grid.r[:, None] ** 2 + grid.z[None, :] ** 2)
    return Field(grid, values=prof(rad), real=True)


def profiles_to_csv(path, coord: np.ndarray, values: np.ndarray) -> None:
    """Two-column CSV (coordinate, value)."""
    arr = np.column_stack([coord, values])
    np.savetxt(path, arr, delimiter=",", header="coordinate,value", comments="")
