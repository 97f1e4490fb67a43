"""Model parameters, reparametrizations, and the shared field container.

The stationary problem is

    -Delta u + (x1^2 + x2^2) u = lambda u + |u|^{p-2} u  on R^3,

with 2 < p < 6 and frequency lambda below LAMBDA0 = 2, the bottom of the
spectrum of -Delta_y + |y|^2 on the confined plane.  Two reparametrizations
index the asymptotic regimes: mu = 1/lambda^2 (valid for lambda < 0,
mu -> 0 as lambda -> -infinity) and tau = LAMBDA0 - lambda (tau -> 0 at
the dimension-reduction end).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch
from .grid import Discretization, build

# Bottom of the planar oscillator spectrum.  Fixed analytically; the
# discretization reproduces it and tests check that, but downstream
# arithmetic (tau = LAMBDA0 - lambda) always uses the exact constant.
LAMBDA0 = 2.0


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity exponent p in (2, 6) and frequency lambda < LAMBDA0."""

    p: float
    lam: float

    def __post_init__(self):
        if not 2.0 < self.p < 6.0:
            raise ValueError(f"p={self.p} outside (2, 6)")
        if not -np.inf < self.lam < LAMBDA0:
            raise ValueError(f"lambda={self.lam} must be finite and below {LAMBDA0}")

    @property
    def tau(self) -> float:
        return LAMBDA0 - self.lam

    @property
    def mu(self) -> float | None:
        if self.lam >= 0.0:
            return None
        return 1.0 / self.lam**2


class Field:
    """A scalar function on the tensor grid, with dual representations.

    Nodal values (for pointwise nonlinearities) and spectral coefficients
    (for linear operators) are computed lazily from one another and cached;
    instances are treated as immutable, so every transformation returns a
    new Field.  `real` is declared; `even_z` (reflection symmetry in the
    free axis) is measured.
    """

    __slots__ = ("grid", "real", "_values", "_coeffs")

    def __init__(self, grid: Discretization, values=None, coeffs=None, real: bool = True):
        if values is None and coeffs is None:
            raise ValueError("Field needs values or coeffs")
        self.grid = grid
        self.real = real
        if values is not None:
            values = np.asarray(values)
            if values.shape != (grid.nr, grid.Mz):
                raise ShapeMismatch(f"values shape {values.shape}")
            values = values.astype(float if real else complex, copy=True)
            values.setflags(write=False)
        if coeffs is not None:
            coeffs = np.array(coeffs, dtype=complex)
            if coeffs.shape != (grid.K, grid.Mz):
                raise ShapeMismatch(f"coeffs shape {coeffs.shape}")
            coeffs.setflags(write=False)
        self._values = values
        self._coeffs = coeffs

    # -- representations -----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = self.grid.from_coeffs(self._coeffs)
            if self.real:
                vals = vals.real
            vals.setflags(write=False)
            self._values = vals
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = self.grid.to_coeffs(self._values)
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    @property
    def even_z(self) -> bool:
        """Whether the odd-in-z part of the coefficients, (c_m - c_{-m})/2,
        is at most 1e-12 of their norm."""
        c = self.coeffs
        odd = 0.5 * (c - c[:, -np.arange(self.grid.Mz)])
        return bool(np.linalg.norm(odd) <= 1e-12 * np.linalg.norm(c))

    # -- algebra (spectral) ----------------------------------------------------

    def __add__(self, other: "Field") -> "Field":
        if not self.grid.compatible(other.grid):
            raise ShapeMismatch("fields on incompatible grids")
        return Field(self.grid, coeffs=self.coeffs + other.coeffs, real=self.real and other.real)

    def __sub__(self, other: "Field") -> "Field":
        if not self.grid.compatible(other.grid):
            raise ShapeMismatch("fields on incompatible grids")
        return Field(self.grid, coeffs=self.coeffs - other.coeffs, real=self.real and other.real)

    def __mul__(self, scalar) -> "Field":
        real = self.real and not isinstance(scalar, complex)
        return Field(self.grid, coeffs=np.asarray(scalar) * self.coeffs, real=real)

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def project_P(f: Field) -> Field:
    """Keep only the planar ground-mode component rho(z) e1(y).

    Exact in spectral space (the first radial mode IS e1), so P.P = P and
    P + Q = identity hold identically; needs a unit-frequency grid.
    """
    if f.grid.omega != 1.0:
        raise ShapeMismatch("ground-mode projector needs a unit-frequency grid")
    c = np.zeros_like(f.coeffs)
    c[0, :] = f.coeffs[0, :]
    return Field(f.grid, coeffs=c, real=f.real)


def project_Q(f: Field) -> Field:
    """Complement of the planar ground-mode projector."""
    if f.grid.omega != 1.0:
        raise ShapeMismatch("ground-mode projector needs a unit-frequency grid")
    c = f.coeffs.copy()
    c[0, :] = 0.0
    return Field(f.grid, coeffs=c, real=f.real)


# -- snapshot files -----------------------------------------------------------
#
# NAME.json holds the header; NAME.bin holds the raw little-endian nodal
# values in row-major (radial index, axial index) order.

def save_field(field: Field, prefix: str | Path, p: float | None = None,
               lam: float | None = None, extra: dict | None = None) -> Path:
    prefix = Path(prefix)
    vals = np.ascontiguousarray(field.values)
    dtype = "c128" if not field.real else "f64"
    raw = vals.astype("<c16" if not field.real else "<f8").tobytes()
    binpath = prefix.with_suffix(".bin")
    binpath.write_bytes(raw)
    header = {
        "p": p,
        "lambda": lam,
        "K": field.grid.K,
        "Mz": field.grid.Mz,
        "Lz": field.grid.Lz,
        "dtype": dtype,
        "layout": "row-major nodes (i,j)",
        "omega": field.grid.omega,
        "nr": field.grid.nr,
        "even_z": field.even_z,
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    if extra:
        header.update(extra)
    jsonpath = prefix.with_suffix(".json")
    jsonpath.write_text(json.dumps(header, indent=2, sort_keys=True))
    return jsonpath


def load_field(prefix: str | Path) -> tuple[Field, dict]:
    prefix = Path(prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    raw = prefix.with_suffix(".bin").read_bytes()
    if header.get("sha256") and hashlib.sha256(raw).hexdigest() != header["sha256"]:
        raise ValueError(f"checksum mismatch for {prefix}")
    real = header["dtype"] == "f64"
    vals = np.frombuffer(raw, dtype="<f8" if real else "<c16")
    oversample = max(header.get("nr", 2 * header["K"]) // header["K"], 1)
    grid = build(K=header["K"], Mz=header["Mz"], Lz=header["Lz"],
                 omega=header.get("omega", 1.0), oversample=oversample)
    vals = vals.reshape(grid.nr, grid.Mz)
    fld = Field(grid, values=vals, real=real)
    return fld, header
