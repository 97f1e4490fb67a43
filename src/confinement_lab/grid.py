"""Spectral discretization of cylindrically symmetric fields on R^3.

The confined plane is represented in the eigenbasis of the 2D radial
harmonic oscillator -Delta_y + omega^2 |y|^2 (angular momentum zero):

    phi_k(y) = sqrt(omega/pi) * L_k(omega |y|^2) * exp(-omega |y|^2 / 2),
    eigenvalue omega * (4k + 2),

orthonormal in L^2(R^2).  The free axis z lives on a periodic box
[-Lz, Lz) with the orthonormal Fourier basis exp(i xi_m z) / sqrt(2 Lz),
xi_m = pi m / Lz.  Radial quadrature is Gauss-Laguerre in t = omega r^2,
oversampled relative to the mode count so that products of basis
functions (and mild nonlinearities) integrate accurately.

With omega = 1 the physical trap operator -Delta_y + |y|^2 is diagonal
(multiplier 4k + 2) and the planar ground mode is exactly the first
basis function.  For omega != 1 the same operator is symmetric
tridiagonal in the mode index; this is used to represent fields whose
radial scale is far from the trap scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import dct, fft, ifft
from scipy.linalg import cholesky, eigh_tridiagonal, solve_banded, solve_triangular

from .errors import GramCheckFailed, ShapeMismatch, SingularMode

GRAM_TOL = 1e-10

# Default resolution: adequate for frequencies in [-40, 2) at quartic
# nonlinearity; the axial box is rescaled per run where needed.
DEFAULT_K = 48
DEFAULT_MZ = 256
DEFAULT_LZ = 24.0


def gauss_laguerre_scaled(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes t_i and scaled weights w_i * exp(t_i).

    Weights are computed entirely through exponentially scaled Laguerre
    polynomials l_k(t) = L_k(t) exp(-t/2), so no overflow/underflow
    occurs even for large n.
    """
    k = np.arange(n)
    nodes = eigh_tridiagonal(2.0 * k + 1.0, np.arange(1, n, dtype=float), eigvals_only=True)
    t = nodes
    # w_i = t_i / ((n+1)^2 L_{n+1}(t_i)^2)  =>  w_i e^{t_i} = t_i / ((n+1)^2 l_{n+1}(t_i)^2)
    lkm1 = np.exp(-t / 2.0)
    lk = (1.0 - t) * lkm1
    for j in range(1, n + 1):
        lkm1, lk = lk, ((2.0 * j + 1.0 - t) * lk - j * lkm1) / (j + 1.0)
    wbar = t / ((n + 1.0) ** 2 * lk**2)
    return t, wbar


def scaled_laguerre(t: np.ndarray, K: int) -> np.ndarray:
    """Matrix l_k(t_i) = L_k(t_i) exp(-t_i/2) for k < K, by recurrence."""
    out = np.empty((len(t), K))
    out[:, 0] = np.exp(-t / 2.0)
    if K > 1:
        out[:, 1] = (1.0 - t) * out[:, 0]
    for k in range(1, K - 1):
        out[:, k + 1] = ((2.0 * k + 1.0 - t) * out[:, k] - k * out[:, k - 1]) / (k + 1.0)
    return out


@dataclass
class Discretization:
    """Immutable spectral grid; build through :func:`build`."""

    K: int
    Mz: int
    Lz: float
    omega: float
    nr: int
    t: np.ndarray          # Laguerre nodes in t = omega r^2, shape (nr,)
    r: np.ndarray          # radial nodes, shape (nr,)
    wrad: np.ndarray       # radial quadrature weights for int_{R^2} f dy
    z: np.ndarray          # axial nodes, shape (Mz,)
    dz: float
    xi: np.ndarray         # axial wavenumbers pi*m/Lz in FFT order
    osc_eigs: np.ndarray   # omega*(4k+2): eigenvalues of -Delta_y + omega^2 |y|^2
    phi: np.ndarray        # basis values phi_k(r_i), shape (nr, K)
    proj: np.ndarray       # wrad-weighted projector, shape (K, nr)
    phase: np.ndarray = field(repr=False, default=None)
    wz: np.ndarray = field(repr=False, default=None)      # even-sector weights (1, 2, ..., 2, 1)
    sqrt_wz: np.ndarray = field(repr=False, default=None)
    _x1_diag: np.ndarray = field(repr=False, default=None)
    _x1_off: np.ndarray = field(repr=False, default=None)

    # -- transforms ---------------------------------------------------------

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Nodal samples (nr, Mz) -> spectral coefficients (K, Mz)."""
        if values.shape != (self.nr, self.Mz):
            raise ShapeMismatch(f"values shape {values.shape} != {(self.nr, self.Mz)}")
        radial = self.proj @ values
        return (np.sqrt(2.0 * self.Lz) / self.Mz) * self.phase * fft(radial, axis=1)

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Spectral coefficients (K, Mz) -> nodal samples (nr, Mz), complex."""
        if coeffs.shape != (self.K, self.Mz):
            raise ShapeMismatch(f"coeffs shape {coeffs.shape} != {(self.K, self.Mz)}")
        axial = ifft(self.phase * coeffs, axis=1) * (self.Mz / np.sqrt(2.0 * self.Lz))
        return self.phi @ axial

    def quad(self, values: np.ndarray) -> float | complex:
        """Integral over R^3 of a nodally sampled function."""
        return (self.wrad @ values).sum() * self.dz

    # -- even-in-z real sector ----------------------------------------------
    # For real fields even in z the full-grid FFT reduces to a DCT-I over the
    # half grid, the Mz/2+1 nodes z = n dz >= 0, with real coefficients
    # c_{-m} = c_m.  They are kept sqrt(w)-weighted, w = (1, 2, ..., 2, 1), so
    # Euclidean sums over (..., K, Mz/2+1) equal full-grid sums.  Any leading
    # batch axes work.

    def to_even(self, values: np.ndarray) -> np.ndarray:
        """Half-grid nodal samples -> sqrt(w)-weighted even coefficients."""
        out = dct(self.proj @ values, type=1, axis=-1, overwrite_x=True)
        out *= (self.dz / np.sqrt(2.0 * self.Lz)) * self.sqrt_wz
        return out

    def from_even(self, coeffs: np.ndarray) -> np.ndarray:
        """sqrt(w)-weighted even coefficients -> half-grid nodal samples."""
        axial = coeffs / (self.sqrt_wz * np.sqrt(2.0 * self.Lz))
        return self.phi @ dct(axial, type=1, axis=-1, overwrite_x=True)

    def quad_even(self, values: np.ndarray) -> float | np.ndarray:
        """Integral over R^3 of an even function sampled on the half grid."""
        return ((self.wrad @ values) @ self.wz) * self.dz

    def half_values(self, values: np.ndarray) -> np.ndarray:
        """Full-grid nodal values -> the half grid (node 0, z = -Lz, is the
        periodic image of z = Lz)."""
        return np.roll(values, -(self.Mz // 2), axis=-1)[..., : self.Mz // 2 + 1]

    def reduce_even(self, coeffs: np.ndarray) -> np.ndarray:
        """Full-grid coefficients -> even-sector coefficients of their
        orthogonal projection onto real, even-in-z fields."""
        half = self.Mz // 2
        c = coeffs.real
        return self.sqrt_wz * 0.5 * (c[..., : half + 1] + c[..., -np.arange(half + 1)])

    def expand_even(self, coeffs: np.ndarray, values: np.ndarray | None = None):
        """Even-sector coefficients (and half-grid values) -> full grid."""
        j = np.arange(self.Mz)
        full = (coeffs / self.sqrt_wz)[..., np.minimum(j, self.Mz - j)]
        if values is None:
            return full
        return full, values[..., np.abs(j - self.Mz // 2)]

    # -- linear operators ---------------------------------------------------

    def tridiag_coef(self, a: float, b_trap: float) -> float:
        """Coupling strength of a*(-Delta_y) + b_trap*|y|^2 onto the stored
        |y|^2 tridiagonal: a*(-Delta_y) + b_trap*|y|^2
        = a*diag(osc_eigs) + (b_trap - a*omega^2) * X."""
        return b_trap - a * self.omega**2

    def diagonal(self, ncols: int, kin_y: float, kin_z: float, const: float) -> np.ndarray:
        """kin_y*osc_eigs + kin_z*xi^2 + const on Mz (full) or Mz/2+1 (even
        sector: |xi| of the first Mz/2+1 FFT-order modes) axial columns."""
        return kin_y * self.osc_eigs[:, None] + kin_z * self.xi[None, :ncols] ** 2 + const

    def apply_operator(self, coeffs: np.ndarray, kin_y: float, trap: float,
                       kin_z: float, const: float) -> np.ndarray:
        """Apply kin_y*(-Delta_y) + trap*|y|^2 + kin_z*(-d_zz) + const.

        Diagonal when trap == kin_y * omega^2; otherwise the radial part
        picks up the symmetric tridiagonal matrix of |y|^2.
        """
        out = self.diagonal(coeffs.shape[-1], kin_y, kin_z, const) * coeffs
        gamma = self.tridiag_coef(kin_y, trap)
        if gamma != 0.0:
            out += gamma * self._x1_mult(coeffs)
        return out

    def _x1_mult(self, coeffs: np.ndarray) -> np.ndarray:
        """Multiply by the (tridiagonal) matrix of |y|^2 in this basis."""
        out = self._x1_diag[:, None] * coeffs
        out[..., :-1, :] += self._x1_off[:, None] * coeffs[..., 1:, :]
        out[..., 1:, :] += self._x1_off[:, None] * coeffs[..., :-1, :]
        return out

    def quadform(self, coeffs: np.ndarray, kin_y: float, trap: float,
                 kin_z: float, const: float) -> float:
        """<u, A u> for the same operator family (real part)."""
        au = self.apply_operator(coeffs, kin_y, trap, kin_z, const)
        return float(np.real(np.sum(np.conj(coeffs) * au)))

    def solve_operator(self, coeffs: np.ndarray, kin_y: float, trap: float,
                       kin_z: float, const: float) -> np.ndarray:
        """Invert the same operator family on the retained modes."""
        diag = self.diagonal(self.Mz, kin_y, kin_z, const)
        gamma = self.tridiag_coef(kin_y, trap)
        if gamma == 0.0:
            scale = np.abs(diag).max()
            bad = np.abs(diag) <= 1e-12 * scale
            if bad.any():
                content = np.abs(coeffs) > 1e-13 * max(np.abs(coeffs).max(), 1e-300)
                hit = bad & content
                if hit.any():
                    k, m = np.argwhere(hit)[0]
                    raise SingularMode(int(k), int(m))
                out = np.zeros_like(coeffs)
                ok = ~bad
                out[ok] = coeffs[ok] / diag[ok]
                return out
            return coeffs / diag
        out = np.empty_like(coeffs, dtype=complex)
        band = np.zeros((3, self.K))
        band[0, 1:] = gamma * self._x1_off
        band[2, :-1] = gamma * self._x1_off
        for m in range(self.Mz):
            band[1, :] = diag[:, m] + gamma * self._x1_diag
            out[:, m] = solve_banded((1, 1), band, coeffs[:, m])
        return out

    # -- pointwise evaluation ------------------------------------------------

    def evaluate(self, coeffs: np.ndarray, r_pts: np.ndarray, z_pts: np.ndarray) -> np.ndarray:
        """Evaluate the spectral expansion on the tensor grid r_pts x z_pts."""
        r_pts = np.atleast_1d(np.asarray(r_pts, dtype=float))
        z_pts = np.atleast_1d(np.asarray(z_pts, dtype=float))
        tp = self.omega * r_pts**2
        basis_r = scaled_laguerre(tp, self.K) * np.sqrt(self.omega / np.pi)
        ez = np.exp(1j * np.outer(z_pts, self.xi)) / np.sqrt(2.0 * self.Lz)
        return basis_r @ coeffs @ ez.T

    # -- misc ----------------------------------------------------------------

    def even_reflection_index(self) -> np.ndarray:
        """Node permutation j -> j' realizing z -> -z on the periodic grid."""
        j = np.arange(self.Mz)
        return (self.Mz - j) % self.Mz

    def h_weights(self) -> np.ndarray:
        """Diagonal weights of the trap-weighted H inner product (omega == 1)."""
        if self.omega != 1.0:
            raise ShapeMismatch("H weights are diagonal only on unit-frequency grids")
        return self.diagonal(self.Mz, 1.0, 1.0, 1.0)

    def compatible(self, other: "Discretization") -> bool:
        return (self.K == other.K and self.Mz == other.Mz
                and self.Lz == other.Lz and self.omega == other.omega)


@lru_cache(maxsize=64)
def build(K: int = DEFAULT_K, Mz: int = DEFAULT_MZ, Lz: float = DEFAULT_LZ,
          omega: float = 1.0, oversample: int = 2) -> Discretization:
    """Construct a discretization and verify quadrature orthonormality.

    Requires K >= 4, even Mz >= 8, Lz > 0.  The radial rule uses
    oversample*K Gauss-Laguerre nodes so that basis products integrate
    exactly and pointwise nonlinearities alias weakly.
    """
    if K < 4:
        raise ValueError(f"K={K} below minimum mode count 4")
    if Mz < 8 or Mz % 2 != 0:
        raise ValueError(f"Mz={Mz} must be even and >= 8")
    if Lz <= 0:
        raise ValueError("Lz must be positive")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    # oversample=1 gives a square (unitary) transform: K Gauss-Laguerre
    # nodes still integrate basis products exactly, and nodal <-> spectral
    # becomes a bijection, which the time integrator needs for exact mass
    # conservation; larger factors suppress nonlinear aliasing instead.
    nr = oversample * K
    t, wbar = gauss_laguerre_scaled(nr)
    r = np.sqrt(t / omega)
    wrad = (np.pi / omega) * wbar
    phi = scaled_laguerre(t, K) * np.sqrt(omega / np.pi)
    proj = (wrad[:, None] * phi).T

    gram = proj @ phi
    dev = float(np.abs(gram - np.eye(K)).max())
    if dev > GRAM_TOL:
        raise GramCheckFailed(dev, GRAM_TOL)
    # polish the ~1e-12 node/weight roundoff out of the basis in sqrt(w)
    # form: Q = sqrt(w) phi gets orthonormal columns, and both transforms
    # are derived from it, phi = Q / sqrt(w) and proj = (sqrt(w) Q)^T.
    # One Cholesky pass on the w-weighted Gram of phi, with proj formed
    # afterwards, leaves a fixed error in the low-mode block that every
    # time step applies again (a steady mass bias of ~1e-15 per step);
    # a second pass on Q removes what the first one leaves behind.
    sw = np.sqrt(wrad)
    q = sw[:, None] * phi
    for _ in range(2):
        rchol = cholesky(q.T @ q)
        q = solve_triangular(rchol, q.T, trans="T", lower=False).T
    phi = q / sw[:, None]
    proj = (sw[:, None] * q).T

    dz = 2.0 * Lz / Mz
    z = -Lz + dz * np.arange(Mz)
    m = np.fft.fftfreq(Mz, 1.0 / Mz)
    xi = np.pi * m / Lz
    phase = np.where(m.astype(int) % 2 == 0, 1.0, -1.0)
    osc = omega * (4.0 * np.arange(K) + 2.0)
    wz = np.r_[1.0, np.full(Mz // 2 - 1, 2.0), 1.0]
    sqrt_wz = np.sqrt(wz)

    k = np.arange(K, dtype=float)
    x1_diag = (2.0 * k + 1.0) / omega
    x1_off = -(k[:-1] + 1.0) / omega

    for arr in (t, r, wrad, z, xi, phase, wz, sqrt_wz, osc, phi, proj, x1_diag, x1_off):
        arr.setflags(write=False)
    return Discretization(K=K, Mz=Mz, Lz=Lz, omega=omega, nr=nr, t=t, r=r,
                          wrad=wrad, z=z, dz=dz, xi=xi, osc_eigs=osc, phi=phi,
                          proj=proj, phase=phase, wz=wz, sqrt_wz=sqrt_wz,
                          _x1_diag=x1_diag, _x1_off=x1_off)
