"""Spectral discretization of cylindrically symmetric fields on R^3.

The confined plane is represented in the eigenbasis of the 2D radial
harmonic oscillator -Delta_y + omega^2 |y|^2 (angular momentum zero):

    phi_k(y) = sqrt(omega/pi) * L_k(omega |y|^2) * exp(-omega |y|^2 / 2),
    eigenvalue omega * (4k + 2),

orthonormal in L^2(R^2).  The free axis z lives on a periodic box
[-Lz, Lz) with the orthonormal Fourier basis exp(i xi_m z) / sqrt(2 Lz),
xi_m = pi m / Lz.  Radial quadrature is Gauss-Laguerre in t = omega r^2,
oversampled relative to the mode count so that products of basis
functions (and mild nonlinearities) integrate accurately.  Full-grid
fields go through numpy's FFT; real, even-in-z fields through a DCT-I on
the half grid, applied as one dense (Mz/2+1)^2 GEMM, so numpy suffices.

The grid applies the model's linear part -Delta + |y|^2 + c (lin_diag,
apply_lin).  In this basis it is diag(osc_eigs) + xi^2 + c +
(1 - omega^2) X, with X the symmetric tridiagonal matrix of |y|^2 in the
mode index: diagonal at omega = 1, where the planar ground mode is
exactly the first basis function, and tridiagonal on the grids that
represent fields whose radial scale is far from the trap scale.  There
the radial block diag(osc_eigs) + (1 - omega^2) X is diagonalized once
(radial_eig), which inverts the separable linear part exactly by fast
diagonalization (Lynch, Rice & Thomas 1964).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GramCheckFailed, ShapeMismatch

GRAM_TOL = 1e-10

# Half-box in the state's own units (each grid family rescales to it): tail mass ~exp(-2 Lz) ~ 4e-11.
# The spacing dz = 0.1875 sets the accuracy: Mz = 128 on Lz = 24 is off by 8.4e-3 at lambda = 0.
DEFAULT_K = 48
DEFAULT_MZ = 128
DEFAULT_LZ = 12.0


def scaled_laguerre(t: np.ndarray, K: int) -> np.ndarray:
    """Matrix l_k(t_i) = L_k(t_i) exp(-t_i/2) for k < K, by recurrence."""
    out = np.empty((len(t), K))
    out[:, 0] = np.exp(-t / 2.0)
    if K > 1:
        out[:, 1] = (1.0 - t) * out[:, 0]
    for k in range(1, K - 1):
        out[:, k + 1] = ((2.0 * k + 1.0 - t) * out[:, k] - k * out[:, k - 1]) / (k + 1.0)
    return out


def _real_matmul(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """m @ a for a real matrix m.  A complex a is multiplied as its float
    view, real and imaginary parts interleaved along the last axis, in one
    real GEMM; numpy would upcast m to complex instead and run a complex
    GEMM with 4x the flops."""
    if not np.iscomplexobj(a):
        return m @ a
    a = np.ascontiguousarray(a, dtype=complex)
    return (m @ a.view(float)).view(complex)


@dataclass
class Discretization:
    """Immutable spectral grid; build through :func:`build`."""

    K: int
    Mz: int
    Lz: float
    omega: float
    nr: int
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
    _x1: np.ndarray = field(repr=False, default=None)     # dense (K, K) |y|^2 matrix
    # off omega = 1: (Lambda, S), diag(osc_eigs) + (1 - omega^2) X = S diag(Lambda) S^T
    radial_eig: tuple | None = field(repr=False, default=None)

    # -- transforms ---------------------------------------------------------

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Nodal samples (nr, Mz) -> spectral coefficients (K, Mz)."""
        if values.shape != (self.nr, self.Mz):
            raise ShapeMismatch(f"values shape {values.shape} != {(self.nr, self.Mz)}")
        out = _real_matmul(self.proj, values).astype(complex, copy=False)
        np.fft.fft(out, axis=1, out=out)
        out *= (np.sqrt(2.0 * self.Lz) / self.Mz) * self.phase
        return out

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Spectral coefficients (K, Mz) -> nodal samples (nr, Mz), complex."""
        if coeffs.shape != (self.K, self.Mz):
            raise ShapeMismatch(f"coeffs shape {coeffs.shape} != {(self.K, self.Mz)}")
        axial = np.multiply(self.phase, coeffs, dtype=complex)
        np.fft.ifft(axial, axis=1, out=axial)
        axial *= self.Mz / np.sqrt(2.0 * self.Lz)
        return _real_matmul(self.phi, axial)

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
        out = (self.proj @ values) @ _even_dct(self.Mz)[0]
        out *= np.sqrt(2.0 * self.Lz) / self.Mz
        return out

    def from_even(self, coeffs: np.ndarray) -> np.ndarray:
        """sqrt(w)-weighted even coefficients -> half-grid nodal samples."""
        axial = coeffs @ _even_dct(self.Mz)[1]
        axial *= 1.0 / np.sqrt(2.0 * self.Lz)
        return self.phi @ axial

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

    def lin_diag(self, ncols: int, const: float) -> np.ndarray:
        """osc_eigs + xi^2 + const on Mz (full) or Mz/2+1 (even sector: |xi|
        of the first Mz/2+1 FFT-order modes) axial columns."""
        return self.osc_eigs[:, None] + self.xi[None, :ncols] ** 2 + const

    def apply_lin(self, coeffs: np.ndarray, const: float,
                  diag: np.ndarray | None = None) -> np.ndarray:
        """Apply -Delta + |y|^2 + const: diag(osc_eigs) + xi^2 + const, plus
        (1 - omega^2) X off the unit frequency.  diag, if given, is
        lin_diag(coeffs.shape[-1], const)."""
        out = (self.lin_diag(coeffs.shape[-1], const) if diag is None else diag) * coeffs
        if self.omega != 1.0:
            out += (1.0 - self.omega**2) * self._x1_mult(coeffs)
        return out

    def _x1_mult(self, coeffs: np.ndarray) -> np.ndarray:
        """Multiply by the tridiagonal |y|^2 matrix: one dense real GEMM."""
        return _real_matmul(self._x1, coeffs)

    # -- pointwise evaluation ------------------------------------------------

    def evaluate_even(self, coeffs: np.ndarray, r_pts: np.ndarray, z_pts: np.ndarray) -> np.ndarray:
        """Evaluate sqrt(w)-weighted even coefficients on the tensor grid
        r_pts x z_pts: sum over k, m of c_km sqrt(w_m) phi_k(r) cos(xi_m z)
        / sqrt(2 Lz), in real GEMMs."""
        basis_r = scaled_laguerre(self.omega * r_pts**2, self.K) * np.sqrt(self.omega / np.pi)
        cos = np.cos(np.outer(self.xi[: self.Mz // 2 + 1], z_pts)) / np.sqrt(2.0 * self.Lz)
        return basis_r @ ((coeffs * self.sqrt_wz) @ cos)

    # -- misc ----------------------------------------------------------------

    def compatible(self, other: "Discretization") -> bool:
        return (self.K == other.K and self.Mz == other.Mz
                and self.Lz == other.Lz and self.omega == other.omega)


@lru_cache(maxsize=64)
def build(K: int = DEFAULT_K, Mz: int = DEFAULT_MZ, Lz: float = DEFAULT_LZ,
          omega: float = 1.0, oversample: int = 2) -> Discretization:
    """Construct a discretization and verify quadrature orthonormality.

    Requires K >= 4, even Mz >= 8 and finite Lz, omega > 0.  The radial
    rule uses oversample*K Gauss-Laguerre nodes so that basis products
    integrate exactly and pointwise nonlinearities alias weakly (_radial_rule).
    """
    if K < 4:
        raise ValueError(f"K={K} below minimum mode count 4")
    if Mz < 8 or Mz % 2 != 0:
        raise ValueError(f"Mz={Mz} must be even and >= 8")
    if not 0 < Lz < np.inf:
        raise ValueError(f"Lz={Lz} must be positive and finite")
    if not 0 < omega < np.inf:
        raise ValueError(f"omega={omega} must be positive and finite")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    # oversample=1 gives a square (unitary) transform, a bijection nodal <->
    # spectral that the time integrator needs for exact mass conservation (K
    # nodes still integrate basis products exactly); more suppresses aliasing.
    t, wbar, q = _radial_rule(K, oversample)
    r = np.sqrt(t / omega)
    wrad = (np.pi / omega) * wbar
    sw = np.sqrt(wrad)[:, None]
    phi, proj = q / sw, (sw * q).T

    dz = 2.0 * Lz / Mz
    z = -Lz + dz * np.arange(Mz)
    m = np.fft.fftfreq(Mz, 1.0 / Mz)
    xi = np.pi * m / Lz
    phase = np.where(m.astype(int) % 2 == 0, 1.0, -1.0)
    osc = omega * (4.0 * np.arange(K) + 2.0)
    wz = np.r_[1.0, np.full(Mz // 2 - 1, 2.0), 1.0]
    sqrt_wz = np.sqrt(wz)

    k = np.arange(K, dtype=float)
    x1_off = -(k[:-1] + 1.0) / omega
    x1 = np.diag((2.0 * k + 1.0) / omega) + np.diag(x1_off, 1) + np.diag(x1_off, -1)

    arrs = [r, wrad, z, xi, phase, wz, sqrt_wz, osc, phi, proj, x1]
    radial_eig = None
    if omega != 1.0:
        radial_eig = np.linalg.eigh(np.diag(osc) + (1.0 - omega**2) * x1)
        arrs += radial_eig
    for arr in arrs:
        arr.setflags(write=False)
    return Discretization(K=K, Mz=Mz, Lz=Lz, omega=omega, nr=K * oversample, r=r,
                          wrad=wrad, z=z, dz=dz, xi=xi, osc_eigs=osc, phi=phi,
                          proj=proj, phase=phase, wz=wz, sqrt_wz=sqrt_wz, _x1=x1,
                          radial_eig=radial_eig)


@lru_cache(maxsize=8)
def _radial_rule(K: int, oversample: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes t (n = oversample*K), scaled weights wbar = w e^t and
    the polished Q = sqrt(wbar) l_k(t), k < K, all through l_k(t) = L_k(t) e^{-t/2}
    so nothing overflows.  Q is sqrt(wrad) phi at every omega: build rescales it."""
    n = oversample * K
    # the symmetric tridiagonal Jacobi matrix; eigvalsh reads its lower triangle
    t = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1))
    lag = scaled_laguerre(t, n + 2)
    # w_i = t_i / ((n+1)^2 L_{n+1}(t_i)^2)  =>  w_i e^{t_i} = t_i / ((n+1)^2 l_{n+1}(t_i)^2)
    wbar = t / ((n + 1.0) ** 2 * lag[:, n + 1] ** 2)
    q = np.sqrt(wbar)[:, None] * lag[:, :K]
    dev = float(np.abs(q.T @ q - np.eye(K)).max())
    if dev > GRAM_TOL:
        raise GramCheckFailed(dev, GRAM_TOL)
    # polish the ~1e-12 roundoff out of Q, from which both transforms derive:
    # polishing phi alone leaves a low-mode error that every time step applies
    # again (a mass bias of ~1e-15 per step); a second pass removes the rest.
    for _ in range(2):
        q = np.linalg.solve(np.linalg.cholesky(q.T @ q), q.T).T
    t.flags.writeable = wbar.flags.writeable = q.flags.writeable = False
    return t, wbar, q


@lru_cache(maxsize=8)
def _even_dct(Mz: int) -> tuple[np.ndarray, np.ndarray]:
    """The even sector's DCT-I, sqrt(w) weights folded in, shared by every
    grid with this Mz: to_even is (proj values) @ fwd * sqrt(2 Lz)/Mz and
    from_even is phi (coeffs @ inv) / sqrt(2 Lz)."""
    h, j = Mz // 2, np.arange(Mz // 2 + 1)
    wz = np.r_[1.0, np.full(h - 1, 2.0), 1.0]
    # cos(pi j k / h) with j k reduced mod 2h first, so cos sees |arg| <= 2 pi
    cos = np.cos(np.pi / h * (np.outer(j, j) % (2 * h)))
    sqrt_wz = np.sqrt(wz)
    inv = sqrt_wz[:, None] * cos
    # fwd weighs coefficient k by w_k / fl(sqrt w_k), not fl(sqrt w_k) again:
    # fl(sqrt 2)^2 = 2 (1 + 1.4e-16) would inflate every interior mode on
    # each from_even-to_even round trip
    fwd = wz[:, None] * (wz / sqrt_wz) * cos
    fwd.flags.writeable = inv.flags.writeable = False
    return fwd, inv
