from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import fft, ifft

from confinement_lab.core import Field
from confinement_lab.errors import ShapeMismatch
from confinement_lab.grid import build
from conftest import random_band_limited
from fd_oracle import oscillator_eigs_oracle


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build(K=1, Mz=64, Lz=8.0)
    with pytest.raises(ValueError):
        build(K=8, Mz=7, Lz=8.0)
    with pytest.raises(ValueError):
        build(K=8, Mz=16, Lz=-1.0)


def test_gram_orthonormal(small_grid):
    G = small_grid.proj @ small_grid.phi
    assert np.abs(G - np.eye(small_grid.K)).max() <= 1e-10


def test_oscillator_spectrum_against_fd_oracle():
    oracle = oscillator_eigs_oracle(9)
    g = build(K=32, Mz=128, Lz=16.0)
    assert abs(g.osc_eigs[0] - oracle[0]) <= 1e-10
    assert abs(oracle[0] - 2.0) <= 1e-10
    for k in range(9):
        assert abs(g.osc_eigs[k] - oracle[k]) <= 1e-8
        assert abs(oracle[k] - (4 * k + 2)) <= 1e-8
    # small-grid case: the fourth radial level sits at 14
    tiny = build(K=8, Mz=16, Lz=8.0)
    assert abs(tiny.osc_eigs[3] - 14.0) <= 1e-8
    assert abs(tiny.osc_eigs[3] - oracle[3]) <= 1e-8


def test_lowest_mode_is_normalized_gaussian(small_grid):
    g = small_grid
    expected = np.exp(-g.r**2 / 2.0) / np.sqrt(np.pi)
    assert np.abs(g.phi[:, 0] - expected).max() <= 1e-12
    assert (g.wrad @ g.phi[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
    assert (g.wrad @ (g.r**2 * g.phi[:, 0] ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_trap_matrix_matches_quadrature(small_grid):
    g = small_grid
    Xq = g.phi.T @ ((g.wrad * g.r**2)[:, None] * g.phi)
    assert np.abs(Xq - g._x1).max() <= 1e-10 * np.abs(g._x1).max()


def test_transform_roundtrip_and_parseval(medium_grid, rng):
    g = medium_grid
    f = random_band_limited(g, rng, even_z=False, real=False)
    c0 = f.coeffs
    vals = g.from_coeffs(c0)
    c1 = g.to_coeffs(vals)
    assert np.abs(c1 - c0).max() / np.abs(c0).max() <= 1e-10
    l2_quad = float(g.quad(np.abs(vals) ** 2).real)
    l2_coef = float(np.sum(np.abs(c0) ** 2))
    assert abs(l2_quad - l2_coef) <= 1e-10 * l2_coef


def test_complex_transforms_match_upcast_product(medium_grid, rng):
    # a complex field meets the real radial matrices as one real GEMM on its
    # interleaved view; the reference multiplies by the complex-upcast matrix
    g = medium_grid
    vals = rng.standard_normal((g.nr, g.Mz)) + 1j * rng.standard_normal((g.nr, g.Mz))
    coeffs = rng.standard_normal((g.K, g.Mz)) + 1j * rng.standard_normal((g.K, g.Mz))
    scale = np.sqrt(2.0 * g.Lz) / g.Mz
    ref_c = scale * g.phase * fft(g.proj.astype(complex) @ vals, axis=1)
    ref_v = g.phi.astype(complex) @ (ifft(g.phase * coeffs, axis=1) / scale)
    # C order and a strided (Fortran-order) input
    for v in (vals, np.asfortranarray(vals)):
        assert np.abs(g.to_coeffs(v) - ref_c).max() <= 1e-14 * np.abs(ref_c).max()
    for c in (coeffs, np.asfortranarray(coeffs)):
        assert np.abs(g.from_coeffs(c) - ref_v).max() <= 1e-14 * np.abs(ref_v).max()


def test_basis_function_single_coefficient(small_grid):
    g = small_grid
    vals = np.outer(g.phi[:, 0], np.ones(g.Mz))
    c = g.to_coeffs(vals.astype(complex))
    assert abs(c[0, 0] - np.sqrt(2 * g.Lz)) <= 1e-10 * np.sqrt(2 * g.Lz)
    c[0, 0] = 0.0
    assert np.abs(c).max() <= 1e-12
    zero = g.to_coeffs(np.zeros((g.nr, g.Mz), dtype=complex))
    assert np.abs(zero).max() == 0.0


# off the unit frequency the linear part carries the (1 - omega^2) X term
OMEGA2_GRID = dict(K=24, Mz=64, Lz=12.0, omega=2.0)


def test_apply_linear_examples(small_grid):
    g = small_grid
    c = np.zeros((g.K, g.Mz), dtype=complex)
    c[0, 0] = 1.0
    out = g.apply_lin(c, 0.0)
    assert np.abs(out - 2.0 * c).max() <= 1e-12          # planar ground mode, eigenvalue 2

    # phi_0 * cos(pi z / Lz): the shift -2 leaves the axial multiplier alone
    cc = np.zeros((g.K, g.Mz), dtype=complex)
    cc[0, 1] = 0.5
    cc[0, -1] = 0.5
    out = g.apply_lin(cc, -2.0)
    assert np.abs(out - (np.pi / g.Lz) ** 2 * cc).max() <= 1e-12

    # kernel of the shifted operator
    out = g.apply_lin(c, -2.0)
    assert np.abs(out).max() <= 1e-12

    # the same kernel on an omega = 2 grid, where the planar ground mode
    # exp(-|y|^2/2)/sqrt(pi) is no basis function: sampled and transformed
    g2 = build(**OMEGA2_GRID)
    ground = np.exp(-g2.r**2 / 2.0) / np.sqrt(np.pi)
    c2 = g2.to_coeffs(np.outer(ground, np.ones(g2.Mz)).astype(complex))
    out = g2.apply_lin(c2, -2.0)
    assert np.linalg.norm(out) <= 1e-9 * np.linalg.norm(c2)


def test_apply_linear_self_adjoint(medium_grid, rng):
    # the omega = 2 fields come from their own generator, so the session's
    # random stream is drawn as before
    for g, gen in ((medium_grid, rng), (build(**OMEGA2_GRID), np.random.default_rng(2))):
        a = random_band_limited(g, gen, even_z=False).coeffs
        b = random_band_limited(g, gen, even_z=False).coeffs
        Aa = g.apply_lin(a, -0.7)
        Ab = g.apply_lin(b, -0.7)
        lhs = np.sum(np.conj(Aa) * b)
        rhs = np.sum(np.conj(a) * Ab)
        na = np.sqrt(np.sum(np.abs(a) ** 2))
        nb = np.sqrt(np.sum(np.abs(b) ** 2))
        assert abs(lhs - rhs) <= 1e-10 * na * nb


def test_projectors(medium_grid, rng):
    from confinement_lab.core import project_P, project_Q
    g = medium_grid
    f = random_band_limited(g, rng, even_z=False)
    pf = project_P(f)
    qf = project_Q(f)
    # pure ground-mode field is fixed by P, annihilated by Q
    assert np.abs(project_P(pf).coeffs - pf.coeffs).max() == 0.0
    assert np.abs(project_Q(pf).coeffs).max() == 0.0
    # phi_1-only content is annihilated by P
    c1 = np.zeros_like(f.coeffs)
    c1[1, :] = f.coeffs[1, :]
    only1 = Field(g, coeffs=c1, real=True)
    assert np.abs(project_P(only1).coeffs).max() == 0.0
    # P + Q = identity exactly; Parseval split to 1e-10
    assert np.abs((pf.coeffs + qf.coeffs) - f.coeffs).max() == 0.0
    l2 = np.sum(np.abs(f.coeffs) ** 2)
    split = np.sum(np.abs(pf.coeffs) ** 2) + np.sum(np.abs(qf.coeffs) ** 2)
    assert abs(split - l2) <= 1e-10 * l2
    # quadrature route agrees (Parseval property)
    l2_quad = float(g.quad(np.abs(f.values) ** 2))
    assert abs(split - l2_quad) <= 1e-10 * l2_quad


def test_evaluate_matches_nodes(small_grid, rng):
    g = small_grid
    f = random_band_limited(g, rng)
    direct = g.evaluate_even(g.reduce_even(f.coeffs), g.r, g.half_values(g.z))
    assert np.abs(direct - g.half_values(f.values)).max() <= 1e-10 * np.abs(f.values).max()


@pytest.mark.parametrize("Lz", [24.0, 24.0 / np.sqrt(0.05)])
def test_even_pair_matches_full_pair(Lz):
    """On real even fields the DCT-I pair over z >= 0 reproduces the full
    complex pair, and its sqrt(w)-weighted coefficients and half-grid
    quadrature carry the full-grid sums."""
    g = build(Lz=Lz)
    half = g.Mz // 2
    f = random_band_limited(g, np.random.default_rng(7))
    full_c = g.to_coeffs(f.values.astype(complex))
    half_vals = np.concatenate([f.values[:, half:], f.values[:, :1]], axis=1)
    c = g.to_even(half_vals)
    ref = g.sqrt_wz * full_c[:, : half + 1].real
    assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()
    back = g.from_even(c)
    assert np.abs(back - half_vals).max() <= 1e-13 * np.abs(half_vals).max()
    expanded_c, expanded_vals = g.expand_even(c, back)
    assert np.abs(expanded_c - full_c).max() <= 1e-13 * np.abs(full_c).max()
    assert np.abs(expanded_vals - f.values).max() <= 1e-13 * np.abs(f.values).max()
    norm2 = float(np.sum(np.abs(full_c) ** 2))
    assert float(np.sum(c * c)) == pytest.approx(norm2, rel=1e-13)
    assert g.quad_even(half_vals**2) == pytest.approx(g.quad(f.values**2), rel=1e-13)
    # leading batch axes
    batch = g.from_even(np.stack([c, 2.0 * c]))
    assert np.abs(batch[1] - 2.0 * back).max() <= 1e-13 * np.abs(back).max()


def test_even_round_trip_keeps_interior_modes():
    """to_even(from_even(e)) returns each unit coefficient e with an error
    whose mean over the interior axial modes (weight 2) exceeds that over
    the two end modes (weight 1, exact) by less than fl(sqrt 2)^2 / 2 - 1
    = 1.4e-16: the interior weight is applied once as fl(sqrt 2) and once
    as 2 / fl(sqrt 2), not twice as fl(sqrt 2).  Averaged over Mz = 16..256
    at K = 8 the excess was 2.3e-16 with fl(sqrt 2) in both matrices."""
    excess = []
    for Mz in (16, 32, 64, 128, 256):
        g = build(K=8, Mz=Mz, Lz=8.0)
        n = g.K * (Mz // 2 + 1)
        eye = np.eye(n).reshape(n, g.K, -1)
        err = (np.diag(g.to_even(g.from_even(eye)).reshape(n, n)) - 1.0).reshape(g.K, -1)
        excess.append(err[:, 1:-1].mean() - err[:, [0, -1]].mean())
    assert abs(np.mean(excess)) < float(Fraction(np.sqrt(2.0)) ** 2 / 2 - 1)


def test_shape_mismatch_raises(small_grid, medium_grid, rng):
    f = random_band_limited(small_grid, rng)
    with pytest.raises(ShapeMismatch):
        medium_grid.to_coeffs(f.values.astype(complex))
