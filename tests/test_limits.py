from types import SimpleNamespace

import numpy as np
import pytest

from confinement_lab import limits
from confinement_lab.errors import BisectionStalled
from confinement_lab.limits import planar_ground_mode, shoot_1d, shoot_3d, soliton_1d


@pytest.mark.parametrize("p", [3.0, 10.0 / 3.0, 4.0, 5.0])
def test_closed_form_solves_the_ode(p):
    sol = soliton_1d(p)
    z = np.linspace(-12.0, 12.0, 401)
    assert np.abs(sol.ode_residual(z)).max() <= 1e-10
    assert sol(0.0) == pytest.approx(sol.amplitude, rel=1e-15)
    # even profile, zero slope at the origin
    assert sol(-1.3) == sol(1.3)
    assert sol.derivative(0.0) == 0.0


def test_closed_form_p4_values():
    sol = soliton_1d(4.0)
    assert sol.amplitude == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-15)
    assert sol.width == 1.0
    assert sol.mass == pytest.approx(8.0 * np.pi, rel=1e-12)
    z = np.linspace(-5, 5, 101)
    assert np.abs(sol(z) - 2.0 * np.sqrt(np.pi) / np.cosh(z)).max() <= 1e-12


def test_closed_form_p3_amplitude():
    assert soliton_1d(3.0).amplitude == pytest.approx(np.sqrt(np.pi) * 2.25, rel=1e-15)


@pytest.mark.parametrize("p", [3.0, 10.0 / 3.0, 4.0, 5.0])
def test_shooting_matches_closed_form(p):
    sol = soliton_1d(p)
    prof = shoot_1d(p)
    assert prof.v0 == pytest.approx(sol.amplitude, rel=1e-11)
    z = np.linspace(0.0, 20.0, 2001)
    assert np.abs(prof(z) - sol(z)).max() <= 1e-8
    assert prof.mass == pytest.approx(sol.mass, rel=1e-7)


def test_shoot_1d_nehari_membership():
    # int (w'^2 + w^2) = (2/p) pi^{1-p/2} int w^p for the limit soliton
    p = 4.0
    sol = soliton_1d(p)
    z = np.linspace(-30.0, 30.0, 240001)
    lhs = np.trapezoid(sol.derivative(z) ** 2 + sol(z) ** 2, z)
    rhs = (2.0 / p) * np.pi ** (1 - p / 2) * np.trapezoid(sol(z) ** p, z)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    # closed forms agree with quadrature
    assert sol.mass == pytest.approx(np.trapezoid(sol(z) ** 2, z), rel=1e-10)
    assert sol.grad_sq == pytest.approx(np.trapezoid(sol.derivative(z) ** 2, z), rel=1e-9)


def test_shoot_3d_baseline(shot3d_p4):
    prof = shot3d_p4
    assert prof.v0 == pytest.approx(4.3374, abs=2e-4)
    # two-resolution agreement of the mass integral to 0.1%
    coarse = shoot_3d(4.0, rtol=1e-9)
    assert abs(coarse.mass - prof.mass) <= 1e-3 * prof.mass
    assert prof.mass == pytest.approx(18.897, abs=2e-3)
    # strictly positive, decreasing profile
    rr = np.linspace(0.0, prof.splice, 500)
    vals = prof(rr)
    assert (vals > 0).all()
    assert (np.diff(vals) < 1e-12).all()


def test_shoot_small_amplitude_classifies_quietly():
    from confinement_lab.limits import _integrate
    sol = _integrate(4.0, 1e-6, dimension=1, r_end=60.0, rtol=1e-9)
    # subcritical shot: turns around (undershoot event), never crosses zero
    assert sol.t_events[0].size == 0
    assert sol.t_events[1].size >= 1


def test_second_moment_of_ground_mode(small_grid):
    g = small_grid
    e1 = planar_ground_mode(g)
    moment = float(g.wrad @ (g.r**2 * e1**2))
    assert moment == pytest.approx(1.0, abs=1e-10)
    # combined limit constant sqrt(moment * int w^2) at p=4: sqrt(8 pi)
    c0 = np.sqrt(moment * soliton_1d(4.0).mass)
    assert c0 == pytest.approx(np.sqrt(8.0 * np.pi), rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 6.0, 7.0])
def test_shoot_rejects_bad_exponent(p):
    for solver in (shoot_1d, shoot_3d, soliton_1d):
        with pytest.raises(ValueError):
            solver(p)


def _count_integrations(monkeypatch):
    calls = []
    real = limits._integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(limits, "_integrate", counted)
    shoot_1d.cache_clear()
    shoot_3d.cache_clear()
    return calls


def test_shoot_3d_cost_and_threshold(monkeypatch):
    calls = _count_integrations(monkeypatch)
    prof = shoot_3d(4.0, rtol=1e-10)
    # bracket [4, 8] (4 shots), Brent on the growing-mode coefficient,
    # one dense shot for the profile; bisection to the last bit took 57
    assert len(calls) <= 16
    assert prof.v0 == pytest.approx(4.337387679981889, rel=1e-11)


@pytest.mark.parametrize("p", [3.0, 10.0 / 3.0, 4.0, 5.0])
def test_shoot_1d_cost(monkeypatch, p):
    calls = _count_integrations(monkeypatch)
    shoot_1d(p)
    assert len(calls) <= 16


def test_shoot_without_bracket_raises(monkeypatch):
    # every shot turns around with v > 0: the amplitude is never too large
    def undershoot(p, a, dimension, r_end, rtol, dense=False):
        return SimpleNamespace(t=np.array([1.0]), y=np.array([[a], [0.0]]),
                               t_events=[np.empty(0), np.array([1.0])])

    monkeypatch.setattr(limits, "_integrate", undershoot)
    shoot_3d.cache_clear()
    with pytest.raises(BisectionStalled, match="no bracket"):
        shoot_3d(4.0)


def test_shoot_unconverged_root_find_raises(monkeypatch):
    import scipy.optimize

    real = scipy.optimize.brentq

    def stalled(f, a, b, **kwargs):
        if not kwargs.get("full_output"):     # solve_ivp's event location
            return real(f, a, b, **kwargs)
        return a, SimpleNamespace(converged=False, flag="convergence error")

    monkeypatch.setattr(scipy.optimize, "brentq", stalled)
    shoot_3d.cache_clear()
    with pytest.raises(BisectionStalled, match="root find"):
        shoot_3d(4.0, rtol=1e-9)


def test_profile_csv(tmp_path):
    from confinement_lab.limits import profiles_to_csv
    z = np.linspace(0, 1, 5)
    profiles_to_csv(tmp_path / "prof.csv", z, z**2)
    lines = (tmp_path / "prof.csv").read_text().strip().splitlines()
    assert lines[0] == "coordinate,value"
    assert len(lines) == 6
