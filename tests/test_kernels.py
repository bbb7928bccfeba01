import math

import numpy as np
import pytest

from nlosc import kernels


def _decay_rhs(t, u, args):
    return -args[0] * u


def _harmonic_rhs(t, u, args):
    du = np.empty(2)
    du[0] = u[1]
    du[1] = -args[0] * u[0]
    return du


def _blowup_rhs(t, u, args):
    return u * u  # diverges at t = 1 from u(0) = 1


class TestIntegrateAdaptive:
    def test_exponential_decay(self):
        ts = np.linspace(0.5, 5.0, 20)
        out, status, nsteps = kernels.integrate_adaptive(
            _decay_rhs, 0.0, np.array([1.0]), ts, 1e-11, 1e-14, np.array([1.3]), 100000
        )
        assert status == kernels.STATUS_OK
        assert nsteps > 0
        assert np.max(np.abs(out[:, 0] - np.exp(-1.3 * ts))) < 1e-9

    def test_harmonic_oscillator_long_run(self):
        ts = np.linspace(1.0, 20 * math.pi, 50)
        out, status, _ = kernels.integrate_adaptive(
            _harmonic_rhs, 0.0, np.array([1.0, 0.0]), ts, 1e-12, 1e-14, np.array([1.0]), 10_000_000
        )
        assert status == kernels.STATUS_OK
        assert np.max(np.abs(out[:, 0] - np.cos(ts))) < 1e-8

    def test_nonfinite_detected(self):
        ts = np.array([2.0])
        out, status, _ = kernels.integrate_adaptive(
            _blowup_rhs, 0.0, np.array([1.0]), ts, 1e-8, 1e-8, np.array([0.0]), 10_000_000
        )
        assert status in (kernels.STATUS_NONFINITE, kernels.STATUS_UNDERFLOW)

    def test_max_steps_respected(self):
        ts = np.array([1000.0])
        out, status, nsteps = kernels.integrate_adaptive(
            _decay_rhs, 0.0, np.array([1.0]), ts, 1e-13, 1e-16, np.array([1.0]), 10
        )
        assert status == kernels.STATUS_UNDERFLOW
        assert nsteps <= 10


class TestRightHandSides:
    def test_radial_matches_equation(self):
        e, lam, L = 2.5, -0.5, 1.0
        y = 0.7
        u = np.array([0.4, -0.2])
        du = kernels.rhs_radial(y, u, np.array([e, lam, L]))
        w = lam * y * y + 1.0
        coeff = 2 * e - L * (L + 1) * lam - 1 + (1 - y * y) / w - L * (L + 1) / (y * y)
        expect = -((2 / y + 3 * lam * y) * u[1] + coeff * u[0]) / w
        assert du[0] == u[1]
        assert du[1] == pytest.approx(expect, rel=1e-14)

    def test_classical_1d_equilibrium(self):
        du = kernels.rhs_classical_1d(0.0, np.array([0.0, 0.0]), np.array([1.0, 4.0]))
        assert du[0] == 0.0 and du[1] == 0.0

    def test_planar_centrifugal_balance(self):
        # at the circular radius the radial acceleration vanishes
        lam, a2, C = 0.0, 4.0, 0.7
        rc = math.sqrt(C / 2.0)
        du = kernels.rhs_classical_planar(0.0, np.array([rc, 0.0, 0.0]), np.array([lam, a2, C]))
        assert du[1] == pytest.approx(0.0, abs=1e-13)
        assert du[2] == pytest.approx(C / rc**2, rel=1e-14)

