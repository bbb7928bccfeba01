import itertools
import math

import numpy as np
import pytest

from nlosc import kernels


def _decay_rhs(rate):
    return lambda t, u: (-rate * u[0],)


def _harmonic_rhs(omega2):
    return lambda t, u: (u[1], -omega2 * u[0])


def _blowup_rhs(t, u):
    return (u[0] * u[0],)  # diverges at t = 1 from u(0) = 1


def _singular_rhs(t, u):
    return ((t - 0.5) ** 2 / (t - 0.5),)  # 0/0 at t = 0.5


def _tiny_rhs(t, u):
    return (1e-100 * (t + 1) ** 3,)


class TestIntegrateAdaptive:
    def test_exponential_decay(self):
        ts = np.linspace(0.5, 5.0, 20)
        out, status, nsteps = kernels.integrate_adaptive(_decay_rhs(1.3), 0.0, (1.0,), ts, 1e-11, 1e-14, 100000)
        assert status == kernels.STATUS_OK
        assert nsteps > 0
        assert np.max(np.abs(out[:, 0] - np.exp(-1.3 * ts))) < 1e-9

    def test_harmonic_oscillator_long_run(self):
        ts = np.linspace(1.0, 20 * math.pi, 50)
        out, status, _ = kernels.integrate_adaptive(_harmonic_rhs(1.0), 0.0, (1.0, 0.0), ts, 1e-12, 1e-14, 10_000_000)
        assert status == kernels.STATUS_OK
        assert np.max(np.abs(out[:, 0] - np.cos(ts))) < 1e-8

    def test_nonfinite_detected(self):
        ts = np.array([2.0])
        out, status, _ = kernels.integrate_adaptive(_blowup_rhs, 0.0, (1.0,), ts, 1e-8, 1e-8, 10_000_000)
        assert status in (kernels.STATUS_NONFINITE, kernels.STATUS_UNDERFLOW)

    def test_max_steps_respected(self):
        ts = np.array([1000.0])
        out, status, nsteps = kernels.integrate_adaptive(_decay_rhs(1.0), 0.0, (1.0,), ts, 1e-13, 1e-16, 10)
        assert status == kernels.STATUS_UNDERFLOW
        assert nsteps <= 10

    def test_division_by_zero_in_a_stage_is_nonfinite(self):
        # the step clipped onto t = 0.5 evaluates the right-hand side there
        ts = np.array([0.5, 1.0])
        _, status, _ = kernels.integrate_adaptive(_singular_rhs, 0.0, (0.0,), ts, 1e-8, 1e-8, 10_000_000)
        assert status == kernels.STATUS_NONFINITE

    def test_overflow_in_error_norm_rejects_the_step(self):
        # with atol = 1e-300 the scaled error (~1e200) squares past the float
        # range; every step is rejected, a fifth each time, from 1e-3 to
        # below the 1e-14 floor, which takes 16 tries
        ts = np.array([1.0])
        _, status, nsteps = kernels.integrate_adaptive(_tiny_rhs, 0.0, (0.0,), ts, 0.0, 1e-300, 10_000_000)
        assert status == kernels.STATUS_UNDERFLOW
        assert nsteps == 16

    def test_division_by_zero_at_the_new_state_rejects_the_step(self):
        # the 7th evaluation is the first step's FSAL stage, at the new state
        calls = itertools.count(1)

        def rhs(t, u):
            if next(calls) == 7:
                raise ZeroDivisionError("singular at the new state")
            return (-u[0],)

        ts = np.array([0.5, 1.0])
        out, status, nsteps = kernels.integrate_adaptive(rhs, 0.0, (1.0,), ts, 1e-10, 1e-12, 100000)
        _, _, plain_steps = kernels.integrate_adaptive(_decay_rhs(1.0), 0.0, (1.0,), ts, 1e-10, 1e-12, 100000)
        assert status == kernels.STATUS_OK
        assert nsteps > plain_steps
        assert np.max(np.abs(out[:, 0] - np.exp(-ts))) < 1e-9


class TestRightHandSides:
    def test_classical_1d_equilibrium(self):
        du = kernels.rhs_classical_1d(1.0, 4.0)(0.0, (0.0, 0.0))
        assert du[0] == 0.0 and du[1] == 0.0

    def test_planar_centrifugal_balance(self):
        # at the circular radius the radial acceleration vanishes
        lam, a2, C = 0.0, 4.0, 0.7
        rc = math.sqrt(C / 2.0)
        du = kernels.rhs_classical_planar(lam, a2, C)(0.0, (rc, 0.0, 0.0))
        assert du[1] == pytest.approx(0.0, abs=1e-13)
        assert du[2] == pytest.approx(C / rc**2, rel=1e-14)
