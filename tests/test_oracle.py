import math

import numpy as np
import pytest

from nlosc import oracle, radial
from nlosc.errors import BracketInvalid
from nlosc.spectrum import energy_dimless


class TestShooting:
    @pytest.mark.parametrize("Lambda,L,k", [(-1.0, 0, 0), (-0.5, 1, 1), (0.1, 2, 1)])
    def test_matches_closed_form(self, Lambda, L, k):
        res = oracle.shoot_eigenvalue(Lambda, L, k)
        assert res.e_numeric == pytest.approx(energy_dimless(k, L, Lambda), abs=1e-6)
        assert res.iterations <= 200
        assert res.terminal_mismatch < 1e-3

    def test_explicit_bracket(self):
        res = oracle.shoot_eigenvalue(-1.0, 0, 0, e_bracket=(1.0, 2.0))
        assert res.e_numeric == pytest.approx(1.5, abs=1e-6)
        assert res.bracket == (1.0, 2.0)

    def test_invalid_bracket(self):
        # no eigenvalue between the ground state and the first excited level
        with pytest.raises(BracketInvalid):
            oracle.shoot_eigenvalue(-1.0, 0, 0, e_bracket=(3.0, 5.0))


    @pytest.mark.parametrize("rtol", [0.0, -1e-10, math.nan, math.inf])
    def test_rtol_must_be_finite_and_positive(self, rtol):
        with pytest.raises(ValueError, match=r"^rtol must be finite and positive, got"):
            oracle.shoot_eigenvalue(-0.5, 0, 1, rtol=rtol)


class TestNodeCounting:
    @pytest.mark.parametrize("Lambda", [-1.0, 0.1])
    @pytest.mark.parametrize("L", [0, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_kth_state_has_k_nodes(self, Lambda, L, k):
        e = energy_dimless(k, L, Lambda)
        assert oracle.eigenfunction_nodes(Lambda, L, e) == k


class TestRadialResidual:
    def test_closed_form_satisfies_equation(self):
        st = radial.build_state(2, 1, -0.5)

        def f(y):
            return radial.eval_state_with_derivatives(st, y)

        for y in (0.2, 0.7, 1.2):
            assert oracle.radial_residual(f, y, st.e, -0.5, 1) < 1e-10

    def test_wrong_energy_leaves_residual(self):
        st = radial.build_state(0, 0, -1.0)

        def f(y):
            return radial.eval_state_with_derivatives(st, y)

        assert oracle.radial_residual(f, 0.5, st.e + 0.3, -1.0, 0) > 1e-3


class TestHarmonicBranch:
    def test_ground_state_shape(self):
        f = oracle.ho_wavefunction(0, 0)
        assert f(0.5) == pytest.approx(math.exp(-0.125), rel=1e-14)

    @pytest.mark.parametrize("n,L", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_residual(self, n, L):
        f = oracle.ho_wavefunction_with_derivatives(n, L)
        for y in np.linspace(0.2, 4.0, 25):
            assert oracle.radial_residual(f, float(y), 2 * n + L + 1.5, 0.0, L) < 1e-12

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("L", range(4))
    def test_closed_form_norm(self, n, L):
        # the integrand is even in y, so the trapezoid rule is spectrally accurate
        f = oracle.ho_wavefunction(n, L)
        ys = np.linspace(0.0, 15.0, 601)
        g = np.array([f(float(y)) ** 2 * y * y for y in ys])
        trap = (ys[1] - ys[0]) * (g.sum() - 0.5 * (g[0] + g[-1]))
        assert oracle.ho_norm_sq(n, L) == pytest.approx(trap, rel=1e-12)

    def test_derivatives_consistent(self):
        f = oracle.ho_wavefunction(2, 1)
        fd = oracle.ho_wavefunction_with_derivatives(2, 1)
        y, h = 0.9, 1e-6
        r, r1, r2 = fd(y)
        assert r == pytest.approx(f(y), rel=1e-14)
        assert r1 == pytest.approx((f(y + h) - f(y - h)) / (2 * h), rel=1e-8)


class TestLimitCompare:
    def test_ground_state_small(self):
        assert oracle.limit_compare(0, 0, 1e-3) < 5e-3

    def test_negative_side(self):
        assert oracle.limit_compare(2, 1, -1e-3) < 1.5e-2

    def test_first_order_rate(self):
        d1 = oracle.limit_compare(1, 0, 1e-3)
        d2 = oracle.limit_compare(1, 0, 2e-3)
        assert d1 / d2 == pytest.approx(0.5, abs=0.15)

    def test_precondition(self):
        with pytest.raises(ValueError):
            oracle.limit_compare(0, 0, 0.5)
        with pytest.raises(ValueError):
            oracle.limit_compare(0, 0, 0.0)
