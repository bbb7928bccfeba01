import math
from fractions import Fraction

import numpy as np
import pytest

from nlosc.errors import InvalidDegree, PoleInDenominator
from nlosc.orthopoly import (
    eval_poly,
    hyp2f1_terminating,
    jacobi,
    jacobi_rodrigues,
    laguerre,
)
from nlosc.radial import _beta_moment_value, _beta_moments


class TestJacobi:
    def test_degree_zero(self):
        p = jacobi(0, 0.7, -3.2)
        assert p.coeffs == (1.0,)

    def test_degree_one(self):
        p = jacobi(1, 0.5, 1.5)
        assert p.coeffs[0] == pytest.approx(-0.5, rel=1e-15)
        assert p.coeffs[1] == pytest.approx(2.0, rel=1e-15)

    def test_legendre(self):
        p = jacobi(2, 0.0, 0.0)
        assert np.allclose(p.coeffs, (-0.5, 0.0, 1.5), rtol=1e-14)

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = C(n+a, n)
        a = 1.5
        for n in range(6):
            expect = 1.0
            for j in range(1, n + 1):
                expect *= (a + j) / j
            assert jacobi(n, a, -0.3)(1.0) == pytest.approx(expect, rel=1e-12)

    def test_negative_degree(self):
        with pytest.raises(InvalidDegree):
            jacobi(-1, 0.5, 0.5)


class TestRodriguesOracle:
    def test_trivial_cases(self):
        assert jacobi_rodrigues(0, 0.3, 0.9).coeffs == (1.0,)
        assert np.allclose(jacobi_rodrigues(1, 0.0, 0.0).coeffs, (0.0, 1.0), atol=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("b", [-0.75, 0.0, 1.0 / 0.25 - 0.5, 1.0 / 0.5 - 0.5])
    @pytest.mark.parametrize("n", range(11))
    def test_agrees_with_recurrence(self, n, a, b):
        c1 = np.array(jacobi(n, a, b).coeffs)
        c2 = np.array(jacobi_rodrigues(n, a, b).coeffs)
        scale = np.max(np.abs(c1))
        assert np.max(np.abs(c1 - c2)) <= 1e-12 * scale

    def test_half_integer_negative_b(self):
        # a + b = 1.5: the recurrence never degenerates here
        c1 = np.array(jacobi(3, 2.0, -0.5).coeffs)
        c2 = np.array(jacobi_rodrigues(3, 2.0, -0.5).coeffs)
        assert np.max(np.abs(c1 - c2)) <= 1e-12 * np.max(np.abs(c1))

    @pytest.mark.parametrize("n,a,b", [(3, 1.0, -3.0), (4, 0.5, -2.5), (5, 0.0, -2.0), (4, 2.0, -4.0), (6, 1.5, -5.5)])
    def test_explicit_sum_fallback(self, n, a, b):
        # a + b a negative integer <= -2 zeroes a recurrence denominator, so
        # jacobi falls back to the explicit binomial sum
        c1 = np.array(jacobi(n, a, b).coeffs)
        c2 = np.array(jacobi_rodrigues(n, a, b).coeffs)
        assert np.max(np.abs(c1 - c2)) <= 1e-12 * np.max(np.abs(c1))


class TestHyp2f1:
    def test_degree_zero(self):
        assert hyp2f1_terminating(0, 3.3, -7.7, 0.9) == 1.0

    def test_two_terms(self):
        assert hyp2f1_terminating(1, 2.0, 1.5, -0.5) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_pole_detected(self):
        with pytest.raises(PoleInDenominator):
            hyp2f1_terminating(3, 1.0, -1.0, 0.5)

    @pytest.mark.parametrize("n", range(7))
    def test_jacobi_identity(self, n):
        # P_n^{(a,b)}(x) = C(n+a,n) ((x+1)/2)^n 2F1(-n, -n-b; a+1; (x-1)/(x+1))
        a, b = 0.5, 1.25
        p = jacobi(n, a, b)
        binom = 1.0
        for j in range(1, n + 1):
            binom *= (a + j) / j
        for x in np.linspace(-0.9, 0.9, 20):
            lhs = hyp2f1_terminating(n, -n - b, a + 1.0, (x - 1.0) / (x + 1.0))
            rhs = (2.0 / (x + 1.0)) ** n / binom * p(x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestLaguerre:
    def test_trivial(self):
        assert laguerre(0, 2.3).coeffs == (1.0,)

    def test_degree_one(self):
        assert np.allclose(laguerre(1, 0.5).coeffs, (1.5, -1.0), rtol=1e-15)

    def test_degree_two(self):
        assert np.allclose(laguerre(2, 0.0).coeffs, (1.0, -2.0, 0.5), rtol=1e-14)

    @pytest.mark.parametrize("n,L", [(0, 0), (1, 0), (2, 1)])
    def test_hypergeometric_limit(self, n, L):
        # 2F1(-n, n+L+1-1/Lam; L+3/2; -Lam*y^2) -> 1F1(-n; L+3/2; y^2) as Lam -> 0,
        # which is the Laguerre polynomial up to its value at 0; sample points
        # stay away from polynomial roots where a relative bound is meaningless
        lam = 1e-4
        lag = laguerre(n, L + 0.5)
        for y in (0.3, 0.8, 1.5):
            left = hyp2f1_terminating(n, n + L + 1.0 - 1.0 / lam, L + 1.5, -lam * y * y)
            right = lag(y * y) / lag(0.0)
            assert left == pytest.approx(right, rel=1e-3, abs=1e-3)


class TestEvalPoly:
    def test_constant(self):
        assert jacobi(0, 1.0, 1.0)(7.0) == 1.0

    def test_identity(self):
        p = jacobi(1, 0.0, 0.0)
        assert p(3.0) == pytest.approx(3.0, rel=1e-15)

    def test_jacobi_normalization_value(self):
        assert jacobi(1, 0.5, 1.5)(1.0) == pytest.approx(1.5, rel=1e-14)

    def test_array_input(self):
        p = jacobi(2, 0.0, 0.0)
        xs = np.array([0.0, 1.0])
        assert np.allclose(p(xs), [-0.5, 1.0], rtol=1e-14)

    def test_derivative(self):
        p = jacobi(3, 0.5, 0.5)
        dp = p.derivative()
        x = 0.37
        h = 1e-6
        num = (p(x + h) - p(x - h)) / (2 * h)
        assert dp(x) == pytest.approx(num, rel=1e-8)


class TestJacobiOrthogonality:
    @staticmethod
    def _to_t_basis(coeffs):
        """Rewrite p(x) as a polynomial in t = 1 - x, exactly, as
        (integer numerators, one common denominator)."""
        out = [Fraction(0)] * len(coeffs)
        for k, c in enumerate(coeffs):
            # x^k = (1 - t)^k
            ck = Fraction(c)
            for j in range(k + 1):
                out[j] += ck * math.comb(k, j) * (-1) ** j
        den = math.lcm(*(v.denominator for v in out))
        return [v.numerator * (den // v.denominator) for v in out], den

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, -0.75), (0.0, 2.0)])
    def test_weighted_integrals_vanish(self, a, b):
        polys = [jacobi(n, a, b) for n in range(6)]
        diag = []
        for n in range(6):
            q = self._to_t_basis(np.convolve(polys[n].coeffs, polys[n].coeffs))
            val, _ = _beta_moment_value(q, _beta_moments(Fraction(a), Fraction(b), 0.0, len(q[0])))
            diag.append(val)
            assert val > 0
        for m in range(6):
            for n in range(m + 1, 6):
                q = self._to_t_basis(np.convolve(polys[m].coeffs, polys[n].coeffs))
                val, _ = _beta_moment_value(q, _beta_moments(Fraction(a), Fraction(b), 0.0, len(q[0])))
                assert abs(val) <= 1e-8 * math.sqrt(diag[m] * diag[n])
