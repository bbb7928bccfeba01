import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from nlosc import oracle
from nlosc.errors import InvalidDegree, PoleInDenominator
from nlosc.orthopoly import jacobi, laguerre
from polynomial_references import hyp2f1_terminating, jacobi_rodrigues

XS = np.linspace(-1.0, 1.0, 21)


def jacobi_derivatives(n, a, b, x):
    """(P, P', P'') of P_n^(a,b) at x by d/dx P_n^(a,b) = (n+a+b+1)/2 P_(n-1)^(a+1,b+1)."""
    c1 = 0.5 * (n + a + b + 1.0)
    c2 = c1 * 0.5 * (n + a + b + 2.0)
    return tuple(c * jacobi(n - j, a + j, b + j, x) if j <= n else 0.0 * x for j, c in enumerate((1.0, c1, c2)))


def laguerre_derivatives(n, a, x):
    """(L, L', L'') of L_n^(a) at x by d/dx L_n^(a) = -L_(n-1)^(a+1)."""
    return tuple((-1.0) ** j * laguerre(n - j, a + j, x) if j <= n else 0.0 * x for j in range(3))


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi(0, 0.7, -3.2, XS).tolist() == [1.0] * 21

    def test_degree_one(self):
        # P_1^(0.5, 1.5) = -1/2 + 2x
        P, P1, P2 = jacobi_derivatives(1, 0.5, 1.5, XS)
        assert np.allclose(P, -0.5 + 2.0 * XS, rtol=1e-15, atol=1e-15)
        assert P1.tolist() == [2.0] * 21 and P2.tolist() == [0.0] * 21

    def test_legendre(self):
        P, P1, P2 = jacobi_derivatives(2, 0.0, 0.0, XS)
        assert np.allclose(P, 1.5 * XS * XS - 0.5, rtol=1e-14, atol=1e-15)
        assert np.allclose(P1, 3.0 * XS, rtol=1e-14, atol=1e-15)
        assert np.allclose(P2, 3.0, rtol=1e-14)

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = C(n+a, n)
        a = 1.5
        for n in range(6):
            expect = 1.0
            for j in range(1, n + 1):
                expect *= (a + j) / j
            assert jacobi(n, a, -0.3, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_negative_degree(self):
        with pytest.raises(InvalidDegree):
            jacobi(-1, 0.5, 0.5, XS)


class TestJacobiValues:
    @pytest.mark.parametrize("n,a,b", [(3, 1.0, -3.0), (4, 0.5, -2.5), (5, 0.0, -2.0), (4, 2.0, -4.0), (6, 1.5, -5.5)])
    def test_zero_denominator_raises(self, n, a, b):
        # a + b a negative integer <= -2 zeroes 2m(m+a+b)(2m+a+b-2) at some m <= n
        with pytest.raises(PoleInDenominator, match=r"^Jacobi recurrence denominator .* vanishes at m = \d+"):
            jacobi(n, a, b, XS)

    def test_below_the_pole_degree_evaluates(self):
        # m + a + b = 0 first at m = 2 for a + b = -2, so degree 1 is fine
        assert np.allclose(jacobi(1, 1.0, -3.0, XS), 2.0 + 0.0 * XS)

    def test_shape_and_loop_of_scalars(self):
        x = np.linspace(-0.9, 3.0, 12).reshape(3, 4)
        got = jacobi(7, 2.5, -20.5, x)
        assert got.shape == (3, 4) and jacobi(7, 2.5, -20.5, 0.5).shape == ()
        loop = np.array([jacobi(7, 2.5, -20.5, float(xi)) for xi in x.ravel()]).reshape(3, 4)
        assert got.tobytes() == loop.tobytes()


class TestRodriguesOracle:
    def test_trivial_cases(self):
        assert jacobi_rodrigues(0, 0.3, 0.9).tolist() == [1.0]
        assert np.allclose(jacobi_rodrigues(1, 0.0, 0.0), (0.0, 1.0), atol=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("b", [-0.75, 0.0, 1.0 / 0.25 - 0.5, 1.0 / 0.5 - 0.5])
    @pytest.mark.parametrize("n", range(11))
    def test_agrees_with_recurrence(self, n, a, b):
        c = jacobi_rodrigues(n, a, b)
        scale = np.max(np.abs(c))
        assert np.max(np.abs(jacobi(n, a, b, XS) - npoly.polyval(XS, c))) <= 1e-12 * scale

    @pytest.mark.parametrize("a,b", [(0.5, -0.75), (2.5, 1.0 / 0.25 - 0.5), (0.5, -1.0 / 0.05 - 0.5)])
    @pytest.mark.parametrize("n", range(11))
    def test_shift_identity_against_the_coefficients(self, n, a, b):
        # P' and P'' by the parameter shift against the differentiated Rodrigues coefficients
        c = jacobi_rodrigues(n, a, b)
        got = jacobi_derivatives(n, a, b, XS)
        for k in (1, 2):
            ck = npoly.polyder(c, k)
            scale = max(np.max(np.abs(ck)), 1e-300)
            assert np.max(np.abs(got[k] - npoly.polyval(XS, ck))) <= 1e-12 * scale, k

    def test_half_integer_negative_b(self):
        # a + b = 1.5: the recurrence never degenerates here
        c = jacobi_rodrigues(3, 2.0, -0.5)
        assert np.max(np.abs(jacobi(3, 2.0, -0.5, XS) - npoly.polyval(XS, c))) <= 1e-12 * np.max(np.abs(c))


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
        binom = 1.0
        for j in range(1, n + 1):
            binom *= (a + j) / j
        for x in np.linspace(-0.9, 0.9, 20):
            lhs = hyp2f1_terminating(n, -n - b, a + 1.0, (x - 1.0) / (x + 1.0))
            rhs = (2.0 / (x + 1.0)) ** n / binom * jacobi(n, a, b, x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestLaguerre:
    X = np.linspace(0.0, 9.0, 19)

    def test_trivial(self):
        assert laguerre(0, 2.3, self.X).tolist() == [1.0] * 19

    def test_degree_one(self):
        # L_1^(1/2) = 3/2 - x
        P, P1, P2 = laguerre_derivatives(1, 0.5, self.X)
        assert np.allclose(P, 1.5 - self.X, rtol=1e-15, atol=1e-15)
        assert P1.tolist() == [-1.0] * 19 and P2.tolist() == [0.0] * 19

    def test_degree_two(self):
        # L_2^(0) = 1 - 2x + x^2/2
        P, P1, P2 = laguerre_derivatives(2, 0.0, self.X)
        assert np.allclose(P, 1.0 - 2.0 * self.X + 0.5 * self.X**2, rtol=1e-14, atol=1e-14)
        assert np.allclose(P1, -2.0 + self.X, rtol=1e-14, atol=1e-14)
        assert np.allclose(P2, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("n,L", [(0, 0), (1, 0), (2, 1)])
    def test_hypergeometric_limit(self, n, L):
        # 2F1(-n, n+L+1-1/Lam; L+3/2; -Lam*y^2) -> 1F1(-n; L+3/2; y^2) as Lam -> 0,
        # which is the Laguerre polynomial up to its value at 0; sample points
        # stay away from polynomial roots where a relative bound is meaningless
        lam = 1e-4
        at_zero = laguerre(n, L + 0.5, 0.0)
        for y in (0.3, 0.8, 1.5):
            left = hyp2f1_terminating(n, n + L + 1.0 - 1.0 / lam, L + 1.5, -lam * y * y)
            right = laguerre(n, L + 0.5, y * y) / at_zero
            assert left == pytest.approx(right, rel=1e-3, abs=1e-3)


class TestEvalPoly:
    """Evaluation at points: scalars, arrays and derivatives by the parameter shift."""

    def test_constant(self):
        assert jacobi(0, 1.0, 1.0, 7.0) == 1.0

    def test_identity(self):
        assert jacobi(1, 0.0, 0.0, 3.0) == pytest.approx(3.0, rel=1e-15)

    def test_jacobi_normalization_value(self):
        assert jacobi(1, 0.5, 1.5, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_array_input(self):
        assert np.allclose(jacobi(2, 0.0, 0.0, np.array([0.0, 1.0])), [-0.5, 1.0], rtol=1e-14)

    def test_derivative(self):
        x, h = 0.37, 1e-6
        for values in (lambda x: jacobi_derivatives(3, 0.5, 0.5, x), lambda x: laguerre_derivatives(4, 1.5, x)):
            P, P1, P2 = values(x)
            lo, hi = values(x - h), values(x + h)
            assert P1 == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=1e-8)
            assert P2 == pytest.approx((hi[1] - lo[1]) / (2 * h), rel=1e-8)


class TestJacobiOrthogonality:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, -0.75), (0.0, 2.0)])
    def test_weighted_integrals_vanish(self, a, b):
        # the 8-node Gauss rule of the weight (1-x)^a (1+x)^b is exact to degree 15;
        # its normalized weights are the squares of the oracle's first basis row
        x, P, _ = oracle._mesh(8, a, b)
        w = P[0] ** 2
        vals = np.array([jacobi(n, a, b, x) for n in range(6)])
        gram = (vals * w) @ vals.T
        assert np.all(np.diag(gram) > 0)
        off = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram))) - np.eye(6)
        assert np.max(np.abs(off)) <= 1e-12
