import math
from dataclasses import replace

import numpy as np
import pytest

from nlosc import orthopoly, radial
from nlosc.errors import LambdaTooSmall, NotAdmissible, OutsideDomain, QuadratureFailure
from nlosc.oracle import radial_residual
from nlosc.params import make_model
from nlosc.spectrum import bound_state_count, is_admissible
from polynomial_references import hyp2f1_terminating, norm_const_mpmath


class TestWeight:
    def test_lambda_zero(self):
        assert radial.weight(1.0, 0.0) == 1.0

    def test_positive_lambda(self):
        assert radial.weight(2.0, 0.75) == pytest.approx(2.0, rel=1e-15)

    def test_endpoint_singular(self):
        with pytest.raises(OutsideDomain):
            radial.weight(1.0, -1.0)

    def test_origin_rejected(self):
        with pytest.raises(OutsideDomain):
            radial.weight(0.0, 0.5)


class TestBuildState:
    def test_ground_state_negative(self):
        st = radial.build_state(0, 0, -1.0)
        pieces = orthopoly._pieces(st.qn.n, st.L_power, st.Lambda, np.array([0.0, 0.5]), 3)
        Q, dQ, d2Q = (np.ldexp(m, e) for m, e in pieces)
        assert (Q.tolist(), dQ.tolist(), d2Q.tolist()) == ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert st.prefactor_exponent == pytest.approx(0.5, abs=0)
        assert st.e == 1.5

    def test_ground_state_positive_l2(self):
        st = radial.build_state(0, 2, 0.1)
        pieces = orthopoly._pieces(st.qn.n, st.L_power, st.Lambda, np.array([0.0, 4.0]), 3)
        Q, dQ, d2Q = (np.ldexp(m, e) for m, e in pieces)
        assert (Q.tolist(), dQ.tolist(), d2Q.tolist()) == ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert st.L_power == 2
        assert st.prefactor_exponent == pytest.approx(-5.0, rel=1e-15)

    def test_rejects_inadmissible(self):
        with pytest.raises(NotAdmissible):
            radial.build_state(3, 0, 0.4)

    def test_rejects_tiny_lambda(self):
        with pytest.raises(LambdaTooSmall):
            radial.build_state(0, 0, 1e-12)


class TestEvalState:
    def test_endpoint_zero(self):
        st = radial.build_state(0, 0, -1.0)
        assert radial.eval_state(st, 1.0) == 0.0

    def test_origin_value(self):
        st = radial.build_state(0, 0, -1.0)
        assert radial.eval_state(st, 0.0) == pytest.approx(1.0, abs=0)

    def test_origin_vanishes_for_positive_l(self):
        st = radial.build_state(1, 2, -0.5)
        assert radial.eval_state(st, 0.0) == 0.0

    def test_ground_state_closed_form(self):
        st = radial.build_state(0, 0, -1.0)
        for y in (0.2, 0.5, 0.9):
            assert radial.eval_state(st, y) == pytest.approx(math.sqrt(1 - y * y), rel=1e-14)

    def test_beyond_endpoint_rejected(self):
        st = radial.build_state(0, 0, -1.0)
        with pytest.raises(OutsideDomain):
            radial.eval_state(st, 1.5)

    @pytest.mark.parametrize("Lambda", [2e-8, -2e-8, 1e-6, -1e-6, 1e-3])
    def test_prefactor_against_mpmath(self, Lambda):
        # (Lambda*y**2 + 1)**p with p = -1/(2*Lambda): the log of the rounded
        # w = Lambda*y**2 + 1 once put |p| ulp, 2.5e-9 at Lambda = 2e-8, into every R
        mp = pytest.importorskip("mpmath")
        st = radial.build_state(0, 0, Lambda)
        y = np.linspace(0.5, 6.0, 12)
        with mp.workdps(50):
            lam = mp.mpf(Lambda)
            for got, yy in zip(radial.eval_state(st, y), y):
                exact = (lam * mp.mpf(yy) ** 2 + 1) ** (-1 / (2 * lam))
                assert abs(float((got - exact) / exact)) <= 1e-12, yy

    @pytest.mark.parametrize("n,L,Lambda", [(1, 0, 0.1), (2, 1, -0.5), (3, 0, -1.0)])
    def test_hypergeometric_cross_evaluation(self, n, L, Lambda):
        st = radial.build_state(n, L, Lambda)
        for y in (0.25, 0.5, 0.75):
            w = Lambda * y * y + 1.0
            hyp = hyp2f1_terminating(n, n + L + 1.0 - 1.0 / Lambda, L + 1.5, -Lambda * y * y)
            direct = y**L * w ** st.prefactor_exponent * hyp
            ratio = radial.eval_state(st, y) / direct
            ratio0 = radial.eval_state(st, 0.25) / (
                0.25**L
                * (Lambda * 0.0625 + 1.0) ** st.prefactor_exponent
                * hyp2f1_terminating(n, n + L + 1.0 - 1.0 / Lambda, L + 1.5, -Lambda * 0.0625)
            )
            assert ratio == pytest.approx(ratio0, rel=1e-12)

    def test_derivatives_match_finite_differences(self):
        st = radial.build_state(2, 1, -0.5)
        y, h = 0.6, 1e-5
        r, r1, r2 = radial.eval_state_with_derivatives(st, y)
        assert r == pytest.approx(radial.eval_state(st, y), rel=1e-14)
        fd1 = (radial.eval_state(st, y + h) - radial.eval_state(st, y - h)) / (2 * h)
        fd2 = (radial.eval_state(st, y + h) - 2 * r + radial.eval_state(st, y - h)) / h**2
        assert r1 == pytest.approx(fd1, rel=1e-8)
        assert r2 == pytest.approx(fd2, rel=1e-5)

    def test_sign_and_zero_of_the_norm_constant(self):
        # log|norm_const| joins the log prefactor; its sign multiplies the values
        st = radial.normalize(radial.build_state(2, 1, -0.5))
        y = np.array([0.0, 0.3, 0.9, 1.2, 2.0**0.5])
        flipped, zero = replace(st, norm_const=-st.norm_const), replace(st, norm_const=0.0)
        assert radial.eval_state(flipped, y).tolist() == (-radial.eval_state(st, y)).tolist()
        got, ref = radial.eval_state_with_derivatives(flipped, y[1:4]), radial.eval_state_with_derivatives(st, y[1:4])
        assert [v.tolist() for v in got] == [(-v).tolist() for v in ref]
        assert radial.eval_state(zero, y).tolist() == [0.0] * 5
        assert all(v.tolist() == [0.0] * 3 for v in radial.eval_state_with_derivatives(zero, y[1:4]))


class TestOdeResidual:
    @pytest.mark.parametrize("Lambda", [-2.0, -1.0, -0.5, 0.05, 0.1])
    @pytest.mark.parametrize("L", [0, 1, 2])
    def test_residual_small_everywhere(self, Lambda, L):
        count = bound_state_count(Lambda, L).count
        n_states = 4 if count is None else min(4, count)
        y_hi = math.sqrt(1.0 / abs(Lambda)) * 0.999 if Lambda < 0 else 8.0
        ys = np.linspace(0.01, y_hi, 100)
        for n in range(n_states):
            st = radial.build_state(n, L, Lambda)

            def f(y):
                return radial.eval_state_with_derivatives(st, y)

            worst = max(radial_residual(f, float(y), st.e, Lambda, L) for y in ys)
            assert worst < 1e-9


class TestBoundaryBehavior:
    @pytest.mark.parametrize("n,L,Lambda", [(0, 0, -1.0), (2, 1, -0.5), (1, 2, 0.05), (3, 0, 0.05)])
    def test_small_y_scaling(self, n, L, Lambda):
        st = radial.build_state(n, L, Lambda)
        r3 = radial.eval_state(st, 1e-3) / 1e-3**L
        r4 = radial.eval_state(st, 1e-4) / 1e-4**L
        assert r4 != 0.0
        assert r3 == pytest.approx(r4, rel=1e-4)

    @pytest.mark.parametrize("n,L,Lambda", [(0, 0, -1.0), (1, 1, -0.5), (2, 0, 0.05)])
    def test_norm_integrand_origin_slope(self, n, L, Lambda):
        st = radial.build_state(n, L, Lambda)
        ys = np.array([1e-4, 1e-3])
        vals = np.array([radial.eval_state(st, float(y)) ** 2 * radial.weight(float(y), Lambda) for y in ys])
        slope = np.log(vals[1] / vals[0]) / np.log(ys[1] / ys[0])
        assert slope == pytest.approx(2 * L + 2, abs=0.01)

    def test_positive_lambda_far_decay(self):
        # tails fall off as the power y^(L - 1/Lambda + 2n); the near-threshold
        # n=4 state decays only as y^-2, so the numeric check is the measured
        # log-log slope rather than a fixed smallness factor
        for n, L in [(0, 0), (2, 1), (4, 0)]:
            if not is_admissible(n, L, 0.1):
                continue
            st = radial.build_state(n, L, 0.1)
            exponent = L - 1.0 / 0.1 + 2 * n
            assert exponent < 0
            r50 = radial.eval_state(st, 50.0)
            r100 = radial.eval_state(st, 100.0)
            slope = math.log(abs(r100 / r50)) / math.log(2.0)
            assert slope == pytest.approx(exponent, abs=0.1)
            assert abs(r100) < abs(r50)


class TestInnerProductAndNorm:
    def test_orthogonality_negative_lambda(self):
        a = radial.normalize(radial.build_state(0, 0, -1.0))
        b = radial.normalize(radial.build_state(1, 0, -1.0))
        assert abs(radial.inner_product(a, b).value) < 1e-8

    def test_orthogonality_positive_lambda(self):
        a = radial.normalize(radial.build_state(0, 0, 0.05))
        b = radial.normalize(radial.build_state(1, 0, 0.05))
        assert abs(radial.inner_product(a, b).value) < 1e-8

    def test_norm_positive(self):
        st = radial.build_state(2, 1, -0.5)
        assert radial.inner_product(st, st).value > 0

    def test_normalize_unit_and_idempotent(self):
        st = radial.normalize(radial.build_state(1, 1, -1.0))
        assert radial.inner_product(st, st).value == pytest.approx(1.0, abs=1e-8)
        again = radial.normalize(st)
        assert again.norm_const == pytest.approx(st.norm_const, rel=1e-10)

    def test_normalize_sign_convention(self):
        for n in range(4):
            st = radial.normalize(radial.build_state(n, 0, -1.0))
            assert radial.eval_state(st, 1e-3) > 0

    def test_edge_norm_integrable(self):
        # at Lambda = -3 the norm integrand is unbounded at the endpoint but
        # its exponent -1/6 stays above -1
        st = radial.normalize(radial.build_state(0, 0, -3.0))
        res = radial.inner_product(st, st)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.est_abs_error < 1e-10

    def test_error_gate(self):
        # a unit norm carries an estimate of order 1e-15
        st = radial.normalize(radial.build_state(1, 0, -1.0))
        assert radial.inner_product(st, st).est_abs_error > 1e-30
        with pytest.raises(QuadratureFailure, match="exceeds tolerance"):
            radial.inner_product(st, st, tol=1e-30)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN tol would switch the gate off, a nonpositive one refuse every estimate
        st = radial.build_state(1, 0, -1.0)
        with pytest.raises(ValueError, match="^tol must be finite and positive, got "):
            radial.inner_product(st, st, tol=tol)

    def test_infinite_norm_refused(self):
        # the squared norm is e**714.6, past the float range (normalize's closed
        # form takes its log, TestClosedFormNorm)
        st = radial.build_state(5, 170, -0.001)
        with pytest.raises(QuadratureFailure, match=r"^non-finite norm or inner product: exp\(714\.6"):
            radial.inner_product(st, st)

    def test_normalized_state_past_the_float_range(self):
        # the norm constants, 6.32e-156 each, join the exponent before its exp,
        # so the unit norm of the state above is not refused
        st = radial.normalize(radial.build_state(5, 170, -0.001))
        res = radial.inner_product(st, st)
        assert abs(res.value - 1.0) <= 1e-12
        assert abs(res.value - 1.0) <= res.est_abs_error <= 1e-10

    @pytest.mark.parametrize("n,L,Lambda", [(0, 400, -0.001), (0, 300, 0.001)])
    def test_overflowing_prefactor_refused(self, n, L, Lambda):
        # exp(log M_0) alone overflows a float, and so does the squared norm,
        # whose norm constant gram_matrix takes first, as normalize does
        with pytest.raises(QuadratureFailure, match="^non-finite norm or inner product: exp"):
            radial.normalize(radial.build_state(n, L, Lambda))
        with pytest.raises(QuadratureFailure, match="has no normal norm constant$"):
            radial.gram_matrix(L, Lambda, 2)

    @pytest.mark.parametrize("a,b", [((0, 1, -1.0), (2, 1, -1.0)), ((1, 0, 0.05), (3, 0, 0.05))])
    def test_exact_zero_has_zero_estimate(self, a, b):
        # an orthogonal pair's integer sum is exactly 0: nothing is rounded, nothing estimated
        res = radial.inner_product(*(radial.normalize(radial.build_state(*qn)) for qn in (a, b)))
        assert (res.value, res.est_abs_error) == (0.0, 0.0)
        assert math.copysign(1.0, res.value) == 1.0

    def test_non_finite_product_of_norm_constants_refused(self):
        # the raw integral is finite; the norm constants carry its exponent past the float range
        st = replace(radial.normalize(radial.build_state(1, 0, -0.5)), norm_const=1e200)
        with pytest.raises(QuadratureFailure, match=r"^non-finite norm or inner product: exp\(919\.\d+\) times the moment sum overflows$"):
            radial.inner_product(st, st)

    def test_sign_and_zero_of_the_norm_constants(self):
        # the constants' logs join the exponent, their signs multiply the value
        st = radial.normalize(radial.build_state(2, 1, -0.5))
        flipped = replace(st, norm_const=-st.norm_const)
        assert radial.inner_product(flipped, st).value == -radial.inner_product(st, st).value
        assert radial.inner_product(flipped, flipped) == radial.inner_product(st, st)
        res = radial.inner_product(replace(st, norm_const=0.0), st)
        assert (res.value, res.est_abs_error) == (0.0, 0.0)

    @pytest.mark.parametrize("Lambda", [-5.0, -2.0, -1.0, -0.5])
    def test_estimate_covers_the_log_prefactor_at_L_170(self, Lambda):
        # log M_0 sums terms of about 700 that cancel to a few units; their
        # ulps, not those of the sum, are the error of the squared norm
        mp = pytest.importorskip("mpmath")
        L = 170
        st = radial.build_state(0, L, Lambda)
        res = radial.inner_product(st, st)
        with mp.workdps(40):
            a = mp.mpf(-Lambda)  # int_0^(1/sqrt a) y**(2L+2) (1 - a y**2)**(1/a - 1/2) dy
            exact = a ** -(L + mp.mpf(1.5)) / 2 * mp.beta(L + mp.mpf(1.5), 1 / a + mp.mpf(0.5))
            assert res.est_abs_error >= abs(float(res.value - exact))

    def test_mismatched_states_rejected(self):
        a = radial.build_state(0, 0, -1.0)
        b = radial.build_state(0, 1, -1.0)
        with pytest.raises(ValueError):
            radial.inner_product(a, b)


class TestGramMatrix:
    def test_identity_negative_lambda(self):
        g = radial.gram_matrix(0, -1.0, 3)
        assert g.shape == (4, 4)
        assert np.max(np.abs(g - np.eye(4))) < 1e-8

    def test_truncation(self):
        g = radial.gram_matrix(0, 0.1, 10)
        assert g.shape == (5, 5)

    def test_single_state(self):
        g = radial.gram_matrix(0, -0.5, 0)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_no_states_raises(self):
        with pytest.raises(NotAdmissible):
            radial.gram_matrix(0, 2.0, 3)

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            radial.gram_matrix(0, -1.0, -1)

    @pytest.mark.parametrize(
        "L,Lambda,n_max",
        [pytest.param(L, Lambda, 8, id=f"{L}-{Lambda}") for Lambda in (-2.5, -0.7, 0.02, 0.1) for L in range(4)]
        # beyond the n_max 17 of the Fraction-reference grids, on the modified-moment rows
        + [(0, -0.01, 30), (2, -1.5, 24), (0, 0.01, 30), (2, 0.0123, 24)]
        # squared norms past the float range, e**714.7 at n = 5
        + [(170, -1e-3, 5)],
    )
    def test_bit_identical_to_pairwise_reference(self, L, Lambda, n_max):
        # 0.1 truncates: 5 states at L = 0, 3 at L = 3
        g = radial.gram_matrix(L, Lambda, n_max)
        states = [
            radial.normalize(radial.build_state(n, L, Lambda))
            for n in range(n_max + 1)
            if is_admissible(n, L, Lambda)
        ]
        ref = np.eye(len(states))
        for i, a in enumerate(states):
            for j in range(i, len(states)):
                ref[i, j] = ref[j, i] = radial.inner_product(a, states[j]).value
        assert g.shape == ref.shape
        assert g.tobytes() == ref.tobytes()

    # both signs round one raw integral a state through _rounded, its squared norm
    @pytest.mark.parametrize("Lambda", [-1.0, 0.1])
    @pytest.mark.parametrize("forced_from", [0, 1, 2, 3])
    def test_error_gate_on_every_entry(self, monkeypatch, forced_from, Lambda):
        # a 4-state matrix rounds 4 sums, one diagonal entry each, and gates each
        # norm before the next row: the first forced estimate is the last call
        calls = []
        exact = radial._rounded

        def forced(*args):
            value, est = exact(*args)
            calls.append(value)
            return value, (1.0 if len(calls) > forced_from else est)

        monkeypatch.setattr(radial, "_rounded", forced)
        with pytest.raises(QuadratureFailure, match="exceeds tolerance"):
            radial.gram_matrix(0, Lambda, 3)
        assert len(calls) == forced_from + 1


class TestClosedFormNorm:
    """normalize's closed form exp(log_m0) s_n in floats, against mpmath; its
    identity with the exact squared norm is tests/test_exact_gram.py's."""

    @pytest.mark.parametrize("Lambda", [2e-8, -2e-8])
    @pytest.mark.parametrize("n,L", [(0, 0), (1, 3), (21, 0), (1000, 3), (10**6, 0), (24_999_998, 1), (24_999_999, 0)])
    def test_small_lambda_up_to_the_top_state(self, Lambda, n, L):
        # 24,999,999 is the top state at Lambda = 2e-8, L = 0; lgamma of the
        # Pochhammer symbols' ends, each near 9e8 there, would cancel to O(1)
        pytest.importorskip("mpmath")
        assert is_admissible(n, L, Lambda)
        _, size = radial._log_norm_sq(n, L, Lambda, radial._log_m0(Lambda, L))
        c = radial.normalize(radial.build_state(n, L, Lambda)).norm_const
        assert abs(c / norm_const_mpmath(n, L, Lambda) - 1.0) <= 1e-15 + 5e-16 * size

    def test_squared_norm_past_the_float_range(self):
        # the squared norm is e**714.7; its constant 6.32e-156 is an ordinary float
        pytest.importorskip("mpmath")
        _, size = radial._log_norm_sq(5, 170, -1e-3, radial._log_m0(-1e-3, 170))
        c = radial.normalize(radial.build_state(5, 170, -1e-3)).norm_const
        assert c == pytest.approx(6.3218e-156, rel=1e-4)
        assert abs(c / norm_const_mpmath(5, 170, -1e-3) - 1.0) <= 1e-15 + 5e-16 * size

    @pytest.mark.parametrize("n,L,Lambda", [(80, 0, -1e-3), (300, 0, 1e-3), (7, 3, 0.0123), (2, 1, -7.0)])
    def test_no_exact_arithmetic(self, monkeypatch, n, L, Lambda):
        expected = radial.normalize(radial.build_state(n, L, Lambda)).norm_const

        def refuse(*args):
            raise AssertionError("normalize reached the exact layer")

        for name in ("_folded_t_poly_exact", "_moments", "_moment_steps", "_modified_moments", "_rounded"):
            monkeypatch.setattr(radial, name, refuse)
        assert radial.normalize(radial.build_state(n, L, Lambda)).norm_const == expected

    @pytest.mark.parametrize("Lambda", [-0.5, 0.05])
    def test_gram_diagonal_against_the_closed_form(self, monkeypatch, Lambda):
        # a norm constant 1e-8 off for state 2 puts diagonal entry 2 at 1 + 2e-8, past the 1e-8 gate
        exact = radial._norm_const

        def off(n, L, Lam, prefactor):
            return exact(n, L, Lam, prefactor) * (1.0 + 1e-8 if n == 2 else 1.0)

        monkeypatch.setattr(radial, "_norm_const", off)
        with pytest.raises(QuadratureFailure, match=r"^state 2: the exact squared norm is 1\.0000000\d+ times the closed form$"):
            radial.gram_matrix(0, Lambda, 3)


class TestPositiveLambdaHighDegree:
    """Lambda > 0 states whose log prefactor passes 709.8 while the norm is O(1):
    the prefactor once overflowed before the rational brought it back, and
    these were refused from the listed n on."""

    @pytest.mark.parametrize(
        "Lambda,n",
        [(1e-6, 28), (1e-4, 42), (1e-3, 58), (3e-3, 70), (1e-4, 100), (1e-3, 100)],
    )
    def test_normalize_is_unit_by_trapezoid(self, Lambda, n):
        st = radial.normalize(radial.build_state(n, 0, Lambda))
        assert math.isfinite(st.norm_const) and st.norm_const > 0
        y = np.linspace(1e-4, 40.0, 200_001)
        f = radial.eval_state(st, y) ** 2 * radial.weight(y, Lambda)
        assert abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(y))) - 1.0) <= 1e-8

    def test_normalize_is_unit_by_log_trapezoid_with_a_long_tail(self):
        # at Lambda = 5e-3, n = 77 the density decays like a power of y and is
        # not small by y = 40; the trapezoid runs in log y out to y = 500
        st = radial.normalize(radial.build_state(77, 0, 5e-3))
        u = np.linspace(math.log(1e-4), math.log(500.0), 400_001)
        y = np.exp(u)
        f = radial.eval_state(st, y) ** 2 * radial.weight(y, 5e-3) * y
        assert abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(u))) - 1.0) <= 1e-8

    @pytest.mark.parametrize("L,Lambda,n_max", [(0, 2e-8, 24), (0, 1e-6, 30)])
    def test_gram_identity(self, L, Lambda, n_max):
        g = radial.gram_matrix(L, Lambda, n_max)
        assert g.shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(g - np.eye(n_max + 1))) <= 1e-8


class TestSmallLambdaNorms:
    """Near the harmonic switch the log prefactor once summed lgamma terms of
    about log(1/|Lambda|)/|Lambda| that cancel to O(1); the squared norms came
    out 1.2e-7 (Lambda = -2e-8) and 7.6e-8 (2e-8) relative off.  The trapezoid
    of R**2 mu over y in (1e-4, 40) on 200,001 points is good to about 1e-10
    here: the integrand is even in y, and eval_state takes log1p of
    Lambda*y**2 (the log of the rounded w = Lambda*y**2 + 1 lost about |p|
    ulp, p = -1/(2 Lambda))."""

    @pytest.mark.parametrize("Lambda,n", [(2e-8, 0), (-2e-8, 0), (2e-8, 21), (-2e-8, 21)])
    def test_normalize_is_unit_by_trapezoid(self, Lambda, n):
        st = radial.normalize(radial.build_state(n, 0, Lambda))
        y = np.linspace(1e-4, 40.0, 200_001)
        f = radial.eval_state(st, y) ** 2 * radial.weight(y, Lambda)
        assert abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(y))) - 1.0) <= 1e-9


class TestEffectivePotential:
    def test_pure_harmonic(self):
        p = make_model(1.3, 0.7, 0.0)
        r = 1.9
        assert radial.effective_potential(r, p, 0) == pytest.approx(0.5 * 1.3 * 0.49 * r * r, rel=1e-14)

    def test_example_value(self):
        # V = (1/2)*1*1/(1+1) = 1/4 plus centrifugal L(L+1)*(lam*r^2+1)/(2*m*r^2) = 2
        p = make_model(1.0, 1.0, 1.0)
        assert radial.effective_potential(1.0, p, 1) == pytest.approx(2.25, rel=1e-14)

    def test_mass_form_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = make_model(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(-0.2, 2))
            r = rng.uniform(0.1, 1.5)
            L = int(rng.integers(0, 4))
            v1 = radial.effective_potential(r, p, L)
            v2 = radial.effective_potential_mass_form(r, p, L)
            assert v1 == pytest.approx(v2, rel=1e-13)

    @pytest.mark.parametrize("L", [0, 1])
    def test_mass_form_r_squared_underflow(self, L):
        with pytest.raises(OutsideDomain, match="r\\*r > 0, got r = 1e-200"):
            radial.effective_potential_mass_form(1e-200, make_model(1, 1, 1), L)

    def test_swap_symmetry(self):
        # V_eff = (alpha^2*M*r^2 + L(L+1)*hbar^2/(M*r^2))/2 is invariant under
        # swapping alpha^2 <-> L(L+1)*hbar^2 together with M*r^2 <-> 1/(M*r^2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = make_model(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(-0.2, 2), rng.uniform(0.5, 2))
            r = rng.uniform(0.1, 1.5)
            L = int(rng.integers(0, 4))
            w = p.lam * r * r + 1.0
            mr2 = (p.m / w) * r * r
            a2 = p.alpha**2
            cf = L * (L + 1) * p.hbar**2
            direct = 0.5 * (a2 * mr2 + cf / mr2)
            swapped = 0.5 * (cf / mr2 + a2 * mr2)
            assert radial.effective_potential(r, p, L) == pytest.approx(direct, rel=1e-13)
            assert direct == swapped

    def test_domain_violation(self):
        p = make_model(1.0, 1.0, -1.0)
        with pytest.raises(OutsideDomain):
            radial.effective_potential(2.0, p, 0)

    def test_rejects_negative_L(self):
        # L = -1 and L = 0 share L*(L+1) = 0, so the formula alone would not notice
        with pytest.raises(ValueError, match="^quantum numbers must be nonnegative, got L = -1$"):
            radial.effective_potential(np.array([0.5, 1.0]), make_model(1.0, 1.0, 1.0), -1)


class TestUTransform:
    @pytest.mark.parametrize("n,L,Lambda", [(0, 0, -1.0), (2, 0, -0.5), (1, 2, -1.0), (3, 1, 0.05)])
    def test_residual_small(self, n, L, Lambda):
        st = radial.build_state(n, L, Lambda)
        assert radial.u_transform_residual(st) < 1e-9
