"""Eigenfunctions against exact rational evaluation, up to degree 40, and up to
160 (Lambda < 0) or 200 (Lambda > 0) at L = 0.

The Jacobi piece of ``eval_state`` with its two derivatives in s = y**2, and
the Laguerre piece of the harmonic-oscillator closures, are compared with
rational evaluation of the same polynomials (see ``polynomial_references``) on
60 points of
(0.05, min(0.999 y_end, 6)), by max|R - R_exact| / max|R_exact|.  The range is
both signs of Lambda, L = 0..4 and n <= 40, with the top admissible state where
Lambda > 0 leaves fewer than 41: the ten of Lambda = 0.013 (n = 35..37) and
Lambda = 0.1 (n = 2..4).  Above n = 40 (L = 0; Lambda = -1e-3 and -0.1 up to
n = 160, Lambda = 1e-3 up to n = 200) the error grows about linearly in n, and
the bound with it: 1e-12 * n/40.
"""

import math

import numpy as np
import pytest

from nlosc import oracle, orthopoly, radial
from nlosc.params import domain
from nlosc.spectrum import bound_state_count, is_admissible
from nlosc.orthopoly import jacobi, jacobi_scaled
from polynomial_references import (
    ho_exact,
    jacobi_piece_derivatives_exact,
    laguerre_sign_log,
    state_exact,
    state_mpmath,
    state_sign_log,
)

LAMBDAS = [-3.0, -0.5, -0.1, -0.01, 0.005, 0.013, 0.1]
DEGREES = (0, 1, 10, 20, 30, 40)
ACCURACY = 1e-12
RESIDUAL_GATE = 1e-9


def _points(lam):
    upper = domain(lam).upper
    return np.linspace(0.05, min(0.999 * upper, 6.0) if math.isfinite(upper) else 6.0, 60)


def _states(lam):
    """(n, L) for L = 0..4 and n in DEGREES up to the top admissible state, which is included."""
    for L in range(5):
        count = bound_state_count(lam, L)
        top = 40 if count.unbounded else min(40, count.count - 1)
        for n in sorted({n for n in DEGREES if n <= top} | {top}):
            yield n, L


def _rel_err(got, exact):
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_eval_state_is_exact_to_1e_12(lam):
    ys, worst = _points(lam), []
    for n, L in _states(lam):
        state = radial.normalize(radial.build_state(n, L, lam))
        worst.append((_rel_err(radial.eval_state(state, ys), state_exact(state, ys)), n, L))
    assert max(worst)[0] <= ACCURACY, max(worst)


@pytest.mark.parametrize(
    "n,lam", [(n, lam) for lam in (-1e-3, -0.1) for n in (80, 160)] + [(n, 1e-3) for n in (60, 100, 200)]
)
def test_eval_state_above_degree_40(lam, n):
    ys = _points(lam)
    state = radial.normalize(radial.build_state(n, 0, lam))
    assert _rel_err(radial.eval_state(state, ys), state_exact(state, ys)) <= ACCURACY * max(1.0, n / 40)


def test_far_tail_past_the_float_range():
    # at Lambda = 5e-3, n = 77, P_n overflows a float from y = 858 on, while
    # w**p underflows; |R| is about 1e-15 at y = 150 and 1e-74 at y = 3000
    state = radial.normalize(radial.build_state(77, 0, 5e-3))
    ys = np.array([1.0, 150.0, 300.0, 1000.0, 2000.0, 3000.0])
    x = 1.0 + 2.0 * state.Lambda * ys * ys
    m, e = jacobi_scaled(77, 0.5, -1.0 / state.Lambda - 0.5, x)
    assert np.all(np.isfinite(m))
    with np.errstate(over="ignore"):
        plain = jacobi(77, 0.5, -1.0 / state.Lambda - 0.5, x)
    assert np.isinf(plain[3:]).all()
    # scaling by powers of two is exact: where P_n is finite the values are those of
    # a run that never scaled (x[:3] alone, whose bound stays below 2**960)
    assert np.ldexp(m[:3], e[:3]).tobytes() == plain[:3].tobytes() == jacobi(77, 0.5, -200.5, x[:3]).tobytes()
    assert jacobi_scaled(77, 0.5, -200.5, x[:3])[1] == 0
    R = radial.eval_state(state, ys)
    for k, (sign, log_R) in enumerate(state_sign_log(state, ys)):
        log_pref = math.log(state.norm_const) + state.prefactor_exponent * math.log(state.Lambda * ys[k] ** 2 + 1.0)
        log_abs = float(log_R) - log_pref  # the Jacobi piece's
        assert np.sign(m[k]) == sign and abs(math.log(abs(m[k])) + e[k] * math.log(2.0) - log_abs) <= 1e-12 + 1e-14 * abs(log_abs)
        assert R[k] == pytest.approx(sign * float(log_R.exp()), rel=1e-12, abs=0)
    assert R.tobytes() == np.array([radial.eval_state(state, float(y)) for y in ys]).tobytes()


def test_far_tail_derivatives_past_the_float_range():
    # the same tail for R' and R'': each Jacobi piece's power of two joins the log prefactor,
    # where jacobi's inf times the prefactor's underflowed 0 gave NaN from y = 875 on
    state = radial.normalize(radial.build_state(77, 0, 5e-3))
    ys = np.array([875.0, 1000.0, 2000.0, 3000.0])
    R, R1, R2 = radial.eval_state_with_derivatives(state, ys)
    assert np.isfinite([R, R1, R2]).all() and np.all(R != 0)
    assert R == pytest.approx(radial.eval_state(state, ys), rel=1e-12, abs=0)
    assert radial.u_transform_residual(state, [1000.0, 3000.0]) < 1e-9


@pytest.mark.parametrize(
    "lam,L,n,y", [(1e-3, 170, 160, 96.45999066263525), (-1e-6, 0, 77, 503.90625), (1e-6, 0, 160, 72.1540480240481)]
)
def test_derivatives_where_a_piece_is_just_below_the_float_range(lam, L, n, y):
    # a Jacobi piece between 2**960 and 2**1024 was finite, so its power of two stayed
    # out of the log prefactor, and la * dQ or sp**2 * d2Q overflowed: R' and R'' were NaN
    state = radial.normalize(radial.build_state(n, L, lam))
    R, R1, R2 = radial.eval_state_with_derivatives(state, y)
    assert np.isfinite([R, R1, R2]).all()
    assert radial.eval_state(state, y) == R
    if R:
        assert radial.u_transform_residual(state, [y]) <= RESIDUAL_GATE
    else:  # all three underflow
        assert R1 == R2 == 0.0


# The far-tail grid: every admissible (n, L) below at each Lambda, on 514 points
# geometric from 0.01 to min(3000, y_end), and at Lambda > 0 ten more, y = 1e10..1e100
TAIL_LAMBDAS = [-0.7, -0.3, -0.03, -1e-3, -1e-4, -1e-6, 1e-6, 1e-4, 1e-3, 0.005, 0.0123, 0.1]
TAIL_STATES = [(n, L) for L in (0, 1, 3, 170) for n in (0, 1, 2, 5, 10, 40, 77, 160, 300)]


def _tail_grid(lam):
    upper = domain(lam).upper
    ys = np.geomspace(0.01, min(3000.0, upper), 514)
    return np.concatenate([ys, 10.0 ** np.arange(10, 101, 10)]) if lam > 0 else ys


def _tail_states(lam):
    for n, L in TAIL_STATES:
        if is_admissible(n, L, lam):
            yield radial.normalize(radial.build_state(n, L, lam))


def _split_log(state, ys):
    """log|R| from the split Jacobi piece and the log prefactor, never formed as a float."""
    ((f, k),) = orthopoly._pieces(state.qn.n, state.L_power, state.Lambda, ys * ys, 1)
    with np.errstate(divide="ignore"):
        log_pref = orthopoly._log_prefactor(state.L_power, state.Lambda, ys)
        return log_pref + math.log(state.norm_const) + np.log(np.abs(f)) + k * math.log(2.0)


@pytest.mark.parametrize("lam", TAIL_LAMBDAS)
def test_far_tail_grid_has_no_nan_and_no_false_zero(lam):
    # R was NaN where a step of the recurrence overflowed, and 0.0 where exp(log_a) or
    # norm_const * exp(log_a) underflowed while R itself is a normal float
    ys = _tail_grid(lam)
    inner = ys[(lam * ys * ys + 1.0 > 0) & (ys < domain(lam).upper)]
    for state in _tail_states(lam):
        R = radial.eval_state(state, ys)
        derivatives = radial.eval_state_with_derivatives(state, inner)
        assert np.isfinite(R).all() and np.isfinite(derivatives).all(), state.qn
        # below 1.5 times the smallest subnormal, log|R| < -744.03, exp(log_a + e log 2) is
        # subnormal too, and it and its product with the piece, both rounded, may meet at 0
        log_abs = _split_log(state, ys)
        assert np.all((R != 0.0) | (log_abs < -744.0)), (state.qn, ys[(R == 0.0) & (log_abs >= -744.0)])
        # the two paths fold each point's exponent from one piece and from three
        normal = np.abs(derivatives[0]) >= 2.0**-1022
        R_inner = radial.eval_state(state, inner[normal])
        assert derivatives[0][normal] == pytest.approx(R_inner, rel=1e-12, abs=0), state.qn


@pytest.mark.parametrize("lam", TAIL_LAMBDAS)
def test_far_tail_grid_against_mpmath(lam):
    # every 16th point of the grid, where mpmath's R is a normal float, relative to the
    # envelope: the largest |R| between the point and the nearer end of the grid, which is
    # |R| itself in the decaying tails and about max|R| among the nodes.  Small |Lambda| is where
    # a recurrence on the rounded x = 1 + 2*Lambda*y**2 and b = -1/Lambda - 1/2 misses this bound
    # (2.5e-9 over n/40 at 1e-6); the pieces run in s = y**2
    pytest.importorskip("mpmath")
    ys = _tail_grid(lam)[::16]
    worst = []
    for state in _tail_states(lam):
        exact = state_mpmath(state, ys)
        size = np.abs(exact)
        envelope = np.minimum(np.maximum.accumulate(size), np.maximum.accumulate(size[::-1])[::-1])
        normal = size >= 2.0**-1022
        err = np.abs(radial.eval_state(state, ys) - exact)[normal] / envelope[normal]
        worst.append((float(err.max()) / max(1.0, state.qn.n / 40), state.qn))
    err, qn = max(worst, key=lambda w: w[0])
    assert err <= ACCURACY, (err, qn)


def test_far_tail_points_that_were_wrong():
    # R = 0.0 from norm_const * exp(log_a) underflowing before Q multiplied it
    state = radial.normalize(radial.build_state(160, 170, -2e-4))
    y = 38.99207197701388
    R = radial.eval_state(state, y)
    assert R > 0 and R == pytest.approx(radial.eval_state_with_derivatives(state, y)[0], rel=1e-12, abs=0)
    ((sign, log_R),) = state_sign_log(state, [y])
    assert R == pytest.approx(sign * float(log_R.exp()), rel=1e-12, abs=0)
    # NaN from a recurrence step that overflowed from below 2**960; the true R underflows
    state = radial.normalize(radial.build_state(40, 0, 0.005))
    assert radial.eval_state(state, 1e60) == 0.0 and _split_log(state, np.array([1e60]))[0] < -745.0
    assert np.isfinite(radial.eval_state_with_derivatives(state, 1e60)).all()


@pytest.mark.parametrize("n,y,value", [(100, 47.1, 7.07e-308), (200, 40.0, 7.22e-95)])
def test_harmonic_where_the_exp_underflows(n, y, value):
    # exp(-y**2/2) is subnormal or 0 while L_n is below 2**960: R read 0.0
    R = oracle.ho_wavefunction(n, 0)(y)
    ((sign, log_abs),) = laguerre_sign_log(n, 0, [y])
    assert R == pytest.approx(sign * math.exp(log_abs - 0.5 * y * y), rel=1e-12, abs=0)
    assert R == pytest.approx(value, rel=1e-3)
    assert oracle.ho_wavefunction_with_derivatives(n, 0)(y)[0] == pytest.approx(R, rel=1e-12, abs=0)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = float(mp.exp(-mp.mpf(y) ** 2 / 2) * mp.laguerre(n, mp.mpf(1) / 2, mp.mpf(y) ** 2))
    assert R == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_jacobi_piece_and_its_derivatives_are_exact_to_1e_12(lam):
    # Q, dQ/ds and d2Q/ds2 by the parameter shift, against the exact series in s
    ys, worst = _points(lam), []
    for n, L in _states(lam):
        state = radial.build_state(n, L, lam)
        pieces = orthopoly._pieces(state.qn.n, state.L_power, state.Lambda, ys * ys, 3)
        got = tuple(np.ldexp(m, e) for m, e in pieces)
        exact = jacobi_piece_derivatives_exact(state, ys)
        for j in range(3):
            if j > n:
                assert not np.any(got[j]), (n, L, j)
            else:
                worst.append((_rel_err(got[j], exact[j]), n, L, j))
    assert max(worst)[0] <= ACCURACY, max(worst)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_u_transform_residual_at_high_degree(lam):
    worst = max((radial.u_transform_residual(radial.normalize(radial.build_state(n, L, lam))), n, L)
                for n, L in _states(lam))
    assert worst[0] <= RESIDUAL_GATE, worst


@pytest.mark.parametrize("L", range(5))
def test_harmonic_closures_are_exact_to_1e_12(L):
    ys = _points(0.0)
    for n in DEGREES:
        exact = ho_exact(n, L, ys)
        assert _rel_err(oracle.ho_wavefunction(n, L)(ys), exact[0]) <= ACCURACY, n
        got = oracle.ho_wavefunction_with_derivatives(n, L)(ys)
        for k in range(3):
            assert _rel_err(got[k], exact[k]) <= ACCURACY, (n, k)


@pytest.mark.parametrize("n,ys", [(300, (39.22, 40.0, 45.0, 50.0, 53.05, 57.0)), (200, (50.0, 53.05))])
def test_harmonic_far_tail_against_mpmath(n, ys):
    # L_n past 2**960 while exp(-y**2/2) underflows: the closures were NaN there,
    # from y = 39.22 on at n = 300 and from 53.05 on at n = 200
    mp = pytest.importorskip("mpmath")
    ys = np.array(ys)
    with mp.workdps(50):
        exact = [float(mp.exp(-mp.mpf(y) ** 2 / 2) * mp.laguerre(n, mp.mpf(1) / 2, mp.mpf(y) ** 2)) for y in ys]
    got = oracle.ho_wavefunction(n, 0)(ys)
    assert got == pytest.approx(exact, rel=1e-12) and np.all(got != 0.0)
    R, R1, R2 = oracle.ho_wavefunction_with_derivatives(n, 0)(ys)
    assert np.isfinite([R1, R2]).all() and R == pytest.approx(got, rel=1e-14)
    f = oracle.ho_wavefunction_with_derivatives(n, 0)
    assert max(oracle.radial_residual(f, float(y), 2 * n + 1.5, 0.0, 0) for y in ys) <= 1e-12


@pytest.mark.parametrize("L", range(5))
def test_harmonic_radial_residual_at_high_degree(L):
    for n in DEGREES:
        f = oracle.ho_wavefunction_with_derivatives(n, L)
        worst = max(oracle.radial_residual(f, float(y), 2 * n + L + 1.5, 0.0, L) for y in _points(0.0))
        assert worst <= 1e-12, n


def test_no_recurrence_denominator_vanishes_at_an_admissible_state():
    # The Jacobi recurrence divides by 2m(m+a+b)(2m+a+b-2), m = 2..n, with
    # a = L+1/2 and b = -1/Lambda-1/2, so a+b = L - 1/Lambda; the derivatives
    # run it at (a+j, b+j) up to degree n-j, j = 1, 2.  For Lambda < 0 every
    # factor is positive.  For Lambda > 0 the cutoff 2n+L+1 < 1/Lambda keeps
    # both Lambda-dependent factors below -1 for each j; Lambda = 1/k makes a+b
    # an integer, the closest approach to a zero.
    lams = np.concatenate([1.0 / np.arange(1, 401), np.geomspace(1e-3, 1.0, 997), -np.geomspace(1e-3, 3.0, 101)])
    for lam in lams:
        for L in range(7):
            count = bound_state_count(lam, L)
            top = 60 if count.unbounded else count.count - 1
            if top < 2:
                continue
            for j in range(3):
                a, b = L + 0.5 + j, -1.0 / lam - 0.5 + j
                m = np.arange(2.0, top - j + 1)
                if m.size:
                    assert np.min(np.abs(m + a + b)) > 1.0 and np.min(np.abs(2.0 * m + a + b - 2.0)) > 1.0, (lam, L, j)
