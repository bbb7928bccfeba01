"""The paper's s-states: at L = 0 the radial states are the 1D nonlinear
oscillator's, Gegenbauer (associated Legendre) functions, with the energy
shifted by a constant.

By DLMF 18.7.16 and the symmetry 18.6.1 the L = 0 state is

    R(y) ∝ (1 + Lambda y**2)**(-1/(2 Lambda)) C_m^(-1/Lambda)(x) / x,
    x = sqrt(-Lambda) y,  m = 2n + 1,

a Gegenbauer polynomial of odd degree.  At Lambda > 0, x is imaginary and
C_m(x)/x is a real polynomial in y**2.  The Gegenbauer side here is its own
three-term recurrence (DLMF 18.9.1 with Table 18.9.1), run in complex
arithmetic, and shares no code with :mod:`nlosc.orthopoly`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from nlosc import radial
from nlosc.params import domain
from nlosc.spectrum import bound_state_count, energy_dimless_exact


def _gegenbauer(m, lam, x):
    """(c, E) with C_m^(lam)(x) = c * 2**E at the complex points x, from
    (k+1) C_(k+1) = 2(k+lam) x C_k - (k+2 lam-1) C_(k-1), C_0 = 1 and C_(-1) = 0.
    C_m grows like (2 lam)_m / m!, so each step moves both values' power of two
    into E, exactly, per point."""
    prev, cur, E = np.zeros_like(x), np.ones_like(x), np.zeros(x.shape, dtype=int)
    for k in range(m):
        nxt = (2.0 * (k + lam) * x * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
        e = np.frexp(np.maximum(np.abs(nxt), np.abs(cur)))[1]
        prev, cur, E = cur * np.ldexp(1.0, -e), nxt * np.ldexp(1.0, -e), E + e
    return cur, E


def _points(lam):
    upper = domain(lam).upper
    return np.linspace(0.05, min(0.999 * upper, 6.0) if math.isfinite(upper) else 6.0, 60)


def _legendre_form(lam, n, ys):
    """(sign, log|G|) of G = (1 + lam y**2)**(-1/(2 lam)) C_(2n+1)^(-1/lam)(x) / x, x = sqrt(-lam) y."""
    x = np.sqrt(complex(-lam)) * ys
    c, E = _gegenbauer(2 * n + 1, -1.0 / lam, x)
    g = c / x
    assert np.max(np.abs(g.imag)) <= 1e-13 * np.max(np.abs(g.real))  # real in y**2 at either sign
    log_g = -0.5 / lam * np.log1p(lam * ys * ys) + np.log(np.abs(g.real)) + E * math.log(2.0)
    return np.sign(g.real), log_g


def _top(lam):
    return bound_state_count(lam, 0).count - 1


# both signs, n up to 160, and top states at Lambda > 0 ((0.05, 9), (0.0123, 40), (3e-3, 166))
CASES = [(-0.3, 3), (-0.01, 7), (0.05, 2), (0.0123, 9), (-0.01, 40), (-3.0, 160), (-0.01, 160), (-1e-3, 160),
         (1e-3, 160), (0.05, _top(0.05)), (0.0123, _top(0.0123)), (3e-3, _top(3e-3))]


@pytest.mark.parametrize("lam,n", CASES)
def test_s_state_is_the_gegenbauer_function(lam, n):
    # R / G is one constant: fitted where |R| is largest, R - (R/G) G relative to max|R|
    ys = _points(lam)
    R = radial.eval_state(radial.normalize(radial.build_state(n, 0, lam)), ys)
    sign, log_g = _legendre_form(lam, n, ys)
    i = int(np.argmax(np.abs(R)))
    fit = np.sign(R[i]) * sign[i] * sign * np.exp(log_g - log_g[i] + math.log(abs(R[i])))
    assert np.max(np.abs(R - fit)) <= 1e-12 * max(1.0, n / 40) * np.max(np.abs(R))


@pytest.mark.parametrize("lam,n", [(-0.3, 3), (0.0123, 9), (-0.01, 40)])
def test_recurrence_against_mpmath(lam, n):
    mp = pytest.importorskip("mpmath")
    ys = _points(lam)[::7]
    sign, log_g = _legendre_form(lam, n, ys)
    with mp.workdps(40):
        lm = mp.mpf(lam)
        root = mp.sqrt(-lm)  # imaginary at lam > 0
        exact = [mp.re((1 + lm * y * y) ** (-1 / (2 * lm)) * mp.gegenbauer(2 * n + 1, -1 / lm, root * y) / (root * y))
                 for y in map(mp.mpf, ys)]
        assert [int(mp.sign(v)) for v in exact] == sign.tolist()
        assert max(abs(float(mp.log(abs(v))) - g) for v, g in zip(exact, log_g)) <= 1e-12


@pytest.mark.parametrize("lam", [-3.0, -0.3, -0.01, -1e-3, 1e-3, 0.0123, 0.05])
def test_energy_is_the_1d_oscillator_shifted(lam):
    # e(n, 0) - Lambda/2 = (m + 1/2) - Lambda m**2 / 2, m = 2n + 1: the 1D level of degree m
    shift = Fraction(lam) / 2
    for n in range(0, 161 if lam < 0 else _top(lam) + 1):
        m = 2 * n + 1
        assert energy_dimless_exact(n, 0, lam) - shift == (m + Fraction(1, 2)) - Fraction(lam) * m * m / 2
