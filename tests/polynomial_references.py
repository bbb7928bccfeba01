"""Reference evaluations of the polynomials in nlosc, for the tests only.

The Rodrigues expansion and the terminating 2F1 are independent float forms of
the Jacobi polynomial.  The exact references evaluate in rational arithmetic at
rational points (every float is one), in integers over one common denominator,
each value rounded once by a single division: the Jacobi piece of a state from
the integer coefficients of ``radial._folded_t_poly_exact``, and the Laguerre
polynomial from its explicit sum.  A transcendental prefactor
(a power of Lambda*y**2 + 1, or exp(-y**2/2)) is the one float factor left.
The unit norm constant of a state comes from mpmath at 50 digits.  Far-tail
values, past the float range in their pieces, come from the log of R in the
standard library's ``decimal`` at 40 digits (``state_sign_log``), so CI, which
installs no mpmath, checks them.
"""

import decimal
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from nlosc import radial
from nlosc.errors import PoleInDenominator


def jacobi_rodrigues(n, a, b):
    """Coefficients, ascending in x, of the Rodrigues-form Jacobi polynomial
    expanded by the Leibniz rule."""
    one_minus = np.array([1.0, -1.0])
    one_plus = np.array([1.0, 1.0])
    total = np.zeros(n + 1)
    for k in range(n + 1):
        fall_a = 1.0  # (a+n)(a+n-1)...(a+n-k+1)
        for j in range(k):
            fall_a *= a + n - j
        fall_b = 1.0  # (b+n)(b+n-1)...(b+k+1)
        for j in range(n - k):
            fall_b *= b + n - j
        coef = math.comb(n, k) * (-1.0) ** k * fall_a * fall_b
        term = np.array([coef])
        for _ in range(n - k):
            term = npoly.polymul(term, one_minus)
        for _ in range(k):
            term = npoly.polymul(term, one_plus)
        total = npoly.polyadd(total, np.pad(term, (0, n + 1 - len(term))))
    return total * (-1.0) ** n / (2.0**n * math.factorial(n))


def hyp2f1_terminating(n, b2, c, z):
    """2F1(-n, b2; c; z) summed over its n+1 terms."""
    total = 1.0
    term = 1.0
    for k in range(n):
        if c + k == 0.0:
            raise PoleInDenominator(f"(c)_k vanishes at k = {k + 1} for c = {c}")
        term *= (-n + k) * (b2 + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def _ratio_series(num0, den0, ratios):
    """Terms c_0 = num0/den0 and c_(k+1) = c_k * p_k/q_k for (p_k, q_k) in ``ratios``,
    all integers and q_k > 0, as (integer numerators, one common denominator) in lowest terms."""
    coeffs, den = [num0], den0
    for p, q in ratios:
        coeffs = [c * q for c in coeffs] + [coeffs[-1] * p]
        den *= q
    g = math.gcd(den, *coeffs)
    return [c // g for c in coeffs], den // g


def _horner(coeffs, p, q):
    """q**m * sum_k coeffs[k] (p/q)**k, m = len(coeffs) - 1, for integers p and q > 0:
    Horner's rule in integers.  For a power of two q (the denominator of every
    float) the powers of q are shifts, several times faster than products."""
    acc, e = 0, q.bit_length() - 1
    if q == 1 << e:
        for k, c in enumerate(reversed(coeffs)):
            acc = acc * p + (c << (e * k))
        return acc
    qk = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _at(coeffs, den, p, q):
    """sum_k coeffs[k] (p/q)**k / den at integers p and q > 0, exact and rounded once."""
    return _horner(coeffs, p, q) / (den * q ** max(len(coeffs) - 1, 0))


def jacobi_piece_exact(state, ys):
    """The state's Jacobi piece P_n(1 + 2*Lambda*y**2) at each float y, exact and rounded once."""
    coeffs, den = radial._folded_t_poly_exact(state.qn.n, state.qn.L, state.Lambda)
    Q = state.Lambda.as_integer_ratio()[1]  # Lambda = P/Q and y = p/q, so tau = 2 s / Q = 2 p**2 / (Q q**2)
    return [_at(coeffs, den, 2 * p * p, Q * q * q) for p, q in (float(y).as_integer_ratio() for y in ys)]


def state_sign_log(state, ys):
    """(sign, log |R|) of the state at each float y > 0, for values past the float range: the log a
    Decimal at 40 digits, with Lambda = P/Q and y = p/q taken exactly, summed from Decimal.ln() of
    the exact Horner integers of the Jacobi piece, L log y, -log(1 + Lambda y**2) / (2 Lambda)
    and log|norm_const|.  No float log of a huge integer is subtracted."""
    n, L = state.qn.n, state.L_power
    coeffs, den = radial._folded_t_poly_exact(n, L, state.Lambda)
    P, Q = state.Lambda.as_integer_ratio()
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ln = lambda i: decimal.Decimal(i).ln()  # noqa: E731
        log_c, power = decimal.Decimal(abs(state.norm_const)).ln(), decimal.Decimal(-Q) / (2 * P)  # -1/(2 Lambda)
        for p, q in (float(y).as_integer_ratio() for y in ys):
            num = _horner(coeffs, 2 * p * p, Q * q * q)
            log_piece = ln(abs(num)) - ln(den) - n * ln(Q * q * q)
            log_pref = L * (ln(p) - ln(q)) + power * (ln(Q * q * q + P * p * p) - ln(Q * q * q))
            sign = (1 if num > 0 else -1) * (1 if state.norm_const > 0 else -1)
            out.append((sign, log_piece + log_pref + log_c))
    return out


def jacobi_piece_s_coeffs(state):
    """Coefficients, ascending in s = y**2, of the state's Jacobi piece as
    (integers, common denominator): the terminating series
    C(n+L+1/2, n) 2F1(-n, n+L+1-1/lam; L+3/2; -lam*s) with lam = P/Q the float
    Lambda taken exactly, term ratio 2(k-n)(Q-(n+L+1+k)P) / (Q(2L+3+2k)(k+1))."""
    n, L = state.qn.n, state.qn.L
    P, Q = state.Lambda.as_integer_ratio()
    # C(n+L+1/2, n) = (2L+3)(2L+5)..(2L+1+2n) / (2^n n!)
    num0, den0 = math.prod(range(2 * L + 3, 2 * L + 2 + 2 * n, 2)), 2**n * math.factorial(n)
    return _ratio_series(num0, den0, [(2 * (k - n) * (Q - (n + L + 1 + k) * P), Q * (2 * L + 3 + 2 * k) * (k + 1))
                                      for k in range(n)])


def jacobi_piece_derivatives_exact(state, ys):
    """Rows Q, dQ/ds and d2Q/ds2 of the state's Jacobi piece at s = y**2 for
    each float y, exactly: the coefficients in s differentiated term by term
    and summed in integers, rounded once per value."""
    c, den = jacobi_piece_s_coeffs(state)
    points = [float(y).as_integer_ratio() for y in ys]
    rows = []
    for j in range(3):
        cj = [math.perm(k, j) * c[k] for k in range(j, len(c))]
        rows.append([_at(cj, den, p * p, q * q) for p, q in points])
    return np.array(rows)


def state_exact(state, ys):
    """R at the points ys with the Jacobi piece exact (float prefactor and norm)."""
    out = []
    for y, q in zip(ys, jacobi_piece_exact(state, ys)):
        w = state.Lambda * y * y + 1.0
        pref = math.exp(state.L_power * math.log(y) + state.prefactor_exponent * math.log(w))
        out.append(state.norm_const * pref * q)
    return np.array(out)


def laguerre_exact(n, a2):
    """L_n^(a), a = a2/2 for an integer a2, as (integer coefficients ascending in x,
    common denominator), from the explicit sum sum_k (-1)^k C(n+a, n-k) x^k / k!:
    C(n+a, n) and the term ratio -(n-k)/((a+k+1)(k+1)).  n < 0 gives the zero
    polynomial, as the derivative identities need."""
    if n < 0:
        return [], 1
    # C(n+a, n) = (a2+2)(a2+4)..(a2+2n) / (2^n n!)
    num0, den0 = math.prod(range(a2 + 2, a2 + 2 * n + 1, 2)), 2**n * math.factorial(n)
    return _ratio_series(num0, den0, [(-2 * (n - k), (a2 + 2 * k + 2) * (k + 1)) for k in range(n)])


def ho_exact(n, L, ys):
    """(R, R', R'') of y^L exp(-y^2/2) L_n^(L+1/2)(y^2) at the points ys, with
    the Laguerre values exact: dL_n^(a)/dx = -L_(n-1)^(a+1) and
    d2L_n^(a)/dx2 = L_(n-2)^(a+2)."""
    polys = [laguerre_exact(n - j, 2 * L + 1 + 2 * j) for j in range(3)]
    rows = []
    for y in ys:
        p, q = float(y).as_integer_ratio()
        Q, minus_dQ, d2Q = (_at(*poly, p * p, q * q) for poly in polys)
        dQ = -minus_dQ
        A = y**L * math.exp(-0.5 * y * y)
        la = L / y - y
        dla = -L / (y * y) - 1.0
        rows.append((A * Q, A * (la * Q + 2.0 * y * dQ),
                     A * ((la * la + dla) * Q + 4.0 * y * la * dQ + 4.0 * y * y * d2Q + 2.0 * dQ)))
    return np.array(rows).T


def laguerre_sign_log(n, L, ys):
    """(sign, log |value|) of L_n^(L+1/2)(y**2) at each float y, from the exact
    rational, for values whose prefactor exp(-y**2/2) is past the float range."""
    coeffs, den = laguerre_exact(n, 2 * L + 1)
    out = []
    for p, q in (float(y).as_integer_ratio() for y in ys):
        num = _horner(coeffs, p * p, q * q)
        out.append((1 if num > 0 else -1, math.log(abs(num)) - math.log(den) - n * math.log(q * q)))
    return out


def state_mpmath(state, ys):
    """R of the state at each float y by mpmath at 50 digits, the Jacobi piece
    P_n^(L+1/2, -1/Lambda-1/2)(1 + 2*Lambda*y**2) by mpmath.jacobi, with Lambda
    and y taken exactly."""
    import mpmath as mp

    with mp.workdps(50):
        lam, n, L = mp.mpf(state.Lambda), state.qn.n, state.L_power
        a, b = L + mp.mpf(1) / 2, -1 / lam - mp.mpf(1) / 2
        out = []
        for y in map(mp.mpf, ys):
            w = 1 + lam * y * y
            out.append(float(state.norm_const * y**L * w ** (-1 / (2 * lam)) * mp.jacobi(n, a, b, 2 * w - 1)))
        return np.array(out)


def norm_const_mpmath(n, L, Lambda):
    """The unit norm constant of state (n, L) at Lambda by mpmath at 50 digits:
    1/sqrt(M_0 s_n), M_0 = int y**(2L+2) (Lambda*y**2 + 1)**(-1/Lambda - 1/2) dy
    over the domain as a Beta function and
    s_n = (a+1)_n (b+1)_n (a+b+1) / (n! (a+b+1)_n (2n+a+b+1)), a = L + 1/2 and
    b = -1/Lambda - 1/2, by mpmath's rising factorials (gamma functions at large n)."""
    import mpmath as mp

    with mp.workdps(50):
        lam = mp.mpf(Lambda)
        a, b = L + mp.mpf(1) / 2, -1 / lam - mp.mpf(1) / 2
        m0 = abs(lam) ** -(a + 1) / 2 * mp.beta(a + 1, 1 / abs(lam) + mp.mpf(1) / 2 if Lambda < 0 else 1 / lam - L - 1)
        s = mp.rf(a + 1, n) * mp.rf(b + 1, n) * (a + b + 1) / (mp.factorial(n) * mp.rf(a + b + 1, n) * (2 * n + a + b + 1))
        return float(1 / mp.sqrt(m0 * s))
