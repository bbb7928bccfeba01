"""Reference evaluations of the polynomials in nlosc, for the tests only.

The Rodrigues expansion and the terminating 2F1 are independent float forms of
the Jacobi polynomial.  The exact references evaluate in rational arithmetic at
rational points (every float is one): the Jacobi piece of a state from the
integer coefficients of ``radial._folded_t_poly_exact``, and the Laguerre
polynomial from its explicit sum in ``Fraction``s.  A transcendental prefactor
(a power of Lambda*y**2 + 1, or exp(-y**2/2)) is the one float factor left.
"""

import math
from fractions import Fraction

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


def _at(coeffs, den, t):
    """sum_k coeffs[k] t**k / den at the Fraction t, by integer Horner."""
    p, q = t.numerator, t.denominator
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return Fraction(acc, den * q ** max(len(coeffs) - 1, 0))


def jacobi_piece_exact(state, ys):
    """The state's Jacobi piece P_n(1 + 2*Lambda*y**2), exactly, at each float y."""
    coeffs, den = radial._folded_t_poly_exact(state)
    lam, n = Fraction(state.Lambda), state.qn.n
    out = []
    for y in ys:
        s = Fraction(y) ** 2
        if lam < 0:  # t = 2|Lambda| s
            out.append(_at(coeffs, den, -2 * lam * s))
        else:  # t = 2 Lambda s / (1 + Lambda s), and the fold carries (Lambda (2 - t))**n
            out.append(_at(coeffs, den, 2 * lam * s / (1 + lam * s)) * ((1 + lam * s) / (2 * lam)) ** n)
    return out


def jacobi_piece_s_coeffs(state):
    """Coefficients, ascending in s = y**2, of the state's Jacobi piece as
    Fractions: the terminating series C(n+L+1/2, n) 2F1(-n, n+L+1-1/lam; L+3/2; -lam*s)
    with lam the float Lambda taken exactly."""
    n, L, lam = state.qn.n, state.qn.L, Fraction(state.Lambda)
    h = Fraction(1)
    for j in range(1, n + 1):  # C(n+L+1/2, n)
        h *= (L + Fraction(1, 2) + j) / j
    coeffs = [h]
    for k in range(n):
        h *= (k - n) * (n + L + 1 + k - 1 / lam) * -lam / ((L + Fraction(3, 2) + k) * (k + 1))
        coeffs.append(h)
    return coeffs


def jacobi_piece_derivatives_exact(state, ys):
    """Rows Q, dQ/ds and d2Q/ds2 of the state's Jacobi piece at s = y**2 for
    each float y, exactly: the coefficients in s differentiated term by term
    and summed in integers, rounded once per value."""
    c = jacobi_piece_s_coeffs(state)
    rows = []
    for j in range(3):
        cj = [math.perm(k, j) * c[k] for k in range(j, len(c))]
        den = math.lcm(1, *(v.denominator for v in cj))
        ints = [int(v * den) for v in cj]
        rows.append([float(_at(ints, den, Fraction(y) ** 2)) for y in ys])
    return np.array(rows)


def state_exact(state, ys):
    """R at the points ys with the Jacobi piece exact (float prefactor and norm)."""
    out = []
    for y, q in zip(ys, jacobi_piece_exact(state, ys)):
        w = state.Lambda * y * y + 1.0
        pref = math.exp(state.L_power * math.log(y) + state.prefactor_exponent * math.log(w))
        out.append(state.norm_const * pref * float(q))
    return np.array(out)


def laguerre_exact(n, a):
    """L_n^(a) as (integer coefficients ascending in x, common denominator),
    from the explicit sum sum_k (-1)^k C(n+a, n-k) x^k / k!; a a Fraction.
    n < 0 gives the zero polynomial, as the derivative identities need."""
    coeffs = []
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(1, n - k + 1):  # C(n+a, n-k) = prod (a+k+j)/j
            binom *= (a + k + j) / j
        coeffs.append((-1) ** k * binom / math.factorial(k))
    den = math.lcm(1, *(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def ho_exact(n, L, ys):
    """(R, R', R'') of y^L exp(-y^2/2) L_n^(L+1/2)(y^2) at the points ys, with
    the Laguerre values exact: dL_n^(a)/dx = -L_(n-1)^(a+1) and
    d2L_n^(a)/dx2 = L_(n-2)^(a+2)."""
    a = Fraction(2 * L + 1, 2)
    polys = [laguerre_exact(n - j, a + j) for j in range(3)]
    rows = []
    for y in ys:
        x = Fraction(y) ** 2
        Q, dQ, d2Q = (float((-1) ** j * _at(*polys[j], x)) for j in range(3))
        A = y**L * math.exp(-0.5 * y * y)
        la = L / y - y
        dla = -L / (y * y) - 1.0
        rows.append((A * Q, A * (la * Q + 2.0 * y * dQ),
                     A * ((la * la + dla) * Q + 4.0 * y * la * dQ + 4.0 * y * y * d2Q + 2.0 * dQ)))
    return np.array(rows).T
