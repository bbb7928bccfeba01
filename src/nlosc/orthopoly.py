"""Jacobi and Laguerre polynomials at points, and the radial eigenfunctions built on them.

Every polynomial here is P_n^(a, beta/lam)(1 + 2 lam s) in the variable s, run by one
three-term step (:func:`_step`): DLMF 18.9.2 with b = beta/lam and x = 1 + 2 lam s, each
coefficient times lam**2, so that no term holds the O(1/lam) parts that cancel.  Its cases:
Jacobi P_n^(a,b)(x) at lam = -1, beta = -b, s = (1 - x)/2; Laguerre L_n^(a)(s) at lam = 0,
beta = -1, the limit of P_n^(a,b)(1 - 2s/b) as b -> infinity (DLMF §18.7(iii)), with twice
DLMF 18.9.13's coefficients; and a radial state's j-th piece at lam = Lambda,
beta = Lambda (j - 1/2) - 1, so that neither b = -1/Lambda - 1/2 nor x = 1 + 2 Lambda y**2
is formed.  :func:`_recurrence` runs a step on the array of points, one numpy pass per
degree.  A derivative is the same family one degree lower at shifted parameters,
d/ds P_n^(a, beta/lam)(1 + 2 lam s) = (lam (n+a+1) + beta) P_(n-1)^(a+1, (beta+lam)/lam)
(DLMF 18.9.15), so no derivative is carried here.  No monomial coefficients are formed:
summed at a point they alternate in sign and cancel, to O(1) relative error by degree 30,
while the recurrence stays within a few hundred ulp of exact rational evaluation up to
degree 40 at least.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidDegree, PoleInDenominator

# :func:`_recurrence` rescales before a value would pass 2**_SPLIT_EXP, carrying it as m * 2**e
_SPLIT_EXP = 960


def _check_degree(n: int) -> int:
    if n < 0 or int(n) != n:
        raise InvalidDegree(f"degree must be a nonnegative integer, got {n}")
    return int(n)


def _recurrence(n: int, x, step) -> tuple:
    """(m, e) with p_n = m * 2**e at the points x, from p_0 = 1 and p_(-1) = 0;
    ``step(k)`` gives (A_k, B_k, C_k, D_k) for degree k -> k+1.  A negative or
    fractional n raises.  Before a step whose bound on max|p_(k+1)| would pass 2**_SPLIT_EXP,
    each point's pair (p_(k-1), p_k) is scaled by a power of two, which is exact, so no step
    overflows; e is the integer 0 until then, and m * 2**e is the unscaled value wherever finite."""
    x = np.asarray(x, dtype=float)
    prev, cur, e = np.zeros(x.shape), np.ones(x.shape), 0
    x_bound = float(np.fmax.reduce(np.abs(x), axis=None, initial=0.0))  # NaN points left out
    bound_prev, bound, limit = 0.0, 1.0, 2.0**_SPLIT_EXP
    for k in range(_check_degree(n)):
        A, B, C, D = step(k)
        bound_next = ((abs(A) * x_bound + abs(B)) * bound + abs(C) * bound_prev) / abs(D)
        if bound_next > limit:
            s = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
            prev, cur, e = np.ldexp(prev, -s), np.ldexp(cur, -s), e + s
            bound, bound_next = 1.0, (abs(A) * x_bound + abs(B) + abs(C)) / abs(D)
        prev, cur = cur, ((A * x + B) * cur - C * prev) / D
        bound_prev, bound = bound, bound_next
    return cur, e


def _step(a: float, lam: float, beta: float):
    """``step(k)`` of :func:`_recurrence` for P^(a, beta/lam)(1 + 2 lam s) in s: with m = k + 1 and
    g = lam (2m+a-1) + beta, (A, B, C, D) = (2g(g**2 - lam**2), g[2(lam a + beta)(a+2m-1) + 4 lam m(m-1)],
    2(m+a-1)(lam(m-1) + beta)(lam(2m+a) + beta), 2m(lam(m+a) + beta)(lam(2m+a-2) + beta)), and
    (lam(a+2) + beta, a+1, 0, 1) at k = 0.  D is lam**2 times Jacobi's 2m(m+a+b)(2m+a+b-2); where that
    is zero up to rounding, |D| < 1e-9 lam**2, :class:`PoleInDenominator` is raised."""

    def step(k):
        if k == 0:
            return lam * (a + 2.0) + beta, a + 1.0, 0.0, 1.0
        m = k + 1
        g = lam * (2 * m + a - 1.0) + beta
        d = 2.0 * m * (lam * (m + a) + beta) * (lam * (2 * m + a - 2.0) + beta)
        if abs(d) < 1e-9 * lam * lam:
            raise PoleInDenominator(
                f"Jacobi recurrence denominator 2m(m+a+b)(2m+a+b-2) vanishes at m = {m} for a = {a}, b = {beta / lam}"
            )
        # a+2m-1 and m+a-1 written as 2k+a+1 and k+a, so that lam = 0 doubles Laguerre's step bit for bit
        return (2.0 * g * (g * g - lam * lam), g * (2.0 * (lam * a + beta) * (2.0 * k + a + 1.0) + 4.0 * lam * m * (m - 1)),
                2.0 * (k + a) * (lam * (m - 1) + beta) * (lam * (2 * m + a) + beta), d)

    return step


def _value(m, e) -> np.ndarray:
    return np.ldexp(m, e) if np.any(e) else m


def jacobi_scaled(n: int, a: float, b: float, x) -> tuple:
    """P_n^(a,b) at the points x as (m, e) with P_n = m * 2**e, m finite where
    P_n overflows; the split depends on the other points (np.frexp of m gives
    one that does not).  Raises as :func:`jacobi`."""
    return _recurrence(n, 0.5 * (1.0 - np.asarray(x, dtype=float)), _step(a, -1.0, -b))


def jacobi(n: int, a: float, b: float, x) -> np.ndarray:
    """P_n^(a,b) with P_n^(a,b)(1) = C(n+a, n) at the points x, an array of their shape.

    b may be any real.  A recurrence denominator 2m(m+a+b)(2m+a+b-2) that is
    zero up to rounding (a+b a negative integer reached by an intermediate
    degree m) raises :class:`PoleInDenominator`; no admissible state of
    :mod:`nlosc.radial` reaches one, nor do its shifted parameters.
    """
    return _value(*jacobi_scaled(n, a, b, x))


def laguerre_scaled(n: int, a: float, x) -> tuple:
    """L_n^(a) at the points x as (m, e), as :func:`jacobi_scaled` splits P_n."""
    return _recurrence(n, x, _step(a, 0.0, -1.0))


def laguerre(n: int, a: float, x) -> np.ndarray:
    """Generalized Laguerre L_n^(a) with L_n^(a)(0) = C(n+a, n) at the points x, an array of their shape."""
    return _value(*laguerre_scaled(n, a, x))


def _pieces(n: int, L: int, lam: float, s, count: int) -> list:
    """The first ``count`` of Q, dQ/ds, d2Q/ds2 of Q(s) = P_n^(L+1/2, -1/lam-1/2)(1 + 2 lam s), or
    L_n^(L+1/2)(s) at lam = 0, one recurrence pass each, split at each point alone as (m, e), the
    piece m * 2**e by np.frexp: the j-th is the step's P_(n-j) at a = L+1/2+j and beta = lam (j-1/2) - 1,
    times lam (n+L+k) - 1 for k = 1..j (-1 at lam = 0), and zeros at the first one's exponents for j > n."""
    c, out = 1.0, []
    for j in range(min(count, n + 1)):
        m, e = _recurrence(n - j, s, _step(L + 0.5 + j, lam, lam * (j - 0.5) - 1.0))
        f, k = np.frexp(m)
        out.append((c * f, e + k))
        c *= lam * (n + L + 1 + j) - 1.0
    return out + [(np.zeros_like(out[0][0]), out[0][1])] * (count - len(out))


def _log_prefactor(L: int, lam: float, y):
    """log|y**L| plus the log of the tail (1 + lam y**2)**(-1/(2 lam)), -1/(2 lam) log1p(lam y**2) by numpy,
    or -y**2/2 at lam = 0 (L log|y| left out for L = 0); log1p keeps out the 5.6e-17/|lam| of a rounded
    1 + lam y**2.  Clamped at -1, its exp is 0 at the lam < 0 endpoint, at y = 0 for L > 0 too, and 1 at
    y = 0 for L = 0."""
    tail = -0.5 / lam * np.log1p(np.maximum(lam * y * y, -1.0)) if lam else -0.5 * y * y
    return L * np.log(np.abs(y)) + tail if L else tail


def _state_values(n: int, L: int, lam: float, c: float, y, count: int) -> tuple:
    """(R,), or (R, R', R'') for ``count`` = 3, of R = c y**L tail(y) Q(y**2) at the points y, with the tail
    and Q of :func:`_log_prefactor` and :func:`_pieces`: the radial state (n, L) at Lambda = lam, or the
    harmonic oscillator's at lam = 0.  log|c|, the log prefactor and each point's largest piece exponent
    e take one exp, times pieces of size at most 1, so R is a normal float wherever its value is
    one.  R' and R'' follow by the chain rule in y, with (log tail)' = k y/w, k = 2 lam p for the tail's
    power p = -1/(2 lam) (k = -1 at lam = 0) and w = 1 + lam y**2.  The signs of c and of y**L
    multiply at the end."""
    # log(0) = -inf at y = 0 and log1p(-1) = -inf at the lam < 0 endpoint; w*w may overflow at a huge y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pieces = _pieces(n, L, lam, y * y, count)
        top = functools.reduce(np.maximum, [k for _, k in pieces])
        a = np.exp(_log_prefactor(L, lam, y) + np.log(abs(c)) + top * np.log(2.0))
        Q, *rest = [np.ldexp(m, k - top) for m, k in pieces]
        if count == 1:
            out = (a * Q,)
        else:
            w, k = lam * y * y + 1.0, (2.0 * lam * (-0.5 / lam) if lam else -1.0)
            la = L / y + k * y / w  # A'/A and (A'/A)' of A = y**L tail
            dla = -L / (y * y) + k * (1.0 - lam * y * y) / (w * w)
            (dQ, d2Q), sp = rest, 2.0 * y  # sp = ds/dy
            out = a * Q, a * (la * Q + dQ * sp), a * ((la * la + dla) * Q + 2.0 * la * dQ * sp + d2Q * sp * sp + dQ * 2.0)
    flip = (y < 0) != (c < 0) if L % 2 else c < 0
    return tuple(np.where(flip, -v, v) for v in out) if np.any(flip) else out
