"""Jacobi and Laguerre polynomials at points, by their three-term recurrences.

Both families satisfy p_(k+1) = ((A_k x + B_k) p_k - C_k p_(k-1)) / D_k
(DLMF 18.9.1, with 18.9.2 for Jacobi and 18.9.13 for Laguerre), which
:func:`_recurrence` runs on the array of points, one numpy pass per degree.
A derivative is the same family one degree lower at shifted parameters,
d/dx P_n^(a,b) = (n+a+b+1)/2 P_(n-1)^(a+1,b+1) and d/dx L_n^(a) = -L_(n-1)^(a+1)
(DLMF 18.9.15, 18.9.23), so no derivative is carried here.  No monomial
coefficients are formed: summed at a point they alternate in sign and cancel,
to O(1) relative error by degree 30, while the recurrence stays within a few
hundred ulp of exact rational evaluation up to degree 40 at least.
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


def _value(m, e) -> np.ndarray:
    return np.ldexp(m, e) if np.any(e) else m


def _per_point(pieces: list, count: int) -> list:
    """The ``pieces`` (c, (m, e)), c * m * 2**e with (m, e) a :func:`_recurrence` split, split at each
    point alone as (c * f, e + k), m = f * 2**k by np.frexp; then zeros at the first one's exponents up to ``count``."""
    split = [(c * f, e + k) for c, (m, e) in pieces for f, k in [np.frexp(m)]]
    return split + [(np.zeros_like(split[0][0]), split[0][1])] * (count - len(split))


def _values(log_a, pieces: list, la=None, dla=None, y=None) -> tuple:
    """(R,) of R = exp(log_a) Q for the :func:`_per_point` ``pieces`` Q, dQ/ds, d2Q/ds2, s = y**2;
    given la = A'/A and dla = (A'/A)' in y, A = exp(log_a) times any factor the caller puts on all
    three, (R, R', R'') by the chain rule.  Each point's largest piece exponent e joins the log: one
    exp(log_a + e log 2) times pieces of size at most 1, a normal float wherever R is one."""
    top = functools.reduce(np.maximum, [k for _, k in pieces])
    a = np.exp(log_a + top * np.log(2.0))
    Q, *rest = [np.ldexp(m, k - top) for m, k in pieces]
    if la is None:
        return (a * Q,)
    (dQ, d2Q), sp = rest, 2.0 * y  # sp = ds/dy
    return a * Q, a * (la * Q + dQ * sp), a * ((la * la + dla) * Q + 2.0 * la * dQ * sp + d2Q * sp * sp + dQ * 2.0)


def jacobi_scaled(n: int, a: float, b: float, x) -> tuple:
    """P_n^(a,b) at the points x as (m, e) with P_n = m * 2**e, m finite where
    P_n overflows; the split depends on the other points (np.frexp of m gives
    one that does not).  Raises as :func:`jacobi`."""

    def step(k):
        if k == 0:
            return 0.5 * (a + b + 2.0), 0.5 * (a - b), 0.0, 1.0
        m = k + 1
        s = 2.0 * m + a + b
        d = 2.0 * m * (m + a + b) * (s - 2.0)
        if abs(d) < 1e-9:
            raise PoleInDenominator(
                f"Jacobi recurrence denominator 2m(m+a+b)(2m+a+b-2) vanishes at m = {m} for a = {a}, b = {b}"
            )
        return (s - 1.0) * s * (s - 2.0), (s - 1.0) * (a * a - b * b), 2.0 * (m + a - 1.0) * (m + b - 1.0) * s, d

    return _recurrence(n, x, step)


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
    return _recurrence(n, x, lambda k: (-1.0, 2.0 * k + a + 1.0, k + a, k + 1.0))


def laguerre(n: int, a: float, x) -> np.ndarray:
    """Generalized Laguerre L_n^(a) with L_n^(a)(0) = C(n+a, n) at the points x, an array of their shape."""
    return _value(*laguerre_scaled(n, a, x))

