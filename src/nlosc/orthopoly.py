"""Jacobi and Laguerre polynomials at points, by their three-term recurrences.

Both families satisfy p_(k+1) = ((A_k x + B_k) p_k - C_k p_(k-1)) / D_k
(DLMF 18.9.1, with 18.9.2 for Jacobi and 18.9.13 for Laguerre).
:func:`_recurrence` runs it on the array of evaluation points, one numpy pass
per degree, and differentiates it in place: the j-th derivatives obey

    D_k p_(k+1)^(j) = (A_k x + B_k) p_k^(j) + j A_k p_k^(j-1) - C_k p_(k-1)^(j),

so P, P' and P'' advance together as the rows of one array.  No monomial
coefficients are formed: summed at a point they alternate in sign and cancel,
to O(1) relative error by degree 30, while the recurrence stays within a few
hundred ulp of exact rational evaluation up to degree 40 at least.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDegree, PoleInDenominator


def _check_degree(n: int) -> int:
    if n < 0 or int(n) != n:
        raise InvalidDegree(f"degree must be a nonnegative integer, got {n}")
    return int(n)


def _recurrence(n: int, x, step) -> np.ndarray:
    """(p_n, p_n', p_n'') at the points x, stacked on a leading axis of 3;
    ``step(k)`` gives (A_k, B_k, C_k, D_k) for degree k -> k+1, with p_0 = 1."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros((3,) + x.shape)
    cur = np.zeros((3,) + x.shape)
    cur[0] = 1.0
    for k in range(n):
        A, B, C, D = step(k)
        nxt = (A * x + B) * cur
        nxt[1] += A * cur[0]
        nxt[2] += 2.0 * A * cur[1]
        nxt -= C * prev
        nxt /= D
        prev, cur = cur, nxt
    return cur


def jacobi_values(n: int, a: float, b: float, x) -> np.ndarray:
    """P_n^(a,b) with P_n^(a,b)(1) = C(n+a, n), and its first two derivatives,
    at the points x: an array of shape (3,) + shape of x.

    b may be any real.  A recurrence denominator 2m(m+a+b)(2m+a+b-2) that is
    zero up to rounding (a+b a negative integer reached by an intermediate
    degree m) raises :class:`PoleInDenominator`; no admissible state of
    :mod:`nlosc.radial` reaches one.
    """
    n = _check_degree(n)

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


def laguerre_values(n: int, a: float, x) -> np.ndarray:
    """Generalized Laguerre L_n^(a) with L_n^(a)(0) = C(n+a, n), and its first
    two derivatives, at the points x, stacked as in :func:`jacobi_values`."""
    n = _check_degree(n)
    return _recurrence(n, x, lambda k: (-1.0, 2.0 * k + a + 1.0, k + a, k + 1.0))


def _libm(fn, x):
    """``fn`` (``math.exp`` or ``math.log``) on every element of a float array,
    keeping its shape.

    numpy's SIMD exp and log are not the libm that ``math`` calls: on 200,000
    uniform draws np.exp differs from math.exp in about 9,100 and np.log from
    math.log in about 70, in the last bit.  Mapping the ``math`` function keeps
    an array evaluation bit-identical to the same formula on Python floats.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
