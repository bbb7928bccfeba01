"""Orthogonal polynomials and the terminating hypergeometric series.

Dense ascending coefficient lists throughout; degrees stay small (<= ~20) so
Horner evaluation is accurate enough.  Jacobi polynomials come from the
three-term recurrence in n; the Rodrigues expansion is kept as an independent
test oracle.  Pochhammer symbols are running products, never Gamma ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidDegree, PoleInDenominator


@dataclass(frozen=True)
class PolyCoeffs:
    """Univariate polynomial, coefficients in ascending degree."""

    coeffs: Tuple[float, ...]
    degree: int
    params: Optional[Tuple[float, ...]] = None

    def __call__(self, x):
        return eval_poly(self, x)

    def derivative(self) -> "PolyCoeffs":
        if self.degree == 0:
            return PolyCoeffs((0.0,), 0, self.params)
        d = tuple(k * c for k, c in enumerate(self.coeffs))[1:]
        return PolyCoeffs(d, self.degree - 1, self.params)


def _as_polycoeffs(arr, params=None) -> PolyCoeffs:
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    return PolyCoeffs(tuple(arr.tolist()), len(arr) - 1, params)


def _check_degree(n: int) -> int:
    if n < 0 or int(n) != n:
        raise InvalidDegree(f"degree must be a nonnegative integer, got {n}")
    return int(n)


def _jacobi_explicit(n: int, a: float, b: float) -> np.ndarray:
    # P_n^{(a,b)}(x) = sum_s C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^{n-s}
    # with generalized binomials built as running products.
    half_minus = np.array([-0.5, 0.5])  # (x-1)/2
    half_plus = np.array([0.5, 0.5])  # (x+1)/2
    total = np.zeros(n + 1)
    for s in range(n + 1):
        c1 = 1.0
        for j in range(1, n - s + 1):  # C(n+a, n-s)
            c1 *= (a + s + j) / j
        c2 = 1.0
        for j in range(1, s + 1):  # C(n+b, s)
            c2 *= (b + n - s + j) / j
        term = np.array([c1 * c2])
        for _ in range(s):
            term = npoly.polymul(term, half_minus)
        for _ in range(n - s):
            term = npoly.polymul(term, half_plus)
        total = npoly.polyadd(total, np.pad(term, (0, n + 1 - len(term))))
    return total


def jacobi(n: int, a: float, b: float) -> PolyCoeffs:
    """Jacobi polynomial P_n^{(a,b)} with P_n^{(a,b)}(1) = C(n+a, n).

    b may be any real; if the recurrence degenerates (a+b a negative integer
    hit by an intermediate step) the explicit binomial sum is used instead.
    """
    n = _check_degree(n)
    if n == 0:
        return PolyCoeffs((1.0,), 0, (a, b))
    p_prev = np.array([1.0])
    p_cur = np.array([(a - b) / 2.0, (a + b + 2.0) / 2.0])
    for k in range(2, n + 1):
        d1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        if abs(d1) < 1e-9:
            return _as_polycoeffs(_jacobi_explicit(n, a, b), (a, b))
        s = 2.0 * k + a + b
        lin = npoly.polymul(np.array([a * a - b * b, s * (s - 2.0)]), p_cur) * (s - 1.0)
        low = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * p_prev
        p_next = npoly.polysub(lin, np.pad(low, (0, len(lin) - len(low)))) / d1
        p_prev, p_cur = p_cur, p_next
    return _as_polycoeffs(p_cur, (a, b))


def jacobi_rodrigues(n: int, a: float, b: float) -> PolyCoeffs:
    """Rodrigues-form Jacobi polynomial, expanded by the Leibniz rule.

    Test oracle for :func:`jacobi`; agrees coefficientwise.
    """
    n = _check_degree(n)
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
    total *= (-1.0) ** n / (2.0**n * math.factorial(n))
    return _as_polycoeffs(total, (a, b))


def hyp2f1_terminating(n: int, b2: float, c: float, z: float) -> float:
    """2F1(-n, b2; c; z) summed exactly over its n+1 terms."""
    n = _check_degree(n)
    total = 1.0
    term = 1.0
    for k in range(n):
        if c + k == 0.0:
            raise PoleInDenominator(f"(c)_k vanishes at k = {k + 1} for c = {c}")
        term *= (-n + k) * (b2 + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def laguerre(n: int, a: float) -> PolyCoeffs:
    """Generalized Laguerre polynomial L_n^{(a)} with L_n^{(a)}(0) = C(n+a, n)."""
    n = _check_degree(n)
    coeffs = np.empty(n + 1)
    t = 1.0
    for j in range(1, n + 1):  # C(n+a, n)
        t *= (a + j) / j
    for k in range(n + 1):
        coeffs[k] = (-1.0) ** k * t / math.factorial(k)
        t *= (n - k) / (a + k + 1.0)
    return _as_polycoeffs(coeffs, (a,))


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


def eval_poly(p: PolyCoeffs, x):
    """Horner evaluation; accepts scalars or arrays."""
    acc = p.coeffs[-1] * np.ones_like(np.asarray(x, dtype=float))
    for c in p.coeffs[-2::-1]:
        acc = acc * x + c
    if np.ndim(x) == 0:
        return float(acc)
    return acc
