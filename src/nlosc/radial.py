"""Exact radial eigenfunctions, weighted inner products and normalization.

A state is R(y) = norm * y^L * (Lambda*y^2+1)^(-1/(2*Lambda)) * P(1+2*Lambda*y^2)
with P a Jacobi polynomial of degree n and parameters (L+1/2, -1/Lambda-1/2),
one representation for both signs.

Inner products are taken in L^2 with weight mu = y^2/sqrt(Lambda*y^2+1).  The
change of variable x = 1-2*|Lambda|*y^2 (Lambda < 0) or
y = sqrt((1-x)/(Lambda*(1+x))) (Lambda > 0) turns every integrand into one
weight (1-x)^a*(1+x)^b times two states' hypergeometric series in y^2, whose
powers are Beta-function moments of that weight.  A norm is a closed form in
floats (:func:`_log_norm_sq`).  Inner products and Gram matrices are exact:
with Lambda = P/Q, the series coefficients and the moment ratios are integers,
and the rational total is rounded once, its power of two and the logs of the
norm constants joining the log prefactor (:func:`_rounded`).  A Gram matrix
builds each state's modified moments from the two states before it by the
three-term recurrence, O(n**2) exact steps in all; every row's moments below
its degree must be exact zeros, and a diagonal entry, the exact squared norm
over the closed form, must be 1 to within the 1e-8 gate.  Constant
prefactors are carried in log space to survive the huge exponents at small
|Lambda|.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import spectrum
from .errors import LambdaTooSmall, NotAdmissible, OutsideDomain, QuadratureFailure
from .orthopoly import _per_point, _values, jacobi_scaled
from .params import ModelParams, domain, mass_at, mass_denominator
from .spectrum import QuantumNumbers, energy_dimless, is_admissible

# below this |Lambda| the closed form is numerically meaningless; use the
# harmonic-oscillator branch in nlosc.oracle instead
LAMBDA_SWITCH = 1e-8

_ENDPOINT_SLACK = 1e-12

# error-estimate gate of inner_product and of every diagonal entry of gram_matrix, and its distance from 1
_TOL = 1e-8


@dataclass(frozen=True)
class RadialEigenstate:
    """Closed-form radial eigenfunction for admissible (n, L, Lambda).

    The Jacobi piece P_n^(L+1/2, -1/Lambda-1/2)(1 + 2*Lambda*y**2) is not
    stored: :func:`eval_state` runs its three-term recurrence at the points.
    """

    qn: QuantumNumbers
    Lambda: float
    e: float
    L_power: int
    prefactor_exponent: float  # -1/(2*Lambda), power of (Lambda*y**2 + 1)
    norm_const: float = 1.0


@dataclass(frozen=True)
class WeightedInnerProductResult:
    """``est_abs_error`` bounds the floating point around an exact integer sum:
    the one rounding of the rational and a few ulps of lgamma, log and exp on
    the final log prefactor (0.0 for an exactly zero sum)."""

    value: float
    est_abs_error: float


def weight(y, Lambda: float):
    """Weight mu = y**2 / sqrt(Lambda*y**2 + 1) on the open domain; y a float or an array."""
    nonpos = np.flatnonzero(~(np.ravel(y) > 0))  # "not > 0", so that NaN is refused too
    if nonpos.size:  # raise what a loop of scalar calls raises first
        mass_denominator(Lambda, np.ravel(y)[: nonpos[0]], "y")
        raise OutsideDomain(f"weight needs y > 0, got {np.ravel(y)[nonpos[0]]}")
    return y * y / np.sqrt(mass_denominator(Lambda, y, "y"))


def check_lambda_switch(Lambda: float) -> None:
    """Raise :class:`LambdaTooSmall` for |Lambda| <= LAMBDA_SWITCH."""
    if abs(Lambda) <= LAMBDA_SWITCH:
        raise LambdaTooSmall(
            f"|Lambda| = {abs(Lambda)} <= {LAMBDA_SWITCH}; use the harmonic-oscillator branch"
        )


def build_state(n: int, L: int, Lambda: float) -> RadialEigenstate:
    """Construct the (unnormalized) closed-form eigenstate."""
    check_lambda_switch(Lambda)
    if not is_admissible(n, L, Lambda):
        raise NotAdmissible(f"(n={n}, L={L}) is not normalizable at Lambda = {Lambda}")
    return RadialEigenstate(
        qn=QuantumNumbers(n=n, L=L),
        Lambda=Lambda,
        e=energy_dimless(n, L, Lambda),
        L_power=L,
        prefactor_exponent=-0.5 / Lambda,
    )


def _check_inside(state: RadialEigenstate, y: np.ndarray) -> None:
    """Raise what a loop of scalar checks raises first on a 1-D float array:
    y < 0 or NaN, or y beyond the finite endpoint by more than _ENDPOINT_SLACK."""
    w = state.Lambda * y * y + 1.0
    y_end = domain(state.Lambda).upper
    bad = np.flatnonzero(~(y >= 0) | ((w <= 0) & (y > y_end * (1.0 + _ENDPOINT_SLACK))))
    if bad.size:
        y_bad = float(y[bad[0]])
        if not y_bad >= 0:
            raise OutsideDomain(f"y must be nonnegative, got {y_bad}")
        raise OutsideDomain(f"y = {y_bad} beyond endpoint {y_end}")


def _log_prefactor(state: RadialEigenstate, y: np.ndarray) -> np.ndarray:
    """log of y**L * (Lambda*y**2 + 1)**p, L*log(y) + p*log1p(Lambda*y**2) by numpy
    (L*log(y) left out for L = 0); log1p keeps out the |p| ulp, 5.6e-17/|Lambda|,
    of a rounded Lambda*y**2 + 1.  Clamped at -1, its exp is 0 at the Lambda < 0
    endpoint, at y = 0 for L > 0 too, and 1 at y = 0 for L = 0."""
    log_a = state.prefactor_exponent * np.log1p(np.maximum(state.Lambda * y * y, -1.0))
    return state.L_power * np.log(y) + log_a if state.L_power else log_a


def _jacobi_pieces(state: RadialEigenstate, s: np.ndarray, count: int) -> list:
    """The first ``count`` of Q, dQ/ds, d2Q/ds2 of Q(s) = P_n^(L+1/2, -1/Lambda-1/2)(1 + 2*Lambda*s), one
    recurrence pass each, split at each point alone as (m, e), the piece m * 2**e: the j-th is P_(n-j)
    at both parameters plus j (0 for j > n), times Lambda*(n+L+k) - 1 for k = 1..j (dx/ds = 2*Lambda)."""
    lam, n, L = state.Lambda, state.qn.n, state.L_power
    x, c, pieces = 1.0 + 2.0 * lam * s, 1.0, []
    for j in range(min(count, n + 1)):
        pieces.append((c, jacobi_scaled(n - j, L + 0.5 + j, -1.0 / lam - 0.5 + j, x)))
        c *= lam * (n + L + 1 + j) - 1.0
    return _per_point(pieces, count)


def _radial_values(state: RadialEigenstate, flat: np.ndarray, count: int) -> tuple:
    """(R,), or (R, R', R'') for ``count`` = 3, at the points ``flat``: :func:`orthopoly._values` of
    log|norm_const| plus :func:`_log_prefactor` and the :func:`_jacobi_pieces`."""
    la = dla = None
    c = state.norm_const
    # log(0) = -inf at y = 0 and log1p(-1) = -inf at the Lambda < 0 endpoint; w*w may overflow at a huge y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if count > 1:
            lam, L, p = state.Lambda, state.L_power, state.prefactor_exponent
            w = lam * flat * flat + 1.0
            la = L / flat + 2.0 * lam * p * flat / w
            dla = -L / (flat * flat) + 2.0 * lam * p * (1.0 - lam * flat * flat) / (w * w)
        log_a = _log_prefactor(state, flat) + np.log(abs(c))
        out = _values(log_a, _jacobi_pieces(state, flat * flat, count), la, dla, flat)
    return out if c > 0 else tuple(np.sign(c) * v for v in out)


def eval_state(state: RadialEigenstate, y):
    """Evaluate R(y), endpoints included; y a float or an array of any shape.

    A float gives a float.  An array gives, byte for byte, what a loop of float
    calls gives, and raises what that loop raises first.  R is a normal float
    wherever its value is one (see :func:`orthopoly._values`).
    """
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    _check_inside(state, flat)
    r = _radial_values(state, flat, 1)[0] + 0.0  # + 0.0: a zero is +0.0, never -0.0
    return float(r[0]) if ys.ndim == 0 else r.reshape(ys.shape)


def eval_state_with_derivatives(state: RadialEigenstate, y):
    """(R, R', R'') at interior points, by analytic differentiation; y a float
    (giving a tuple of floats) or an array of any shape, as in :func:`eval_state`."""
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    w = state.Lambda * flat * flat + 1.0
    bad = np.flatnonzero(~(flat > 0) | (w <= 0) | (flat * flat == 0))  # NaN is not > 0
    if bad.size:  # raise what a loop of scalar calls raises first
        y_bad = float(flat[bad[0]])
        if not y_bad > 0:
            raise OutsideDomain(f"derivatives need an interior point, got y = {y_bad}")
        if w[bad[0]] <= 0:
            _check_inside(state, flat[bad[0] : bad[0] + 1])  # raises beyond the endpoint
            raise OutsideDomain(f"derivatives need an interior point, got the endpoint y = {y_bad}")
        raise OutsideDomain(f"derivatives need y*y > 0, got y = {y_bad}")  # -L / (y*y) would divide by zero
    out = _radial_values(state, flat, 3)
    return tuple(float(v[0]) for v in out) if ys.ndim == 0 else tuple(v.reshape(ys.shape) for v in out)


def _folded_t_poly_exact(n: int, L: int, Lambda: float) -> tuple:
    """State (n, L)'s polynomial piece P_n^(L+1/2, -1/lam-1/2)(1 + 2*lam*s), s = y**2,
    in tau = 2s/Q, lam = P/Q exactly, as (integer coefficients, common
    denominator) in lowest terms: C(n+L+1/2, n) 2F1(-n, n+L+1-1/lam; L+3/2; -lam*s)
    at either sign, whose term ratio (n-k)((n+L+1+k)P - Q) / ((2L+3+2k)(k+1))
    multiplies out to the closed form
    c_k = C(n,k) prod_(k<=i<n) (2L+3+2i) prod_(i<k) ((n+L+1+i)P - Q) / (2**n n!),
    reduced by one gcd pass against the short 2**n n!.  Measuring s in units of
    Q/2 keeps out of the integers the power of |P| that would cancel against
    the moments (:func:`_moments`) in every product."""
    P, Q = Lambda.as_integer_ratio()
    odd, rising = [1] * (n + 1), [1]  # prod_(k<=i<n) (2L+3+2i) and prod_(i<k) ((n+L+1+i)P - Q)
    for k in range(n):
        odd[n - 1 - k] = odd[n - k] * (2 * L + 1 + 2 * n - 2 * k)
        rising.append(rising[-1] * ((n + L + 1 + k) * P - Q))
    coeffs = [math.comb(n, k) * o * r for k, (o, r) in enumerate(zip(odd, rising))]
    den = g = 2**n * math.factorial(n)
    for c in coeffs:  # pairwise: math.gcd(*many) raised peak RSS call after call
        g = math.gcd(g, c)
        if g == 1:
            break
    return [c // g for c in coeffs], den // g


# log Gamma(z+1/2) - log Gamma(z) - log(z)/2 = sum_i _HALF_SHIFT[i] / z**(2i+1) + O(z**-13):
# DLMF 5.11.8 at shifts 1/2 and 0, (2**-k - 2) B_(k+1) / (k(k+1)) for odd k
_HALF_SHIFT = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)


@functools.lru_cache(maxsize=256)  # a gram_matrix's states share w0, and every call repeats n + 1 at small n
def _log_gamma_shift(w: float, K: int) -> tuple:
    """(half, rising): log Gamma(w+K+1/2) - log Gamma(w) - (K+1/2) log(w), w > 0, as two
    terms that do not cancel, half = log Gamma(w+1/2) - log Gamma(w) - log(w)/2 and
    rising = sum_(m<K) log(1 + (m+1/2)/w), both O(1/w) for large w.  (lgamma of w
    and of w+K+1/2, each about w log(w), would cancel to O(K log(w)).)"""
    # below 16, Gamma(w+1) = w Gamma(w) moves the series to w + k >= 16
    k = max(0, math.ceil(16.0 - w))
    wk, series = w + k, 0.0
    for c in reversed(_HALF_SHIFT):
        series = series / (wk * wk) + c
    half = series / wk + 0.5 * math.log(wk / w) - math.fsum(math.log1p(0.5 / (w + i)) for i in range(k))
    return half, math.fsum(math.log1p((m + 0.5) / w) for m in range(K))


def _log_m0(Lambda: float, L: int) -> tuple:
    """(log_m0, size): log of the constant prefactor times M_0 = int_{-1}^{1} (1-x)^a (1+x)^b dx,
    |Lambda|**-(L+3/2) Gamma(L+3/2) Gamma(z) / (2 Gamma(z+L+3/2)) at either sign
    with z = b+1 = zn/zd exactly, as terms that do not cancel: log(|Lambda| z)
    and :func:`_log_gamma_shift` at z and K = L + 1.  ``size``, the sum of the
    terms' magnitudes, scales the error: at L = 170 they reach about 700."""
    P, Q = Lambda.as_integer_ratio()
    zn, zd = (2 * Q - P, -2 * P) if P < 0 else (Q - (L + 1) * P, P)  # z = zn/zd
    terms = (
        math.lgamma(L + 1.5),
        math.log(2.0),
        (L + 1.5) * math.log(abs(P) * zn / (Q * zd)),  # int / int rounds |Lambda| z once
        *_log_gamma_shift(zn / zd, L + 1),
    )
    return terms[0] - terms[1] - terms[2] - terms[3] - terms[4], math.fsum(map(abs, terms))


def _log_norm_sq(n: int, L: int, Lambda: float, prefactor: tuple) -> tuple:
    """(log_sq, size): log of state (n, L)'s squared norm exp(log_m0) s_n, for the
    ``prefactor`` (log_m0, size) of :func:`_log_m0`, a = L + 1/2, b = -1/Lambda - 1/2
    and s_n = (a+1)_n (b+1)_n (a+b+1) / (n! (a+b+1)_n (2n+a+b+1)): DLMF Table
    18.3.1's h_n over M_0 at Lambda < 0, continued to b < -1 at Lambda > 0 (the
    Romanovski polynomials' finite orthogonality, Raposo et al., Cent. Eur. J.
    Phys. 5 (2007) 253) with (b+1)_n = (-1)^n Gamma(-b) / Gamma(-b-n) and
    (a+b+1)_n alike.  (a+1)_n / n! = G(n+1) / Gamma(a+1) and
    (b+1)_n / (a+b+1)_n = G(w0) / G(w1) for G(w) = Gamma(w+a) / Gamma(w), with
    w0, w1 = b+1, b+1+n (Lambda < 0) or -a-b, -a-b-n (Lambda > 0), integers over
    2|P|; log G(w) is (L+1/2) log(w) and :func:`_log_gamma_shift`.  So O(L) terms
    at any n, none cancelling (lgamma at w0 and w1, near 9e8 at Lambda = 2e-8,
    would); ``size`` adds their magnitudes to the prefactor's."""
    P, Q = Lambda.as_integer_ratio()
    w0n, w1n = (2 * Q - P, 2 * Q - (2 * n + 1) * P) if P < 0 else (2 * Q - 2 * L * P, 2 * Q - 2 * (L + n) * P)
    h1, r1 = _log_gamma_shift(w1n / (2 * abs(P)), L)
    terms = (
        (L + 0.5) * math.log((n + 1) * w0n / w1n), *_log_gamma_shift(n + 1.0, L), -math.lgamma(L + 1.5),
        *_log_gamma_shift(w0n / (2 * abs(P)), L), -h1, -r1,
        -math.log((Q - (L + 1 + 2 * n) * P) / (Q - (L + 1) * P)),  # (a+b+1) / (2n+a+b+1); each int / int rounds once
    )
    return math.fsum((prefactor[0], *terms)), prefactor[1] + math.fsum(map(abs, terms))


def _norm_const(n: int, L: int, Lambda: float, prefactor: tuple) -> float:
    """exp(-log_sq / 2) for :func:`_log_norm_sq`: state (n, L)'s unit norm
    constant, positive near y = 0 (Jacobi polynomials are positive at argument
    1); :class:`QuadratureFailure` if not a normal float, log_sq past 1416 or below -1419."""
    log_sq, _ = _log_norm_sq(n, L, Lambda, prefactor)
    norm = math.exp(-0.5 * log_sq) if log_sq > -1419.0 else math.inf
    if not sys.float_info.min <= norm < math.inf:
        raise QuadratureFailure(
            f"non-finite norm or inner product: exp({log_sq!r}), the squared norm, has no normal norm constant"
        )
    return norm


def _moment_steps(Lambda: float, L: int, degree: int) -> tuple:
    """(prefactor, steps): :func:`_log_m0`, and the integer steps (o_j, phi_j),
    j < degree, with M_(j+1) / M_j = o_j / phi_j for the moments M_j of the
    weight (1-x)^a (1+x)^b against tau**j, a = L + 1/2, b = 1/|Lambda| - 1/2
    (Lambda < 0, tau = (1-x)/|P|) or 1/Lambda - L - 2 (Lambda > 0,
    tau = 2(1-x)/(P(1+x))).  At either sign o_j = 2L+3+2j and
    phi_j = Q - (L+2+j)P: the Beta-function step is 2(a+j+1) / ((a+b+j+2)|P|)
    at Lambda < 0 and 2(a+j+1) / ((b-j)P) at Lambda > 0.  Every phi_j is
    positive while M_degree is finite, which every admissible state's norm needs.
    """
    P, Q = Lambda.as_integer_ratio()
    return _log_m0(Lambda, L), [(2 * L + 3 + 2 * j, Q - (L + 2 + j) * P) for j in range(degree)]


def _moments(Lambda: float, L: int, degree: int) -> tuple:
    """(prefactor, ratios, den): the prefactor of :func:`_moment_steps` and
    M_j / M_0 = ratios[j] / den exactly, j <= degree, in lowest terms, den > 0:
    ratios[j] is o_0..o_(j-1) phi_j..phi_last before one gcd reduces the lot."""
    prefactor, steps = _moment_steps(Lambda, L, degree)
    heads = accumulate((o for o, _ in steps), operator.mul, initial=1)  # o_0..o_(j-1)
    tails = list(accumulate((p for _, p in reversed(steps)), operator.mul, initial=1))  # phi_j..phi_last, reversed
    ratios = [h * t for h, t in zip(heads, reversed(tails))]
    g = den = tails[-1]
    for r in ratios:  # pairwise: math.gcd(*many) raised peak RSS call after call
        g = math.gcd(g, r)
    return prefactor, [r // g for r in ratios], den // g


def _rounded(total: int, den: int, prefactor: tuple, log_scale: float = 0.0):
    """(value, error estimate) of exp(log_m0 + log_scale) * total / den, den > 0,
    for the ``prefactor`` (log_m0, size) of :func:`_log_m0` and the log of the
    states' norm constants: the one place a float is formed.  The rational's
    binary exponent s = floor(log2 |total / den|) joins the log,
    value = q * exp(log_m0 + log_scale + s log 2), with q = (total / den) * 2**-s
    in [1, 2) rounded once by ``int / int``, so an O(1) value never passes
    through exp(+-700), even where exp(log_m0) alone is past the float range.
    An exp beyond the float range raises :class:`QuadratureFailure`.
    """
    if not total:
        return 0.0, 0.0
    log_m0, size = prefactor[0] + log_scale, prefactor[1] + abs(log_scale)
    s = abs(total).bit_length() - den.bit_length()
    num, dn = (total, den << s) if s >= 0 else (total << -s, den)
    if abs(num) < dn:  # |total| / den lies in [2**(s-1), 2**(s+1))
        s, num = s - 1, 2 * num
    log_p = log_m0 + s * math.log(2.0)
    try:
        value = num / dn * math.exp(log_p)
    except OverflowError:
        raise QuadratureFailure(f"non-finite norm or inner product: exp({log_p!r}) times the moment sum overflows") from None
    # a few ulps of each term of the log, whose sum may be far smaller, and of exp
    return value, abs(value) * (1e-15 + 5e-16 * (size + abs(s) * math.log(2.0)))


def _modified_moments(coeffs: list, ratios: list, ms: range) -> list:
    """Modified moments B[m] = sum_a c_a r_(a+m), m in ``ms``, of a fold's integers
    against the :func:`_moments` table (Gautschi, Orthogonal Polynomials, 2004,
    2.1).  A state of degree n is orthogonal to tau**m, so B[m] = 0 for m < n."""
    return [sum(map(operator.mul, coeffs, ratios[m:])) for m in ms]


def _three_term(c0: list, c1: list, c2: list) -> tuple:
    """(X, Y, Z, W), coprime, with W C_(n+1) = (X tau + Y) C_n - Z C_(n-1) for the
    integer polynomials c0, c1, c2 of degrees n-1, n, n+1 (n >= 1) of three
    folds, whichever variable they are in.  The tau**(n+1) and tau**n terms fix
    X : Y : W against c1's top two coefficients, the tau**(n-1) term Z against
    c1's third and c0's top one, and every coefficient of c2 must then satisfy
    the recurrence exactly: if one does not, raise :class:`QuadratureFailure`
    naming state n+1."""
    n = len(c1) - 1
    a, b, e = c1[n], c1[n - 1], c1[n - 2] if n >= 2 else 0
    X, Y, W = c2[n + 1] * a, c2[n] * a - c2[n + 1] * b, a * a
    g = math.gcd(X, Y, W)  # each gcd before the next product keeps the integers short
    X, Y, W = X // g, Y // g, W // g
    Z = X * e + Y * b - W * c2[n - 1]  # Z times c0[n-1]
    g = math.gcd(Z, c0[n - 1])
    q = c0[n - 1] // g
    X, Y, Z, W = X * q, Y * q, Z // g, W * q
    for k, (lo, mid, hi) in enumerate(zip([*c0, 0, 0], [*c1, 0], [0, *c1])):
        if W * c2[k] != X * hi + Y * mid - Z * lo:
            raise QuadratureFailure(
                f"state {n + 1}: fold coefficient {k} breaks the three-term recurrence of states {n - 1}..{n + 1}"
            )
    return X, Y, Z, W


def _scaled_rows(coeffs: list, steps: list):
    """Yield b_j[m], m = 0..2n-j (n = len(coeffs) - 1), fold j's modified
    moments B_j[m] = sum_a c_ja M_(a+m) / M_0 times prod_(i<j+m) phi_i, an
    integer, for the 2n ``steps`` M_(i+1) / M_i = o_i / phi_i of
    :func:`_moment_steps`.  So b_j[m] leaves out the common factor
    prod_(j+m<=i<2n) phi_i that the :func:`_moments` table over
    prod_(i<2n) phi_i puts in every B_j[m].  Rows 0 and 1 are
    b_0[m] = c_00 O_m and b_1[m] = c_10 O_m phi_m + c_11 O_(m+1), O_m = prod_(i<m) o_i;
    every later one comes by the modified Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials, 2004, 2.1.7),
    W b_(n+1)[m] = X b_n[m+1] + Y phi_(n+m) b_n[m] - Z phi_(n+m-1) phi_(n+m) b_(n-1)[m],
    O(n) exact steps a row.  :func:`_three_term` checks the folds against the
    recurrence first, so every row holds the folds' own sums and every
    division by W is exact."""
    phi = [p for _, p in steps]
    O = list(accumulate((o for o, _ in steps), operator.mul, initial=1))
    prev = [coeffs[0][0] * o for o in O]
    yield prev
    if len(coeffs) == 1:
        return
    c10, c11 = coeffs[1]
    row = [c10 * o * p + c11 * o1 for o, p, o1 in zip(O, phi, O[1:])]
    yield row
    pairs = [p * p1 for p, p1 in zip(phi, phi[1:])]  # phi_i phi_(i+1)
    for n in range(1, len(coeffs) - 1):
        X, Y, Z, W = _three_term(coeffs[n - 1], coeffs[n], coeffs[n + 1])
        prev, row = row, [
            (X * up + Y * p * b - Z * pp * lo) // W
            for up, b, lo, p, pp in zip(row[1:], row, prev, phi[n:], pairs[n - 1 :])
        ]
        yield row


def _gated(raw: tuple, scale: float, tol: float) -> float:
    """``scale`` times the value of ``raw`` (value, error estimate), after the
    error gate: raise :class:`QuadratureFailure` if either is non-finite or the
    scaled estimate exceeds ``tol`` (relative above 1, absolute below)."""
    value = scale * raw[0]
    est = abs(scale) * raw[1]
    if not (math.isfinite(value) and math.isfinite(est)):
        raise QuadratureFailure(f"non-finite norm or inner product {value} (error estimate {est})")
    if est > tol * max(1.0, abs(value)):
        raise QuadratureFailure(f"quadrature error estimate {est} exceeds tolerance {tol}")
    return value


def inner_product(state_a: RadialEigenstate, state_b: RadialEigenstate, tol: float = _TOL) -> WeightedInnerProductResult:
    """Weighted inner product (R_a, R_b) over the Lambda-dependent domain: the exact
    sum_(a,b) c_a c'_b r_(a+b) = sum_m c'_m B[m] of folds of degrees n <= n' over the
    lower one's modified moments, B[m] = 0 for m < n, O(n (n' - n + 1)) products."""
    if state_a.qn.L != state_b.qn.L or state_a.Lambda != state_b.Lambda:
        raise ValueError("inner product requires states sharing (L, Lambda)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    c_a, c_b = state_a.norm_const, state_b.norm_const
    if not (c_a and c_b):
        return WeightedInnerProductResult(value=0.0, est_abs_error=0.0)
    L, Lambda = state_a.qn.L, state_a.Lambda
    n, n_hi = sorted((state_a.qn.n, state_b.qn.n))
    prefactor, ratios, r_den = _moments(Lambda, L, n + n_hi)
    (c_lo, d_lo), (c_hi, d_hi) = _folded_t_poly_exact(n, L, Lambda), _folded_t_poly_exact(n_hi, L, Lambda)
    row = _modified_moments(c_lo, ratios, range(n, n_hi + 1))
    log_scale = math.log(abs(c_a)) + math.log(abs(c_b))  # c_a c_b underflows where the squared norm overflows
    raw = _rounded(sum(map(operator.mul, c_hi[n:], row)), d_lo * d_hi * r_den, prefactor, log_scale)
    return WeightedInnerProductResult(value=_gated(raw, math.copysign(1.0, c_a * c_b), tol), est_abs_error=raw[1])


def normalize(state: RadialEigenstate) -> RadialEigenstate:
    """Return the state scaled to unit weighted norm, positive near y = 0, by the
    closed form of :func:`_norm_const`: O(L) floats at any n, no exact sum."""
    n, L, Lambda = state.qn.n, state.qn.L, state.Lambda
    return replace(state, norm_const=_norm_const(n, L, Lambda, _log_m0(Lambda, L)))


def gram_matrix(L: int, Lambda: float, n_max: int) -> np.ndarray:
    """Matrix of normalized inner products for n = 0..n_max (truncated to the
    admissible set when Lambda > 0), equal, bit for bit, to ``inner_product``
    of ``normalize``d states.  :func:`_scaled_rows` gives state j's modified
    moments, scaled by the moment steps of :func:`_moment_steps`, by the
    three-term recurrence in O(n**2) exact steps.  Every row's lower moments,
    m < j, all that an entry i < j multiplies, must be exact zeros, so the
    off-diagonal is 0.0, or :class:`QuadratureFailure` is raised.  A diagonal
    entry is the exact squared norm c_jj b_j[j] / (d_j**2 prod_(i<2j) phi_i)
    times the squared norm constant of :func:`_log_norm_sq`'s closed form, its
    log joining the exponent, rounded once and gated: two derivations of one
    integral, which must agree to within the 1e-8 gate.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (the highest state index), got {n_max}")
    if Lambda > 0:
        count = spectrum.bound_state_count(Lambda, L).count
        if count == 0:
            raise NotAdmissible(f"no bound states at Lambda = {Lambda}, L = {L}")
        n_top = min(n_max, count - 1)
    else:
        n_top = n_max
    build_state(n_top, L, Lambda)  # Lambda, L and the admissibility of every n <= n_top, checked once
    folds = [_folded_t_poly_exact(n, L, Lambda) for n in range(n_top + 1)]
    prefactor, steps = _moment_steps(Lambda, L, 2 * n_top)
    diag, scale = [], 1  # scale = prod_(i<2j) phi_i
    for j, ((c, d), row) in enumerate(zip(folds, _scaled_rows([c for c, _ in folds], steps))):
        if any(row[:j]):
            raise QuadratureFailure(f"state {j} is not orthogonal to tau**{next(m for m in range(j) if row[m])}")
        log_norm = math.log(_norm_const(j, L, Lambda, prefactor))  # 2 log_norm is inner_product's log_norm + log_norm, exactly
        entry = _gated(_rounded(c[j] * row[j], d * d * scale, prefactor, 2.0 * log_norm), 1.0, _TOL)  # before the next row
        if abs(entry - 1.0) > _TOL:
            raise QuadratureFailure(f"state {j}: the exact squared norm is {entry!r} times the closed form")
        diag.append(entry)
        scale *= math.prod(p for _, p in steps[2 * j : 2 * j + 2])
    return np.diag(diag)


def effective_potential(r, params: ModelParams, L: int):
    """V_eff = V(r) + centrifugal term with the position-dependent mass; r a float or an array."""
    spectrum.check_angular_momentum(L)
    flat = np.ravel(r)
    bad = np.flatnonzero((flat <= 0) | (flat * flat == 0))
    if bad.size:  # raise what a loop of scalar calls raises first
        r_bad = flat[bad[0]]
        mass_denominator(params.lam, flat[: bad[0] + 1])
        if r_bad <= 0:
            raise OutsideDomain(f"effective potential needs r > 0, got {r_bad}")
        raise OutsideDomain(f"effective potential needs r*r > 0, got r = {r_bad}")
    w = mass_denominator(params.lam, r)
    m, alpha, hbar = params.m, params.alpha, params.hbar
    return 0.5 * m * alpha**2 * r * r / w + L * (L + 1) * hbar**2 * w / (2.0 * m * r * r)


def effective_potential_mass_form(r: float, params: ModelParams, L: int) -> float:
    """Same potential written through M(r); equal to machine precision."""
    if r <= 0:
        raise OutsideDomain(f"effective potential needs r > 0, got {r}")
    if r * r == 0:
        raise OutsideDomain(f"effective potential needs r*r > 0, got r = {r}")
    M = mass_at(r, params)
    alpha2 = params.alpha**2
    cent = L * (L + 1) * params.hbar**2
    return 0.5 * (alpha2 * M * r * r + cent / (M * r * r))


def u_transform_residual(state: RadialEigenstate, y_samples: Sequence[float] = None) -> float:
    """Max normalized residual of the u = y*R form of the radial equation.

    Dimensionless throughout: the shifted spectral parameter is e - Lambda/2.
    """
    lam = state.Lambda
    L = state.qn.L
    if y_samples is None:
        upper = domain(lam).upper
        hi = min(upper * 0.999, 6.0) if math.isfinite(upper) else 6.0
        y_samples = np.linspace(0.05, hi, 60)
    e_shift = 2.0 * state.e - lam
    y = np.asarray(y_samples, dtype=float)
    R, R1, R2 = eval_state_with_derivatives(state, y)
    u = y * R
    u1 = R + y * R1
    u2 = 2.0 * R1 + y * R2
    w = mass_denominator(lam, y, "y")
    t1 = w * u2
    t2 = lam * y * u1
    t3 = (e_shift - (lam + 1.0) * y * y / w - L * (L + 1) * w / (y * y)) * u
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.maximum(np.abs(t3), 1e-300))
    # fmax skips the NaN of a non-finite point, as max() over floats does
    return float(np.fmax.reduce(np.abs(t1 + t2 + t3) / scale, initial=0.0))
