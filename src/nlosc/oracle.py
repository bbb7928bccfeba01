"""Independent numerical verification of the closed-form solutions.

Nothing here reuses the analytic eigenfunction machinery except as the object
under test: eigenvalues are recomputed by outward RK45 integration plus
bisection on the far boundary condition, and the harmonic-oscillator branch
gives the |Lambda| -> 0 reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import radial
from .errors import BracketInvalid, OutsideDomain, StiffnessFailure
from .kernels import STATUS_OK, STATUS_UNDERFLOW, integrate_adaptive, rhs_radial
from .orthopoly import _libm, laguerre
from .params import domain, mass_denominator
from .spectrum import QuantumNumbers, energy_dimless

_Y_START = 1e-4
# Fraction of y_end held back from the singular endpoint.  Much below 1e-7
# the distance to the endpoint is no longer resolvable in double precision
# (eps * y_end / delta approaches 1e-8) and the step controller stalls on
# roundoff noise.  At 1e-7 the eigenvalue bias from the truncated local
# behavior is below 1e-7 only for -1 <= Lambda < 0 (at most 6.3e-8 measured
# on -1 <= Lambda <= -0.3, n <= 3); below -1 it grows with |Lambda| and n,
# to 2.7e-6 at Lambda = -1.5 and 2.1e-5 at -1.9 for n = 2.
_ENDPOINT_MARGIN = 1e-7
_Y_FAR = 50.0
_BISECT_TOL = 1e-10
_MAX_BISECT = 200


@dataclass(frozen=True)
class ShootingResult:
    e_numeric: float
    iterations: int
    bracket: Tuple[float, float]
    terminal_mismatch: float


def radial_residual(f: Callable[[float], Tuple[float, float, float]], y: float, e: float, Lambda: float, L: int) -> float:
    """Normalized residual of the dimensionless radial equation at y.

    f(y) must return (R, R', R'').
    """
    if y <= 0:
        raise OutsideDomain(f"residual needs an interior point, got y = {y}")
    w = mass_denominator(Lambda, y, "y")
    R, R1, R2 = f(y)
    coeff = 2.0 * e - L * (L + 1) * Lambda - 1.0 + (1.0 - y * y) / w - L * (L + 1) / (y * y)
    t1 = w * R2
    t2 = (2.0 / y + 3.0 * Lambda * y) * R1
    t3 = coeff * R
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 + t2 + t3) / scale


def _series_start(e: float, Lambda: float, L: int, y0: float) -> Tuple[float, float]:
    """Frobenius start R ~ y^L (1 + c1 y^2), rescaled by y0^-L (linear ODE)."""
    c1 = -(2.0 * e + Lambda * L) / (4.0 * L + 6.0)
    r = 1.0 + c1 * y0 * y0
    r1 = L / y0 * (1.0 + c1 * y0 * y0) + 2.0 * c1 * y0
    return r, r1


def _terminal_y(Lambda: float) -> float:
    if Lambda < 0:
        return domain(Lambda).upper * (1.0 - _ENDPOINT_MARGIN)
    return _Y_FAR


def _shoot_profile(e: float, Lambda: float, L: int, rtol: float, n_samples: int = 80):
    """Integrate outward; returns (R, R') at n_samples points up to _terminal_y."""
    y_stop = _terminal_y(Lambda)
    y_eval = np.linspace(10.0 * _Y_START, y_stop, n_samples)
    u0 = _series_start(e, Lambda, L, _Y_START)
    out, status, _ = integrate_adaptive(rhs_radial(e, Lambda, L), _Y_START, u0, y_eval, rtol, 1e-300, 10_000_000)
    if status == STATUS_UNDERFLOW:
        raise StiffnessFailure(f"step control underflow at e = {e}, Lambda = {Lambda}, L = {L}")
    if status != STATUS_OK:
        raise StiffnessFailure(f"integration failed (status {status}) at e = {e}")
    return out


def _terminal_value(e: float, Lambda: float, L: int, out: np.ndarray, y_stop: float) -> float:
    """Amplitude of the inadmissible local solution at the terminal point.

    Matching plain R = 0 at y_stop biases the eigenvalue: near the singular
    endpoint (Lambda < 0) the inadmissible solution stays finite while the
    admissible one vanishes, and on the half-line (Lambda > 0) the admissible
    tail decays only as a power.  The Wronskian of the numeric solution with
    the admissible local behavior vanishes exactly when no inadmissible
    component is present.
    """
    R, R1 = out[-1, 0], out[-1, 1]
    if Lambda < 0:
        # admissible behavior (y_end - y)^s with s = -1/(2*Lambda)
        s = -1.0 / (2.0 * Lambda)
        delta = domain(Lambda).upper - y_stop
        return -s * R - delta * R1
    # admissible tail y^s, s the negative root of s*(s+2) = K/Lambda
    K = 2.0 * e - L * (L + 1) * Lambda - 1.0 - 1.0 / Lambda
    disc = 1.0 - K / Lambda
    if disc <= 0:
        return R
    s = -1.0 - math.sqrt(disc)
    return s * R - y_stop * R1


def shoot_eigenvalue(
    Lambda: float,
    L: int,
    k: int,
    e_bracket: Optional[Tuple[float, float]] = None,
    rtol: float = 1e-10,
) -> ShootingResult:
    """k-th eigenvalue by bisection on the sign of the terminal Wronskian (:func:`_terminal_value`).

    The default bracket is seeded from the closed-form energy, +/- 40% of the
    gap to the neighboring levels; the integration and the root search are
    independent of the closed form.
    """
    QuantumNumbers(n=k, L=L)  # raises ValueError for negative k or L
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    if e_bracket is None:
        e_k = energy_dimless(k, L, Lambda)
        gap_up = abs(energy_dimless(k + 1, L, Lambda) - e_k)
        gap_dn = abs(e_k - energy_dimless(k - 1, L, Lambda)) if k > 0 else gap_up
        e_bracket = (e_k - 0.4 * min(gap_dn, gap_up), e_k + 0.4 * min(gap_dn, gap_up))
    lo, hi = float(e_bracket[0]), float(e_bracket[1])
    y_stop = _terminal_y(Lambda)

    def terminal(e: float) -> float:
        out = _shoot_profile(e, Lambda, L, rtol)
        return _terminal_value(e, Lambda, L, out, y_stop)

    f_lo = terminal(lo)
    f_hi = terminal(hi)
    if f_lo == 0.0:
        lo_val, iterations = lo, 0
    elif f_hi == 0.0:
        lo_val, iterations = hi, 0
    elif f_lo * f_hi > 0:
        raise BracketInvalid(f"no sign change of the terminal value on [{lo}, {hi}]")
    else:
        iterations = 0
        a, b, fa = lo, hi, f_lo
        while b - a > _BISECT_TOL and iterations < _MAX_BISECT:
            mid = 0.5 * (a + b)
            fm = terminal(mid)
            iterations += 1
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        lo_val = 0.5 * (a + b)
    out = _shoot_profile(lo_val, Lambda, L, rtol)
    prof = out[:, 0]
    mismatch = abs(_terminal_value(lo_val, Lambda, L, out, y_stop)) / max(np.max(np.abs(prof)), 1e-300)
    return ShootingResult(
        e_numeric=lo_val,
        iterations=iterations,
        bracket=(lo, hi),
        terminal_mismatch=mismatch,
    )


def eigenfunction_nodes(Lambda: float, L: int, e: float, rtol: float = 1e-10, n_samples: int = 400) -> int:
    """Count interior sign changes of the outward-integrated solution.

    For Lambda > 0 the admissible tail decays as a power of y while the
    inadmissible contaminant grows as one, so the far profile is eventually
    garbage; the count stops where the profile has genuinely decayed (two
    consecutive samples below 1e-4 of the running max -- a node region leaves
    at most one near-zero sample at this sampling density).  For Lambda < 0 a
    fixed fraction short of the endpoint suffices.
    """
    out = _shoot_profile(e, Lambda, L, rtol, n_samples=n_samples)
    prof = out[:, 0]
    stop = int(0.94 * n_samples)
    if Lambda > 0:
        mag = np.abs(prof)
        i_max = int(np.argmax(mag))
        small = mag < 1e-4 * mag[i_max]
        for i in range(i_max + 1, n_samples - 1):
            if small[i] and small[i + 1]:
                stop = i
                break
    body = prof[:stop]
    signs = np.sign(body[np.abs(body) > 1e-12 * np.max(np.abs(body))])
    return int(np.sum(signs[1:] != signs[:-1]))


def ho_wavefunction(n: int, L: int) -> Callable:
    """Unnormalized harmonic-oscillator radial function y^L exp(-y^2/2) L_n^(L+1/2)(y^2).

    The returned function takes a float (giving a float) or an array of any
    shape; float_power and libm exp keep an array bit-identical to floats.
    """
    poly = laguerre(n, L + 0.5)

    def f(y):
        y = np.asarray(y, dtype=float)
        r = np.float_power(y, L) * _libm(math.exp, -0.5 * y * y) * poly(y * y)
        return float(r) if r.ndim == 0 else r

    return f


def ho_norm_sq(n: int, L: int) -> float:
    """Weighted norm int_0^inf ho_wavefunction(n, L)(y)**2 y**2 dy in closed
    form: the Laguerre norm Gamma(n+L+3/2)/(2*n!)."""
    return 0.5 * math.exp(math.lgamma(n + L + 1.5) - math.lgamma(n + 1.0))


def ho_wavefunction_with_derivatives(n: int, L: int) -> Callable:
    """Analytic (R, R', R'') of the harmonic-oscillator radial function, on a
    float (giving floats) or an array, as :func:`ho_wavefunction`."""
    poly = laguerre(n, L + 0.5)
    dpoly = poly.derivative()
    d2poly = dpoly.derivative()

    def f(y):
        y = np.asarray(y, dtype=float)
        s = y * y
        if np.any(s == 0.0):  # L / y and -L / (y*y), as on floats
            raise ZeroDivisionError("float division by zero")
        Q, dQ, d2Q = poly(s), dpoly(s), d2poly(s)
        A = np.float_power(y, L) * _libm(math.exp, -0.5 * s)
        la = L / y - y
        dla = -L / s - 1.0
        R = A * Q
        R1 = A * (la * Q + 2.0 * y * dQ)
        R2 = A * ((la * la + dla) * Q + 4.0 * y * la * dQ + 4.0 * s * d2Q + 2.0 * dQ)
        return (float(R), float(R1), float(R2)) if y.ndim == 0 else (R, R1, R2)

    return f


def limit_compare(n: int, L: int, Lambda_small: float, n_grid: int = 200) -> float:
    """Max relative deviation between the Lambda-state and the HO limit.

    Both functions are unit-normalized in their own weighted norms and
    positive near y = 0; the HO side uses the closed Laguerre norm,
    independent of the Beta-moment route.
    """
    if not 0 < abs(Lambda_small) <= 1e-2:
        raise ValueError(f"|Lambda_small| must be in (0, 1e-2], got {Lambda_small}")
    state = radial.normalize(radial.build_state(n, L, Lambda_small))
    f_ho = ho_wavefunction(n, L)
    c_ho = 1.0 / math.sqrt(ho_norm_sq(n, L))
    ys = np.linspace(0.05, 5.0, n_grid)
    r_lam = radial.eval_state(state, ys)
    r_ho = c_ho * f_ho(ys)
    return float(np.max(np.abs(r_lam - r_ho)) / np.max(np.abs(r_ho)))
