"""Embedded Dormand-Prince RK45 and the right-hand sides of the classical dynamics.

Plain Python floats: a right-hand side is ``f(t, u)`` with ``u`` a sequence of
floats and returns a tuple; the ``rhs_*`` factories bind an equation's parameters.

Driver status codes: 0 success, 1 non-finite state encountered (domain exit),
2 step-size underflow.
"""

import math

import numpy as np

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = 9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# difference between 5th- and 4th-order weights (error estimator)
_E1 = _B1 - 5179.0 / 57600.0
_E3 = _B3 - 7571.0 / 16695.0
_E4 = _B4 - 393.0 / 640.0
_E5 = _B5 + 92097.0 / 339200.0
_E6 = _B6 - 187.0 / 2100.0
_E7 = -1.0 / 40.0

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_UNDERFLOW = 2

_H_MIN = 1e-14


def rhs_classical_1d(lam, alpha2):
    """1D nonlinear oscillator, u = (x, v)."""
    lam, alpha2 = float(lam), float(alpha2)

    def f(t, u):
        x, v = u
        return v, (lam * x * v * v - alpha2 * x) / (lam * x * x + 1.0)

    return f


def rhs_classical_planar(lam, alpha2, C):
    """Planar radial motion, u = (r, rdot, theta) with angular momentum C."""
    lam, alpha2, c = float(lam), float(alpha2), float(C)

    def f(t, u):
        r, rd, _ = u
        w = lam * r * r + 1.0
        return rd, c * c / (r * r * r) + (lam * r * (rd * rd + c * c / (r * r)) - alpha2 * r) / w, c / (r * r)

    return f


def _step(f, t, u, h, k1):
    """Dormand-Prince stages k2..k6; returns (u_new, (k1, k3, k4, k5, k6))."""
    k2 = f(t + _C2 * h, [y + h * (_A21 * a) for y, a in zip(u, k1)])
    k3 = f(t + _C3 * h, [y + h * (_A31 * a + _A32 * b) for y, a, b in zip(u, k1, k2)])
    k4 = f(t + _C4 * h, [y + h * (_A41 * a + _A42 * b + _A43 * c) for y, a, b, c in zip(u, k1, k2, k3)])
    k5 = f(t + _C5 * h, [y + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                         for y, a, b, c, d in zip(u, k1, k2, k3, k4)])
    k6 = f(t + h, [y + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * g)
                   for y, a, b, c, d, g in zip(u, k1, k2, k3, k4, k5)])
    u_new = [y + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * g + _B6 * k)
             for y, a, c, d, g, k in zip(u, k1, k3, k4, k5, k6)]
    return u_new, (k1, k3, k4, k5, k6)


def integrate_adaptive(f, t0, u0, t_eval, rtol, atol, max_steps):
    """Integrate u' = f(t, u) from t0, sampling at the points t_eval.

    t_eval must be strictly increasing with t_eval[0] > t0.
    Returns (U, status, nsteps) with U[i] the state at t_eval[i].

    Plain floats raise where float64 arrays give inf or NaN: a division by zero
    at the start or in stages k2..k6 makes the state non-finite; one in the FSAL
    stage k7, or an overflow in the error norm, rejects the step.
    """
    targets = [float(s) for s in t_eval]
    u = [float(y) for y in u0]
    out = np.empty((len(targets), len(u)))
    t = float(t0)
    h = min(1e-3, (targets[-1] - t) / 100.0)
    nsteps = 0
    try:
        k1 = f(t, u)
    except ZeroDivisionError:
        k1 = [math.nan] * len(u)
    for i, target in enumerate(targets):
        while target - t > 1e-15 * max(1.0, abs(t)):
            if nsteps >= max_steps or h < _H_MIN:
                return out, STATUS_UNDERFLOW, nsteps
            clipped = t + h - target > 0.0
            h_try = target - t if clipped else h
            try:
                u_new, ks = _step(f, t, u, h_try, k1)
            except ZeroDivisionError:
                return out, STATUS_NONFINITE, nsteps
            if not all(map(math.isfinite, u_new)):
                return out, STATUS_NONFINITE, nsteps
            # scaled RMS error norm; ``** 2`` is libm pow, which differs from
            # ``x * x`` in the last bit for about 0.1% of inputs
            try:
                k7 = f(t + h_try, u_new)
                acc = 0.0
                for y, y_new, a, c, d, g, k, q in zip(u, u_new, *ks, k7):
                    err = h_try * (_E1 * a + _E3 * c + _E4 * d + _E5 * g + _E6 * k + _E7 * q)
                    acc += (err / (atol + rtol * max(abs(y), abs(y_new)))) ** 2
                enorm = math.sqrt(acc / len(u))
            except (ZeroDivisionError, OverflowError):
                enorm = math.inf
            nsteps += 1
            if enorm <= 1.0:
                t = t + h_try
                u = u_new
                k1 = k7
                # a clipped (output-aligned) step leaves the controller size alone
                if not clipped:
                    h = h_try * (5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2)))
            else:
                h = h_try * max(0.2, 0.9 * enorm ** -0.2)
        out[i] = u
    return out, STATUS_OK, nsteps
