"""Hot numerical kernels: embedded Dormand-Prince RK45 and ODE right-hand sides.

Plain Python/numpy.  Right-hand sides take ``(t, u, args)`` with ``u`` and
``args`` float64 arrays so one driver serves every equation.

Driver status codes: 0 success, 1 non-finite state encountered (domain exit),
2 step-size underflow.
"""

import numpy as np

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
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


def rhs_radial(t, u, args):
    """Radial eigenvalue equation as a first-order system in y.

    u = (R, R'); args = (e, Lambda, L).
    """
    e = args[0]
    lam = args[1]
    ell = args[2]
    w = lam * t * t + 1.0
    coeff = 2.0 * e - ell * (ell + 1.0) * lam - 1.0 + (1.0 - t * t) / w - ell * (ell + 1.0) / (t * t)
    du = np.empty(2)
    du[0] = u[1]
    du[1] = -((2.0 / t + 3.0 * lam * t) * u[1] + coeff * u[0]) / w
    return du


def rhs_classical_1d(t, u, args):
    """1D nonlinear oscillator; u = (x, v), args = (lam, alpha2)."""
    lam = args[0]
    alpha2 = args[1]
    x = u[0]
    v = u[1]
    du = np.empty(2)
    du[0] = v
    du[1] = (lam * x * v * v - alpha2 * x) / (lam * x * x + 1.0)
    return du


def rhs_classical_planar(t, u, args):
    """Planar radial motion; u = (r, rdot, theta), args = (lam, alpha2, C)."""
    lam = args[0]
    alpha2 = args[1]
    c = args[2]
    r = u[0]
    rd = u[1]
    w = lam * r * r + 1.0
    du = np.empty(3)
    du[0] = rd
    du[1] = c * c / (r * r * r) + (lam * r * (rd * rd + c * c / (r * r)) - alpha2 * r) / w
    du[2] = c / (r * r)
    return du


def _step(rhs, t, u, h, args, k1):
    """Single Dormand-Prince step; returns (u_new, err_vec, k7)."""
    n = u.shape[0]
    k2 = rhs(t + _C2 * h, u + h * (_A21 * k1), args)
    k3 = rhs(t + _C3 * h, u + h * (_A31 * k1 + _A32 * k2), args)
    k4 = rhs(t + _C4 * h, u + h * (_A41 * k1 + _A42 * k2 + _A43 * k3), args)
    k5 = rhs(t + _C5 * h, u + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4), args)
    k6 = rhs(t + h, u + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5), args)
    u_new = u + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = rhs(t + h, u_new, args)
    err = np.empty(n)
    for i in range(n):
        err[i] = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
    return u_new, err, k7


def integrate_adaptive(rhs, t0, u0, t_eval, rtol, atol, args, max_steps):
    """Integrate u' = rhs(t, u, args) from t0, sampling at the points t_eval.

    t_eval must be strictly increasing with t_eval[0] > t0 (or decreasing for
    backward integration; internally handled by the sign of the sweep).
    Returns (U, status, nsteps) with U[i] the state at t_eval[i].
    """
    n = u0.shape[0]
    m = t_eval.shape[0]
    out = np.empty((m, n))
    direction = 1.0
    if t_eval[m - 1] < t0:
        direction = -1.0
    t = t0
    u = u0.copy()
    k1 = rhs(t, u, args)
    h_abs = min(1e-3, abs(t_eval[m - 1] - t0) / 100.0)
    nsteps = 0
    for i in range(m):
        target = t_eval[i]
        while direction * (target - t) > 1e-15 * max(1.0, abs(t)):
            if nsteps >= max_steps:
                return out, STATUS_UNDERFLOW, nsteps
            if h_abs < _H_MIN:
                return out, STATUS_UNDERFLOW, nsteps
            h_try = direction * h_abs
            clipped = False
            if direction * (t + h_try - target) > 0.0:
                h_try = target - t
                clipped = True
            u_new, err, k7 = _step(rhs, t, u, h_try, args, k1)
            ok = True
            for j in range(n):
                if not np.isfinite(u_new[j]):
                    ok = False
            if not ok:
                return out, STATUS_NONFINITE, nsteps
            # scaled RMS error norm
            acc = 0.0
            for j in range(n):
                sc = atol + rtol * max(abs(u[j]), abs(u_new[j]))
                acc += (err[j] / sc) ** 2
            enorm = np.sqrt(acc / n)
            nsteps += 1
            if enorm <= 1.0:
                t = t + h_try
                u = u_new
                k1 = k7
                if enorm == 0.0:
                    fac = 5.0
                else:
                    fac = min(5.0, max(0.2, 0.9 * enorm ** -0.2))
                if not clipped:
                    h_abs = abs(h_try) * fac
                # a clipped (output-aligned) step leaves the controller size alone
            else:
                h_abs = abs(h_try) * max(0.2, 0.9 * enorm ** -0.2)
        for j in range(n):
            out[i, j] = u[j]
    return out, STATUS_OK, nsteps
