"""Classical dynamics of the nonlinear oscillator with position-dependent mass.

1D motion has the exact solution x = A sin(omega*t + phi) with amplitude and
frequency locked by A**2 = (alpha**2/omega**2 - 1)/lam; planar motion is
integrated in (r, rdot) with the angle reconstructed from the conserved
C = r**2*thetadot.  All integration goes through the adaptive RK45 driver in
:mod:`nlosc.kernels`; energy is monitored, not enforced.

This module uses the bare coupling g = m*alpha**2 throughout (not the
redefined quantum coupling cached on ModelParams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainExit, OutsideDomain, RadialCollapse, StiffnessFailure, UnboundedOrbit
from .kernels import STATUS_NONFINITE, STATUS_OK, integrate_adaptive, rhs_classical_1d, rhs_classical_planar
from .params import ModelParams, check_finite, domain, mass_denominator

_R_COLLAPSE = 1e-10


@dataclass(frozen=True)
class ClassicalStatePlanar:
    t: float
    r: float
    rdot: float
    theta: float
    thetadot: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory with per-sample conserved quantities.

    ``x`` holds the position (1D) or radius (planar); ``theta``/``thetadot``
    and ``angmom`` (= r**2*thetadot) are None for 1D runs.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    H: np.ndarray
    theta: Optional[np.ndarray] = None
    thetadot: Optional[np.ndarray] = None
    angmom: Optional[np.ndarray] = None


def potential_1d(x, params: ModelParams):
    """V(x) = m*alpha**2*x**2 / (2*(lam*x**2 + 1)), on floats or arrays."""
    w = mass_denominator(params.lam, x, "x")
    return 0.5 * params.m * params.alpha**2 * x * x / w


def hamiltonian_1d(x, v, params: ModelParams):
    """Canonical energy H = (lam*x**2+1)*p**2/(2m) + V with p = M*v, on floats or arrays."""
    w = mass_denominator(params.lam, x, "x")
    p = params.m / w * v
    return w * p * p / (2.0 * params.m) + potential_1d(x, params)


def hamiltonian_1d_mass_form(x: float, v: float, params: ModelParams) -> float:
    """Same energy written as M*v**2/2 + V; agrees with hamiltonian_1d."""
    w = mass_denominator(params.lam, x, "x")
    return 0.5 * params.m / w * v * v + potential_1d(x, params)


def hamiltonian_planar(state: ClassicalStatePlanar, params: ModelParams) -> float:
    """H = (lam*r**2+1)*|p|**2/(2m) + V(r) with p = M*(rdot, r*thetadot)."""
    if state.r <= 0:
        raise OutsideDomain(f"radius must be positive, got {state.r}")
    return _hamiltonian_planar(state.r, state.rdot, state.thetadot, params)


def _hamiltonian_planar(r, rdot, thetadot, params: ModelParams):
    """``hamiltonian_planar`` on floats or arrays, for r > 0.  float_power
    squares by libm pow, as Python's ``**`` does; numpy's ``a**2`` multiplies,
    which differs in the last bit for about 0.1% of inputs."""
    w = mass_denominator(params.lam, r)
    M = params.m / w
    v_sq = np.float_power(rdot, 2) + np.float_power(r * thetadot, 2)
    return w * (M * M * v_sq) / (2.0 * params.m) + potential_1d(r, params)


def spring_constant(x: float, A: float, omega: float, params: ModelParams) -> float:
    """Effective spring stiffness K = m*omega**2*(1 + lam*A**2)/(lam*x**2 + 1)."""
    w = mass_denominator(params.lam, x, "x")
    return params.m * omega**2 * (1.0 + params.lam * A * A) / w


def analytic_1d(
    A: float, omega: float, phi: float, params: ModelParams
) -> Tuple[Callable[[float], float], bool]:
    """Sinusoid x(t) = A*sin(omega*t + phi) and whether (A, omega) satisfy
    the amplitude-frequency constraint A**2 = (alpha**2/omega**2 - 1)/lam."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")

    def x_of_t(t: float) -> float:
        return A * math.sin(omega * t + phi)

    if params.lam == 0.0:
        ok = abs(omega - params.alpha) <= 1e-12 * params.alpha
    else:
        target = (params.alpha**2 / omega**2 - 1.0) / params.lam
        ok = abs(A * A - target) <= 1e-12 * max(abs(target), 1.0)
    return x_of_t, ok


def constraint_amplitude(omega: float, params: ModelParams) -> float:
    """Amplitude locked to omega: A = sqrt((alpha**2/omega**2 - 1)/lam)."""
    if params.lam == 0.0:
        raise ValueError("lam = 0 leaves the amplitude unconstrained")
    a_sq = (params.alpha**2 / omega**2 - 1.0) / params.lam
    if a_sq < 0:
        raise ValueError(f"constraint gives A**2 = {a_sq} < 0 for omega = {omega}")
    return math.sqrt(a_sq)


def _solve(rhs, u0, H0, params, t_end, tol, n_samples, what, name, C=None):
    """Sampled RK45 solve of both integrators: (t, U) with U[0] = u0.

    ``H0`` is the energy of u0 and ``C`` the planar angular momentum, None in
    1D.  The first coordinate, called ``name`` in messages, must stay inside
    lam*name**2 + 1 > 0.  For lam > 0 the potential rises to the plateau
    m*alpha**2/(2*lam), and an orbit with H0 at or above it is unbounded: a
    state that overflows there ran off to infinity.
    """
    for arg, value in (("t_end", t_end), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{arg} must be finite and positive, got {value}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 (the initial state and at least one more), got {n_samples}")
    ts = np.linspace(0.0, t_end, n_samples)
    out, status, _ = integrate_adaptive(rhs, 0.0, u0, ts[1:], tol, tol, 10_000_000)
    plateau = 0.5 * params.m * params.alpha**2 / params.lam if params.lam > 0 else math.inf
    if status == STATUS_NONFINITE and H0 >= plateau:
        raise UnboundedOrbit(
            f"{what} ran off to infinity: the energy H = {H0:.6g} is not below the potential's plateau "
            f"m*alpha**2/(2*lam) = {plateau:.6g}; lower the energy or shorten t_end"
        )
    if status == STATUS_NONFINITE and C is not None and C != 0.0:
        raise RadialCollapse("radius collapsed toward r = 0")
    if status == STATUS_NONFINITE:
        raise DomainExit(f"{what} left the configuration domain (non-finite state)")
    if status != STATUS_OK:
        if params.lam < 0:
            # the coefficients are smooth everywhere except at the edge of
            # the lam < 0 domain, so a stalled step controller means the
            # trajectory ran into lam*x**2 + 1 -> 0
            raise DomainExit(f"{what} stalled at the domain boundary lam*x**2 + 1 -> 0")
        raise StiffnessFailure(f"{what} failed: step-size underflow")
    U = np.vstack((u0, out))
    if C is not None and np.any(U[:, 0] <= _R_COLLAPSE):
        raise RadialCollapse(f"radius fell below {_R_COLLAPSE}")
    try:
        mass_denominator(params.lam, U[:, 0], name)
    except OutsideDomain:
        raise DomainExit(f"trajectory crossed lam*{name}**2 + 1 = 0") from None
    return ts, U


def integrate_1d(
    x0: float,
    v0: float,
    params: ModelParams,
    t_end: float,
    tol: float = 1e-10,
    n_samples: int = 1000,
) -> Trajectory:
    """Integrate (lam*x**2+1)*xdd - lam*x*xd**2 + alpha**2*x = 0."""
    check_finite(x0=x0, v0=v0)
    mass_denominator(params.lam, x0, "x0")
    rhs = rhs_classical_1d(params.lam, params.alpha**2)
    ts, U = _solve(rhs, (x0, v0), hamiltonian_1d(x0, v0, params), params, t_end, tol, n_samples, "1D integration", "x")
    xs, vs = U.T
    return Trajectory(t=ts, x=xs, v=vs, H=hamiltonian_1d(xs, vs, params))


def integrate_planar(
    r0: float,
    rdot0: float,
    C: float,
    params: ModelParams,
    t_end: float,
    tol: float = 1e-10,
    n_samples: int = 1000,
) -> Trajectory:
    """Integrate the planar radial equation with theta reconstructed from C."""
    check_finite(r0=r0, rdot0=rdot0, C=C)
    if r0 <= 0:
        raise OutsideDomain(f"initial radius must be positive, got {r0}")
    mass_denominator(params.lam, r0, "r0")
    rhs = rhs_classical_planar(params.lam, params.alpha**2, C)
    H0 = _hamiltonian_planar(r0, rdot0, C / (r0 * r0), params)
    ts, U = _solve(rhs, (r0, rdot0, 0.0), H0, params, t_end, tol, n_samples, "planar integration", "r", C)
    rs, rds, thetas = U.T
    thetadots = C / (rs * rs)
    H = _hamiltonian_planar(rs, rds, thetadots, params)
    return Trajectory(t=ts, x=rs, v=rds, H=H, theta=thetas, thetadot=thetadots, angmom=rs * rs * thetadots)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f in [lo, hi] after 80 halvings, enough to reach double
    precision; f must change sign on the bracket."""
    f_lo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def measure_period(traj: Trajectory) -> float:
    """Mean spacing of upward zero crossings of x(t), located by cubic Hermite
    interpolation between samples (the velocity supplies the slopes)."""
    t, x, v = traj.t, traj.x, traj.v
    crossings = []
    for i in range(len(t) - 1):
        if x[i] <= 0.0 < x[i + 1] or (x[i] < 0.0 <= x[i + 1]):
            h = t[i + 1] - t[i]
            # cubic Hermite on [0, 1]
            p0, p1, m0, m1 = x[i], x[i + 1], v[i] * h, v[i + 1] * h
            coeffs = [
                p0,
                m0,
                -3.0 * p0 + 3.0 * p1 - 2.0 * m0 - m1,
                2.0 * p0 - 2.0 * p1 + m0 + m1,
            ]
            # one root in (0, 1); bisect the Horner form
            def poly(s):
                return ((coeffs[3] * s + coeffs[2]) * s + coeffs[1]) * s + coeffs[0]

            crossings.append(t[i] + _bisect(poly, 0.0, 1.0) * h)
    if len(crossings) < 2:
        raise ValueError("need at least two upward zero crossings to measure a period")
    gaps = np.diff(crossings)
    return float(np.mean(gaps))


def circular_orbit_radius(C: float, params: ModelParams) -> float:
    """Radius with rdd = 0 at rd = 0: alpha**2*r = (lam*r**2+1)*C**2/r**3 + lam*C**2/r."""
    if C == 0.0:
        raise ValueError("C = 0 has no circular orbit")

    # rdd from the radial equation at rdot = 0:
    # rdd = C**2/r**3 + (lam*r*C**2/r**2 - alpha**2*r)/(lam*r**2+1)
    def rdd(r: float) -> float:
        w = mass_denominator(params.lam, r)
        return C * C / r**3 + (params.lam * C * C / r - params.alpha**2 * r) / w

    # the root lies inside the ball lam*r**2 + 1 > 0 when lam < 0; start there
    upper = domain(params.lam).upper
    lo = hi = min(math.sqrt(abs(C) / params.alpha), 0.5 * upper)
    while rdd(lo) < 0 and lo > 1e-8:
        lo *= 0.5
    try:
        while rdd(hi) > 0:
            hi *= 2.0
    except OutsideDomain:
        hi = 0.999999 * upper
    if rdd(lo) * rdd(hi) > 0:
        raise ValueError(f"no sign change of the radial acceleration on [{lo}, {hi}]")
    return _bisect(rdd, lo, hi)
