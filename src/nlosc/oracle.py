"""Independent numerical verification of the closed-form solutions.

Eigenvalues come from one Galerkin eigen-solve of the radial equation,

    w R'' + (2/y + 3 Lambda y) R' + [2e - V(y)] R = 0,    w = 1 + Lambda y**2,
    V(y) = L(L+1) Lambda + 1 - (1 - y**2)/w + L(L+1)/y**2,

written from these coefficients alone; the closed-form eigenfunctions, the
Jacobi polynomials of :mod:`nlosc.orthopoly` and the closed-form energies are
never called.  The solution is R = phi g with the prefactor
phi = y**L w**gamma, and g is expanded in the polynomials orthonormal in the
Sturm-Liouville weight nu = r phi**2 |dy/dx| (r = y**2/sqrt(w)) of the
variable x = 1 - 2u:

- Lambda < 0: u = |Lambda| y**2 on the ball, gamma = 1/(2|Lambda|);
- Lambda > 0: u = Lambda y**2/w on the half-line, gamma = -(beta + L/2), where
  R ~ y**(-2 beta) is the decaying tail at the energy e.

Both make nu a Jacobi weight (1-x)**(L+1/2) (1+x)**b, with b = 1/|Lambda| - 1/2
or b = 2 beta - 2.  The eigenvalues of S_ij = int nu kappa p_i' p_j' +
int nu q p_i p_j are 2e, with kappa = w (dx/dy)**2 and q = (H phi)/phi, H the
radial operator.  The first term, the stiffness, is a closed form of the
basis: diagonal for Lambda < 0 and tridiagonal for Lambda > 0 (see
:func:`_stiffness`).  The second is the N-point Gauss rule of the weight, with
q taken by the chain rule at the nodes; one eigendecomposition of the Jacobi
matrix gives both the nodes and the node values of the p_i (Golub-Welsch).

Each level is found on N nodes and checked on 2N.  For Lambda < 0 the
assembled S is diagonal to rounding (off-diagonal entries near 1e-16 of the
diagonal at N = 16 and 32): phi is the prefactor of the exact solutions, whose
g is a polynomial of degree k, so the Galerkin solve is exact at any N > k and
the check measures rounding, not truncation; what the oracle checks
independently there is that S, built from the equation's coefficients alone,
is diagonal, and what its diagonal is.  For Lambda > 0 S mixes the basis
(off-diagonal 0.3 of the diagonal at Lambda = 0.05, L = 1, beta = 7.3), and
the solve is exact only at the level's own beta, again at any N > k, so the
Gauss rule run twice would agree to about 1e-15.  There q is of degree one at
beta = beta(e), and the 2N check solves the tridiagonal S = K + (e + k) I +
(k - e) J it gives in closed form (:func:`_closed_galerkin`): a second
derivation of the Gauss rule's N-node level, so a slip in either shows.

Boundary condition.  At y = 0 the prefactor keeps the regular branch y**L.  At
the Lambda < 0 endpoint the local exponents in the distance to the edge are
1/(2|Lambda|) and 1/2 - 1/(2|Lambda|); a polynomial g takes the first.  For
Lambda < -2/3 both branches are square-integrable (the endpoint is limit
circle), so this is a real choice of boundary condition, the one the closed
form makes; at Lambda = -2 the exponents coincide and a polynomial g also
drops the logarithmic branch.  For Lambda > 0 the tail exponent depends on e,
so the k-th level is the root of E_k(beta(e)) - e below the continuum
threshold e*, found by a bracketed secant.

The harmonic-oscillator branch gives the |Lambda| -> 0 reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import radial
from .errors import BracketInvalid, MeshNotConverged, NotAdmissible, OutsideDomain, QuadratureFailure
from .orthopoly import _check_degree, _per_point, _values, laguerre_scaled
from .params import check_finite, mass_denominator
from .spectrum import QuantumNumbers, check_angular_momentum

# The mesh has max(_N_MIN, k + _N_PAD) nodes and is checked against twice that.
_N_MIN = 16
_N_PAD = 8
# eigenfunction_nodes doubles its mesh up to this many nodes and shoot_eigenvalue takes
# k up to _N_NODES_MAX - _N_PAD (dense matrices of twice that side); beyond, MeshNotConverged
_N_NODES_MAX = 1024
# Closest approach of the tail exponent beta to the normalizability limit 1/2
# (Lambda > 0), where the Jacobi weight (1+x)**(2 beta - 2) stops being
# integrable.  The walk of :func:`_bound_level` stops here, so a state with
# beta_k - 1/2 below twice this (within 8e-12*Lambda of the continuum
# threshold) may be reported as not found.
_TAIL_MARGIN = 1e-6
# the secant stops when a step moves e by less than this, relative to max(1, |e|)
_SECANT_RTOL = 1e-13
_MAX_SECANT = 60


@dataclass(frozen=True)
class ShootingResult:
    """The oracle's k-th eigenvalue and what it cost.

    ``e_numeric`` is the Gauss rule's level: on 2N nodes for Lambda < 0,
    checked against N nodes; on N nodes for Lambda > 0, checked against the
    closed tridiagonal matrix on 2N.  ``iterations`` counts the eigen-solves
    on both meshes (for Lambda > 0, every evaluation of :func:`_bound_level`'s
    f).  ``bracket`` is the explicit ``e_bracket`` or an interval that holds
    ``e_numeric``: for Lambda > 0 the 2N check's last solved bracket, widened
    to hold ``e_numeric`` (rtol max(1, |e|) wide where the check's started
    pair held the level); for Lambda < 0 the midpoints to the neighboring
    levels.  ``terminal_mismatch`` is |e_check - e_numeric| / max(1, |e|),
    e_check the other mesh's level; over the whole accepted range,
    |Lambda| > 1e-8, it bounds the true error |e - e_exact| / max(1, |e|) (or
    1e-10, whichever is larger).
    """

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
    if y * y == 0:  # L(L+1) / (y*y) would divide by zero
        raise OutsideDomain(f"derivatives need y*y > 0, got y = {y}")
    w = mass_denominator(Lambda, y, "y")
    R, R1, R2 = f(y)
    coeff = 2.0 * e - L * (L + 1) * Lambda - 1.0 + (1.0 - y * y) / w - L * (L + 1) / (y * y)
    t1 = w * R2
    t2 = (2.0 / y + 3.0 * Lambda * y) * R1
    t3 = coeff * R
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 + t2 + t3) / scale


def _jacobi(N: int, a: float, b: float) -> np.ndarray:
    """N x N Jacobi matrix J of the polynomials p_i orthonormal in the weight
    (1-x)**a (1+x)**b on (-1, 1): the three-term recurrence
    x p_i = J_(i,i-1) p_(i-1) + J_ii p_i + J_(i,i+1) p_(i+1)."""
    n = np.arange(1.0, N)
    s = 2.0 * n + a + b
    diag = np.empty(N)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    J = np.zeros((N, N))
    J.flat[:: N + 1] = diag
    J.flat[1 :: N + 1] = off
    J.flat[N :: N + 1] = off
    return J


def _mesh(N: int, a: float, b: float):
    """N-point Gauss rule of the weight (1-x)**a (1+x)**b on (-1, 1).

    Returns the ascending nodes x, the N x N array P[i, j] = p_i(x_j)
    sqrt(w_j), with p_i the orthonormal polynomials and w_j the Gauss
    weights, and the Jacobi matrix J of :func:`_jacobi`.  One
    eigendecomposition of J gives both (Golub & Welsch): the eigenvalues are
    the nodes and the unit eigenvectors are the columns of P up to sign.
    Each column is signed as p_(N-1) at its node, (-1)**(N-1-j) at the j-th
    ascending node: the top row, not p_0 sqrt(w_j), which underflows to 0
    where the weight does (N = 400 at b = 999.5), while |P[N-1, j]| stays
    above 1e-5 up to N = 1024 and b = 1e8.  P is orthogonal to rounding,
    where the recurrence run at the nodes loses digits as p_i grows far from
    the weight's bulk.
    """
    J = _jacobi(N, a, b)
    x, P = np.linalg.eigh(J)
    odd = (N - 1 - np.arange(N)) % 2 == 1  # where p_(N-1) < 0
    P[:, (P[-1] < 0) != odd] *= -1.0
    return x, P, J


def _stiffness(Lambda: float, a: float, b: float, J: np.ndarray) -> np.ndarray:
    """K_ij = int nu kappa p_i' p_j' in closed form, lambda_i = i(i+a+b+1).

    Lambda < 0: kappa = 4|Lambda|(1 - x**2), and the Jacobi differential
    equation (DLMF 18.8.1) makes K = 4|Lambda| diag(lambda_i).  Lambda > 0:
    kappa = 2 Lambda (1-x)(1+x)**2; integrating by parts with the Pearson
    equation ((1 - x**2) nu)' = ((b - a) - (a+b+2) x) nu gives the tridiagonal
    K = Lambda [(lambda_i + lambda_j)(I + J) + (b - a) I - (a+b+2) J]_ij.
    """
    i = np.arange(J.shape[0])
    lam = i * (i + a + b + 1.0)
    if Lambda < 0:
        return np.diag(-4.0 * Lambda * lam)
    K = (lam[:, None] + lam - (a + b + 2.0)) * J
    K.flat[:: J.shape[0] + 1] += 2.0 * lam + b - a
    return Lambda * K


def _galerkin(Lambda: float, L: int, N: int, beta: float = 0.0):
    """(S, P): the Galerkin matrix of the radial operator, whose eigenvalues
    are 2e, and the node values P of the basis (see :func:`_mesh`).

    ``beta`` is the tail exponent for Lambda > 0 and unused for Lambda < 0.
    """
    a = L + 0.5
    if Lambda < 0:
        gamma, b = -0.5 / Lambda, -1.0 / Lambda - 0.5
    else:
        gamma, b = -(beta + 0.5 * L), 2.0 * beta - 2.0
    x, P, J = _mesh(N, a, b)
    u, v = 0.5 * (1.0 - x), 0.5 * (1.0 + x)  # u and 1 - u
    if Lambda < 0:
        y2, w = u / -Lambda, v
    else:
        y2, w = u / (Lambda * v), 1.0 / v
    y = np.sqrt(y2)
    ll = L * (L + 1.0)
    ell = L / y + 2.0 * gamma * Lambda * y / w  # phi'/phi
    dell = -L / y2 + 2.0 * gamma * Lambda * (1.0 - Lambda * y2) / (w * w)  # (phi'/phi)'
    potential = ll * Lambda + 1.0 - (1.0 - y2) / w + ll / y2
    q = -w * (dell + ell * ell) - (2.0 / y + 3.0 * Lambda * y) * ell + potential
    return _stiffness(Lambda, a, b, J) + (P * q) @ P.T, P


def _levels(Lambda: float, L: int, N: int, beta: float = 0.0) -> np.ndarray:
    """Ascending Galerkin eigenvalues e of the N-node mesh."""
    return 0.5 * np.linalg.eigvalsh(_galerkin(Lambda, L, N, beta)[0])


def _closed_galerkin(Lambda: float, L: int, N: int, e: float, beta: float) -> np.ndarray:
    """The S of :func:`_galerkin` for Lambda > 0 at the energy e and its tail
    exponent beta = beta(e), in closed form.

    There q is the polynomial e(1 - x) + k(1 + x) of degree one,
    k = Lambda(L(L+1) + (2L+3) beta), so the Gauss rule of q is
    (e + k) I + (k - e) J on any mesh, and S = K + (e + k) I + (k - e) J is
    tridiagonal: no nodes, no node values.  Written through e, the
    coefficients hold none of the O(1/Lambda) terms that cancel in the form
    through beta alone.
    """
    a, b = L + 0.5, 2.0 * beta - 2.0
    J = _jacobi(N, a, b)
    k = Lambda * (L * (L + 1.0) + (2.0 * L + 3.0) * beta)
    S = _stiffness(Lambda, a, b, J) + (k - e) * J
    S.flat[:: N + 1] += e + k
    return S


def _closed_levels(Lambda: float, L: int, N: int, e: float, beta: float) -> np.ndarray:
    """Ascending eigenvalues e of :func:`_closed_galerkin`."""
    return 0.5 * np.linalg.eigvalsh(_closed_galerkin(Lambda, L, N, e, beta))


def _threshold(Lambda: float, L: int) -> float:
    """Continuum threshold e* for Lambda > 0, where the tail exponent reaches 1/2."""
    return 0.5 * (1.0 + 1.0 / Lambda + Lambda + L * (L + 1) * Lambda)


def _tail_exponent(e: float, Lambda: float, L: int) -> float:
    """beta with R ~ y**(-2 beta) at large y: the decaying root of the indicial
    equation s(s + 2) = -K/Lambda, K = 2e - L(L+1)Lambda - 1 - 1/Lambda, written
    with 1 - K/Lambda = 2(e* - e)/Lambda."""
    return 0.5 * (1.0 + math.sqrt(max(0.0, 2.0 * (_threshold(Lambda, L) - e) / Lambda)))


def _bound_level(Lambda: float, L: int, k: int, N: int, levels: Callable, start: Optional[Tuple[float, float]] = None):
    """k-th level for Lambda > 0: the root of f(e) = E_k(beta(e)) - e on
    [0, e*), E_k the k-th of the ascending Galerkin ``levels(e, beta)`` on N
    nodes at tail exponent beta: the Gauss rule's (:func:`_levels`) or the
    closed matrix's (:func:`_closed_levels`).  Returns (e, solves, bracket).

    f > 0 at e = 0, and f > 0 wherever beta(e) > beta_k, because a Galerkin
    level is never below the true one.  Just above e_k, f < 0; near e* the
    k-th Galerkin level of a high state can sit at the threshold itself, so
    the sign of f there says nothing.  The bracket is therefore found by
    walking up from e = 0, halving t = beta - 1/2 each step, until f < 0; a
    walk that reaches t = _TAIL_MARGIN finds no level.  The root is then
    polished by the Illinois variant of the secant method, which keeps the
    sign change.  The secant tests each step before it solves: a step that
    moves e by at most _SECANT_RTOL max(1, |e|) is returned unsolved, since
    nothing would read its f.  An iterate whose f is exactly 0 also ends it.

    ``start = (e_c, w)`` is a level expected within w of e_c (the coarse
    mesh's, for the fine solve).  f is then taken at e_c and at e_c + w or
    e_c - w, on the side where the sign of f(e_c) puts the root; if the pair
    changes sign inside the walk's range, the secant starts from it with e_c
    as its previous iterate, so a level that has not moved is returned after
    those two solves, and one whose f(e_c) is exactly 0 after the first.
    Otherwise the walk from e = 0 runs as without a start.
    Either way ``solves`` counts every evaluation of f and ``bracket`` is the
    last secant bracket whose ends were solved, which holds e up to the
    rounding of the secant step.
    """
    solves = 0

    def f(e, beta):
        nonlocal solves
        solves += 1
        return levels(e, beta)[k] - e

    e_star = _threshold(Lambda, L)

    def walk():
        t = _tail_exponent(0.0, Lambda, L) - 0.5
        a, fa = 0.0, f(0.0, 0.5 + t)
        if fa <= 0:
            raise MeshNotConverged(f"level k = {k} at Lambda = {Lambda}, L = {L} is not above e = 0 on {N} nodes")
        while True:
            t *= 0.5
            if t < _TAIL_MARGIN:
                raise NotAdmissible(
                    f"no bound state k = {k} at Lambda = {Lambda}, L = {L}: the level stays above e "
                    f"up to the continuum threshold e* = {e_star!r}"
                )
            b = e_star - 2.0 * Lambda * t * t
            fb = f(b, 0.5 + t)
            if fb < 0:
                return a, fa, b, fb
            a, fa = b, fb

    c, pair = math.inf, None  # the secant's previous iterate, and its starting pair
    if start is not None:
        e_c, w = start
        f_c = f(e_c, _tail_exponent(e_c, Lambda, L))
        if f_c == 0.0:
            return e_c, solves, (e_c, e_c)
        e_w = e_c + w if f_c > 0 else e_c - w
        if 0.0 < e_w <= e_star - 2.0 * Lambda * _TAIL_MARGIN**2:  # where the walk may look
            f_w = f(e_w, _tail_exponent(e_w, Lambda, L))
            if f_c * f_w < 0:
                c, pair = e_c, (e_c, f_c, e_w, f_w)
    a, fa, b, fb = pair or walk()
    for _ in range(_MAX_SECANT):
        c_old, c = c, (a * fb - b * fa) / (fb - fa)
        if abs(c - c_old) <= _SECANT_RTOL * max(1.0, abs(c)):  # settled: nothing would read f(c)
            break
        fc = f(c, _tail_exponent(c, Lambda, L))
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
        if fc == 0.0:
            break
    else:
        raise MeshNotConverged(f"secant on E_k(beta(e)) - e did not settle in {_MAX_SECANT} steps at Lambda = {Lambda}")
    return float(c), solves, (float(min(a, b)), float(max(a, b)))


def _check_lambda(Lambda: float) -> None:
    check_finite(Lambda=Lambda)
    radial.check_lambda_switch(Lambda)


def shoot_eigenvalue(
    Lambda: float,
    L: int,
    k: int,
    e_bracket: Optional[Tuple[float, float]] = None,
    rtol: float = 1e-10,
) -> ShootingResult:
    """k-th eigenvalue of the radial equation from the Galerkin eigen-solve.

    The level is solved on N = max(16, k + 8) nodes and again on 2N; ``rtol``
    bounds |e(2N) - e(N)| / max(1, |e|), and a larger change raises
    :class:`MeshNotConverged`, as does a k above 1,016 (N past _N_NODES_MAX = 1,024)
    before any matrix is formed.  For Lambda > 0 the N-node level e_c, from the
    Gauss rule, is the result; the 2N secant of the closed matrix checks it,
    started from e_c and its neighbor at distance rtol max(1, |e_c|), or
    walking up from e = 0 where the level moved further (:func:`_bound_level`,
    one secant for both, given each mesh's level function).  An explicit
    ``e_bracket`` that does not hold the level raises :class:`BracketInvalid`;
    for Lambda > 0, a k with no bound state raises :class:`NotAdmissible`.
    |Lambda| <= radial.LAMBDA_SWITCH raises :class:`LambdaTooSmall`: there
    the tail exponent, about 1/(2 Lambda), resolves e only to about eps/Lambda.
    """
    QuantumNumbers(n=k, L=L)  # raises ValueError for negative k or L
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    _check_lambda(Lambda)
    N = max(_N_MIN, k + _N_PAD)
    if N > _N_NODES_MAX:
        raise MeshNotConverged(f"k = {k} needs {N} nodes, above {_N_NODES_MAX}: the largest k is {_N_NODES_MAX - _N_PAD}")
    if Lambda > 0:
        # the closures look _levels and _closed_levels up when called
        e, solves, _ = _bound_level(Lambda, L, k, N, lambda e_i, beta: _levels(Lambda, L, N, beta))
        e_check, solves_check, bracket = _bound_level(
            Lambda, L, k, 2 * N, lambda e_i, beta: _closed_levels(Lambda, L, 2 * N, e_i, beta), (e, rtol * max(1.0, abs(e)))
        )
        bracket = (min(bracket[0], e), max(bracket[1], e))
    else:
        e_check, levels = float(_levels(Lambda, L, N)[k]), _levels(Lambda, L, 2 * N)
        e, solves, solves_check = float(levels[k]), 1, 1
        lo = 0.5 * (levels[k - 1] + levels[k]) if k else 1.5 * levels[0] - 0.5 * levels[1]
        bracket = (float(lo), float(0.5 * (levels[k] + levels[k + 1])))
    mismatch = abs(e - e_check) / max(1.0, abs(e))
    if not mismatch <= rtol:
        raise MeshNotConverged(
            f"level k = {k} at Lambda = {Lambda}, L = {L} moved by {mismatch:.3g} (relative) "
            f"from {N} to {2 * N} nodes, above rtol = {rtol}"
        )
    if e_bracket is not None:
        bracket = (float(e_bracket[0]), float(e_bracket[1]))
        if not bracket[0] <= e <= bracket[1]:
            raise BracketInvalid(f"level k = {k}, e = {e!r}, is not in the bracket [{bracket[0]}, {bracket[1]}]")
    return ShootingResult(e_numeric=e, iterations=solves + solves_check, bracket=bracket, terminal_mismatch=mismatch)


def eigenfunction_nodes(Lambda: float, L: int, e: float) -> int:
    """Interior nodes of the computed eigenfunction whose level is nearest e.

    R = phi g with phi > 0 inside the domain, so the nodes are the sign
    changes of g.  At the Gauss nodes g sqrt(w_j) is the eigenvector times P;
    the mesh has at least 8 nodes more than the level's index and a top
    level above e, and values below 1e-10 of the largest (the far tails) carry
    no sign.  A mesh that would need more than _N_NODES_MAX nodes raises
    :class:`MeshNotConverged`.  A negative L, a non-finite e, or (Lambda > 0)
    an e so far below the spectrum that the Galerkin matrix of its tail
    exponent is not finite raises ValueError.
    """
    check_angular_momentum(L)
    check_finite(e=e)
    _check_lambda(Lambda)
    beta = 0.0
    if Lambda > 0:
        e_star = _threshold(Lambda, L)
        if not e < e_star:
            raise NotAdmissible(f"e = {e} is not below the continuum threshold e* = {e_star!r}")
        beta = _tail_exponent(e, Lambda, L)
        if not math.isfinite(beta):
            raise ValueError(f"e = {e} lies too far below the spectrum: the tail exponent is {beta}")
    N = _N_MIN
    while True:
        with np.errstate(all="ignore"):  # a non-finite matrix is reported below
            S, P = _galerkin(Lambda, L, N, beta)
        if not np.isfinite(S).all():
            raise ValueError(f"e = {e} lies too far below the spectrum: the tail exponent {beta} overflows the mesh")
        levels, vectors = np.linalg.eigh(S)
        j = int(np.argmin(np.abs(0.5 * levels - e)))
        if j + _N_PAD <= N and e <= 0.5 * levels[-1]:
            break
        if N >= _N_NODES_MAX:
            raise MeshNotConverged(
                f"e = {e} at Lambda = {Lambda}, L = {L} needs a mesh of more than {_N_NODES_MAX} nodes"
            )
        N *= 2
    g = vectors[:, j] @ P
    signs = np.sign(g[np.abs(g) > 1e-10 * np.max(np.abs(g))])
    return int(np.sum(signs[1:] != signs[:-1]))


def _ho_values(n: int, L: int, y: np.ndarray, count: int) -> tuple:
    """(R,), or (R, R', R'') for ``count`` = 3, of R = y**L exp(-y**2/2) L_n^(L+1/2)(y**2) by :func:`orthopoly._values`
    on the log -y**2/2 and the Laguerre pieces, d/ds L_n^(a) = -L_(n-1)^(a+1) (0 past degree n); y**L, by
    np.float_power, stays outside the exp, so a negative y keeps its sign."""
    pieces = [((-1.0) ** j, laguerre_scaled(n - j, L + 0.5 + j, y * y)) for j in range(min(count, n + 1))]
    la, dla = (L / y - y, -L / (y * y) - 1.0) if count > 1 else (None, None)
    return tuple(np.float_power(y, L) * v for v in _values(-0.5 * y * y, _per_point(pieces, count), la, dla, y))


def ho_wavefunction(n: int, L: int) -> Callable:
    """Unnormalized harmonic-oscillator radial function y^L exp(-y^2/2) L_n^(L+1/2)(y^2).

    The returned function takes a float (giving a float) or an array of any
    shape; a float goes through the same ``np.float_power`` and ``np.exp``
    as an array, so an array is bit-identical to a loop of floats.
    """
    check_angular_momentum(L)
    _check_degree(n)

    def f(y):
        y = np.asarray(y, dtype=float)
        (r,) = _ho_values(n, L, y, 1)
        return float(r) if r.ndim == 0 else r

    return f


def ho_norm_sq(n: int, L: int) -> float:
    """Weighted norm int_0^inf ho_wavefunction(n, L)(y)**2 y**2 dy in closed
    form: the Laguerre norm Gamma(n+L+3/2)/(2*n!)."""
    check_angular_momentum(L)
    _check_degree(n)
    try:
        return 0.5 * math.exp(math.lgamma(n + L + 1.5) - math.lgamma(n + 1.0))
    except OverflowError:
        raise QuadratureFailure(f"non-finite norm: Gamma(n+L+3/2)/(2*n!) overflows at n = {n}, L = {L}") from None


def ho_wavefunction_with_derivatives(n: int, L: int) -> Callable:
    """Analytic (R, R', R'') of the harmonic-oscillator radial function, on a
    float (giving floats) or an array, as :func:`ho_wavefunction`."""
    check_angular_momentum(L)
    _check_degree(n)

    def f(y):
        y = np.asarray(y, dtype=float)
        bad = np.flatnonzero((y <= 0) | (y * y == 0.0))
        if bad.size:  # raise what a loop of scalar calls raises first
            y_bad = float(y.ravel()[bad[0]])
            if y_bad <= 0:
                raise OutsideDomain(f"derivatives need an interior point, got y = {y_bad}")
            raise OutsideDomain(f"derivatives need y*y > 0, got y = {y_bad}")
        R, R1, R2 = _ho_values(n, L, y, 3)
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
