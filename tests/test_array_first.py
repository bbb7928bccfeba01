"""Array calls of the pointwise physics against loops of scalar calls.

Every array-first function must return, byte for byte, what a loop of its
scalar calls returns, and raise what that loop raises first.  The scalar
error messages are pinned verbatim.
"""

import math

import numpy as np
import pytest

from nlosc import classical, oracle, radial
from nlosc.classical import ClassicalStatePlanar
from nlosc.errors import DomainExit, OutsideDomain, RadialCollapse, StiffnessFailure
from nlosc.kernels import STATUS_NONFINITE, STATUS_OK, STATUS_UNDERFLOW
from nlosc.orthopoly import jacobi, laguerre
from nlosc.params import domain, make_model, mass_denominator

LAMS = [-0.7, 0.4]
P_NEG, P_POS = make_model(1.0, 1.0, -1.0), make_model(1.0, 1.0, 1.0)


def _grid(lam, seed, signed=False):
    """Seeded points inside the domain (0, upper), or (-upper, upper) if signed."""
    rng = np.random.default_rng(seed)
    hi = 0.999 * domain(lam).upper if lam < 0 else 5.0
    return rng.uniform(-hi if signed else 0.01, hi, 257)


def _loop(f, *cols):
    return np.array([f(*(float(c) for c in point)) for point in zip(*cols)])


def _first_error(f, *args):
    with pytest.raises(OutsideDomain) as exc:
        f(*args)
    return str(exc.value)


def _first_error_of_loop(f, *cols):
    for point in zip(*cols):
        try:
            f(*(float(c) for c in point))
        except OutsideDomain as exc:
            return str(exc)
    raise AssertionError("no point raised")


@pytest.fixture(params=LAMS, ids=lambda lam: f"lam={lam}")
def model(request):
    return make_model(1.3, 0.8, request.param, 0.9)


class TestArrayEqualsScalarLoop:
    def test_mass_denominator(self, model):
        x = _grid(model.lam, 1, signed=True)
        f = lambda xi: mass_denominator(model.lam, xi, "x")  # noqa: E731
        assert mass_denominator(model.lam, x, "x").tobytes() == _loop(f, x).tobytes()

    def test_weight(self, model):
        y = _grid(model.lam, 2)
        f = lambda yi: radial.weight(yi, model.lam)  # noqa: E731
        assert radial.weight(y, model.lam).tobytes() == _loop(f, y).tobytes()

    @pytest.mark.parametrize("L", [0, 3])
    def test_effective_potential(self, model, L):
        r = _grid(model.lam, 3)
        f = lambda ri: radial.effective_potential(ri, model, L)  # noqa: E731
        assert radial.effective_potential(r, model, L).tobytes() == _loop(f, r).tobytes()

    def test_potential_1d(self, model):
        x = _grid(model.lam, 4, signed=True)
        f = lambda xi: classical.potential_1d(xi, model)  # noqa: E731
        assert classical.potential_1d(x, model).tobytes() == _loop(f, x).tobytes()

    def test_hamiltonian_1d(self, model):
        x = _grid(model.lam, 5, signed=True)
        v = np.random.default_rng(6).uniform(-3.0, 3.0, x.size)
        f = lambda xi, vi: classical.hamiltonian_1d(xi, vi, model)  # noqa: E731
        assert classical.hamiltonian_1d(x, v, model).tobytes() == _loop(f, x, v).tobytes()

    def test_hamiltonian_planar(self, model):
        # the squares must go through pow as Python's ** does; numpy's a**2
        # multiplies and differs in the last bit on some of these points
        r = _grid(model.lam, 7)
        rng = np.random.default_rng(8)
        rdot, thetadot = rng.uniform(-3.0, 3.0, r.size), rng.uniform(-3.0, 3.0, r.size)

        def f(ri, rdi, tdi):
            return classical.hamiltonian_planar(ClassicalStatePlanar(0.0, ri, rdi, 0.0, tdi), model)

        got = classical._hamiltonian_planar(r, rdot, thetadot, model)
        assert got.tobytes() == _loop(f, r, rdot, thetadot).tobytes()

    def test_trajectory_energies(self, model):
        upper = domain(model.lam).upper
        x0 = 0.4 * upper if model.lam < 0 else 0.8
        traj = classical.integrate_1d(x0, 0.3, model, 20.0, n_samples=300)
        ref = _loop(lambda x, v: classical.hamiltonian_1d(x, v, model), traj.x, traj.v)
        assert traj.H.tobytes() == ref.tobytes()
        traj = classical.integrate_planar(x0, 0.3, 0.4, model, 20.0, n_samples=300)

        def f(t, r, rd, th, td):
            return classical.hamiltonian_planar(ClassicalStatePlanar(t, r, rd, th, td), model)

        ref = _loop(f, traj.t, traj.x, traj.v, traj.theta, traj.thetadot)
        assert traj.H.tobytes() == ref.tobytes()


class TestArrayErrorsMatchScalarLoop:
    # grids that cross the lam < 0 edge, or start at r <= 0, or both
    GRIDS = [np.linspace(0.5, 2.0, 5), np.linspace(-0.5, 2.0, 5), np.linspace(-2.0, 2.0, 5), np.linspace(0.0, 0.5, 5)]

    # the last grid has r*r underflow to 0 at r = 1e-200, ahead of the points outside the domain
    @pytest.mark.parametrize("r", GRIDS + [np.array([0.5, 1e-200, 2.0, -0.5])])
    def test_effective_potential(self, r):
        p = make_model(1.0, 1.0, -1.0)
        f = lambda ri: radial.effective_potential(ri, p, 1)  # noqa: E731
        assert _first_error(f, r) == _first_error_of_loop(f, r)

    def test_effective_potential_underflow_at_L_0(self):
        r = np.array([0.5, 1e-200, 2.0])
        f = lambda ri: radial.effective_potential(ri, P_POS, 0)  # noqa: E731
        assert _first_error(f, r) == _first_error_of_loop(f, r) == "effective potential needs r*r > 0, got r = 1e-200"

    @pytest.mark.parametrize("y", GRIDS + [np.array([0.5, 2.0, 0.0])])
    def test_weight(self, y):
        f = lambda yi: radial.weight(yi, -1.0)  # noqa: E731
        assert _first_error(f, y) == _first_error_of_loop(f, y)

    @pytest.mark.parametrize("x", GRIDS[:3])
    def test_hamiltonian_1d(self, x):
        p = make_model(1.0, 1.0, -1.0)
        v = np.ones_like(x)
        f = lambda xi, vi: classical.hamiltonian_1d(xi, vi, p)  # noqa: E731
        assert _first_error(f, x, v) == _first_error_of_loop(f, x, v)


def _at_rest(r):
    return ClassicalStatePlanar(t=0.0, r=r, rdot=0.0, theta=0.0, thetadot=0.0)


class TestScalarMessages:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: mass_denominator(-1.0, 1.5, "x0"), "lam*x0**2 + 1 = -1.25 <= 0 at x0 = 1.5"),
            (lambda: mass_denominator(-1, 2), "lam*r**2 + 1 = -3.0 <= 0 at r = 2"),
            (lambda: radial.weight(0.0, 0.5), "weight needs y > 0, got 0.0"),
            (lambda: radial.weight(1.0, -1.0), "lam*y**2 + 1 = 0.0 <= 0 at y = 1.0"),
            (lambda: radial.effective_potential(2.0, P_NEG, 0), "lam*r**2 + 1 = -3.0 <= 0 at r = 2.0"),
            (lambda: radial.effective_potential(-0.5, P_NEG, 0), "effective potential needs r > 0, got -0.5"),
            (lambda: radial.effective_potential(-2.0, P_NEG, 0), "lam*r**2 + 1 = -3.0 <= 0 at r = -2.0"),
            (lambda: radial.effective_potential(0, P_POS, 0), "effective potential needs r > 0, got 0"),
            (lambda: radial.effective_potential(1e-200, P_POS, 1), "effective potential needs r*r > 0, got r = 1e-200"),
            (lambda: classical.hamiltonian_1d(1.5, 0.0, P_NEG), "lam*x**2 + 1 = -1.25 <= 0 at x = 1.5"),
            (lambda: classical.hamiltonian_planar(_at_rest(-1.0), P_POS), "radius must be positive, got -1.0"),
            (lambda: classical.hamiltonian_planar(_at_rest(1.5), P_NEG), "lam*r**2 + 1 = -1.25 <= 0 at r = 1.5"),
            (lambda: radial.eval_state(radial.build_state(0, 0, -1.0), 1.25), "y = 1.25 beyond endpoint 1.0"),
        ],
    )
    def test_verbatim(self, call, message):
        assert _first_error(call) == message


class TestSolveHelper:
    """Status mapping and the whole-trajectory checks of the shared integrator
    scaffold, run through a stand-in for integrate_adaptive."""

    @staticmethod
    def _fake(monkeypatch, rows, status):
        def integrate_adaptive(f, t0, u0, t_eval, rtol, atol, max_steps):
            out = np.tile(np.array(u0, dtype=float), (len(t_eval), 1))
            out[: len(rows), : len(rows[0])] = rows
            return out, status, 1

        monkeypatch.setattr(classical, "integrate_adaptive", integrate_adaptive)

    def test_1d_trajectory_leaving_the_domain(self, monkeypatch):
        self._fake(monkeypatch, [[0.5], [1.2]], STATUS_OK)
        with pytest.raises(DomainExit, match=r"^trajectory crossed lam\*x\*\*2 \+ 1 = 0$"):
            classical.integrate_1d(0.5, 0.0, make_model(1.0, 1.0, -1.0), 1.0, n_samples=5)

    def test_planar_trajectory_leaving_the_domain(self, monkeypatch):
        self._fake(monkeypatch, [[0.5], [1.2]], STATUS_OK)
        with pytest.raises(DomainExit, match=r"^trajectory crossed lam\*r\*\*2 \+ 1 = 0$"):
            classical.integrate_planar(0.5, 0.0, 0.3, make_model(1.0, 1.0, -1.0), 1.0, n_samples=5)

    def test_planar_sample_at_the_origin(self, monkeypatch):
        # collapse wins over a later domain exit, as in the order of the checks
        self._fake(monkeypatch, [[0.0], [1.2]], STATUS_OK)
        with pytest.raises(RadialCollapse, match="radius fell below 1e-10"):
            classical.integrate_planar(0.5, 0.0, 0.3, make_model(1.0, 1.0, -1.0), 1.0, n_samples=5)

    def test_planar_non_finite_with_angular_momentum(self, monkeypatch):
        self._fake(monkeypatch, [[0.5]], STATUS_NONFINITE)
        with pytest.raises(RadialCollapse, match="radius collapsed toward r = 0"):
            classical.integrate_planar(0.5, 0.0, 0.3, make_model(1.0, 1.0, 1.0), 1.0, n_samples=5)

    def test_planar_non_finite_without_angular_momentum(self, monkeypatch):
        self._fake(monkeypatch, [[0.5]], STATUS_NONFINITE)
        with pytest.raises(DomainExit, match="planar integration left the configuration domain"):
            classical.integrate_planar(0.5, 0.0, 0.0, make_model(1.0, 1.0, 1.0), 1.0, n_samples=5)

    @pytest.mark.parametrize("lam,error", [(-1.0, DomainExit), (1.0, StiffnessFailure)])
    def test_stalled_step_control(self, monkeypatch, lam, error):
        self._fake(monkeypatch, [[0.5]], STATUS_UNDERFLOW)
        with pytest.raises(error):
            classical.integrate_1d(0.5, 0.0, make_model(1.0, 1.0, lam), 1.0, n_samples=5)

    def test_real_collapse_through_the_origin(self):
        # with C = 0 the radius passes through 0 like the 1D coordinate
        with pytest.raises(RadialCollapse, match="radius fell below 1e-10"):
            classical.integrate_planar(0.5, -2.0, 0.0, make_model(1.0, 1.0, 1.0), 5.0)


# the per-point float formulas, kept as the references for the array paths; their
# prefactors are math.exp and math.log, where the package calls numpy's
def _jacobi_piece(state, s):
    """(Q, dQ/ds, d2Q/ds2) of P_n^(L+1/2, -1/Lambda-1/2)(1 + 2*Lambda*s) at one float s;
    the j-th derivative is P_(n-j) at parameters shifted by j, times a factor
    Lambda*(n+L+k) - 1 for each k = 1..j."""
    lam, n, L = state.Lambda, state.qn.n, state.L_power
    x = 1.0 + 2.0 * lam * s
    P, P1, P2 = (float(jacobi(n - j, L + 0.5 + j, -1.0 / lam - 0.5 + j, x)) if j <= n else 0.0 for j in range(3))
    c1 = lam * (n + L + 1) - 1.0
    return P, c1 * P1, c1 * (lam * (n + L + 2) - 1.0) * P2


def _reference_R(state, y):
    w = 0.0 if state.Lambda * y * y + 1.0 <= 0 else state.Lambda * y * y + 1.0
    if y == 0.0:
        return state.norm_const * _jacobi_piece(state, 0.0)[0] if state.L_power == 0 else 0.0
    if w == 0.0:
        return 0.0
    pref = math.exp(state.L_power * math.log(y) + state.prefactor_exponent * math.log(w))
    return state.norm_const * pref * _jacobi_piece(state, y * y)[0]


def _reference_derivatives(state, y):
    lam, L, p = state.Lambda, state.L_power, state.prefactor_exponent
    w = lam * y * y + 1.0
    s = y * y
    Q, dQ, d2Q = _jacobi_piece(state, s)
    sp = 2.0 * y
    A = math.exp(L * math.log(y) + p * math.log(w))
    la = L / y + 2.0 * lam * p * y / w
    dla = -L / (y * y) + 2.0 * lam * p * (1.0 - lam * y * y) / (w * w)
    R = A * Q
    R1 = A * (la * Q + dQ * sp)
    R2 = A * ((la * la + dla) * Q + 2.0 * la * dQ * sp + d2Q * sp * sp + dQ * 2.0)
    c = state.norm_const
    return c * R, c * R1, c * R2


def _exponent_terms(state, y):
    """|L log y| + |p log w| of the prefactor exp(L log y + p log w), and 0 where
    that is not finite (y = 0, the Lambda < 0 endpoint, NaN), where R is exact."""
    w = state.Lambda * y * y + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = state.L_power * np.abs(np.log(y)) + np.abs(state.prefactor_exponent * np.log(w))
    return np.where(np.isfinite(t), t, 0.0)


def _assert_within_exp_log_ulps(got, ref, terms):
    """|got - ref| <= 4 eps (1 + terms) |ref|, NaN where ref is NaN: one ulp each of
    exp and log, carried through the exponent whose terms add up to ``terms``."""
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    bound = 4.0 * np.finfo(float).eps * (1.0 + terms) * np.abs(ref)
    assert np.all(np.isnan(ref) | (np.abs(got - ref) <= bound)), np.nanmax(np.abs(got - ref) - bound)


def _reference_u_residual(state, y_samples):
    lam, L = state.Lambda, state.qn.L
    e_shift = 2.0 * state.e - lam
    worst = 0.0
    for y in y_samples:
        R, R1, R2 = radial.eval_state_with_derivatives(state, float(y))
        u = y * R
        u1 = R + y * R1
        u2 = 2.0 * R1 + y * R2
        w = lam * y * y + 1.0
        t1 = w * u2
        t2 = lam * y * u1
        t3 = (e_shift - (lam + 1.0) * y * y / w - L * (L + 1) * w / (y * y)) * u
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return worst


EIGEN_CASES = [(lam, L) for lam in (-0.7, 0.1) for L in (0, 2)]


def _state(lam, L):
    return radial.normalize(radial.build_state(2, L, lam))


def _interior(lam, seed):
    """Seeded interior points plus the last float below a lam < 0 endpoint (NaN is refused, TestNaN)."""
    y = np.concatenate([_grid(lam, seed), [1e-150]])
    return np.append(y, domain(lam).upper) if lam < 0 else y


def _with_ends(lam, seed):
    """Interior points plus y = 0 and, for lam < 0, a point inside _ENDPOINT_SLACK past the endpoint."""
    y = np.insert(_interior(lam, seed), 3, 0.0)
    return np.append(y, domain(lam).upper * (1.0 + 0.5 * radial._ENDPOINT_SLACK)) if lam < 0 else y


@pytest.mark.parametrize("lam,L", EIGEN_CASES)
class TestEigenfunctionArrays:
    def test_eval_state(self, lam, L):
        st, y = _state(lam, L), _with_ends(lam, 11)
        got = radial.eval_state(st, y)
        assert got.tobytes() == _loop(lambda yi: radial.eval_state(st, yi), y).tobytes()
        _assert_within_exp_log_ulps(got, _loop(lambda yi: _reference_R(st, yi), y), _exponent_terms(st, y))
        assert got[3] == (0.0 if L else st.norm_const * _jacobi_piece(st, 0.0)[0])  # y = 0
        assert lam > 0 or got[-1] == 0.0  # inside the slack past the lam < 0 endpoint
        zeros = ([got[3]] if L else []) + ([got[-1]] if lam < 0 else [])
        assert not np.any(np.signbit(zeros))  # +0.0, never -0.0
        # at n = 1 the Jacobi piece is negative past the lam < 0 endpoint and far out for lam > 0,
        # where the prefactor is an exact 0 (lam < 0) or underflows to it (lam > 0)
        odd, far = radial.normalize(radial.build_state(1, L, lam)), y[-1] if lam < 0 else 1e100
        assert _jacobi_piece(odd, far * far)[0] < 0.0
        assert radial.eval_state(odd, far) == 0.0 and not np.signbit(radial.eval_state(odd, far))
        assert radial.eval_state(st, y[:256].reshape(16, 16)).tobytes() == got[:256].tobytes()

    def test_float_in_float_out(self, lam, L):
        st = _state(lam, L)
        assert type(radial.eval_state(st, 0.3)) is float
        assert [type(v) for v in radial.eval_state_with_derivatives(st, 0.3)] == [float] * 3

    def test_eval_state_with_derivatives(self, lam, L):
        st, y = _state(lam, L), _interior(lam, 12)
        got = radial.eval_state_with_derivatives(st, y)
        for k in range(3):
            assert got[k].tobytes() == _loop(lambda yi: radial.eval_state_with_derivatives(st, yi)[k], y).tobytes()
            ref = _loop(lambda yi: _reference_derivatives(st, yi)[k], y)
            _assert_within_exp_log_ulps(got[k], ref, _exponent_terms(st, y))

    def test_u_transform_residual(self, lam, L):
        st, y = _state(lam, L), _interior(lam, 13)
        assert radial.u_transform_residual(st, y) == _reference_u_residual(st, y)
        default = np.linspace(0.05, min(0.999 * domain(lam).upper, 6.0), 60)
        assert radial.u_transform_residual(st) == _reference_u_residual(st, default)


class TestEigenfunctionErrors:
    # lam = -1: endpoint 1.0, so 1.0 is the endpoint and 2.0 lies beyond it
    STATE = radial.build_state(1, 1, -1.0)

    @pytest.mark.parametrize(
        "y",
        [[0.3, 2.0, -1.0], [0.3, -1.0, 2.0], [0.3, 1.0, 2.0, 0.0], [np.nan, 0.2, -0.5], [2.0, 0.5]],
    )
    def test_eval_state(self, y):
        f = lambda yi: radial.eval_state(self.STATE, yi)  # noqa: E731
        assert _first_error(f, np.array(y)) == _first_error_of_loop(f, y)

    @pytest.mark.parametrize(
        "y",
        [[0.3, 1.0, 2.0], [0.3, 2.0, 1.0], [0.3, 0.0, 1.0], [0.3, 1.0 + 1e-13, -1.0], [0.5, -1.0, 2.0]],
    )
    def test_eval_state_with_derivatives(self, y):
        f = lambda yi: radial.eval_state_with_derivatives(self.STATE, yi)  # noqa: E731
        assert _first_error(f, np.array(y)) == _first_error_of_loop(f, y)
        assert _first_error(radial.u_transform_residual, self.STATE, y) == _first_error_of_loop(f, y)

    def test_underflowing_square(self):
        # y*y underflows to 0, where -L/(y*y) would divide by zero; the array raises the same, in order
        message = "derivatives need y*y > 0, got y = 1e-170"
        assert _first_error(radial.eval_state_with_derivatives, self.STATE, 1e-170) == message
        assert _first_error(radial.eval_state_with_derivatives, self.STATE, np.array([0.3, 1e-170, 2.0])) == message
        assert _first_error(radial.u_transform_residual, self.STATE, [0.3, 1e-170]) == message
        f = lambda yi: radial.eval_state_with_derivatives(self.STATE, yi)  # noqa: E731
        y = [0.3, 2.0, 1e-170]
        assert _first_error(f, np.array(y)) == _first_error_of_loop(f, y)


class TestNaN:
    # NaN passes every "<" and "<=" check, so it once came back as NaN (R, R', R'', the weight)
    # or as a residual of 0.0; it is refused as a scalar and in loop order in an array
    STATE = radial.build_state(3, 0, -0.5)
    CALLS = {
        "eval_state": lambda y: radial.eval_state(TestNaN.STATE, y),
        "eval_state_with_derivatives": lambda y: radial.eval_state_with_derivatives(TestNaN.STATE, y),
        "u_transform_residual": lambda y: radial.u_transform_residual(TestNaN.STATE, np.atleast_1d(y)),
        "weight": lambda y: radial.weight(y, -0.5),
    }
    MESSAGES = {
        "eval_state": "y must be nonnegative, got nan",
        "eval_state_with_derivatives": "derivatives need an interior point, got y = nan",
        "u_transform_residual": "derivatives need an interior point, got y = nan",
        "weight": "weight needs y > 0, got nan",
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_scalar(self, name):
        assert _first_error(self.CALLS[name], math.nan) == self.MESSAGES[name]

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("y", [[0.3, np.nan, -1.0], [0.3, -1.0, np.nan], [0.3, 2.0, np.nan], [np.nan, 2.0]])
    def test_array_raises_what_the_loop_raises_first(self, name, y):
        f = self.CALLS[name]
        assert _first_error(f, np.array(y)) == _first_error_of_loop(f, y)


@pytest.mark.parametrize("L", range(7))
class TestHarmonicArrays:
    def test_wavefunction(self, L):
        # float_power is libm pow, as Python's ** on floats; the exp is numpy's, not math.exp
        f = oracle.ho_wavefunction(2, L)
        y = np.concatenate([_grid(1.0, 20 + L, signed=True), [0.0, np.nan]])
        ref = _loop(lambda yi: yi**L * math.exp(-0.5 * yi * yi) * float(laguerre(2, L + 0.5, yi * yi)), y)
        assert f(y).tobytes() == _loop(f, y).tobytes()
        _assert_within_exp_log_ulps(f(y), ref, np.nan_to_num(0.5 * y * y))
        assert type(f(0.5)) is float

    def test_wavefunction_with_derivatives(self, L):
        f = oracle.ho_wavefunction_with_derivatives(2, L)
        y = _grid(1.0, 30 + L)
        got = f(y)
        for k in range(3):
            assert got[k].tobytes() == _loop(lambda yi: f(yi)[k], y).tobytes()
        assert _first_error(f, 0.0) == "derivatives need an interior point, got y = 0.0"
        assert _first_error(f, 1e-170) == "derivatives need y*y > 0, got y = 1e-170"
        for bad in ([0.5, 0.0], [0.5, -1.0, 1e-170], [0.5, 1e-170, -1.0], [np.nan, -0.5]):
            assert _first_error(f, np.array(bad)) == _first_error_of_loop(f, bad)
