"""Array calls of the pointwise physics against loops of scalar calls.

Every array-first function must return, byte for byte, what a loop of its
scalar calls returns, and raise what that loop raises first.  The scalar
error messages are pinned verbatim.
"""

import numpy as np
import pytest

from nlosc import classical, radial
from nlosc.classical import ClassicalStatePlanar
from nlosc.errors import DomainExit, OutsideDomain, RadialCollapse, StiffnessFailure
from nlosc.kernels import STATUS_NONFINITE, STATUS_OK, STATUS_UNDERFLOW
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

    @pytest.mark.parametrize("r", GRIDS)
    def test_effective_potential(self, r):
        p = make_model(1.0, 1.0, -1.0)
        f = lambda ri: radial.effective_potential(ri, p, 1)  # noqa: E731
        assert _first_error(f, r) == _first_error_of_loop(f, r)

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
