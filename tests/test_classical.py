import math

import numpy as np
import pytest

import nlosc
from nlosc import classical
from nlosc.errors import DomainExit, OutsideDomain, RadialCollapse, UnboundedOrbit
from nlosc.kernels import STATUS_NONFINITE
from nlosc.params import make_model


@pytest.fixture
def model():
    # lam=1, alpha=2: the omega=1 orbit has amplitude sqrt(3)
    return make_model(1.0, 2.0, 1.0)


class TestAnalytic1D:
    def test_constraint_example(self, model):
        x_of_t, ok = classical.analytic_1d(math.sqrt(3.0), 1.0, 0.0, model)
        assert ok
        assert x_of_t(math.pi / 2) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_degenerate_rest_solution(self, model):
        _, ok = classical.analytic_1d(0.0, model.alpha, 0.0, model)
        assert ok

    def test_constraint_violated(self, model):
        _, ok = classical.analytic_1d(1.0, 1.0, 0.0, model)
        assert not ok

    def test_equation_residual_along_solution(self, model):
        A, omega, phi = math.sqrt(3.0), 1.0, 0.4
        x_of_t, ok = classical.analytic_1d(A, omega, phi, model)
        assert ok
        lam, a2 = model.lam, model.alpha**2
        for t in np.linspace(0.0, 20.0, 100):
            x = x_of_t(t)
            v = A * omega * math.cos(omega * t + phi)
            acc = -A * omega * omega * math.sin(omega * t + phi)
            residual = (lam * x * x + 1.0) * acc - lam * x * v * v + a2 * x
            assert abs(residual) < 1e-10


class TestIntegrate1D:
    def test_matches_analytic_over_ten_periods(self, model):
        A, omega = math.sqrt(3.0), 1.0
        traj = classical.integrate_1d(0.0, A * omega, model, 10 * 2 * math.pi / omega, n_samples=2000)
        exact = A * np.sin(omega * traj.t)
        assert np.max(np.abs(traj.x - exact)) < 1e-7

    def test_equilibrium(self, model):
        traj = classical.integrate_1d(0.0, 0.0, model, 5.0)
        assert np.max(np.abs(traj.x)) == 0.0

    def test_energy_conserved(self, model):
        traj = classical.integrate_1d(0.4, 1.1, model, 60.0, tol=1e-10)
        assert np.max(np.abs(traj.H - traj.H[0])) / abs(traj.H[0]) < 1e-8

    def test_domain_exit_for_negative_lam(self):
        # the amplitude grazes the edge of the lam < 0 domain; the run must
        # end in DomainExit, never in silent garbage
        p = make_model(1.0, 1.0, -1.0)
        with pytest.raises(DomainExit):
            classical.integrate_1d(0.999, 2.0, p, 10.0, tol=1e-3)

    def test_initial_point_outside(self):
        p = make_model(1.0, 1.0, -1.0)
        with pytest.raises(OutsideDomain):
            classical.integrate_1d(1.5, 0.0, p, 1.0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples(self, model, n_samples):
        # both integrators share the sample grid; it needs the initial state and one more
        with pytest.raises(ValueError, match=r"^n_samples must be >= 2"):
            classical.integrate_1d(0.5, 0.0, model, 1.0, n_samples=n_samples)
        with pytest.raises(ValueError, match=r"^n_samples must be >= 2"):
            classical.integrate_planar(0.5, 0.0, 0.3, model, 1.0, n_samples=n_samples)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # tol = 0 stalled the step control into a false DomainExit, tol = -1 ran unchecked
        p = make_model(1.0, 1.0, -0.5)
        with pytest.raises(ValueError, match=r"^tol must be finite and positive, got"):
            classical.integrate_1d(0.5, 0.0, p, 10.0, tol=tol)
        with pytest.raises(ValueError, match=r"^tol must be finite and positive, got"):
            classical.integrate_planar(0.5, 0.0, 0.3, p, 10.0, tol=tol)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_t_end_must_be_finite(self, model, t_end):
        # t_end = nan returned t = [nan, nan, nan]; t_end = inf ran up to the 10 M step cap
        with pytest.raises(ValueError, match=r"^t_end must be finite and positive, got"):
            classical.integrate_1d(1.0, 0.0, model, t_end, n_samples=3)
        with pytest.raises(ValueError, match=r"^t_end must be finite and positive, got"):
            classical.integrate_planar(1.0, 0.0, 0.5, model, t_end, n_samples=3)

    @pytest.mark.parametrize("x0,v0,name", [(math.nan, 0.0, "x0"), (-math.inf, 0.0, "x0"), (0.5, math.inf, "v0")])
    def test_initial_state_must_be_finite(self, model, x0, v0, name):
        # these reported DomainExit (non-finite state) after a first step
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got"):
            classical.integrate_1d(x0, v0, model, 1.0, n_samples=3)

    @pytest.mark.parametrize("lam", [-0.5, 0.5, 1.0, 2.0])
    def test_random_constraint_pairs(self, lam):
        rng = np.random.default_rng(int(10 * abs(lam)) + 3)
        p = make_model(1.0, 2.0, lam)
        for _ in range(5):
            omega = rng.uniform(1.2, 1.9) if lam > 0 else rng.uniform(2.1, 2.5)
            A = classical.constraint_amplitude(omega, p)
            phi = rng.uniform(0.0, 2 * math.pi)
            x0 = A * math.sin(phi)
            v0 = A * omega * math.cos(phi)
            T = 2 * math.pi / omega
            traj = classical.integrate_1d(x0, v0, p, 10 * T, n_samples=2000)
            exact = A * np.sin(omega * traj.t + phi)
            assert np.max(np.abs(traj.x - exact)) < 1e-7

    def test_measured_period_matches_frequency(self, model):
        # omega = alpha/sqrt(1 + lam*A^2), amplitude A off the special orbit
        A = 0.8
        omega = model.alpha / math.sqrt(1.0 + model.lam * A * A)
        T = 2 * math.pi / omega
        traj = classical.integrate_1d(0.0, A * omega, model, 10 * T, n_samples=4000)
        assert classical.measure_period(traj) == pytest.approx(T, rel=1e-5)


class TestIntegratePlanar:
    def test_reduces_to_1d_for_zero_angular_momentum(self, model):
        planar = classical.integrate_planar(0.5, 0.3, 0.0, model, 0.6, n_samples=400)
        linear = classical.integrate_1d(0.5, 0.3, model, 0.6, n_samples=400)
        assert np.max(np.abs(planar.x - linear.x)) < 1e-12
        assert np.max(np.abs(planar.theta)) == 0.0

    @pytest.mark.parametrize(
        "r0,rdot0,C,name",
        [(math.nan, 0.0, 0.5, "r0"), (math.inf, 0.0, 0.5, "r0"), (1.0, math.nan, 0.5, "rdot0"), (1.0, 0.0, math.nan, "C")],
    )
    def test_initial_state_must_be_finite(self, model, r0, rdot0, C, name):
        # these reported RadialCollapse after a first step
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got"):
            classical.integrate_planar(r0, rdot0, C, model, 1.0, n_samples=3)

    def test_angular_momentum_conserved(self, model):
        C = 1.3
        traj = classical.integrate_planar(1.0, 0.4, C, model, 40.0, tol=1e-10, n_samples=2000)
        assert np.max(np.abs(traj.angmom - C)) < 1e-9

    def test_energy_conserved(self, model):
        traj = classical.integrate_planar(1.0, 0.4, 1.3, model, 40.0, tol=1e-10, n_samples=2000)
        assert np.max(np.abs(traj.H - traj.H[0])) / abs(traj.H[0]) < 1e-8

    def test_circular_orbit_stays_circular(self, model):
        C = 1.3
        rc = classical.circular_orbit_radius(C, model)
        traj = classical.integrate_planar(rc, 0.0, C, model, 40.0, tol=1e-12, n_samples=1000)
        assert np.max(np.abs(traj.x - rc)) < 1e-8

    def test_circular_orbit_lam_zero_closed_form(self):
        p = make_model(1.0, 2.0, 0.0)
        C = 0.7
        assert classical.circular_orbit_radius(C, p) == pytest.approx(math.sqrt(C / p.alpha), rel=1e-12)

    @pytest.mark.parametrize("lam,C,alpha", [(-1.0, 2.0, 1.0), (-0.5, -3.0, 0.5), (0.7, 1.3, 2.0)])
    def test_circular_orbit_closed_form(self, lam, C, alpha):
        # alpha**2*r**4 = C**2*(1 + 2*lam*r**2); for lam < 0 these start
        # sqrt(|C|/alpha) outside the domain lam*r**2 + 1 > 0
        root = math.sqrt(lam * lam * C**4 + alpha**2 * C * C)
        r_expect = math.sqrt(C * C / (root - lam * C * C))
        rc = classical.circular_orbit_radius(C, make_model(1.0, alpha, lam))
        assert rc == pytest.approx(r_expect, rel=1e-14)


class TestHamiltonians:
    def test_zero_state(self, model):
        assert classical.hamiltonian_1d(0.0, 0.0, model) == 0.0

    def test_potential_only(self):
        p = make_model(1.0, 1.0, 1.0)
        assert classical.hamiltonian_1d(1.0, 0.0, p) == pytest.approx(0.25, abs=0)

    def test_canonical_vs_mass_form(self):
        rng = np.random.default_rng(11)
        p = make_model(1.0, 1.0, 1.0)
        for _ in range(50):
            x, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
            h1 = classical.hamiltonian_1d(x, v, p)
            h2 = classical.hamiltonian_1d_mass_form(x, v, p)
            assert h1 == pytest.approx(h2, rel=1e-13)

    def test_planar_reduces_to_1d(self, model):
        s = classical.ClassicalStatePlanar(t=0.0, r=0.8, rdot=0.5, theta=0.2, thetadot=0.0)
        assert classical.hamiltonian_planar(s, model) == pytest.approx(
            classical.hamiltonian_1d(0.8, 0.5, model), rel=1e-14
        )

    def test_outside_domain(self):
        p = make_model(1.0, 1.0, -1.0)
        with pytest.raises(OutsideDomain):
            classical.hamiltonian_1d(1.5, 0.0, p)


class TestSpringConstant:
    def test_lam_zero_constant(self):
        p = make_model(1.3, 1.7, 0.0)
        for x in (0.0, 0.5, 2.0):
            assert classical.spring_constant(x, 0.9, 2.0, p) == pytest.approx(1.3 * 4.0, rel=1e-14)

    def test_example_value(self, model):
        assert classical.spring_constant(0.0, math.sqrt(3.0), 1.0, model) == pytest.approx(4.0, rel=1e-14)

    def test_half_k_x_squared_is_potential(self, model):
        # under the amplitude-frequency constraint, (1/2)K(x)x^2 equals V(x)
        rng = np.random.default_rng(5)
        A = classical.constraint_amplitude(1.0, model)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0)
            V = classical.potential_1d(x, model)
            K = classical.spring_constant(x, A, 1.0, model)
            assert 0.5 * K * x * x == pytest.approx(V, rel=1e-13, abs=1e-15)


# Escaping orbits: at lam > 0 the potential rises to the plateau m*alpha**2/(2*lam),
# and an orbit whose energy H is at or above it runs off to infinity.  These two
# overflow before t_end; they were reported as a radial collapse and as an exit
# from a domain that lam > 0 does not have.
ESCAPE_PLANAR = dict(lam=1.8046215720767231, m=1.4191300134710474, alpha=1.294253674081475,
                     r0=0.8547700787995584, rdot0=0.03355196777177338, C=1.4971775453408056, t_end=190.2499042189749)
ESCAPE_1D = dict(lam=2.0, m=1.0, alpha=0.5, x0=0.5, v0=1.0, t_end=250.0)


def _escape_message(what, H, plateau):
    return (
        rf"^{what} ran off to infinity: the energy H = {H} is not below the potential's plateau "
        rf"m\*alpha\*\*2/\(2\*lam\) = {plateau}; lower the energy or shorten t_end$"
    )


class TestUnboundedOrbit:
    def test_exported(self):
        assert nlosc.UnboundedOrbit is UnboundedOrbit and issubclass(UnboundedOrbit, nlosc.NloscError)

    def test_planar_escape(self):
        c = ESCAPE_PLANAR
        p = make_model(c["m"], c["alpha"], c["lam"])
        with pytest.raises(UnboundedOrbit, match=_escape_message("planar integration", "1.31383", "0.658635")):
            classical.integrate_planar(c["r0"], c["rdot0"], c["C"], p, c["t_end"], n_samples=200)

    def test_1d_escape(self):
        c = ESCAPE_1D
        p = make_model(c["m"], c["alpha"], c["lam"])
        with pytest.raises(UnboundedOrbit, match=_escape_message("1D integration", "0.354167", "0.0625")):
            classical.integrate_1d(c["x0"], c["v0"], p, c["t_end"], n_samples=200)

    def test_escape_that_has_not_overflowed_is_returned(self):
        # the same 1D orbit up to t = 5: far out, still finite, its energy conserved
        c = ESCAPE_1D
        p = make_model(c["m"], c["alpha"], c["lam"])
        traj = classical.integrate_1d(c["x0"], c["v0"], p, 5.0, n_samples=50)
        assert np.all(np.diff(traj.x) > 0) and traj.x[-1] > 4.0
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-8 * traj.H[0]

    @pytest.mark.parametrize("C", [0.0, 0.3])
    def test_overflow_at_or_above_the_plateau(self, monkeypatch, C):
        # a non-finite state names the escape whatever C is once H >= m*alpha**2/(2*lam) = 0.5;
        # below it (tests/test_array_first.py) the collapse and domain errors stand
        def integrate_adaptive(f, t0, u0, t_eval, rtol, atol, max_steps):
            return np.tile(np.array(u0, dtype=float), (len(t_eval), 1)), STATUS_NONFINITE, 1

        monkeypatch.setattr(classical, "integrate_adaptive", integrate_adaptive)
        p = make_model(1.0, 1.0, 1.0)
        # x0 = 0.5, v0 = 1: H = 0.1 + 0.4 = 0.5 exactly, at the plateau
        assert classical.hamiltonian_1d(0.5, 1.0, p) == 0.5
        with pytest.raises(UnboundedOrbit, match="^1D integration ran off to infinity"):
            classical.integrate_1d(0.5, 1.0, p, 1.0, n_samples=5)
        with pytest.raises(UnboundedOrbit, match="^planar integration ran off to infinity"):
            classical.integrate_planar(0.5, 1.0, C, p, 1.0, n_samples=5)
        with pytest.raises(DomainExit if C == 0.0 else RadialCollapse):
            classical.integrate_planar(0.5, 0.0, C, p, 1.0, n_samples=5)
