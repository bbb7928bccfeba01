"""End-to-end acceptance suite.

Each test covers one exit criterion and prints exactly one PASS/FAIL line on
the real stdout (bypassing pytest capture) so the verdicts are visible in any
test log.  Tolerances are stated inline next to each check.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from nlosc import classical, oracle, radial, spectrum
from nlosc.cli import run
from nlosc.orthopoly import jacobi
from nlosc.params import domain, make_model
from polynomial_references import hyp2f1_terminating, jacobi_rodrigues


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, emitted outside pytest capture."""

    def _report(name: str, failures: list) -> None:
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] {name}", flush=True)
        assert not failures, f"{name}: " + "; ".join(str(f) for f in failures)

    return _report


def _first_states(Lambda, L, cap):
    count = spectrum.bound_state_count(Lambda, L).count
    n_states = cap if count is None else min(cap, count)
    return range(n_states)


def test_criterion_1_shooting_agreement(report):
    # Independent oracle eigenvalues match the closed-form energies to
    # better than 1e-6 across the (Lambda, L, n) grid.
    failures = []
    for Lambda in (-1.0, -0.5, 0.1):
        for L in (0, 1, 2):
            for n in _first_states(Lambda, L, 3):
                e_closed = spectrum.energy_dimless(n, L, Lambda)
                res = oracle.shoot_eigenvalue(Lambda, L, n)
                err = abs(res.e_numeric - e_closed)
                if not err < 1e-6:
                    failures.append((Lambda, L, n, err))
    report("oracle eigenvalues agree with closed form (abs err < 1e-6)", failures)


def test_criterion_2_ode_residual(report):
    # Every constructed eigenfunction satisfies the radial equation with a
    # normalized residual below 1e-9 at 100 interior points.
    failures = []
    for Lambda in (-1.0, -0.5, 0.1):
        upper = domain(Lambda).upper
        y_max = 0.99 * upper if math.isfinite(upper) else 10.0
        ys = np.linspace(0.01, y_max, 100)
        for L in (0, 1, 2):
            for n in _first_states(Lambda, L, 3):
                st = radial.build_state(n, L, Lambda)

                def f(y, st=st):
                    return radial.eval_state_with_derivatives(st, y)

                worst = max(
                    oracle.radial_residual(f, float(y), st.e, Lambda, L) for y in ys
                )
                if not worst < 1e-9:
                    failures.append((Lambda, L, n, worst))
    report("ODE residual of constructed states < 1e-9 at 100 points", failures)


def test_criterion_3_orthonormality(report):
    # Gram matrices of normalized states are the identity to 1e-8.
    failures = []
    cases = [(-1.0, L, 5) for L in (0, 1, 2)]
    cases.append((0.05, 0, spectrum.bound_state_count(0.05, 0).count - 1))
    for Lambda, L, n_max in cases:
        G = radial.gram_matrix(L, Lambda, n_max)
        dev = np.max(np.abs(G - np.eye(G.shape[0])))
        if not dev < 1e-8:
            failures.append((Lambda, L, dev))
    report("Gram matrices are identity to 1e-8", failures)


def test_criterion_4_state_counting(report):
    # Finite counts for Lambda > 0, zero at the threshold, unbounded for
    # Lambda < 0.
    failures = []
    if spectrum.bound_state_count(0.1, 0).count != 5:
        failures.append(("count(0.1, 0)", spectrum.bound_state_count(0.1, 0)))
    for L in range(6):
        sc = spectrum.bound_state_count(1.0 / (1.0 + L), L)
        if sc.count != 0:
            failures.append((f"threshold L={L}", sc))
    if spectrum.bound_state_count(-1.0, 0).count is not None:
        failures.append(("count(-1, 0) should be unbounded",))
    if not spectrum.is_admissible(1000, 0, -1.0):
        failures.append(("n=1000 at Lambda=-1 should be admissible",))
    report("bound-state counting (finite, threshold, unbounded)", failures)


def test_criterion_5_energy_identity_and_harmonic_limit(report):
    # Exact rational energy identity for n, L <= 10, and convergence of the
    # eigenfunctions to the harmonic-oscillator limit as Lambda -> 0: the
    # normalized deviation stays below 1.5e-2 at |Lambda| = 1e-3 and shrinks
    # linearly in Lambda (ratio 0.5 +/- 0.15 when Lambda is halved).
    failures = []
    Lam = Fraction(-3, 7)
    for n in range(11):
        for L in range(11):
            expected = (
                -2 * Lam * n * n
                - 2 * L * Lam * n
                - 2 * Lam * n
                - L * Lam * Fraction(1, 2)
                + 2 * n
                + L
                + Fraction(3, 2)
            )
            got = spectrum.energy_dimless_exact(n, L, Lam)
            if got != expected:
                failures.append((n, L, got, expected))
    for n in range(3):
        for L in range(3):
            for Lambda in (1e-3, -1e-3):
                dev = oracle.limit_compare(n, L, Lambda)
                if not dev < 1.5e-2:
                    failures.append((n, L, Lambda, dev))
    ratio = oracle.limit_compare(1, 0, 1e-3) / oracle.limit_compare(1, 0, 2e-3)
    if not abs(ratio - 0.5) < 0.15:
        failures.append(("first-order rate", ratio))
    report("exact energy identity and harmonic limit (dev < 1.5e-2)", failures)


def test_criterion_6_orthogonal_polynomials(report):
    # Recurrence-evaluated Jacobi polynomials agree at points of [-1, 1] with
    # the Rodrigues formula to 1e-12 of its largest coefficient, and with the
    # terminating-2F1 representation to 1e-10.
    failures = []
    xs = np.linspace(-1.0, 1.0, 21)
    for n in range(11):
        for a in (0.5, 1.5, 2.5):
            for b in (-0.75, 0.0, 1.5, 3.5):
                q = jacobi_rodrigues(n, a, b)
                scale = max(np.max(np.abs(q)), 1.0)
                dev = np.max(np.abs(jacobi(n, a, b, xs) - np.polynomial.polynomial.polyval(xs, q))) / scale
                if not dev < 1e-12:
                    failures.append(("rodrigues", n, a, b, dev))
    a, b = 0.5, 1.25
    xs = np.linspace(-0.9, 0.9, 20)
    for n in range(7):
        comb = math.gamma(n + a + 1) / (math.gamma(a + 1) * math.factorial(n))
        for x in xs:
            lhs = float(jacobi(n, a, b, float(x)))
            rhs = (
                comb
                * ((x + 1.0) / 2.0) ** n
                * hyp2f1_terminating(n, -n - b, a + 1.0, (x - 1.0) / (x + 1.0))
            )
            if not abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0):
                failures.append(("hyp2f1", n, float(x), lhs, rhs))
    report("Jacobi polynomials: Rodrigues (1e-12) and 2F1 (1e-10) checks", failures)


def test_criterion_7_classical_dynamics(report):
    # Constraint-locked 1D orbits track the sinusoid to 1e-7 over ten
    # periods; energy drift < 1e-8; planar angular momentum drift < 1e-9;
    # the measured period matches omega = alpha/sqrt(1 + lam*A**2) to 1e-5.
    failures = []
    p = make_model(1.0, 2.0, 1.0)
    A, omega = math.sqrt(3.0), 1.0
    T = 2 * math.pi / omega
    traj = classical.integrate_1d(0.0, A * omega, p, 10 * T, n_samples=2000)
    track = np.max(np.abs(traj.x - A * np.sin(omega * traj.t)))
    if not track < 1e-7:
        failures.append(("trajectory", track))
    drift = np.max(np.abs(traj.H - traj.H[0])) / abs(traj.H[0])
    if not drift < 1e-8:
        failures.append(("energy drift", drift))
    planar = classical.integrate_planar(1.0, 0.4, 1.3, p, 40.0, n_samples=2000)
    am = np.max(np.abs(planar.angmom - 1.3))
    if not am < 1e-9:
        failures.append(("angular momentum", am))
    A2 = 0.8
    omega2 = p.alpha / math.sqrt(1.0 + p.lam * A2 * A2)
    T2 = 2 * math.pi / omega2
    traj2 = classical.integrate_1d(0.0, A2 * omega2, p, 10 * T2, n_samples=4000)
    period = classical.measure_period(traj2)
    if not abs(period - T2) < 1e-5 * T2:
        failures.append(("period", period, T2))
    report("classical dynamics (orbit 1e-7, H 1e-8, L 1e-9, T 1e-5)", failures)


def test_criterion_8_quadrature_certainty(report):
    # The norm quadrature reports a certified error estimate below 1e-10 even
    # in the strongly confined regime Lambda = -3.
    failures = []
    st = radial.normalize(radial.build_state(0, 0, -3.0))
    res = radial.inner_product(st, st)
    if not res.est_abs_error < 1e-10:
        failures.append(("est_abs_error", res.est_abs_error))
    if not abs(res.value - 1.0) < 1e-12:
        failures.append(("norm", res.value))
    report("norm quadrature error estimate < 1e-10 at Lambda = -3", failures)


def test_criterion_9_cli_determinism(report, capsys):
    # Repeated CLI runs are byte-identical, and the spectrum command emits
    # the exact closed-form energies.
    failures = []
    commands = [
        ["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "3"],
        ["states", "--lambda", "-1", "--L", "0", "--n", "1", "--grid", "0.1:0.9:8"],
        ["gram", "--lambda", "0.1", "--L", "0", "--n-max", "10", "--format", "json"],
        ["veff", "--lambda", "0.5", "--L", "1", "--grid", "0.5:2:5"],
        ["classical", "--mode", "planar", "--lambda", "1", "--t-end", "2", "--samples", "5"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code = run(argv)
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(("exit code", argv, code))
        if outs[0] != outs[1] or not outs[0]:
            failures.append(("nondeterministic", argv))
    run(["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "3"])
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    energies = [float(line.split(",")[3]) for line in lines]
    if energies != [1.5, 7.5, 17.5, 31.5]:
        failures.append(("spectrum values", energies))
    report("CLI byte-identical reruns and exact spectrum output", failures)
