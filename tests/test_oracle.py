import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nlosc import oracle, orthopoly, radial, spectrum
from nlosc.errors import (
    BracketInvalid,
    InvalidDegree,
    LambdaTooSmall,
    MeshNotConverged,
    NotAdmissible,
    OutsideDomain,
    QuadratureFailure,
)
from nlosc.spectrum import bound_state_count, energy_dimless

EIGENVALUE_GATE = 1e-6


class TestShooting:
    @pytest.mark.parametrize("Lambda,L,k", [(-1.0, 0, 0), (-0.5, 1, 1), (0.1, 2, 1)])
    def test_matches_closed_form(self, Lambda, L, k):
        res = oracle.shoot_eigenvalue(Lambda, L, k)
        assert res.e_numeric == pytest.approx(energy_dimless(k, L, Lambda), abs=1e-6)
        assert res.iterations <= 200
        assert res.terminal_mismatch < 1e-3

    def test_explicit_bracket(self):
        res = oracle.shoot_eigenvalue(-1.0, 0, 0, e_bracket=(1.0, 2.0))
        assert res.e_numeric == pytest.approx(1.5, abs=1e-6)
        assert res.bracket == (1.0, 2.0)

    def test_invalid_bracket(self):
        # no eigenvalue between the ground state and the first excited level
        with pytest.raises(BracketInvalid):
            oracle.shoot_eigenvalue(-1.0, 0, 0, e_bracket=(3.0, 5.0))

    @pytest.mark.parametrize("Lambda", [-1.0, 0.1])
    def test_default_bracket_isolates_the_level(self, Lambda):
        res = oracle.shoot_eigenvalue(Lambda, 0, 1)
        lo, hi = res.bracket
        assert lo <= res.e_numeric <= hi
        assert lo > energy_dimless(0, 0, Lambda) and hi < energy_dimless(2, 0, Lambda)

    @pytest.mark.parametrize("Lambda,L,k", [(2e-8, 0, 1), (0.1, 0, 4), (0.06, 0, 6), (0.013, 3, 36)])
    def test_positive_lambda_bracket_is_rtol_wide(self, Lambda, L, k):
        # the 2N closed check's started pair; the N-node secant bracket it replaced
        # kept the walk's far end: (3.49999992, 18750000.375) at (2e-8, 0, 1)
        res = oracle.shoot_eigenvalue(Lambda, L, k)
        lo, hi = res.bracket
        assert lo <= res.e_numeric <= hi
        assert hi - lo <= 1e-10 * max(1.0, res.e_numeric) + 2.0 * math.ulp(res.e_numeric)

    @pytest.mark.parametrize("rtol", [0.0, -1e-10, math.nan, math.inf])
    def test_rtol_must_be_finite_and_positive(self, rtol):
        with pytest.raises(ValueError, match=r"^rtol must be finite and positive, got"):
            oracle.shoot_eigenvalue(-0.5, 0, 1, rtol=rtol)

    def test_lambda_zero_is_the_harmonic_branch(self):
        with pytest.raises(LambdaTooSmall):
            oracle.shoot_eigenvalue(0.0, 0, 1)

    @pytest.mark.parametrize("Lambda", [1e-8, -1e-8, 1e-12, -1e-12, 1e-300, -1e-300])
    def test_small_lambda_is_the_harmonic_branch(self, Lambda):
        # beta ~ 1/(2 Lambda) resolves e only to about eps/Lambda, so both
        # meshes agreed on a wrong level (3e-5 off at 1e-12), and at 1e-20
        # the eigen-solve itself failed to converge
        match = "^" + re.escape(f"|Lambda| = {abs(Lambda)} <= {radial.LAMBDA_SWITCH}; use the harmonic-oscillator branch")
        with pytest.raises(LambdaTooSmall, match=match):
            oracle.shoot_eigenvalue(Lambda, 0, 0)
        with pytest.raises(LambdaTooSmall, match=match):
            oracle.eigenfunction_nodes(Lambda, 0, 1.5)

    def test_unresolved_mesh_raises(self):
        # an rtol below the rounding of the levels: the 16- and 32-node
        # levels disagree by about 7e-15, a typed error, not a number
        match = r"^level k = 3 at Lambda = -0.5, L = 0 moved by \S+ \(relative\) from 16 to 32 nodes, above rtol = 1e-16$"
        with pytest.raises(MeshNotConverged, match=match):
            oracle.shoot_eigenvalue(-0.5, 0, 3, rtol=1e-16)

    @pytest.mark.parametrize("Lambda", [-0.5, 0.001])
    def test_a_k_past_the_node_cap_raises_before_any_matrix(self, monkeypatch, Lambda):
        # N = k + 8 had no bound: k = 10**5 would have asked for dense matrices of side 2*10**5.
        # The cap is lowered here so that the refused k stays small.
        monkeypatch.setattr(oracle, "_N_NODES_MAX", 40)
        assert oracle.shoot_eigenvalue(Lambda, 0, 32).e_numeric == pytest.approx(energy_dimless(32, 0, Lambda), rel=1e-9)

        def _no_mesh(*args):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(oracle, "_jacobi", _no_mesh)
        with pytest.raises(MeshNotConverged, match=r"^k = 33 needs 41 nodes, above 40: the largest k is 32$"):
            oracle.shoot_eigenvalue(Lambda, 0, 33)

    def test_iterations_count_the_eigen_solves(self):
        # Lambda < 0: one solve on N nodes and one on 2N; Lambda > 0: the
        # Gauss-rule search on 16 nodes and the closed check on 32
        assert oracle.shoot_eigenvalue(-0.5, 1, 1).iterations == 2
        outcome, solves = _shoot_record(0.1, 0, 2, 1e-10)
        assert outcome[0].startswith("0x")
        assert set(solves) == {("_levels", 16), ("_closed_levels", 32)}
        assert solves["_levels", 16] > 4


class TestKnownDefectRegressions:
    # where the former RK45 shooting oracle missed the 1e-6 gate or raised:
    # endpoint bias for Lambda < -1 (2.7e-6 at -1.5, 3.8e-4 at -3), the log
    # case Lambda = -2, the collapsed top-state bracket (0.1, 0, 4) and the
    # tail cutoff bias (6.4e-4 at (0.05, 0, 8))
    @pytest.mark.parametrize("Lambda,L,k", [(-1.5, 0, 2), (-3.0, 0, 2), (-2.0, 0, 2), (0.1, 0, 4), (0.05, 0, 8)])
    def test_within_1e_9(self, Lambda, L, k):
        res = oracle.shoot_eigenvalue(Lambda, L, k)
        assert abs(res.e_numeric - energy_dimless(k, L, Lambda)) <= 1e-9


class TestBoundStatesAtPositiveLambda:
    # (1/128, 0): top n = 63, where a secant bracketed by e* stopped at e*;
    # (1/3 - 3.3e-5, 0): the top state sits 1.5e-8 below e*
    @pytest.mark.parametrize(
        "Lambda,L", [(0.05, 0), (0.1, 0), (0.1, 2), (0.2, 1), (0.4, 1), (0.013, 3), (1 / 128, 0), (0.3333, 0)]
    )
    def test_top_state_solves_and_the_next_raises(self, Lambda, L):
        count = bound_state_count(Lambda, L).count
        res = oracle.shoot_eigenvalue(Lambda, L, count - 1)
        assert abs(res.e_numeric - energy_dimless(count - 1, L, Lambda)) < EIGENVALUE_GATE
        with pytest.raises(NotAdmissible, match="continuum threshold"):
            oracle.shoot_eigenvalue(Lambda, L, count)


def _raise(*args, **kwargs):
    raise AssertionError("the eigen-solve must not call the closed form")


def test_independent_of_the_closed_form(monkeypatch):
    monkeypatch.setattr(spectrum, "energy_dimless", _raise)
    monkeypatch.setattr(radial, "build_state", _raise)
    monkeypatch.setattr(orthopoly, "_recurrence", _raise)  # every Jacobi and Laguerre polynomial
    for Lambda, L, k, e in [(-1.5, 0, 2, 23.5), (-0.5, 1, 1, 7.75), (0.1, 0, 4, 5.5), (0.1, 2, 1, 4.6)]:
        assert abs(oracle.shoot_eigenvalue(Lambda, L, k).e_numeric - e) < 1e-9
        assert oracle.eigenfunction_nodes(Lambda, L, e) == k


# A top state with index n needs a mesh of 2(n + 8) nodes.  Near Lambda = 1e-3
# the top n is about 500, and one level costs seconds, so the property test
# draws the top state only where it has at most this index (Lambda above about
# 0.012 for L = 0); smaller Lambda still draws n <= 8.
TOP_N_CAP = 40


@st.composite
def _levels(draw):
    """(Lambda, L, n): Lambda in [-3, -1e-3] or [1e-3, 0.5], L <= 3, and n <= 8
    or the top admissible n (see TOP_N_CAP); n is None where Lambda > 0
    leaves no bound state."""
    Lambda = draw(st.one_of(st.floats(-3.0, -1e-3), st.floats(1e-3, 0.5)))
    L = draw(st.integers(0, 3))
    count = bound_state_count(Lambda, L).count
    if count == 0:
        return Lambda, L, None
    top = 8 if count is None else count - 1
    choices = st.integers(0, min(8, top))
    if top <= TOP_N_CAP:
        choices = st.one_of(choices, st.just(top))
    return Lambda, L, draw(choices)


class TestPropertyAgainstClosedForm:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_levels())
    @example((-1e-7, 0, 3))  # |Lambda| < 1e-6, where the weight exponent b is near 1e7
    @example((-5.012749062531772e-08, 0, 7))
    def test_every_admissible_level(self, case):
        Lambda, L, n = case
        if n is None:
            with pytest.raises(NotAdmissible):
                oracle.shoot_eigenvalue(Lambda, L, 0)
            return
        try:
            res = oracle.shoot_eigenvalue(Lambda, L, n)
        except NotAdmissible:
            # only a state whose tail exponent is within reach of 1/2
            assert Lambda > 0 and (1.0 - Lambda * (2 * n + 1 + L)) / (2.0 * Lambda) < 2 * oracle._TAIL_MARGIN
            return
        err = abs(res.e_numeric - energy_dimless(n, L, Lambda))
        assert err < EIGENVALUE_GATE
        # the diagnostic bounds the true error, both relative to max(1, |e|)
        assert err / max(1.0, abs(res.e_numeric)) <= max(res.terminal_mismatch, 1e-10)


class TestTerminalMismatchAtSmallLambda:
    # The bound of test_every_admissible_level, below |Lambda| = 1e-3 and down
    # to the harmonic branch at 1e-8, where the weight exponent b ~ 1/|Lambda|
    # crowds the nodes into 1 - x ~ |Lambda| N**2.
    @settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.floats(-8.0, -3.0, exclude_max=True).filter(lambda m: 10.0**m > radial.LAMBDA_SWITCH),
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 8),
    )
    def test_mismatch_bounds_error(self, log10_mag, positive, L, n):
        Lambda = 10.0**log10_mag if positive else -(10.0**log10_mag)
        res = oracle.shoot_eigenvalue(Lambda, L, n)
        err = abs(res.e_numeric - energy_dimless(n, L, Lambda))
        assert err / max(1.0, abs(res.e_numeric)) <= max(res.terminal_mismatch, 1e-10)


def _counting(name, solves, calls=None):
    """oracle.<name>, counting its calls in solves[name, N] (and recording
    their arguments in calls, if given)."""
    levels = getattr(oracle, name)

    def counting(Lambda, L, N, *args):
        solves[name, N] = solves.get((name, N), 0) + 1
        if calls is not None:
            calls.append((name, Lambda, L, N, *args))
        return levels(Lambda, L, N, *args)

    return counting


def _shoot_record(Lambda, L, k, rtol):
    """(outcome, solves): e_numeric and terminal_mismatch as hex and whether
    the bracket holds e_numeric, or the type and message raised; and
    {(assembly, N): eigen-solves on the N-node mesh}, the assembly _levels
    (the Gauss rule) or _closed_levels."""
    solves = {}
    with pytest.MonkeyPatch.context() as m:
        for name in ("_levels", "_closed_levels"):
            m.setattr(oracle, name, _counting(name, solves))
        try:
            res = oracle.shoot_eigenvalue(Lambda, L, k, rtol=rtol)
        except Exception as exc:
            return (type(exc).__name__, str(exc)), solves
    assert res.iterations == sum(solves.values())
    lo, hi = res.bracket
    return (res.e_numeric.hex(), res.terminal_mismatch.hex(), lo <= res.e_numeric <= hi), solves


def _gauss(Lambda, L, N):
    """The level function of the Gauss rule on N nodes, as shoot_eigenvalue passes it."""
    return lambda e, beta: oracle._levels(Lambda, L, N, beta)


def _closed(Lambda, L, N):
    """The level function of the closed matrix on N nodes, as shoot_eigenvalue passes it."""
    return lambda e, beta: oracle._closed_levels(Lambda, L, N, e, beta)


def _fine_outcome(Lambda, L, k, N, start=None):
    """The level of the closed check, oracle._bound_level on _closed_levels,
    or the type of what it raised."""
    try:
        return oracle._bound_level(Lambda, L, k, N, _closed(Lambda, L, N), start)[0]
    except Exception as exc:
        return type(exc)


class TestStartedFineSolve:
    # the 2N check at Lambda > 0, on the closed matrix, starts from the
    # N-node level instead of walking up from e = 0
    @pytest.mark.parametrize("Lambda,L,k", [(0.1, 0, 2), (0.06, 0, 6), (0.45, 1, bound_state_count(0.45, 1).count - 1)])
    def test_fine_mesh_takes_two_solves(self, Lambda, L, k):
        # the started pair; the secant's first step is within _SECANT_RTOL of
        # the N-node level and is returned without a solve
        N = max(oracle._N_MIN, k + oracle._N_PAD)
        outcome, counts = _shoot_record(Lambda, L, k, 1e-10)
        assert outcome[0].startswith("0x")
        assert set(counts) == {("_levels", N), ("_closed_levels", 2 * N)}
        assert counts["_closed_levels", 2 * N] == 2 < counts["_levels", N]

    @pytest.mark.parametrize("Lambda,L,k", [(0.1, 1, 0), (0.2, 1, 1)])
    def test_a_moved_level_falls_back_to_the_walk(self, monkeypatch, Lambda, L, k):
        # the closed level is more than rtol from the Gauss rule's (about 2e-14
        # against 1e-16), so the started pair has no sign change; the walk from
        # e = 0 finds the closed 32-node level and the mismatch raises
        calls, solves = [], {}
        for name in ("_levels", "_closed_levels"):
            monkeypatch.setattr(oracle, name, _counting(name, solves, calls))
        match = "^" + re.escape(f"level k = {k} at Lambda = {Lambda}, L = {L} moved by ") + r"\S+ \(relative\) from 16 to 32 nodes"
        with pytest.raises(MeshNotConverged, match=match):
            oracle.shoot_eigenvalue(Lambda, L, k, rtol=1e-16)
        assert ("_closed_levels", Lambda, L, 32, 0.0, oracle._tail_exponent(0.0, Lambda, L)) in calls
        assert set(solves) == {("_levels", 16), ("_closed_levels", 32)}

    @settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(_levels().filter(lambda case: case[0] > 0 and case[2] is not None))
    @example((1 / 128, 0, 63))  # top states, the second 1.5e-8 below e*
    @example((0.3333, 0, 1))
    def test_same_level_as_the_walk_from_zero(self, case):
        Lambda, L, k = case
        N = max(oracle._N_MIN, k + oracle._N_PAD)
        try:
            e_c = oracle._bound_level(Lambda, L, k, N, _gauss(Lambda, L, N))[0]
        except NotAdmissible:
            return
        start = (e_c, 1e-10 * max(1.0, abs(e_c)))
        started = _fine_outcome(Lambda, L, k, 2 * N, start)
        walked = _fine_outcome(Lambda, L, k, 2 * N)
        assert isinstance(started, float) or started in (NotAdmissible, MeshNotConverged)
        if isinstance(walked, float) and isinstance(started, float):
            assert abs(started - walked) <= 1e-11 * max(1.0, abs(walked))
        else:
            assert started == walked


def _ref_bound_level(Lambda, L, k, N, levels, start=None):
    """oracle._bound_level with the secant that solved each iterate before it
    tested the step, so the returned step's solve was read only by f == 0."""
    solves = 0

    def f(e, beta):
        nonlocal solves
        solves += 1
        return levels(e, beta)[k] - e

    e_star = oracle._threshold(Lambda, L)

    def walk():
        t = oracle._tail_exponent(0.0, Lambda, L) - 0.5
        a, fa = 0.0, f(0.0, 0.5 + t)
        if fa <= 0:
            raise MeshNotConverged(f"level k = {k} at Lambda = {Lambda}, L = {L} is not above e = 0 on {N} nodes")
        while True:
            t *= 0.5
            if t < oracle._TAIL_MARGIN:
                raise NotAdmissible(
                    f"no bound state k = {k} at Lambda = {Lambda}, L = {L}: the level stays above e "
                    f"up to the continuum threshold e* = {e_star!r}"
                )
            b = e_star - 2.0 * Lambda * t * t
            fb = f(b, 0.5 + t)
            if fb < 0:
                return a, fa, b, fb
            a, fa = b, fb

    c, pair = math.inf, None
    if start is not None:
        e_c, w = start
        f_c = f(e_c, oracle._tail_exponent(e_c, Lambda, L))
        if f_c == 0.0:
            return e_c, solves, (e_c, e_c)
        e_w = e_c + w if f_c > 0 else e_c - w
        if 0.0 < e_w <= e_star - 2.0 * Lambda * oracle._TAIL_MARGIN**2:
            f_w = f(e_w, oracle._tail_exponent(e_w, Lambda, L))
            if f_c * f_w < 0:
                c, pair = e_c, (e_c, f_c, e_w, f_w)
    a, fa, b, fb = pair or walk()
    for _ in range(oracle._MAX_SECANT):
        c_old, c = c, (a * fb - b * fa) / (fb - fa)
        fc = f(c, oracle._tail_exponent(c, Lambda, L))
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
        if fc == 0.0 or abs(c - c_old) <= oracle._SECANT_RTOL * max(1.0, abs(c)):
            return float(c), solves, (float(min(a, b)), float(max(a, b)))
    raise MeshNotConverged(f"secant on E_k(beta(e)) - e did not settle in {oracle._MAX_SECANT} steps at Lambda = {Lambda}")


def _secant_draws(seed, count):
    """Seeded (Lambda, L, k, rtol) at both signs: k <= 8, and at Lambda > 0
    also the top state and k = count, where the walk finds no level; an rtol
    of 1e-16 sends the 2N solve of a moved level back to the walk."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        Lambda = sign * float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
        L = int(rng.integers(0, 4))
        ks = [int(rng.integers(0, 9))]
        n_count = bound_state_count(Lambda, L).count
        if Lambda > 0 and n_count <= TOP_N_CAP:
            ks += [n_count - 1, n_count] if n_count else [0]
        draws += [(Lambda, L, k, 1e-16 if rng.random() < 0.2 else 1e-10) for k in ks]
    return list(dict.fromkeys(draws))


class TestSecantSkipsTheUnreadSolve:
    # the secant tests its step before it solves; against the loop that
    # solved first, every level and mismatch is the same bit for bit
    DRAWS = _secant_draws(11, 40)

    def test_the_draws_cover_every_outcome(self):
        assert {math.copysign(1.0, lam) for lam, *_ in self.DRAWS} == {1.0, -1.0}
        outcomes = {_shoot_record(*draw)[0][0] for draw in self.DRAWS}
        assert {"NotAdmissible", "MeshNotConverged"} <= outcomes
        assert any(out.startswith("0x") for out in outcomes)

    @pytest.mark.parametrize("Lambda,L,k,rtol", DRAWS)
    def test_same_outcome_as_solving_first(self, monkeypatch, Lambda, L, k, rtol):
        new, solves = _shoot_record(Lambda, L, k, rtol)
        monkeypatch.setattr(oracle, "_bound_level", _ref_bound_level)
        ref, ref_solves = _shoot_record(Lambda, L, k, rtol)
        assert new == ref
        assert new[-1] is True or isinstance(new[-1], str)  # a level's bracket holds it
        # a mesh's secant that settled by its step skips one solve; one that
        # hit f == 0 exactly, or a walk that raised, skips none
        assert solves.keys() == ref_solves.keys()
        assert all(ref_solves[N] - solves[N] in (0, 1) for N in solves)
        if Lambda < 0:
            assert solves == ref_solves
        elif new[0].startswith("0x"):
            assert sum(solves.values()) < sum(ref_solves.values())


class TestNodeCounting:
    @pytest.mark.parametrize("Lambda", [-1.0, 0.1])
    @pytest.mark.parametrize("L", [0, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_kth_state_has_k_nodes(self, Lambda, L, k):
        e = energy_dimless(k, L, Lambda)
        assert oracle.eigenfunction_nodes(Lambda, L, e) == k

    @pytest.mark.parametrize(
        "Lambda,L,k",
        [(-3.0, 1, 12), (-1e-3, 0, 9), (0.02, 1, 20), (0.05, 3, 7), (-1e-7, 0, 3), (-5.012749062531772e-08, 0, 7)],
    )
    def test_high_states(self, Lambda, L, k):
        assert oracle.eigenfunction_nodes(Lambda, L, energy_dimless(k, L, Lambda)) == k

    def test_above_the_continuum_threshold_raises(self):
        with pytest.raises(NotAdmissible):
            oracle.eigenfunction_nodes(0.1, 0, 5.6)

    @pytest.mark.parametrize("Lambda", [-1.0, 0.1])
    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_raises(self, Lambda, e):
        with pytest.raises(ValueError, match=r"^e must be finite, got"):
            oracle.eigenfunction_nodes(Lambda, 0, e)

    @pytest.mark.parametrize("e", [1e12, 1e300])
    def test_energy_above_every_mesh_raises(self, e):
        # Lambda < 0 has levels without bound: the mesh doubles while e lies
        # above its top level, up to the node cap
        match = rf"needs a mesh of more than {oracle._N_NODES_MAX} nodes$"
        with pytest.raises(MeshNotConverged, match=match):
            oracle.eigenfunction_nodes(-1.0, 0, e)

    @pytest.mark.parametrize("Lambda,e", [(0.1, -1e300), (0.1, -1e50), (2e-8, -1e301)])
    def test_energy_far_below_the_spectrum_raises(self, Lambda, e):
        # the tail exponent beta(e) overflows (2e-8) or makes the Galerkin matrix non-finite
        match = "^" + re.escape(f"e = {e} lies too far below the spectrum: the tail exponent")
        with pytest.raises(ValueError, match=match):
            oracle.eigenfunction_nodes(Lambda, 0, e)

    @pytest.mark.parametrize("Lambda,e", [(0.1, -1e20), (-1.0, -1e300)])
    def test_energy_below_the_ground_state_counts_its_nodes(self, Lambda, e):
        assert oracle.eigenfunction_nodes(Lambda, 0, e) == 0

    @pytest.mark.parametrize("Lambda,L,e", [(-1.0, -1, 1.5), (0.1, -2, 1.0)])
    def test_negative_L_raises(self, Lambda, L, e):
        with pytest.raises(ValueError, match=rf"^quantum numbers must be nonnegative, got L = {L}$"):
            oracle.eigenfunction_nodes(Lambda, L, e)


# The Gauss-Jacobi mesh of the three-term recurrence run at the nodes, with
# its derivative rows: the reference for the eigenvectors of oracle._mesh and
# for the closed-form stiffness of oracle._stiffness.  It records (N, a, b)
# each time the 1e-100 rescale fires.
_REF_RESCALED = []


def _ref_mesh(N, a, b):
    n = np.arange(1.0, N)
    s = 2.0 * n + a + b
    diag = np.empty(N)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    P = np.zeros((N, N))
    D = np.zeros((N, N))
    P[0] = 1.0
    for i in range(N - 1):
        P[i + 1] = (x - diag[i]) * P[i]
        D[i + 1] = P[i] + (x - diag[i]) * D[i]
        if i:
            P[i + 1] -= off[i - 1] * P[i - 1]
            D[i + 1] -= off[i - 1] * D[i - 1]
        P[i + 1] /= off[i]
        D[i + 1] /= off[i]
        big = np.abs(P[i + 1]) > 1e100
        if big.any():
            _REF_RESCALED.append((N, a, b))
            P[: i + 2, big] *= 1e-100
            D[: i + 2, big] *= 1e-100
    scale = 1.0 / np.sqrt((P * P).sum(axis=0))
    return x, P * scale, D * scale


# a = L + 1/2; b = 1/|Lambda| - 1/2 (Lambda < 0) or 2 beta - 2 (Lambda > 0),
# so b = -0.9 and -0.5 are tails with beta near 1/2; (400, 0.5, 999.5) rescales
MESH_GRID = [
    (N, a, b)
    for N in (16, 32, 44, 88)
    for a, b in [(0.5, -0.9), (0.5, -0.5), (1.5, 0.0), (2.5, 3.5), (4.5, 99.5), (0.5, 999.5)]
] + [(400, 0.5, 999.5)]


def _shoot_outcome(Lambda, L, k, **kwargs):
    """The ShootingResult, or the name of what shoot_eigenvalue raised."""
    try:
        return oracle.shoot_eigenvalue(Lambda, L, k, **kwargs)
    except Exception as exc:
        return type(exc).__name__


def _shoot_draws(seed, count):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        Lambda = sign * float(10.0 ** rng.uniform(-3.0, math.log10(3.0)))
        draws.append((Lambda, int(rng.integers(0, 5)), int(rng.integers(0, 13))))
    return draws


SHOOT_DRAWS = _shoot_draws(7, 24)


def _kappa(Lambda, x):
    """w (dx/dy)**2 as a function of x."""
    return -4.0 * Lambda * (1.0 - x * x) if Lambda < 0 else 2.0 * Lambda * (1.0 - x) * (1.0 + x) ** 2


class TestStackedMesh:
    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_agrees_with_the_reference(self, N, a, b):
        # the eigenvectors of J are the recurrence's node values, column signs included
        x, P, _ = oracle._mesh(N, a, b)
        x_ref, P_ref, _ = _ref_mesh(N, a, b)
        assert np.max(np.abs(x - x_ref)) <= 1e-13
        assert np.max(np.abs(P - P_ref)) <= 1e-11

    def test_the_grid_reaches_the_rescale(self):
        _REF_RESCALED.clear()
        _ref_mesh(400, 0.5, 999.5)
        assert _REF_RESCALED

    @pytest.mark.parametrize("Lambda,L,k", SHOOT_DRAWS + [(0.1, 0, 4), (1 / 128, 0, 63)])
    def test_shoot_eigenvalue_unchanged(self, monkeypatch, Lambda, L, k):
        # unchanged to rounding when P is the recurrence's: same outcome, and
        # the level and its mismatch within 1e-13
        new = _shoot_outcome(Lambda, L, k)
        mesh = oracle._mesh
        monkeypatch.setattr(oracle, "_mesh", lambda N, a, b: (*_ref_mesh(N, a, b)[:2], mesh(N, a, b)[2]))
        ref = _shoot_outcome(Lambda, L, k)
        if isinstance(ref, str):
            assert new == ref
        else:
            assert abs(new.e_numeric - ref.e_numeric) <= 1e-13 * max(1.0, abs(ref.e_numeric))
            assert abs(new.terminal_mismatch - ref.terminal_mismatch) <= 1e-13

    def test_the_draws_cover_both_signs_and_every_outcome(self):
        assert {math.copysign(1.0, lam) for lam, _, _ in SHOOT_DRAWS} == {1.0, -1.0}
        outcomes = {_shoot_outcome(*draw) for draw in SHOOT_DRAWS}
        assert "NotAdmissible" in outcomes and any(isinstance(out, oracle.ShootingResult) for out in outcomes)
        # MeshNotConverged, from an rtol below the rounding of the levels
        assert _shoot_outcome(-0.5, 0, 3, rtol=1e-16) == "MeshNotConverged"

    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_gauss_rule_is_exact_on_the_basis(self, N, a, b):
        # P P^T is the Gauss rule applied to p_i p_j, degree <= 2N - 2
        _, P, _ = oracle._mesh(N, a, b)
        assert np.max(np.abs(P @ P.T - np.eye(N))) <= 1e-12

    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_derivative_rows_have_lower_degree(self, N, a, b):
        # p_i' has degree i - 1, so it is orthogonal to p_j for j >= i: the
        # reference that test_stiffness_is_the_closed_form compares against
        _, P, D = _ref_mesh(N, a, b)
        M = D @ P.T
        assert np.max(np.abs(np.triu(M))) <= 1e-10 * np.max(np.abs(M))
        assert not D[0].any()

    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_stiffness_is_the_closed_form(self, N, a, b):
        # K = int nu kappa p_i' p_j' by the Gauss rule on the reference's
        # derivative rows; b = 999.5 is |Lambda| = 1e-3 below 0 and beta = 500.75 above
        x, _, D = _ref_mesh(N, a, b)
        J = oracle._mesh(N, a, b)[2]
        for Lambda in (-0.3, 0.3):
            ref = (D * _kappa(Lambda, x)) @ D.T
            K = oracle._stiffness(Lambda, a, b, J)
            assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert not np.triu(K, 2).any()  # tridiagonal


class TestGalerkinPotentialTerm:
    """The Gauss rule of _galerkin's chain-rule q, (P q) P^T = S - K, is exactly
    c0 I + c1 J on MESH_GRID (a = L + 1/2): q is a constant at Lambda < 0, and at
    Lambda > 0 a polynomial of degree one in x at the tail exponent beta
    (b = 2 beta - 2), so the Galerkin matrix is tridiagonal at both signs."""

    @pytest.mark.parametrize("N,a,b", [(N, a, b) for N, a, b in MESH_GRID if b > -0.5])
    def test_constant_at_negative_lambda(self, N, a, b):
        L, Lambda = int(a - 0.5), -1.0 / (b + 0.5)  # b = 1/|Lambda| - 1/2
        S, _ = oracle._galerkin(Lambda, L, N)
        G = S - oracle._stiffness(Lambda, a, b, oracle._mesh(N, a, b)[2])
        q = 2 * L + 3 - L * Lambda
        assert np.max(np.abs(G - q * np.eye(N))) <= 1e-12 * q

    @pytest.mark.parametrize("Lambda", [0.3, 1e-3])
    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_tridiagonal_at_positive_lambda(self, N, a, b, Lambda):
        # c0 and c1 each carry (1 + 1/Lambda)/2, which cancels in the entries at small Lambda
        L, beta = int(a - 0.5), 0.5 * b + 1.0
        J = oracle._mesh(N, a, b)[2]
        S, _ = oracle._galerkin(Lambda, L, N, beta)
        G = S - oracle._stiffness(Lambda, a, b, J)
        c0 = Lambda * (1.5 * L * L + 2 * L * beta + 1.5 * L - 2 * beta * beta + 5 * beta) + 0.5 * (1 + 1 / Lambda)
        c1 = Lambda * (0.5 * L * L + 2 * L * beta + 0.5 * L + 2 * beta * beta + beta) - 0.5 * (1 + 1 / Lambda)
        assert np.max(np.abs(G - (c0 * np.eye(N) + c1 * J))) <= 1e-12 * max(abs(c0), abs(c1))


class TestClosedGalerkin:
    """At Lambda > 0 the 2N check solves S = K + (e + k) I + (k - e) J, the
    closed form of the Gauss rule's matrix at beta = beta(e)."""

    @pytest.mark.parametrize("Lambda", [0.3, 1e-3, 1e-6])
    @pytest.mark.parametrize("N,a,b", MESH_GRID)
    def test_equals_the_gauss_rule(self, N, a, b, Lambda):
        # the e of the grid's beta = b/2 + 1, and the beta(e) the oracle takes of it
        # (at Lambda = 1e-6 the e* - e of beta near 1/2 keeps about six digits)
        L = int(a - 0.5)
        e = oracle._threshold(Lambda, L) - 0.5 * Lambda * (b + 1.0) ** 2
        beta = oracle._tail_exponent(e, Lambda, L)
        assert beta == pytest.approx(0.5 * b + 1.0, rel=1e-4)
        k = Lambda * (L * (L + 1) + (2 * L + 3) * beta)
        S = oracle._closed_galerkin(Lambda, L, N, e, beta)
        assert np.max(np.abs(S - oracle._galerkin(Lambda, L, N, beta)[0])) <= 1e-12 * max(abs(e + k), abs(k - e))
        assert not np.triu(S, 2).any()

    def test_a_wrong_closed_form_is_caught(self, monkeypatch):
        # c0 = e + k off by 1e-8 (relative): the check's level moves away from the Gauss rule's
        closed = oracle._closed_galerkin

        def perturbed(Lambda, L, N, e, beta):
            S = closed(Lambda, L, N, e, beta)
            S.flat[:: N + 1] += 1e-8 * (e + Lambda * (L * (L + 1) + (2 * L + 3) * beta))
            return S

        monkeypatch.setattr(oracle, "_closed_galerkin", perturbed)
        with pytest.raises(MeshNotConverged, match=r"^level k = 2 at Lambda = 0.1, L = 0 moved by \S+ \(relative\) from 16 to 32"):
            oracle.shoot_eigenvalue(0.1, 0, 2)

    def test_a_wrong_gauss_rule_is_caught(self, monkeypatch):
        # S off by 1e-8 (relative) on both meshes: with the Gauss rule run twice
        # the level read 4.300000043 and a mismatch of 8e-16
        galerkin = oracle._galerkin

        def perturbed(*args):
            S, P = galerkin(*args)
            return S * (1.0 + 1e-8), P

        monkeypatch.setattr(oracle, "_galerkin", perturbed)
        with pytest.raises(MeshNotConverged, match=r"^level k = 2 at Lambda = 0.1, L = 0 moved by \S+ \(relative\) from 16 to 32"):
            oracle.shoot_eigenvalue(0.1, 0, 2)


def _ref_ball_shoot(Lambda, L, k, rtol):
    """shoot_eigenvalue at Lambda < 0 as the Gauss rule run on both meshes
    gives it: the 2N level, the midpoints to its neighbors and the change
    from N nodes, as hex, or the type and message raised."""
    N = max(oracle._N_MIN, k + oracle._N_PAD)
    e_coarse = float(oracle._levels(Lambda, L, N)[k])
    levels = oracle._levels(Lambda, L, 2 * N)
    e = float(levels[k])
    lo = 0.5 * (levels[k - 1] + levels[k]) if k else 1.5 * levels[0] - 0.5 * levels[1]
    mismatch = abs(e - e_coarse) / max(1.0, abs(e))
    if not mismatch <= rtol:
        return "MeshNotConverged", (
            f"level k = {k} at Lambda = {Lambda}, L = {L} moved by {mismatch:.3g} (relative) "
            f"from {N} to {2 * N} nodes, above rtol = {rtol}"
        )
    return e.hex(), 2, float(lo).hex(), float(0.5 * (levels[k] + levels[k + 1])).hex(), mismatch.hex()


BALL_DRAWS = [(lam, L, k, 1e-10) for lam, L, k in SHOOT_DRAWS if lam < 0] + [
    (-0.5, 0, 3, 1e-16),
    (-3.0, 1, 12, 1e-10),
    (-2.0, 0, 2, 1e-10),
    (-1e-7, 0, 3, 1e-10),
    (-5.012749062531772e-08, 0, 7, 1e-10),
    (-1.5, 2, 30, 1e-10),
]


@pytest.mark.parametrize("Lambda,L,k,rtol", BALL_DRAWS)
def test_negative_lambda_is_the_gauss_rule_on_both_meshes(Lambda, L, k, rtol):
    # the closed matrix is diagonal at Lambda < 0, its levels the closed-form
    # energies, so the check stays on the Gauss rule there, bit for bit
    try:
        res = oracle.shoot_eigenvalue(Lambda, L, k, rtol=rtol)
        new = (res.e_numeric.hex(), res.iterations, *(v.hex() for v in res.bracket), res.terminal_mismatch.hex())
    except MeshNotConverged as exc:
        new = type(exc).__name__, str(exc)
    assert new == _ref_ball_shoot(Lambda, L, k, rtol)


class TestRadialResidual:
    def test_closed_form_satisfies_equation(self):
        st = radial.build_state(2, 1, -0.5)

        def f(y):
            return radial.eval_state_with_derivatives(st, y)

        for y in (0.2, 0.7, 1.2):
            assert oracle.radial_residual(f, y, st.e, -0.5, 1) < 1e-10

    def test_wrong_energy_leaves_residual(self):
        st = radial.build_state(0, 0, -1.0)

        def f(y):
            return radial.eval_state_with_derivatives(st, y)

        assert oracle.radial_residual(f, 0.5, st.e + 0.3, -1.0, 0) > 1e-3

    def test_underflowing_square(self):
        # y*y underflows to 0, where L(L+1)/(y*y) would divide by zero
        with pytest.raises(OutsideDomain, match=r"^derivatives need y\*y > 0, got y = 1e-170$"):
            oracle.radial_residual(lambda y: (1.0, 0.0, 0.0), 1e-170, 1.5, -1.0, 1)


class TestHarmonicBranch:
    def test_ground_state_shape(self):
        f = oracle.ho_wavefunction(0, 0)
        assert f(0.5) == pytest.approx(math.exp(-0.125), rel=1e-14)

    def test_rejects_negative_L(self):
        with pytest.raises(ValueError, match="^quantum numbers must be nonnegative, got L = -1$"):
            oracle.ho_wavefunction(0, -1)

    @pytest.mark.parametrize("helper", [oracle.ho_wavefunction, oracle.ho_norm_sq, oracle.ho_wavefunction_with_derivatives])
    def test_helpers_check_n_and_L(self, helper):
        # ho_norm_sq(0, -1) returned 0.886 and ho_norm_sq(-1, 0) raised a bare math domain error
        with pytest.raises(ValueError, match="^quantum numbers must be nonnegative, got L = -1$"):
            helper(0, -1)
        with pytest.raises(InvalidDegree, match="^degree must be a nonnegative integer, got -1$"):
            helper(-1, 0)

    @pytest.mark.parametrize("n,L", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_residual(self, n, L):
        f = oracle.ho_wavefunction_with_derivatives(n, L)
        for y in np.linspace(0.2, 4.0, 25):
            assert oracle.radial_residual(f, float(y), 2 * n + L + 1.5, 0.0, L) < 1e-12

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("L", range(4))
    def test_closed_form_norm(self, n, L):
        # the integrand is even in y, so the trapezoid rule is spectrally accurate
        f = oracle.ho_wavefunction(n, L)
        ys = np.linspace(0.0, 15.0, 601)
        g = np.array([f(float(y)) ** 2 * y * y for y in ys])
        trap = (ys[1] - ys[0]) * (g.sum() - 0.5 * (g[0] + g[-1]))
        assert oracle.ho_norm_sq(n, L) == pytest.approx(trap, rel=1e-12)

    @pytest.mark.parametrize(
        "n,L,y,message",
        [
            (1, 0, 1e-170, r"derivatives need y\*y > 0, got y = 1e-170"),
            (1, 1, 0.0, "derivatives need an interior point, got y = 0.0"),
            (2, 0, -1.0, "derivatives need an interior point, got y = -1.0"),
        ],
    )
    def test_derivatives_need_interior_point(self, n, L, y, message):
        # as radial.eval_state_with_derivatives: y*y = 0 would divide by zero, and y < 0 is outside
        with pytest.raises(OutsideDomain, match=f"^{message}$"):
            oracle.ho_wavefunction_with_derivatives(n, L)(y)

    def test_infinite_norm_refused(self):
        # Gamma(301.5) overflows a float
        with pytest.raises(QuadratureFailure, match="^non-finite norm: Gamma"):
            oracle.ho_norm_sq(0, 300)

    def test_derivatives_consistent(self):
        f = oracle.ho_wavefunction(2, 1)
        fd = oracle.ho_wavefunction_with_derivatives(2, 1)
        y, h = 0.9, 1e-6
        r, r1, r2 = fd(y)
        assert r == pytest.approx(f(y), rel=1e-14)
        assert r1 == pytest.approx((f(y + h) - f(y - h)) / (2 * h), rel=1e-8)


class TestLimitCompare:
    def test_ground_state_small(self):
        assert oracle.limit_compare(0, 0, 1e-3) < 5e-3

    def test_negative_side(self):
        assert oracle.limit_compare(2, 1, -1e-3) < 1.5e-2

    def test_first_order_rate(self):
        d1 = oracle.limit_compare(1, 0, 1e-3)
        d2 = oracle.limit_compare(1, 0, 2e-3)
        assert d1 / d2 == pytest.approx(0.5, abs=0.15)

    def test_precondition(self):
        with pytest.raises(ValueError):
            oracle.limit_compare(0, 0, 0.5)
        with pytest.raises(ValueError):
            oracle.limit_compare(0, 0, 0.0)
