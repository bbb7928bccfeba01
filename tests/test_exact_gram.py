"""The integer-only exact Gram path against a Fraction reference.

The reference below is the per-coefficient ``Fraction`` fold in t = 1-x (for
Lambda > 0 a series in y**2 re-expanded through the binomial theorem), weight
and Beta-moment recurrence that the integer recurrences of ``nlosc.radial``
replaced, restated in tau = t/|P| (Lambda = P/Q) by exact scaling: the
coefficient of t**k times |P|**k, the k-th moment ratio over |P|**k, and at
Lambda > 0 the fold over P**n with the moments' lift P**degree putting it back.
Both give the same rationals, and every float is one correctly rounded
``int / int`` division of a rational, so the outputs must agree byte for byte,
errors included.
"""

import math
import random
from fractions import Fraction

import pytest

from nlosc import radial
from nlosc.spectrum import bound_state_count


def _ref_series_coeffs(n, L, lam):
    one = Fraction(1)
    half = one / 2
    kappa = one
    for j in range(1, n + 1):
        kappa *= (L + half + j) / j
    b2 = n + L + one - one / lam
    c = L + 3 * half
    coeffs = []
    term = kappa
    for k in range(n + 1):
        coeffs.append(term)
        if k < n:
            term *= (-n + k) * (b2 + k) / ((c + k) * (k + one)) * (-lam)
    return coeffs


def _ref_over_common_denominator(values):
    den = 1
    for v in values:
        den = math.lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


def _ref_folded_t(state):
    """The fold's coefficients in t = 1-x, as Fractions."""
    lam = Fraction(state.Lambda)
    n = state.qn.n
    h = _ref_series_coeffs(n, state.qn.L, lam)
    if lam < 0:
        scale = 1 / (-2 * lam)
        return [h[k] * scale**k for k in range(n + 1)]
    base = [h[k] * lam ** (n - k) for k in range(n + 1)]
    total = [Fraction(0)] * (n + 1)
    for k, bk in enumerate(base):
        for i in range(n - k + 1):
            total[k + i] += bk * math.comb(n - k, i) * (-1) ** i * 2 ** (n - k - i)
    return total


def _ref_folded(state):
    """The fold in tau = t/|P|: the coefficient of t**k times |P|**k, and at
    Lambda > 0 over the P**n that the lift of the moments puts back."""
    P = Fraction(state.Lambda).numerator
    lift = P ** state.qn.n if P > 0 else 1
    return _ref_over_common_denominator([c * abs(P) ** k / lift for k, c in enumerate(_ref_folded_t(state))])


def _ref_weight(Lambda, L, degree):
    a_w = L + Fraction(1, 2)
    lam_f = Fraction(Lambda)
    if Lambda < 0:
        babs = -Lambda
        b_w = 1 / (-lam_f) - Fraction(1, 2)
        log_k = -math.log(4.0 * babs) - (L + 0.5) * math.log(2.0 * babs) - float(b_w) * math.log(2.0)
    else:
        b_w = 1 / lam_f - 2 - L - degree
        log_k = -(L + 1.5 + degree) * math.log(Lambda) - (1.0 / Lambda + 0.5) * math.log(2.0)
    return a_w, b_w, log_k


def _ref_beta_moments(a, b, log_k, count):
    log_m0 = (
        log_k
        + float(a + b + 1) * math.log(2.0)
        + math.lgamma(float(a) + 1.0)
        + math.lgamma(float(b) + 1.0)
        - math.lgamma(float(a + b) + 2.0)
    )
    steps = [2 * (a + j + 1) / (a + b + j + 2) for j in range(count - 1)]
    ratios = [1]
    for r in steps:
        ratios.append(ratios[-1] * r.numerator)
    den = 1
    for j in reversed(range(count - 1)):
        den *= steps[j].denominator
        ratios[j] *= den
    return log_m0, ratios, den


def _ref_moments(Lambda, L, degree):
    """The moments of tau**k = (t/|P|)**k: the t form's ratio k over |P|**k, with
    the lift P**degree at Lambda > 0 and 1 at Lambda < 0."""
    log_m0, ratios, den = _ref_beta_moments(*_ref_weight(Lambda, L, degree), degree + 1)
    P = Fraction(Lambda).numerator
    tau_ratios, tau_den = _ref_over_common_denominator([Fraction(r, den) / abs(P) ** k for k, r in enumerate(ratios)])
    return log_m0, tau_ratios, tau_den, P**degree if P > 0 else 1


@pytest.fixture
def reference(monkeypatch):
    """Run ``fn`` with the Fraction reference patched into nlosc.radial."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(radial, "_folded_t_poly_exact", _ref_folded)
            m.setattr(radial, "_moments", _ref_moments)
            return _outcome(fn, *args)

    return call


def _outcome(fn, *args):
    """Bytes of a result, or the name of the exception it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc).__name__
    if isinstance(out, radial.WeightedInnerProductResult):
        return (out.value.hex(), out.est_abs_error.hex())
    return out.tobytes()


def _grid(seed, count):
    """Seeded (L, Lambda, n_max) draws: both signs, L 0-4, n_max 0-17, |Lambda| 1e-3..5."""
    rng = random.Random(seed)
    for _ in range(count):
        mag = 10 ** rng.uniform(-3, math.log10(5))
        yield rng.randint(0, 4), rng.choice((-mag, mag)), rng.randint(0, 17)


def _inner(n_a, n_b, L, Lambda):
    return radial.inner_product(radial.normalize(radial.build_state(n_a, L, Lambda)), radial.build_state(n_b, L, Lambda))


def _assert_same_fold(st):
    (c, d), (rc, rd) = radial._folded_t_poly_exact(st), _ref_folded(st)
    assert d > 0
    assert [Fraction(x, d) for x in c] == [Fraction(x, rd) for x in rc]


def _assert_same_moments(Lambda, L, degree):
    log_m0, ratios, den, lift = radial._moments(Lambda, L, degree)
    ref_log_m0, ref_ratios, ref_den, ref_lift = _ref_moments(Lambda, L, degree)
    assert log_m0.hex() == ref_log_m0.hex()
    assert lift == ref_lift
    assert den > 0
    assert [Fraction(r, den) for r in ratios] == [Fraction(r, ref_den) for r in ref_ratios]


class TestBitIdentity:
    @pytest.mark.parametrize("L,Lambda,n_max", list(_grid(14, 40)) + [(0, 1e-3, 17), (4, -5.0, 17), (2, 0.05, 17)])
    def test_gram_matrix(self, reference, L, Lambda, n_max):
        assert _outcome(radial.gram_matrix, L, Lambda, n_max) == reference(radial.gram_matrix, L, Lambda, n_max)

    @pytest.mark.parametrize("L,Lambda,n_max", list(_grid(15, 40)))
    def test_inner_product_value_and_estimate(self, reference, L, Lambda, n_max):
        # the highest admissible state when Lambda > 0, paired with a lower one
        n_b = min(n_max, bound_state_count(Lambda, L).count - 1) if Lambda > 0 else n_max
        n_a = n_b // 2
        assert _outcome(_inner, n_a, n_b, L, Lambda) == reference(_inner, n_a, n_b, L, Lambda)

    @pytest.mark.parametrize(
        "L,Lambda,n_max,error",
        [
            (0, 5.0, 3, "NotAdmissible"),
            (3, 4.9, 2, "NotAdmissible"),
            (0, 1e-9, 2, "LambdaTooSmall"),
            (0, -1e-9, 2, "LambdaTooSmall"),
            (0, 0.3, -1, "ValueError"),
            (2, -1.0, -1, "ValueError"),
        ],
    )
    def test_same_exceptions(self, reference, L, Lambda, n_max, error):
        assert _outcome(radial.gram_matrix, L, Lambda, n_max) == reference(radial.gram_matrix, L, Lambda, n_max) == error

    @pytest.mark.parametrize("L,Lambda,n_max", list(_grid(16, 20)))
    def test_same_rationals(self, L, Lambda, n_max):
        n_top = min(n_max, bound_state_count(Lambda, L).count - 1) if Lambda > 0 else n_max
        for n in range(n_top + 1):
            _assert_same_fold(radial.build_state(n, L, Lambda))
        _assert_same_moments(Lambda, L, 2 * max(n_top, 0))


class TestHighDegree:
    """The same rationals beyond the Gram grids' n_max 17, without a Gram matrix."""

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3, -0.01, 0.01])
    @pytest.mark.parametrize("L", range(5))
    def test_fold_up_to_n_40(self, Lambda, L):
        for n in range(41):
            _assert_same_fold(radial.build_state(n, L, Lambda))

    @pytest.mark.parametrize("Lambda,n_top", [(1 / 128, 63), (0.013, 37), (0.45, 0)])
    def test_fold_up_to_the_top_state(self, Lambda, n_top):
        assert bound_state_count(Lambda, 0).count == n_top + 1
        for n in range(n_top + 1):
            _assert_same_fold(radial.build_state(n, 0, Lambda))

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3, -0.01, 0.01, 1 / 128])
    @pytest.mark.parametrize("L", range(5))
    def test_moments_up_to_degree_80(self, Lambda, L):
        for degree in range(0, 81, 10):
            _assert_same_moments(Lambda, L, degree)


class TestNoCancelledPower:
    """In tau = t/|P| no integer of the exact layer carries the power of |P|
    that cancels in every product of a fold coefficient and a moment ratio:
    at Lambda < 0 the t form's coefficients carried |P|**(n-k) and its ratios
    |P|**k."""

    @pytest.mark.parametrize("Lambda", [-0.0123, 0.0123])
    def test_no_integer_is_divisible_by_P(self, Lambda):
        P = abs(Lambda.as_integer_ratio()[0])
        assert P.bit_length() >= 40
        for n in range(41):  # 40 is the top state at Lambda = 0.0123, L = 0
            coeffs, den = radial._folded_t_poly_exact(radial.build_state(n, 0, Lambda))
            assert den % P and all(c % P for c in coeffs if c), n
        for degree in range(81):
            _, ratios, den, _ = radial._moments(Lambda, 0, degree)
            assert den % P and all(r % P for r in ratios), degree


class TestModifiedMomentRows:
    """The Lambda < 0 row sums against the pairwise convolution, entry by entry."""

    @pytest.mark.parametrize("L,Lambda,n_max", [(0, -0.01, 30), (2, -1e-7, 20), (1, -0.3, 25), (4, -5.0, 17), (3, -1e-3, 22)])
    def test_value_and_estimate_equal_raw_inner(self, L, Lambda, n_max):
        folds = [radial._folded_t_poly_exact(radial.build_state(n, L, Lambda)) for n in range(n_max + 1)]
        raw = radial._modified_moment_rows(folds, radial._moments(Lambda, L, 2 * n_max))
        for j in range(n_max + 1):
            for i in range(j + 1):
                row = raw(i, j)
                pair = radial._raw_inner(folds[i], folds[j], radial._moments(Lambda, L, i + j))
                assert [x.hex() for x in row] == [x.hex() for x in pair], (i, j)
