"""The integer-only exact Gram path against Fraction references.

Each reference builds a state from its hypergeometric series in s = y**2 as
``Fraction`` coefficients, with Lambda = P/Q.  ``nlosc.radial`` folds it in
tau = 2s/Q at either sign, which is t/|P| (t = 1-x) at Lambda < 0 and
2*zeta/P (zeta = (1-x)/(1+x)) at Lambda > 0, against one moment table per
(L, Lambda).

- Lambda < 0: the per-coefficient fold in t, weight and Beta-moment
  recurrence that the integer recurrences replaced, restated in tau by exact
  scaling: the coefficient of t**k times |P|**k and the k-th moment ratio over
  |P|**k.
- Lambda > 0: the series re-expanded through the binomial theorem in
  z = 1 + Lambda*s = 2/(1+x), and the moments of z**m as Beta-function ratios
  of the weight's Fraction parameters: another variable than radial's, so
  only whole integrals can agree.  Coefficient by coefficient radial is
  checked against the series scaled to tau and the Beta ratios of zeta**m.

The same integrals are the same rationals, and every float is one correctly
rounded ``int / int`` division of a rational, so the outputs must agree byte
for byte, errors included.  The float log prefactor is nlosc.radial's on both
sides and is checked on its own (TestLogPrefactor).  The Lambda > 0 fold in t
that the tau fold replaced, whose weight changed with the total degree, stays
as a cross-check of the integral itself (TestTFormCrossCheck).
"""

import math
import random
from fractions import Fraction

import pytest

from nlosc import radial
from nlosc.errors import QuadratureFailure
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
    """The fold's coefficients in t = 1-x, as Fractions: at Lambda < 0 the series
    in s = t/(2|Lambda|); at Lambda > 0 the fold that the tau fold replaced, lam**n (1+x)**n
    times the piece, re-expanded through the binomial theorem (its weight is
    (1-x)^a (1+x)^(b-n) per state, see ``_ref_weight``)."""
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


def _ref_folded_z(state):
    """The Lambda > 0 fold's coefficients in z = 1 + Lambda*s, as Fractions: the
    series in s with s = (z-1)/Lambda, re-expanded through the binomial theorem."""
    lam = Fraction(state.Lambda)
    n = state.qn.n
    total = [Fraction(0)] * (n + 1)
    for k, hk in enumerate(_ref_series_coeffs(n, state.qn.L, lam)):
        for i in range(k + 1):
            total[i] += hk / lam**k * math.comb(k, i) * (-1) ** (k - i)
    return total


def _ref_folded(n, L, Lambda):
    """The fold as (integers, common denominator): at Lambda < 0 in tau = t/|P|,
    the coefficient of t**k times |P|**k; at Lambda > 0 in z."""
    state = radial.build_state(n, L, Lambda)
    P = Fraction(state.Lambda).numerator
    if P > 0:
        return _ref_over_common_denominator(_ref_folded_z(state))
    return _ref_over_common_denominator([c * abs(P) ** k for k, c in enumerate(_ref_folded_t(state))])


def _ref_weight(Lambda, L, degree=0):
    """a and b of the weight (1-x)^a (1+x)^b; at Lambda > 0 the t form's, whose
    b drops by the total degree, or with degree 0 the z form's."""
    lam = Fraction(Lambda)
    b = 1 / (-lam) - Fraction(1, 2) if lam < 0 else 1 / lam - 2 - L - degree
    return L + Fraction(1, 2), b


def _ref_t_ratios(a, b, count):
    """M_j / M_0 for the moments M_j of (1-x)^a (1+x)^b against t**j, j < count:
    2**(a+b+1) B(a+1, b+1) steps by 2(a+j+1)/(a+b+j+2)."""
    out = [Fraction(1)]
    for j in range(count - 1):
        out.append(out[-1] * 2 * (a + j + 1) / (a + b + j + 2))
    return out


def _ref_z_ratios(a, b, count):
    """M_m / M_0 against z**m = (2/(1+x))**m, m < count: 2**m times the ratio of
    2**(a+b-m+1) B(a+1, b-m+1) to 2**(a+b+1) B(a+1, b+1), which is
    Gamma(b-m+1) Gamma(a+b+2) / (Gamma(b+1) Gamma(a+b-m+2)), each m one more
    factor (a+b+2-m) / (b+1-m)."""
    out = [Fraction(1)]
    for m in range(1, count):
        out.append(out[-1] * (a + b + 2 - m) / (b + 1 - m))
    return out


def _ref_zeta_ratios(a, b, count):
    """M_m / M_0 against zeta**m = ((1-x)/(1+x))**m, m < count: the ratio of
    2**(a+b+1) B(a+m+1, b-m+1) to 2**(a+b+1) B(a+1, b+1), each m one more
    factor (a+m) / (b+1-m)."""
    out = [Fraction(1)]
    for m in range(1, count):
        out.append(out[-1] * (a + m) / (b + 1 - m))
    return out


def _ref_moments(Lambda, L, degree):
    """The moments of tau**k = (t/|P|)**k (the t form's ratio k over |P|**k) at
    Lambda < 0 and of z**k at Lambda > 0, with the log prefactor of nlosc.radial
    (checked on its own in TestLogPrefactor)."""
    P = Fraction(Lambda).numerator
    if P > 0:
        ratios = _ref_z_ratios(*_ref_weight(Lambda, L), degree + 1)
    else:
        ratios = [r / abs(P) ** k for k, r in enumerate(_ref_t_ratios(*_ref_weight(Lambda, L), degree + 1))]
    return (radial._log_m0(Lambda, L), *_ref_over_common_denominator(ratios))


def _ref_moment_steps(Lambda, L, degree):
    """The steps of ``_ref_moments``, each ratio over the one before in lowest
    terms as (o_j, phi_j), so that gram_matrix's scaled rows take the
    reference's variable: tau at Lambda < 0, z at Lambda > 0."""
    prefactor, ratios, _ = _ref_moments(Lambda, L, degree)
    steps = [Fraction(r1, r0) for r0, r1 in zip(ratios, ratios[1:])]
    return prefactor, [(s.numerator, s.denominator) for s in steps]


def _ref_tau_fold(state):
    """The fold coefficient by coefficient in radial's tau: the Lambda < 0
    reference as it is, and at Lambda > 0 the series in s scaled to
    tau = 2s/Q, the coefficient of s**k times (Q/2)**k."""
    lam = Fraction(state.Lambda)
    if lam < 0:
        return _ref_folded(state.qn.n, state.qn.L, state.Lambda)
    h = _ref_series_coeffs(state.qn.n, state.qn.L, lam)
    return _ref_over_common_denominator([c * Fraction(lam.denominator, 2) ** k for k, c in enumerate(h)])


def _ref_tau_moments(Lambda, L, degree):
    """The moment table coefficient by coefficient in radial's tau: the
    Lambda < 0 reference as it is, and at Lambda > 0 the moments of
    tau**m = (2 zeta / P)**m."""
    lam = Fraction(Lambda)
    if lam < 0:
        return _ref_moments(Lambda, L, degree)
    ratios = [r * Fraction(2, lam.numerator) ** m for m, r in enumerate(_ref_zeta_ratios(*_ref_weight(Lambda, L), degree + 1))]
    return (radial._log_m0(Lambda, L), *_ref_over_common_denominator(ratios))


def _ref_log_m0_lgamma(Lambda, L):
    """The log prefactor as the sum of lgamma terms that ``_log_m0`` replaced, at
    either sign: the Lambda**-(L+3/2) and 2**(a+b+1) B(a+1, b+1) of the z form's
    weight, with the powers of two combined exactly."""
    a, b = _ref_weight(Lambda, L)
    return (-(L + 1.5) * math.log(abs(Lambda)) - math.log(2.0) + math.lgamma(float(a) + 1.0)
            + math.lgamma(float(b) + 1.0) - math.lgamma(float(a + b) + 2.0))


@pytest.fixture
def reference(monkeypatch):
    """Run ``fn`` with the Fraction reference patched into nlosc.radial."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(radial, "_folded_t_poly_exact", _ref_folded)
            m.setattr(radial, "_moments", _ref_moments)
            m.setattr(radial, "_moment_steps", _ref_moment_steps)
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
    (c, d), (rc, rd) = radial._folded_t_poly_exact(st.qn.n, st.qn.L, st.Lambda), _ref_tau_fold(st)
    assert d > 0
    assert [Fraction(x, d) for x in c] == [Fraction(x, rd) for x in rc]


def _assert_same_moments(Lambda, L, degree):
    prefactor, ratios, den = radial._moments(Lambda, L, degree)
    ref_prefactor, ref_ratios, ref_den = _ref_tau_moments(Lambda, L, degree)
    assert [x.hex() for x in prefactor] == [x.hex() for x in ref_prefactor]
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

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3])
    def test_fold_up_to_n_160(self, Lambda):
        # the closed-form fold far past the Gram grids, up to the n_max 160 of CI's Gram runs
        for n in range(161):
            _assert_same_fold(radial.build_state(n, 0, Lambda))

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3, -0.01, 0.01, 1 / 128])
    @pytest.mark.parametrize("L", range(5))
    def test_moments_up_to_degree_80(self, Lambda, L):
        for degree in range(0, 81, 10):
            _assert_same_moments(Lambda, L, degree)


class TestNoCancelledPower:
    """In tau no integer of the exact layer carries the power of |P| that
    cancels in every product of a fold coefficient and a moment ratio: in t,
    the Lambda < 0 coefficients carried |P|**(n-k) and the ratios |P|**k; in
    zeta the Lambda > 0 coefficients carry P**-k and the ratios P**k."""

    @pytest.mark.parametrize("Lambda", [-0.0123, 0.0123])
    def test_no_integer_is_divisible_by_P(self, Lambda):
        P = abs(Lambda.as_integer_ratio()[0])
        assert P.bit_length() >= 40
        for n in range(41):  # 40 is the top state at Lambda = 0.0123, L = 0
            coeffs, den = radial._folded_t_poly_exact(n, 0, Lambda)
            assert den % P and all(c % P for c in coeffs if c), n
        for degree in range(81):
            _, ratios, den = radial._moments(Lambda, 0, degree)
            assert den % P and all(r % P for r in ratios), degree


def _convolved(fa, fb, ratios):
    """sum_k (a * b)_k ratios[k] for (integers, denominator) pairs, as a Fraction."""
    (ca, da), (cb, db), (r, dr) = fa, fb, ratios
    prod = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    return Fraction(sum(p * rk for p, rk in zip(prod, r)), da * db * dr)


def _rounded_convolution(fa, fb, moments):
    """The pairwise convolution as radial rounds an exact integral: (value, estimate) hex."""
    prefactor, *ratios = moments
    total = _convolved(fa, fb, ratios)
    return [x.hex() for x in radial._rounded(total.numerator, total.denominator, prefactor)]


def _constant_term_plus_one(corrupt):
    """radial._folded_t_poly_exact with 1 added to the constant term of state ``corrupt``."""
    exact = radial._folded_t_poly_exact

    def corrupted(n, L, Lambda):
        coeffs, den = exact(n, L, Lambda)
        if n == corrupt:
            coeffs = [coeffs[0] + 1, *coeffs[1:]]
        return coeffs, den

    return corrupted


class TestModifiedMomentRows:
    """The modified-moment sums behind gram_matrix, inner_product and normalize
    against the pairwise convolution, entry by entry, at both signs (an entry
    i < j sums only the lower moments that gram_matrix checks are zeros), and
    the scaled rows of _scaled_rows by the three-term recurrence against the
    direct sums."""

    @pytest.mark.parametrize(
        "L,Lambda,n_max",
        [(0, -0.01, 30), (2, -1e-7, 20), (1, -0.3, 25), (4, -5.0, 17), (3, -1e-3, 22),
         (0, 0.01, 24), (2, 1e-7, 16), (1, 0.0123, 20), (4, 0.05, 7), (0, 0.45, 0)],
    )
    def test_value_and_estimate_equal_raw_inner(self, L, Lambda, n_max):
        states = [radial.build_state(n, L, Lambda) for n in range(n_max + 1)]
        folds = [radial._folded_t_poly_exact(n, L, Lambda) for n in range(len(states))]
        moments = radial._moments(Lambda, L, 2 * n_max)
        prefactor, ratios, r_den = moments
        for j in range(n_max + 1):
            row = radial._modified_moments(folds[j][0], ratios, range(j + 1))  # moments m <= j of state j
            for i in range(j + 1):
                pair = _rounded_convolution(folds[i], folds[j], radial._moments(Lambda, L, i + j))
                ci, di = folds[i]
                entry = radial._rounded(sum(c * b for c, b in zip(ci, row)), di * folds[j][1] * r_den, prefactor)
                assert [x.hex() for x in entry] == pair, (i, j)
                ip = radial.inner_product(states[i], states[j])  # norm constants 1.0
                assert [ip.value.hex(), ip.est_abs_error.hex()] == pair, (i, j)
                assert i == j or entry == (0.0, 0.0), (i, j)

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3, -0.3, -5.0, 0.0123])
    def test_lower_modified_moments_are_exact_zeros(self, Lambda):
        # the identity inner_product and normalize rest on: state n is orthogonal to tau**m, m < n
        L = 1
        n_top = min(80, bound_state_count(Lambda, L).count - 1) if Lambda > 0 else 80
        assert n_top >= 30
        _, ratios, _ = radial._moments(Lambda, L, 2 * n_top)
        for n in range(n_top + 1):
            coeffs, _ = radial._folded_t_poly_exact(n, L, Lambda)
            row = radial._modified_moments(coeffs, ratios, range(n + 1))
            assert row[:n] == [0] * n and row[n] != 0, n

    @pytest.mark.parametrize(
        "L,Lambda,n_top",
        [(L, Lambda, 40) for Lambda in (-1e-3, 1e-3, -0.01, 0.01) for L in range(5)]
        + [(L, Lambda, 40) for Lambda in (-5.0, -2.0) for L in (0, 2, 4)]  # b = 1/|Lambda| - 1/2 is 0 at -2
        + [(0, 1 / 128, 63)],  # the top state
    )
    def test_recurrence_rows_equal_the_modified_moments(self, L, Lambda, n_top):
        # every m a row holds, not only the m <= j that gram_matrix reads: the scaled
        # row times prod_(j+m<=i<2n) phi_i over prod_(i<2n) phi_i is the moment sum
        if Lambda > 0:
            n_top = min(n_top, bound_state_count(Lambda, L).count - 1)
        assert n_top >= 30
        coeffs = [radial._folded_t_poly_exact(n, L, Lambda)[0] for n in range(n_top + 1)]
        _, ratios, r_den = radial._moments(Lambda, L, 2 * n_top)
        _, steps = radial._moment_steps(Lambda, L, 2 * n_top)
        tail = [1]  # tail[k] = prod_(k<=i<2n) phi_i
        for _, p in reversed(steps):
            tail.append(tail[-1] * p)
        tail.reverse()
        rows = list(radial._scaled_rows(coeffs, steps))
        assert len(rows) == n_top + 1
        for j, row in enumerate(rows):
            assert len(row) == 2 * n_top + 1 - j
            full = radial._modified_moments(coeffs[j], ratios, range(len(row)))
            for m, (b, B) in enumerate(zip(row, full)):
                assert b * tail[j + m] * r_den == B * tail[0], (j, m)

    @pytest.mark.parametrize("Lambda", [-1.0, -0.01, 0.01, 0.1])
    @pytest.mark.parametrize(
        "corrupt,message",
        [
            # the recurrence of states 0..2 holds for any folds of degrees 0, 1 and 2 (n = 1 has
            # no third coefficient to fix Z against), so rows 1 and 2 reach the orthogonality check
            pytest.param(1, r"state 1 is not orthogonal to tau\*\*0", id="1"),
            pytest.param(2, r"state 2 is not orthogonal to tau\*\*0", id="2"),
            pytest.param(3, "state 3: fold coefficient 0 breaks the three-term recurrence", id="3"),
            pytest.param(4, "state 4: fold coefficient 0 breaks the three-term recurrence", id="4"),
        ],
    )
    def test_a_fold_off_the_recurrence_is_refused(self, monkeypatch, Lambda, corrupt, message):
        # one low coefficient of one state off by one: gram_matrix raises, never returns a matrix
        # (state 0 is a constant, whose scale the recurrence absorbs)
        monkeypatch.setattr(radial, "_folded_t_poly_exact", _constant_term_plus_one(corrupt))
        with pytest.raises(QuadratureFailure, match=message):
            radial.gram_matrix(0, Lambda, 4)

    @pytest.mark.parametrize("Lambda", [-0.5, 0.1, -0.01, 0.01])
    def test_a_wrong_fold_at_n_max_2_is_refused(self, monkeypatch, Lambda):
        # three folds always satisfy some recurrence; the lower moments of state 2 are not zeros
        # (taken into the off-diagonal, the wrong constant term gave G[0, 2] = 0.129 at Lambda = -0.5)
        monkeypatch.setattr(radial, "_folded_t_poly_exact", _constant_term_plus_one(2))
        with pytest.raises(QuadratureFailure, match="not orthogonal"):
            radial.gram_matrix(0, Lambda, 2)

    @pytest.mark.parametrize("Lambda", [-1e-3, 1e-3, -0.3])
    @pytest.mark.parametrize("n", [80, 160])
    def test_normalize_equals_the_full_hankel_sum(self, Lambda, n):
        # two derivations of one squared norm: the exact convolution, rounded once, and
        # normalize's closed form; both carry exp(log_m0), so they agree to a few ulps
        # of the log's terms, 5e-16 times the size of each, plus those of exp
        fold = radial._folded_t_poly_exact(n, 0, Lambda)
        prefactor, *ratios = radial._moments(Lambda, 0, 2 * n)
        total = _convolved(fold, fold, ratios)
        sq, est = radial._rounded(total.numerator, total.denominator, prefactor)
        _, size = radial._log_norm_sq(n, 0, Lambda, prefactor)
        c = radial.normalize(radial.build_state(n, 0, Lambda)).norm_const
        assert abs(c * c * sq - 1.0) <= est / sq + 1e-15 + 5e-16 * size


def _ref_s_n(n, L, Lambda):
    """s_n = (a+1)_n (b+1)_n (a+b+1) / (n! (a+b+1)_n (2n+a+b+1)), a = L + 1/2 and
    b = -1/Lambda - 1/2, as a Fraction by its n Pochhammer steps."""
    lam = Fraction(Lambda)
    a, b = L + Fraction(1, 2), -1 / lam - Fraction(1, 2)
    num, den = a + b + 1, 2 * n + a + b + 1
    for k in range(n):
        num *= (a + 1 + k) * (b + 1 + k)
        den *= (k + 1) * (a + b + 1 + k)
    return num / den


class TestClosedFormNorm:
    """normalize's squared norm exp(log_m0) s_n against the exact one: the rational
    c_n B_n[n] / (d**2 r_den) that the exact layer sums for it is s_n, the Jacobi
    h_n over M_0 at Lambda < 0 and its continuation to b < -1 at Lambda > 0."""

    @pytest.mark.parametrize("Lambda", [-7.0, -0.3, -1e-3, -1e-6, 1e-6, 1e-3, 0.0123, 0.1])
    @pytest.mark.parametrize("L", [0, 3])
    def test_exact_squared_norm_is_s_n(self, Lambda, L):
        ns = list(range(0, 61, 3))
        if Lambda > 0:
            top = bound_state_count(Lambda, L).count - 1
            ns = sorted({n for n in ns if n < top} | ({top} if top <= 60 else set()))
        _, ratios, r_den = radial._moments(Lambda, L, 2 * ns[-1])
        for n in ns:
            c, d = radial._folded_t_poly_exact(n, L, Lambda)
            (b,) = radial._modified_moments(c, ratios, range(n, n + 1))
            assert Fraction(c[n] * b, d * d * r_den) == _ref_s_n(n, L, Lambda), n


class TestTFormCrossCheck:
    """The Lambda > 0 integral three ways, as rationals R with the integral
    exp(log_m0) R: radial's tau form, the z form, and the t form that tau replaced.
    The t form folds lam**n (1+x)**n times state n, so a pair of total degree D
    takes the weight (1-x)^a (1+x)^(b-D) and the prefactor lam**-D; since
    (1+x)**-D = (z/2)**D, its M_0 is 2**-D times the common M_0 times the z
    table's ratio D, and R = R_t rho_D / (2 lam)**D exactly.  With one log
    prefactor the floats agree too.  (The t form's own lgamma prefactor
    cancelled terms of size log(1/Lambda)/Lambda; over these draws it was
    1.7e-12 off at Lambda = 1.1e-3.)"""

    @pytest.mark.parametrize(
        "L,Lambda,n_max", [d for seed in (14, 15, 16) for d in _grid(seed, 40) if d[1] > 0 and bound_state_count(d[1], d[0]).count]
    )
    def test_same_integral(self, L, Lambda, n_max):
        lam = Fraction(Lambda)
        n_top = min(n_max, bound_state_count(Lambda, L).count - 1)
        states = [radial.build_state(n, L, Lambda) for n in range(n_top + 1)]
        t_folds = [_ref_over_common_denominator(_ref_folded_t(st)) for st in states]
        z_folds = [_ref_over_common_denominator(_ref_folded_z(st)) for st in states]
        rho = _ref_z_ratios(*_ref_weight(Lambda, L), 2 * n_top + 1)
        z_ratios = _ref_over_common_denominator(rho)
        t_ratios = [_ref_over_common_denominator(_ref_t_ratios(*_ref_weight(Lambda, L, D), D + 1))
                    for D in range(2 * n_top + 1)]
        folds = [radial._folded_t_poly_exact(n, L, Lambda) for n in range(len(states))]
        prefactor, *tau_ratios = radial._moments(Lambda, L, 2 * n_top)
        for j in range(n_top + 1):
            for i in range(j + 1):
                D = i + j
                r_t = _convolved(t_folds[i], t_folds[j], t_ratios[D]) * rho[D] / (2 * lam) ** D
                assert _convolved(folds[i], folds[j], tau_ratios) == _convolved(z_folds[i], z_folds[j], z_ratios) == r_t
                value, _ = radial._rounded(r_t.numerator, r_t.denominator, prefactor)
                t_value = math.exp(prefactor[0]) * float(r_t)
                assert abs(value - t_value) <= 1e-13 * abs(t_value), (i, j)


class TestLogPrefactor:
    """``radial._log_m0`` sums terms that do not cancel; the lgamma form it
    replaced cancelled terms of size log(1/|Lambda|)/|Lambda| down to O(1)."""

    @pytest.mark.parametrize("L,Lambda,n_max", list(_grid(17, 40)))
    def test_equals_the_lgamma_form_where_it_does_not_cancel(self, L, Lambda, n_max):
        if bound_state_count(Lambda, L).count == 0:
            return
        a, b = _ref_weight(Lambda, L)
        big = abs(math.lgamma(float(b) + 1.0)) + abs(math.lgamma(float(a + b) + 2.0))
        assert abs(radial._log_m0(Lambda, L)[0] - _ref_log_m0_lgamma(Lambda, L)) <= 2e-16 * big + 4e-15

    @pytest.mark.parametrize("Lambda", [-2e-8, 2e-8, -1e-6, 1e-6, -1e-3, 1e-3, -0.0625, 0.0625, -0.3, 0.3, -5.0])
    @pytest.mark.parametrize("L", [0, 1, 4])
    def test_against_mpmath(self, Lambda, L):
        mp = pytest.importorskip("mpmath")
        if bound_state_count(Lambda, L).count == 0:
            return
        with mp.workdps(40):
            a, b = (mp.mpf(v.numerator) / v.denominator for v in _ref_weight(Lambda, L))
            exact = (-(a + 1) * mp.log(abs(mp.mpf(Lambda))) - mp.log(2)
                     + mp.loggamma(a + 1) + mp.loggamma(b + 1) - mp.loggamma(a + b + 2))
            assert abs(radial._log_m0(Lambda, L)[0] - float(exact)) <= 4e-15
