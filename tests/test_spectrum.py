from fractions import Fraction

import pytest

from nlosc.params import make_model
from nlosc.spectrum import (
    QuantumNumbers,
    bound_state_count,
    energy_dimensional,
    energy_dimless,
    energy_dimless_exact,
    ho_energy,
    is_admissible,
)


class TestEnergyDimless:
    @pytest.mark.parametrize("Lambda", [-3.0, -1.0, 0.0, 0.2, 7.0])
    def test_ground_state(self, Lambda):
        assert energy_dimless(0, 0, Lambda) == 1.5

    def test_first_excited_negative(self):
        assert energy_dimless(1, 0, -1.0) == pytest.approx(7.5, abs=0)

    def test_positive_lambda_value(self):
        assert energy_dimless(1, 1, 0.05) == pytest.approx(4.175, rel=1e-15)

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("L", range(11))
    def test_lambda_zero_is_ho(self, n, L):
        assert energy_dimless(n, L, 0.0) == ho_energy(n, L)

    @pytest.mark.parametrize("Lambda", [Fraction(-2), Fraction(-1), Fraction(1, 10), Fraction(2, 5)])
    def test_exact_shift_identity(self, Lambda):
        for n in range(11):
            for L in range(11):
                shift = energy_dimless_exact(n, L, Lambda) - Fraction(4 * n + 2 * L + 3, 2)
                assert shift == -Lambda * (2 * n * n + 2 * L * n + 2 * n + Fraction(L, 2))

    def test_monotone_in_n_for_negative_lambda(self):
        for Lambda in (-2.0, -0.5):
            es = [energy_dimless(n, 3, Lambda) for n in range(51)]
            assert all(b > a for a, b in zip(es, es[1:]))


class TestAdmissibility:
    def test_boundary_cases(self):
        assert is_admissible(4, 0, 0.1)
        assert not is_admissible(4, 1, 0.1)  # n < 4 fails, strict

    def test_negative_lambda_unrestricted(self):
        assert is_admissible(100, 5, -2.0)

    def test_counts(self):
        assert bound_state_count(0.1, 0).count == 5
        assert bound_state_count(1.0, 0).count == 0
        assert bound_state_count(-0.5, 3).unbounded

    @pytest.mark.parametrize("L", range(6))
    def test_zero_count_threshold(self, L):
        assert bound_state_count(1.0 / (1 + L), L).count == 0
        just_below = 1.0 / (1 + L) - 1e-6
        c = bound_state_count(just_below, L).count
        assert c >= 0
        assert (c >= 1) == is_admissible(0, L, just_below)

    @pytest.mark.parametrize("Lambda,L", [(0.1, 0), (0.1, 2), (0.04, 1), (0.003, 0)])
    def test_count_matches_enumeration(self, Lambda, L):
        enumerated = sum(1 for n in range(1001) if is_admissible(n, L, Lambda))
        assert bound_state_count(Lambda, L).count == enumerated


class TestQuantumNumbers:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0)
        with pytest.raises(ValueError):
            QuantumNumbers(0, -2)

    @pytest.mark.parametrize("Lambda", [-0.5, 0.1])
    def test_bound_state_count_rejects_negative_L(self, Lambda):
        with pytest.raises(ValueError, match="^quantum numbers must be nonnegative, got L = -1$"):
            bound_state_count(Lambda, -1)


class TestEnergyDimensional:
    def test_zero_shift(self):
        E, shifted = energy_dimensional(1.5, make_model(1.0, 1.0, 0.0))
        assert (E, shifted) == (1.5, 1.5)

    def test_positive_lam_shift(self):
        E, shifted = energy_dimensional(1.5, make_model(1.0, 2.0, 1.0))
        assert E == pytest.approx(3.0, abs=0)
        assert shifted == pytest.approx(2.5, abs=0)

    def test_negative_lam_shift(self):
        E, shifted = energy_dimensional(7.5, make_model(1.0, 1.0, -1.0))
        assert E == pytest.approx(7.5, abs=0)
        assert shifted == pytest.approx(8.0, abs=0)


class TestHoEnergy:
    def test_values(self):
        assert ho_energy(0, 0) == 1.5
        assert ho_energy(1, 2) == 5.5
