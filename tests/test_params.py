import math

import pytest

from nlosc.errors import NonPositiveParameter, OutsideDomain
from nlosc.params import dimensionless, domain, make_model, mass_at


class TestMakeModel:
    def test_lam_zero_coupling(self):
        p = make_model(1.0, 1.0, 0.0, 1.0)
        assert p.coupling_g == 1.0

    def test_redefined_coupling(self):
        p = make_model(1.0, 2.0, 1.0, 1.0)
        assert p.coupling_g == pytest.approx(6.0, abs=0)

    @pytest.mark.parametrize(
        "m,alpha,hbar",
        [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)],
    )
    def test_rejects_nonpositive(self, m, alpha, hbar):
        with pytest.raises(NonPositiveParameter):
            make_model(m, alpha, 0.0, hbar)


class TestDimensionless:
    @pytest.mark.parametrize(
        "m,alpha,lam,expect_c,expect_lambda",
        [
            (1.0, 1.0, 0.5, 1.0, 0.5),
            (1.0, 4.0, 1.0, 0.5, 0.25),
            (2.0, 2.0, -8.0, 0.5, -2.0),
        ],
    )
    def test_scale_and_lambda(self, m, alpha, lam, expect_c, expect_lambda):
        d = dimensionless(make_model(m, alpha, lam))
        assert d.scale_C == pytest.approx(expect_c, rel=1e-15)
        assert d.Lambda == pytest.approx(expect_lambda, rel=1e-15)

    @pytest.mark.parametrize("lam", [-3.0, -0.1, 0.0, 0.7, 12.0])
    def test_round_trip(self, lam):
        p = make_model(1.7, 0.9, lam, 1.3)
        d = dimensionless(p)
        if lam != 0.0:
            assert d.Lambda / d.scale_C**2 == pytest.approx(lam, rel=1e-14)


class TestDomain:
    def test_negative_lambda_finite(self):
        d = domain(-0.25)
        assert d.finite
        assert d.upper == pytest.approx(2.0, rel=1e-15)
        assert d.lower == 0.0

    @pytest.mark.parametrize("Lambda", [1.0, 0.0])
    def test_half_line(self, Lambda):
        d = domain(Lambda)
        assert not d.finite
        assert math.isinf(d.upper)

    @pytest.mark.parametrize("Lambda", [-2.0, -0.5, -1e-4, 0.0, 0.3, 5.0])
    def test_finite_iff_negative(self, Lambda):
        assert domain(Lambda).finite == (Lambda < 0)


class TestMassAt:
    def test_origin(self):
        p = make_model(1.6, 1.0, 3.0)
        assert mass_at(0.0, p) == pytest.approx(1.6, abs=0)

    def test_positive_lam(self):
        p = make_model(1.0, 1.0, 1.0)
        assert mass_at(1.0, p) == pytest.approx(0.5, rel=1e-15)

    def test_boundary_rejected(self):
        p = make_model(1.0, 1.0, -0.25)
        with pytest.raises(OutsideDomain):
            mass_at(2.0, p)
