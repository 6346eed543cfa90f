"""Stencil construction: constraint solutions, residuals, bandwidth rule."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgrad.errors import DomainError
from lpgrad.estimator import EstimatorConfig
from lpgrad.sampler import DirectionLaw, RadialLaw
from lpgrad.scheme import build_scheme, one_point, two_point_central


class TestBuildScheme:
    def test_central_two_point_exact(self):
        s = build_scheme([1.0, -1.0])
        assert s.coeffs.tolist() == [0.5, -0.5]
        assert s.l == 2

    def test_singleton(self):
        s = one_point()
        assert s.coeffs.tolist() == [1.0]

    def test_low_order_1_2(self):
        # hand solution of C1 + C2 = 0, C1 + 2 C2 = 1
        s = build_scheme([1.0, 2.0])
        np.testing.assert_allclose(s.coeffs, [-1.0, 1.0], atol=1e-14)

    def test_swapped_betas_permute_coeffs(self):
        a = build_scheme([1.0, -1.0])
        b = build_scheme([-1.0, 1.0])
        np.testing.assert_allclose(a.coeffs, b.coeffs[::-1], atol=1e-14)

    def test_low_order_coeff_sum_vanishes(self):
        s = build_scheme([0.5, -1.0, 2.0])
        assert abs(s.coeffs.sum()) < 1e-12

    def test_repeated_betas(self):
        with pytest.raises(DomainError):
            build_scheme([1.0, 1.0])

    def test_ill_conditioned_warns(self, caplog):
        build_scheme([1.0, 1.0 + 1e-13])
        [record] = caplog.records
        assert (record.name, record.levelname) == ("lpgrad", "WARNING")
        assert record.getMessage().startswith("stencil constraint system is ill-conditioned (cond ~ ")
        assert record.pathname == __file__  # the caller of build_scheme

    def test_degenerate_low_order_single(self):
        # the r=0 constraint forces C = 0 for a lone offset, a stencil
        # whose every estimate is zero; L=1 is one_point() instead
        for betas in ([2.0], [1.0], []):
            with pytest.raises(DomainError, match="one_point"):
                build_scheme(betas)

    @given(
        betas=st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_residuals_random_betas(self, betas):
        arr = np.sort(np.asarray(betas))
        assume(np.min(np.diff(arr)) > 0.05)
        s = build_scheme(betas)
        powers = np.arange(s.l)[:, None]  # max_r |sum_l C_l beta_l^r - delta_{1,r}|, r = 0..L-1
        assert np.abs(s.betas**powers @ s.coeffs - (powers[:, 0] == 1)).max() <= 1e-10

    def test_helpers(self):
        assert one_point().betas.tolist() == [1.0]
        assert two_point_central().coeffs.tolist() == [0.5, -0.5]


class TestValidateBandwidth:
    """EstimatorConfig warns when max_l |beta_l| * h * sigma exceeds 1/2."""

    @staticmethod
    def warnings_of(caplog, scheme, h, sigma) -> list:
        caplog.clear()
        EstimatorConfig(scheme=scheme, law=DirectionLaw("sphere", 2.0),
                        radial=RadialLaw("uniform", sigma), n=4, h=h)
        return [r.getMessage() for r in caplog.records if r.name == "lpgrad" and r.levelname == "WARNING"]

    def test_benchmark_configuration(self, caplog):
        assert self.warnings_of(caplog, one_point(), 1e-4, 1e-4) == []

    def test_too_large(self, caplog):
        [message] = self.warnings_of(caplog, one_point(), 1.0, 1.0)
        assert message.startswith("beta_max * h * sigma = 1 exceeds 1/2")

    def test_boundary_inclusive(self, caplog):
        assert self.warnings_of(caplog, build_scheme([2.0, -1.0]), 0.25, 1.0) == []
        assert self.warnings_of(caplog, build_scheme([2.0, -1.0]), 0.25 * (1 + 1e-15), 1.0) != []
