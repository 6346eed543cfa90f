"""Stencil construction: constraint solutions, residuals, bandwidth rule."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgrad.errors import DomainError, SingularSchemeError
from lpgrad.scheme import (
    LOW_ORDER,
    SINGLETON,
    build_scheme,
    one_point,
    two_point_central,
    validate_bandwidth,
)


class TestBuildScheme:
    def test_central_two_point_exact(self):
        s = build_scheme([1.0, -1.0], LOW_ORDER)
        assert s.coeffs.tolist() == [0.5, -0.5]
        assert s.l == 2

    def test_singleton(self):
        s = build_scheme([1.0], SINGLETON)
        assert s.coeffs.tolist() == [1.0]

    def test_low_order_1_2(self):
        # hand solution of C1 + C2 = 0, C1 + 2 C2 = 1
        s = build_scheme([1.0, 2.0], LOW_ORDER)
        np.testing.assert_allclose(s.coeffs, [-1.0, 1.0], atol=1e-14)

    def test_swapped_betas_permute_coeffs(self):
        a = build_scheme([1.0, -1.0], LOW_ORDER)
        b = build_scheme([-1.0, 1.0], LOW_ORDER)
        np.testing.assert_allclose(a.coeffs, b.coeffs[::-1], atol=1e-14)

    def test_low_order_coeff_sum_vanishes(self):
        s = build_scheme([0.5, -1.0, 2.0], LOW_ORDER)
        assert abs(s.coeffs.sum()) < 1e-12

    def test_repeated_betas(self):
        with pytest.raises(SingularSchemeError):
            build_scheme([1.0, 1.0], LOW_ORDER)

    def test_odd_order_mode_rejected(self):
        # odd-order weights have sum C_l != 0 for L >= 2 (7/6 at offsets
        # 1, 2), so adding a constant to f would move the estimate
        with pytest.raises(DomainError):
            build_scheme([1.0, 2.0], "odd-order")

    def test_ill_conditioned_warns(self):
        with pytest.warns(RuntimeWarning):
            build_scheme([1.0, 1.0 + 1e-13], LOW_ORDER)

    def test_degenerate_low_order_single(self):
        # the r=0 range forces C = 0 for a lone offset; callers wanting a
        # usable one-point stencil use the singleton mode
        s = build_scheme([2.0], LOW_ORDER)
        assert s.coeffs.tolist() == [0.0]

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
        s = build_scheme(betas, LOW_ORDER)
        assert s.constraint_residual() <= 1e-10

    def test_helpers(self):
        assert one_point().mode == SINGLETON
        assert two_point_central().coeffs.tolist() == [0.5, -0.5]


class TestValidateBandwidth:
    def test_benchmark_configuration(self):
        s = one_point()
        assert validate_bandwidth(s, 1e-4, 1e-4)

    def test_too_large(self):
        assert not validate_bandwidth(one_point(), 1.0, 1.0)

    def test_boundary_inclusive(self):
        s = build_scheme([2.0, -1.0], LOW_ORDER)
        assert validate_bandwidth(s, 0.25, 1.0)
