"""Tensor metric: generalized inverse, norm fields, file loading."""
import json
import math

import numpy as np
import pytest

from lpgrad.errors import DomainError
from lpgrad.metric import (
    apply_inverse,
    exp_corr_metric,
    from_matrix,
    identity_metric,
    load_matrix,
)


class TestIdentityMetric:
    def test_fields(self):
        m = identity_metric(10)
        assert m.is_identity
        assert m.abs_ginv_ones_l2 == pytest.approx(math.sqrt(10))

    def test_d1(self):
        m = identity_metric(1)
        assert m.abs_ginv_ones_l2 == 1.0

    def test_apply_is_copy(self):
        m = identity_metric(3)
        v = np.array([1.0, 2.0, 3.0])
        out = apply_inverse(m, v)
        np.testing.assert_array_equal(out, v)
        assert out is not v


class TestFromMatrix:
    def test_identity_matches_marker(self):
        a = from_matrix(np.eye(4))
        b = identity_metric(4)
        np.testing.assert_allclose(a.ginv, np.eye(4), atol=1e-14)
        assert a.abs_ginv_ones_l2 == pytest.approx(b.abs_ginv_ones_l2)

    def test_diagonal(self):
        m = from_matrix(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(m.ginv, np.diag([0.25, 1.0]), atol=1e-14)
        assert m.abs_ginv_ones_l2 == pytest.approx(math.sqrt(1.0 / 16.0 + 1.0))
        np.testing.assert_allclose(apply_inverse(m, [4.0, 3.0]), [1.0, 3.0], atol=1e-14)

    def test_singular_pseudo_inverse(self):
        m = from_matrix(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(m.ginv, np.diag([1.0, 0.0]), atol=1e-12)

    def test_generalized_inverse_property(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(6, 6))
            g = a @ a.T
            m = from_matrix(g)
            np.testing.assert_allclose(m.g @ m.ginv @ m.g, m.g, atol=1e-8)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        g = a @ a.T + 0.5 * np.eye(5)
        m = from_matrix(g)
        v = rng.normal(size=5)
        np.testing.assert_allclose(apply_inverse(m, g @ v), v, atol=1e-8)

    def test_norm_fields_brute_force(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        m = from_matrix(a @ a.T + np.eye(4))
        row = np.abs(m.ginv) @ np.ones(4)
        np.testing.assert_allclose(m.abs_ginv_ones_l2, np.linalg.norm(row), rtol=1e-12)

    def test_remark_norm_inequality(self):
        m = exp_corr_metric(8, 0.5)
        assert m.abs_ginv_ones_l2 <= math.sqrt(8) * np.linalg.norm(m.ginv, 2) + 1e-12

    def test_non_symmetric_rejected(self):
        with pytest.raises(DomainError):
            from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            from_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # a NaN used to become an all-zero inverse
        with pytest.raises(DomainError, match="non-finite"):
            from_matrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_indefinite_rejected(self):
        # the -1 eigenvalue used to be dropped silently
        with pytest.raises(DomainError, match="semidefinite"):
            from_matrix(np.diag([1.0, -1.0]))


class TestExpCorrMetric:
    def test_d1(self):
        m = exp_corr_metric(1, 0.5)
        np.testing.assert_allclose(m.g, [[1.0]])

    def test_d2_hand_value(self):
        m = exp_corr_metric(2, 0.5)
        np.testing.assert_allclose(m.g, [[1.25, 1.0], [1.0, 1.25]], atol=1e-14)

    def test_d10_inverse_consistency(self):
        m = exp_corr_metric(10, 0.5)
        np.testing.assert_allclose(m.g @ m.ginv, np.eye(10), atol=1e-8)
        v = np.ones(10)
        np.testing.assert_allclose(apply_inverse(m, m.g @ v), v, atol=1e-8)

    def test_rho_zero_is_identity(self):
        m = exp_corr_metric(6, 0.0)
        np.testing.assert_allclose(m.g, np.eye(6), atol=1e-15)
        assert m.abs_ginv_ones_l2 == pytest.approx(math.sqrt(6))

    @pytest.mark.parametrize("d,rho", [(200, 0.99), (200, -0.99), (50, 0.999)])
    def test_near_singular_accepted(self, d, rho):
        # C C is PSD; rounding must not trip the indefiniteness check
        m = exp_corr_metric(d, rho)
        assert np.isfinite(m.ginv).all()

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rho_domain(self, rho):
        with pytest.raises(DomainError):
            exp_corr_metric(3, rho)


class TestApplyInverse:
    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_inverse(identity_metric(3), [1.0, 2.0])


class TestLoadMatrix:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n1.0,0.5\n0.5,1.0\n")
        np.testing.assert_allclose(load_matrix(path), [[1.0, 0.5], [0.5, 1.0]])

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("2.0,0.0\n0.0,3.0\n")
        np.testing.assert_allclose(load_matrix(path), np.diag([2.0, 3.0]))

    def test_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[4.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(load_matrix(path), np.diag([4.0, 1.0]))

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(DomainError):
            load_matrix(path)
