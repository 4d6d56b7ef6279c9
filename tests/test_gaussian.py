"""Tests for Gaussian moment/natural-parameter algebra.

The product-of-Gaussians integral is the workhorse of every combination
rule; it is checked here against adaptive quadrature and against hand closed
forms, including the exactness requirement at a single factor, and its
batched per-draw form against one call per draw.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracle_utils import quad_log_product_of_normals_1d

from splitevidence import (
    DomainError,
    GaussianMoments,
    SpdError,
    approx_isub,
    consensus_moments,
    log_product_integrals,
    natural_params,
)
from splitevidence.gaussian import batched_log_normalizer, chol_spd, sample_moments


def random_spd(rng, p, scale=1.0):
    a = rng.normal(size=(p, p))
    return scale * (a @ a.T + p * np.eye(p))


def closed_form_log_normalizer(eta, lam):
    """xi = -(p log 2pi - log|lam| + eta' lam^-1 eta) / 2 by slogdet and solve."""
    sign, logdet = np.linalg.slogdet(lam)
    assert sign > 0
    quad = float(eta @ np.linalg.solve(lam, eta))
    return -0.5 * (eta.shape[0] * math.log(2 * math.pi) - logdet + quad)


class TestNaturalConversion:
    def test_frozen_scalar_example(self):
        etas, lams = natural_params([GaussianMoments(mean=[2.0], cov=[[4.0]])])
        np.testing.assert_allclose(etas, [[0.5]], rtol=1e-14)
        np.testing.assert_allclose(lams, [[[0.25]]], rtol=1e-14)
        # xi = -(log 2pi - log 0.25 + 1)/2
        expected_xi = -0.5 * (math.log(2 * math.pi) - math.log(0.25) + 1.0)
        np.testing.assert_allclose(
            batched_log_normalizer(etas[0], lams), [expected_xi], rtol=1e-14
        )

    @given(seed=st.integers(0, 10_000), p=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, p):
        # pooling a single factor goes to natural form and back
        rng = np.random.default_rng(seed)
        m = GaussianMoments(mean=rng.normal(size=p), cov=random_spd(rng, p))
        back = consensus_moments([m])
        np.testing.assert_allclose(back.mean, m.mean, atol=1e-10)
        np.testing.assert_allclose(back.cov, m.cov, atol=1e-10)

    def test_stacked_shapes(self):
        rng = np.random.default_rng(4)
        parts = [
            GaussianMoments(mean=rng.normal(size=3), cov=random_spd(rng, 3))
            for _ in range(5)
        ]
        etas, lams = natural_params(parts)
        assert etas.shape == (5, 3) and lams.shape == (5, 3, 3)
        for m, eta, lam in zip(parts, etas, lams):
            np.testing.assert_allclose(lam, np.linalg.inv(m.cov), rtol=1e-10)
            np.testing.assert_allclose(eta, np.linalg.solve(m.cov, m.mean), rtol=1e-10)


class TestProductIntegral:
    def test_two_unit_normals_frozen(self):
        parts = [
            GaussianMoments(mean=[0.0], cov=[[1.0]]),
            GaussianMoments(mean=[2.0], cov=[[1.0]]),
        ]
        expected = stats.norm.logpdf(2.0, loc=0.0, scale=math.sqrt(2.0))
        np.testing.assert_allclose(approx_isub(parts), expected, rtol=1e-13)

    def test_single_factor_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for p in (1, 3):
            m = GaussianMoments(mean=rng.normal(size=p), cov=random_spd(rng, p))
            assert approx_isub([m]) == 0.0
            lams = np.stack([random_spd(rng, p) for _ in range(7)])[None]
            assert np.all(log_product_integrals(rng.normal(size=(1, p)), lams) == 0.0)

    @pytest.mark.parametrize("n_parts", [2, 3, 5])
    def test_matches_quadrature_1d(self, n_parts):
        rng = np.random.default_rng(100 + n_parts)
        for _ in range(10):
            means = rng.uniform(-3, 3, size=n_parts)
            sds = rng.uniform(0.3, 2.5, size=n_parts)
            parts = [
                GaussianMoments(mean=[m], cov=[[s**2]]) for m, s in zip(means, sds)
            ]
            expected = quad_log_product_of_normals_1d(means, sds)
            got = approx_isub(parts)
            assert abs(got - expected) < 1e-9

    def test_two_identical_bivariate_normals(self):
        # Product of two copies of N(mu, I2) integrates to N(mu | mu, 2 I2).
        mu = np.array([0.7, -0.2])
        parts = [GaussianMoments(mean=mu, cov=np.eye(2))] * 2
        expected = -math.log(4 * math.pi)
        np.testing.assert_allclose(approx_isub(parts), expected, rtol=1e-13)

    def test_mixed_dimensions_rejected(self):
        parts = [
            GaussianMoments(mean=[0.0], cov=[[1.0]]),
            GaussianMoments(mean=[0.0, 0.0], cov=np.eye(2)),
        ]
        with pytest.raises(DomainError):
            approx_isub(parts)
        with pytest.raises(DomainError):
            consensus_moments(parts)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            approx_isub([])
        with pytest.raises(DomainError):
            consensus_moments([])
        with pytest.raises(DomainError):
            log_product_integrals(np.zeros((0, 2)), np.zeros((0, 1, 2, 2)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_natural_and_moment_forms_agree(self, seed):
        # the kernel on natural parameters inverted here by numpy matches
        # approx_isub on the moments
        rng = np.random.default_rng(seed)
        p, S = 3, 4
        parts = [
            GaussianMoments(mean=rng.normal(size=p), cov=random_spd(rng, p))
            for _ in range(S)
        ]
        lams = np.stack([np.linalg.inv(m.cov) for m in parts])
        etas = np.einsum("sij,sj->si", lams, np.stack([m.mean for m in parts]))
        via_natural = log_product_integrals(etas, lams[:, None])
        assert via_natural.shape == (1,)
        np.testing.assert_allclose(approx_isub(parts), via_natural[0], rtol=1e-10)

    @given(seed=st.integers(0, 10_000), n_parts=st.integers(1, 6), p=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_single_draw_calls(self, seed, n_parts, p):
        rng = np.random.default_rng(seed)
        n_draws = 6
        etas = rng.normal(size=(n_parts, p))
        lams = np.stack(
            [[random_spd(rng, p) for _ in range(n_draws)] for _ in range(n_parts)]
        )
        batch = log_product_integrals(etas, lams)
        assert batch.shape == (n_draws,)
        single = [log_product_integrals(etas, lams[:, n : n + 1])[0] for n in range(n_draws)]
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)


class TestConsensus:
    def test_two_scalar_gaussians(self):
        parts = [
            GaussianMoments(mean=[0.0], cov=[[1.0]]),
            GaussianMoments(mean=[2.0], cov=[[0.5]]),
        ]
        pooled = consensus_moments(parts)
        lam = 1.0 + 2.0
        np.testing.assert_allclose(pooled.cov, [[1.0 / lam]], rtol=1e-13)
        np.testing.assert_allclose(pooled.mean, [(0.0 + 4.0) / lam], rtol=1e-13)

    @given(seed=st.integers(0, 10_000), n_parts=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_identical_parts_shrink_covariance(self, seed, n_parts):
        rng = np.random.default_rng(seed)
        m = GaussianMoments(mean=rng.normal(size=2), cov=random_spd(rng, 2))
        pooled = consensus_moments([m] * n_parts)
        np.testing.assert_allclose(pooled.mean, m.mean, atol=1e-9)
        np.testing.assert_allclose(pooled.cov, m.cov / n_parts, atol=1e-9)


class TestSpdChecks:
    def test_not_positive_definite_reports_min_eigenvalue(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SpdError) as excinfo:
            chol_spd(bad)
        np.testing.assert_allclose(excinfo.value.min_eigenvalue, -1.0, atol=1e-12)

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(SpdError):
            chol_spd(bad)

    @pytest.mark.parametrize(
        "bad, problem",
        [
            pytest.param([[1.0, 0.5], [0.0, 1.0]], "is not symmetric to tolerance 1e-10",
                         id="asymmetric"),
            pytest.param([[1.0, 2.0], [2.0, 1.0]], "is not positive definite", id="indefinite"),
        ],
    )
    def test_stack_names_first_bad_matrix(self, bad, problem):
        # records 3 and 5 fail; the error names record 3, counted from 1
        stack = np.stack([np.eye(2)] * 2 + [bad, np.eye(2), bad])
        with pytest.raises(SpdError, match=f"^precision of record 3 {problem}"):
            chol_spd(stack, what="precision", item="of record")
        lows = chol_spd(stack[:2], what="precision", item="of record")
        np.testing.assert_array_equal(lows, stack[:2])

    def test_stack_with_two_leading_axes_names_both_indices(self):
        stack = np.stack([np.eye(2)] * 6).reshape(2, 3, 2, 2)
        stack[1, 2] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(SpdError, match="^precision record 2,3 is not positive definite"):
            chol_spd(stack, what="precision", item="record")

    def test_empty_matrix_passes(self):
        assert chol_spd(np.zeros((0, 0))).shape == (0, 0)

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(SpdError, match="is not finite"):
            chol_spd(bad)
        with pytest.raises(SpdError, match="record 2 is not finite"):
            chol_spd(np.stack([np.eye(2), np.diag([np.inf, 1.0])]), item="record")

    def test_moments_shape_mismatch(self):
        with pytest.raises(DomainError):
            GaussianMoments(mean=[0.0, 1.0], cov=[[1.0]])


class TestSampleMoments:
    def test_matches_numpy(self):
        draws = np.random.default_rng(4).normal(size=(50, 3)) @ random_spd(
            np.random.default_rng(5), 3
        )
        mom = sample_moments(draws)
        np.testing.assert_allclose(mom.mean, np.mean(draws, axis=0), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(mom.cov, np.cov(draws, rowvar=False, ddof=1), rtol=1e-12)
        np.testing.assert_array_equal(mom.cov, mom.cov.T)


class TestBatchedNormalizer:
    def test_matches_loop(self):
        rng = np.random.default_rng(21)
        p, n = 3, 8
        eta = rng.normal(size=p)
        lams = np.stack([random_spd(rng, p) for _ in range(n)])
        batch = batched_log_normalizer(eta, lams)
        loop = [closed_form_log_normalizer(eta, lams[i]) for i in range(n)]
        np.testing.assert_allclose(batch, loop, rtol=1e-11)

    def test_non_spd_record_aborts(self):
        eta = np.zeros(2)
        lams = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)])
        with pytest.raises(SpdError, match="precision record 2 is not positive definite"):
            batched_log_normalizer(eta, lams)
