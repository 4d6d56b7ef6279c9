import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitevidence import (
    Dataset,
    DomainError,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    approx_isub,
    epsilon_metrics,
    error_table_metrics,
    exact_evidence_conjugate_gaussian,
    exact_local_evidence,
    exact_local_moments,
    log_alpha,
    make_synthetic,
    quadrature_isub_oracle,
    whole_shard,
)
from splitevidence.diagnostics import (
    SCENARIOS,
    conjugate_posterior_moments,
    quadrature_subposterior_summary,
)

from oracle_utils import exact_log_evidence_linear_gaussian


def _random_conjugate(rng, n, p):
    X = rng.standard_normal((n, p))
    theta = rng.standard_normal(p)
    noise_var = float(rng.uniform(0.5, 2.0))
    y = X @ theta + math.sqrt(noise_var) * rng.standard_normal(n)
    m0 = rng.standard_normal(p)
    a = rng.standard_normal((p, p))
    V0 = a @ a.T + p * np.eye(p)
    return X, y, m0, V0, noise_var


class TestConjugateClosedForms:
    def test_evidence_matches_direct_mvn(self):
        # the p-dimensional form must agree with the n-dimensional
        # marginal N(X m0, X V0 X' + sigma^2 I) evaluated directly
        rng = np.random.default_rng(42)
        for p in (1, 3):
            for _ in range(5):
                X, y, m0, V0, nv = _random_conjugate(rng, 40, p)
                got = exact_evidence_conjugate_gaussian(X, y, m0, V0, nv)
                want = exact_log_evidence_linear_gaussian(X, y, m0, V0, nv)
                assert got == pytest.approx(want, abs=1e-8)

    def test_posterior_moments_satisfy_normal_equations(self):
        rng = np.random.default_rng(1)
        X, y, m0, V0, nv = _random_conjugate(rng, 60, 3)
        mom = conjugate_posterior_moments(X, y, m0, V0, nv)
        prec = X.T @ X / nv + np.linalg.inv(V0)
        rhs = X.T @ y / nv + np.linalg.inv(V0) @ m0
        assert np.allclose(prec @ mom.mean, rhs, atol=1e-9)
        assert np.allclose(mom.cov, np.linalg.inv(prec), atol=1e-10)

    def test_local_wrappers_require_conjugacy(self):
        data, models = make_synthetic("logistic_basic", seed=0)
        with pytest.raises(DomainError):
            exact_local_evidence(models[0], whole_shard(data), 1)
        with pytest.raises(DomainError):
            exact_local_moments(models[0], whole_shard(data), 1)

    def test_recombination_identity(self):
        data, models = make_synthetic("linear_conjugate", seed=2)
        model = models[0]
        truth = exact_evidence_conjugate_gaussian(
            data.X, data.y, model.prior.mean, model.prior.cov, 1.0
        )
        rows = np.arange(data.X.shape[0])
        for n_splits in (1, 4, 10):
            shards = [
                Shard(data, rows[s::n_splits], shard_id=s) for s in range(n_splits)
            ]
            total = n_splits * log_alpha(model, n_splits)
            total += sum(exact_local_evidence(model, sh, n_splits) for sh in shards)
            total += approx_isub(
                [exact_local_moments(model, sh, n_splits) for sh in shards]
            )
            assert total == pytest.approx(truth, abs=1e-9)

    def test_active_feature_subset(self):
        data, _ = make_synthetic("linear_conjugate", seed=0)
        prior = NormalPrior(mean=np.zeros(5), cov=np.eye(5))
        sub = ModelSpec(
            model_id="sub",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=prior,
            dim=5,
            active_features=(0, 2),
        )
        shard = whole_shard(data)
        got = exact_local_evidence(sub, shard, 1)
        want = exact_evidence_conjugate_gaussian(
            data.X[:, [0, 2]], data.y, np.zeros(2), np.eye(2), 1.0
        )
        assert got == pytest.approx(want, abs=1e-10)


class TestQuadratureOracles:
    def test_isub_matches_closed_form_1d(self):
        rng = np.random.default_rng(0)
        n = 300
        X = rng.standard_normal((n, 1))
        y = 0.8 * X[:, 0] + rng.standard_normal(n)
        data = Dataset(X=X, y=y)
        model = ModelSpec(
            model_id="m",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(1), cov=np.eye(1)),
            dim=1,
        )
        rows = np.arange(n)
        for n_splits in (2, 3):
            shards = [
                Shard(data, rows[s::n_splits], shard_id=s) for s in range(n_splits)
            ]
            closed = approx_isub(
                [exact_local_moments(model, sh, n_splits) for sh in shards]
            )
            quad = quadrature_isub_oracle(model, shards, n_splits)
            assert quad == pytest.approx(closed, abs=1e-8)

    def test_isub_2d_runs_and_is_stable(self):
        rng = np.random.default_rng(1)
        n = 400
        X = rng.standard_normal((n, 2))
        logits = X @ np.array([1.0, -0.7])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        data = Dataset(X=X, y=y)
        model = ModelSpec(
            model_id="g",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        shards = [Shard(data, np.arange(n)[s::2], shard_id=s) for s in range(2)]
        coarse = quadrature_isub_oracle(model, shards, 2, rel_tol=1e-6)
        fine = quadrature_isub_oracle(model, shards, 2, rel_tol=1e-10)
        assert abs(coarse - fine) < 1e-6

    def test_summary_matches_conjugate_moments(self):
        rng = np.random.default_rng(3)
        n = 200
        X = rng.standard_normal((n, 2))
        y = X @ np.array([0.5, -0.25]) + rng.standard_normal(n)
        data = Dataset(X=X, y=y)
        model = ModelSpec(
            model_id="m",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        shard = whole_shard(data)
        log_norm, mom = quadrature_subposterior_summary(model, shard, 2)
        assert log_norm == pytest.approx(exact_local_evidence(model, shard, 2), abs=1e-8)
        exact = exact_local_moments(model, shard, 2)
        assert np.allclose(mom.mean, exact.mean, atol=1e-8)
        assert np.allclose(mom.cov, exact.cov, atol=1e-8)

    def test_dimension_and_count_guards(self):
        data, models = make_synthetic("logistic_basic", seed=0)
        shard = whole_shard(data)
        with pytest.raises(DomainError):
            quadrature_subposterior_summary(models[0], shard, 1)
        with pytest.raises(DomainError):
            quadrature_isub_oracle(models[0], [shard], 2)


class TestEpsilonMetrics:
    def test_frozen_values(self):
        pair = epsilon_metrics(0.0, math.log(0.5), n_splits=4)
        assert pair.n_splits == 4
        assert pair.eps1 == pytest.approx(math.log(2.0))
        # |exp(0) - exp(log 0.5)| = 0.5
        assert pair.eps2 == pytest.approx(math.log(0.5))

    def test_close_log_values(self):
        pair = epsilon_metrics(-10.0, -10.1, n_splits=2)
        assert pair.eps1 == pytest.approx(0.1)
        assert pair.eps2 == pytest.approx(
            math.log(math.exp(-10.0) - math.exp(-10.1)), abs=1e-10
        )

    def test_exact_agreement_gives_minus_inf(self):
        pair = epsilon_metrics(-3.25, -3.25, n_splits=2)
        assert pair.eps1 == 0.0
        assert pair.eps2 == -math.inf

    def test_requires_finite_inputs(self):
        with pytest.raises(DomainError):
            epsilon_metrics(math.inf, 0.0, n_splits=1)
        with pytest.raises(DomainError):
            epsilon_metrics(0.0, math.nan, n_splits=1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.integers(1, 64),
    )
    def test_consistent_with_direct_computation(self, x, y, n_splits):
        pair = epsilon_metrics(x, y, n_splits)
        assert pair.eps1 == abs(x - y)
        if x != y:
            assert pair.eps2 <= max(x, y)
            # direct linear-domain check in 400-digit decimal arithmetic:
            # a float gap down to 5e-324 stays resolved next to exp(50)
            with decimal.localcontext(decimal.Context(prec=400)):
                gap = abs(decimal.Decimal(x).exp() - decimal.Decimal(y).exp())
                direct = float(gap.ln())
            assert pair.eps2 == pytest.approx(direct, rel=1e-6, abs=1e-9)
        # symmetry in the two arguments
        mirror = epsilon_metrics(y, x, n_splits)
        assert mirror.eps1 == pair.eps1
        assert mirror.eps2 == pair.eps2


class TestErrorTable:
    def test_frozen_report(self):
        report = error_table_metrics([2.0, 4.0], reference=1.0, n_splits=3)
        # errors 1 and 3: rmse sqrt(5), bias 2, var 2
        assert report.rmse == pytest.approx(math.sqrt(5.0))
        assert report.pct_rmse == pytest.approx(math.sqrt(5.0) * 100.0)
        assert report.bias_sq_over_var == pytest.approx(2.0)
        assert report.n_repetitions == 2
        assert report.n_splits == 3

    def test_symmetric_errors_have_zero_bias_ratio(self):
        report = error_table_metrics([2.0, 0.0], reference=1.0)
        assert report.rmse == pytest.approx(1.0)
        assert report.bias_sq_over_var == 0.0

    def test_negative_bias_signs_pct(self):
        report = error_table_metrics([-4.0, -6.0], reference=-2.0)
        assert report.pct_rmse < 0.0

    def test_degenerate_cases(self):
        constant = error_table_metrics([3.0, 3.0, 3.0], reference=1.0)
        assert constant.bias_sq_over_var == math.inf
        unbiased_constant = error_table_metrics([1.0, 1.0], reference=1.0)
        assert unbiased_constant.bias_sq_over_var == 0.0
        assert unbiased_constant.rmse == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            error_table_metrics([], reference=0.0)
        with pytest.raises(DomainError):
            error_table_metrics([1.0], reference=0.0)
        with pytest.raises(DomainError):
            error_table_metrics([1.0, math.nan], reference=0.0)
        with pytest.raises(DomainError):
            error_table_metrics([1.0, 2.0], reference=math.inf)


class TestSyntheticScenarios:
    def test_deterministic_in_seed(self):
        for scenario in SCENARIOS:
            a, _ = make_synthetic(scenario, seed=5)
            b, _ = make_synthetic(scenario, seed=5)
            c, _ = make_synthetic(scenario, seed=6)
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.y, b.y)
            assert not np.array_equal(a.X, c.X)

    def test_toy_gaussian_shape_and_models(self):
        data, models = make_synthetic("toy_gaussian", seed=0)
        assert data.X.shape == (10_000, 17)
        assert len(models) == 6
        assert all(isinstance(m.likelihood, LinearLogNormalVar) for m in models)
        for k in range(5):
            assert models[k].n_coef == 16
            assert (k not in models[k].active)
        assert models[5].n_coef == 17
        assert models[5].theta_dim == 18
        # strongly correlated design
        corr = np.corrcoef(data.X[:, :4].T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.9) < 0.03)

    def test_rj_mixture_shape_and_models(self):
        data, models = make_synthetic("rj_mixture", seed=0)
        assert data.X.shape == (4000, 5)
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        ids = [m.model_id for m in models]
        assert ids == ["full", "m1", "m2", "m3"]
        by_id = {m.model_id: m for m in models}
        assert by_id["m1"].active == (0, 1, 2, 4)
        assert by_id["m2"].active == (0, 3, 4)
        assert by_id["m3"].active == (0, 1, 4)

    def test_logistic_basic(self):
        data, models = make_synthetic("logistic_basic", seed=1)
        assert data.X.shape == (10_000, 5)
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        assert len(models) == 1
        corr = np.corrcoef(data.X.T)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off - 0.5) < 0.05)

    def test_linear_conjugate(self):
        data, models = make_synthetic("linear_conjugate", seed=1)
        assert data.X.shape == (2000, 5)
        assert isinstance(models[0].likelihood, LinearKnownVar)

    def test_unknown_scenario(self):
        with pytest.raises(DomainError, match="unknown scenario"):
            make_synthetic("mystery", seed=0)
