"""Tests for Polya-Gamma sampling, RWMH, PG-Gibbs and Laplace fits."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from oracle_utils import sample_pg_truncated, sample_pg_truncated_vec
from splitevidence import (
    ConfigurationError,
    Dataset,
    DomainError,
    EstimatorError,
    GaussianMoments,
    LaplacePrior,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    SpdError,
    log_subposterior_unnorm,
    whole_shard,
)
from splitevidence import samplers as samplers_module
from splitevidence.diagnostics import SCENARIOS, make_synthetic
from splitevidence.models import Shard, design
from splitevidence.sharding import uniform_split
from splitevidence.samplers import (
    Chain,
    ConditionalGaussianStream,
    SubposteriorDensity,
    chain_moments,
    laplace_fit,
    pg_gibbs_logistic,
    pg_mean,
    read_stream,
    rwmh_chain,
    sample_pg,
    sample_pg_vec,
    subposterior_closure,
    write_stream,
)


def pg_laplace_transform(t, c, n_terms=200_000):
    """E[exp(-t w)] for w ~ PG(1, c) from the infinite-product form."""
    k = np.arange(1, n_terms + 1)
    denom = (k - 0.5) ** 2 + c**2 / (4 * np.pi**2)
    return math.exp(-np.sum(np.log1p(t / (2 * np.pi**2 * denom))))


class TestPolyaGamma:
    def test_mean_identity_closed_form(self):
        # tanh(c/2)/(2c) against the series sum it must equal.
        for c in (0.1, 1.0, 5.0, 12.0):
            k = np.arange(1, 400_000)
            series = np.sum(1.0 / ((k - 0.5) ** 2 + c**2 / (4 * np.pi**2))) / (
                2 * np.pi**2
            )
            np.testing.assert_allclose(pg_mean(c), series, rtol=1e-5)
        np.testing.assert_allclose(pg_mean(0.0), 0.25, rtol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.1, 1.0, 5.0])
    def test_exact_sampler_mean(self, c):
        rng = np.random.default_rng(123)
        x = sample_pg_vec(np.full(150_000, c), rng)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - pg_mean(c)) < 5 * se

    @pytest.mark.parametrize("c", [0.0, 1.0, 5.0])
    def test_truncated_sampler_mean(self, c):
        rng = np.random.default_rng(456)
        x = sample_pg_truncated_vec(np.full(150_000, c), rng)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - pg_mean(c)) < 5 * se

    def test_variance_at_zero(self):
        # Var PG(1, 0) = 1/24.
        rng = np.random.default_rng(7)
        x = sample_pg_vec(np.zeros(300_000), rng)
        np.testing.assert_allclose(x.var(ddof=1), 1.0 / 24.0, rtol=0.02)

    @pytest.mark.parametrize("c", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_laplace_transform_both_samplers(self, c, t):
        rng = np.random.default_rng(1000)
        n = 120_000
        for sampler in (sample_pg_vec, sample_pg_truncated_vec):
            x = sampler(np.full(n, c), rng)
            emp = np.exp(-t * x)
            se = emp.std(ddof=1) / math.sqrt(n)
            assert abs(emp.mean() - pg_laplace_transform(t, c)) < 5 * se

    def test_sign_symmetry_in_c(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        a = sample_pg_vec(np.full(1000, 2.0), rng1)
        b = sample_pg_vec(np.full(1000, -2.0), rng2)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        c = np.linspace(0, 6, 500)
        a = sample_pg_vec(c, np.random.default_rng(99))
        b = sample_pg_vec(c, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_scalar_interfaces(self):
        rng = np.random.default_rng(3)
        assert isinstance(sample_pg(1.2, rng), float)
        assert isinstance(sample_pg_truncated(1.2, rng), float)
        assert sample_pg(0.7, rng) > 0

    def test_positivity(self):
        rng = np.random.default_rng(8)
        assert np.all(sample_pg_vec(np.linspace(0, 10, 5000), rng) > 0)

    def test_shapes(self):
        rng = np.random.default_rng(2)
        assert sample_pg_vec(np.zeros(0), rng).shape == (0,)
        assert sample_pg_vec(np.ones((3, 4)), rng).shape == (3, 4)
        assert sample_pg_vec(1.0, rng).shape == ()
        assert sample_pg_vec(np.float64(3.0), rng).shape == ()


def pg_variance(c):
    """Var PG(1, c) = (sinh c - c) / (4 c^3 cosh^2(c/2)), with the c -> 0 limit 1/24."""
    if c == 0.0:
        return 1.0 / 24.0
    return (math.sinh(c) - c) / (4.0 * c**3 * math.cosh(c / 2.0) ** 2)


def _draws_in_batches(c, batch, n_draws, seed):
    rng = np.random.default_rng(seed)
    calls = -(-n_draws // batch)
    return np.concatenate([sample_pg_vec(np.full(batch, c), rng) for _ in range(calls)])


def _check_pg_law(x, c, seed):
    n = x.size
    mean, var = pg_mean(c), pg_variance(c)
    assert abs(x.mean() - mean) < 5.0 * math.sqrt(var / n), (x.mean(), mean)
    centred = x - x.mean()
    var_se = math.sqrt((np.mean(centred**4) - np.mean(centred**2) ** 2) / n)
    assert abs(centred.var() - var) < 5.0 * var_se, (centred.var(), var)
    oracle = sample_pg_truncated_vec(
        np.full(n, c), np.random.default_rng(seed + 1), n_terms=1000, chunk=2000
    )
    assert stats.ks_2samp(x, oracle).pvalue > 1e-3


class TestPolyaGammaBatches:
    """Exactness of the oversampled sampler at the batch sizes PG-Gibbs uses.

    With z = |c|/2: c = 3.2 puts z at 1/0.64, where the two proposal tails
    meet (the classic switch between the left-tail proposals); c = 5 is
    z = _BIG_Z, where this sampler switches; c = 8 and 50 use the
    inverse-Gaussian left tail.
    """

    @pytest.mark.parametrize("c", [0.0, 0.3, 2.0, 3.2, 5.0, 8.0, 50.0])
    @pytest.mark.parametrize("batch", [1, 40, 625])
    def test_law_at_batch_size(self, batch, c):
        n = 2_000 if batch == 1 else 12_000
        seed = 17 * batch + int(10 * c)
        _check_pg_law(_draws_in_batches(c, batch, n, seed), c, seed)

    @pytest.mark.parametrize("c", [0.3, 3.2, 8.0])
    def test_law_with_one_proposal_per_pass(self, monkeypatch, c):
        # every pass, leftover passes included, draws one proposal per
        # entry, so an entry rejected in the first pass may take several
        monkeypatch.setattr(samplers_module, "_PASS_COLS", 1)
        _check_pg_law(_draws_in_batches(c, 625, 12_000, 5), c, 5)

    @pytest.mark.parametrize("c", [0.3, 3.2, 8.0])
    def test_law_through_the_squeeze_band(self, monkeypatch, c):
        # a low sure-accept bound sends a large share of proposals through
        # the exact q-and-series decision, which must not change the law
        monkeypatch.setattr(samplers_module, "_SURE_ACCEPT", 0.5)
        _check_pg_law(_draws_in_batches(c, 625, 12_000, 7), c, 7)

    @pytest.mark.parametrize("c", [0.3, 3.2, 8.0])
    def test_law_with_every_close_call_on_the_series(self, monkeypatch, c):
        # a wide slack sends a large share of proposals through the exact
        # alternating-series loop, which must not change the law
        monkeypatch.setattr(samplers_module, "_SERIES_SLACK", 0.3)
        _check_pg_law(_draws_in_batches(c, 625, 12_000, 6), c, 6)

    @pytest.mark.parametrize("q", [0.0, 1e-3, 1.7e-3, 0.05, 0.2])
    def test_series_decision_matches_the_full_sum(self, q):
        total = sum((-1) ** n * (2 * n + 1) * q ** (n * (n + 1) // 2) for n in range(60))
        for u in (1.0 - 3.0 * q + 1e-12, total - 1e-12, total + 1e-12, 1.0):
            if u > 1.0 - 3.0 * q:
                assert samplers_module._series_accepts(u, q) == (u <= total)


class TestRwmh:
    def test_gaussian_target_moments(self):
        # Independent Gaussian target: mean (1, -1), variances (2, 0.5).
        mean = np.array([1.0, -1.0])
        var = np.array([2.0, 0.5])

        def target(t):
            return float(-0.5 * np.sum((t - mean) ** 2 / var))

        chain = rwmh_chain(target, np.zeros(2), n_iter=50_000, burn_in=5_000, seed=1)
        np.testing.assert_allclose(chain.draws.mean(axis=0), mean, atol=0.1)
        np.testing.assert_allclose(chain.draws.var(axis=0, ddof=1), var, rtol=0.15)
        assert 0.15 <= chain.acceptance_rate <= 0.45

    def test_acceptance_rate_band_badly_scaled_start(self):
        # Tight target, wide initial proposal: adaptation must recover.
        def target(t):
            return float(-0.5 * np.sum(t**2) / 1e-4)

        chain = rwmh_chain(target, np.zeros(3), n_iter=20_000, burn_in=5_000, seed=2)
        assert 0.15 <= chain.acceptance_rate <= 0.45
        np.testing.assert_allclose(chain.draws.std(axis=0, ddof=1), 1e-2, rtol=0.3)

    def test_bit_identical_given_seed(self):
        def target(t):
            return float(-0.5 * np.sum(t**2))

        a = rwmh_chain(target, np.zeros(2), n_iter=3000, burn_in=500, seed=42)
        b = rwmh_chain(target, np.zeros(2), n_iter=3000, burn_in=500, seed=42)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    @pytest.mark.parametrize("burn_in", [0, 300])
    def test_acceptance_rate_counts_moves(self, burn_in):
        # Continuous target: a retained draw differs from the one before
        # exactly when its proposal was accepted.
        def target(t):
            return float(-0.5 * np.sum(t**2))

        init = np.array([0.3, -0.2])
        chain = rwmh_chain(target, init, n_iter=2000, burn_in=burn_in, seed=7)
        moved = int(np.any(np.diff(chain.draws, axis=0) != 0.0, axis=1).sum())
        accepted = round(chain.acceptance_rate * chain.n_retained)
        if burn_in == 0:
            assert accepted == moved + int(np.any(chain.draws[0] != init))
        else:  # the state before the first retained draw is not returned
            assert accepted in (moved, moved + 1)
        assert 0.05 < chain.acceptance_rate < 0.95

    def test_non_finite_start_rejected(self):
        def target(t):
            return float("-inf")

        with pytest.raises(EstimatorError):
            rwmh_chain(target, np.zeros(1), n_iter=100, burn_in=10, seed=0)

    def test_support_boundary_proposals_are_rejected(self):
        def target(t):
            if t[0] <= 0:
                return float("-inf")
            return float(-t[0])

        chain = rwmh_chain(target, np.ones(1), n_iter=5000, burn_in=1000, seed=5)
        assert np.all(chain.draws > 0)
        assert np.all(np.isfinite(chain.draws))

    def test_burn_in_bounds(self):
        def target(t):
            return 0.0

        with pytest.raises(DomainError):
            rwmh_chain(target, np.zeros(1), n_iter=100, burn_in=100, seed=0)


class TestChainMoments:
    def test_known_draws(self):
        draws = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        chain = Chain(draws=draws, burn_in=0, acceptance_rate=None, seed=0)
        mom = chain_moments(chain)
        np.testing.assert_allclose(mom.mean, [1.0, 1.0])
        np.testing.assert_allclose(mom.cov, (4.0 / 3.0) * np.eye(2))

    def test_too_few_draws(self):
        chain = Chain(draws=np.zeros((3, 2)), burn_in=0, acceptance_rate=None, seed=0)
        with pytest.raises(EstimatorError):
            chain_moments(chain)


def logistic_shard_1d(n=60, seed=0, theta_true=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    prob = 1.0 / (1.0 + np.exp(-x[:, 0] * theta_true))
    y = (rng.random(n) < prob).astype(float)
    data = Dataset(X=x, y=y)
    model = ModelSpec(
        model_id="logit1",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(1), cov=np.eye(1)),
        dim=1,
    )
    return model, whole_shard(data)


def quad_subposterior_moments_1d(model, shard, n_splits):
    """Mean and variance of a 1-d subposterior by adaptive quadrature."""
    def unnorm(t):
        return math.exp(log_subposterior_unnorm(model, np.array([t]), shard, n_splits))

    z0, _ = integrate.quad(unnorm, -10, 10, limit=200)
    m1, _ = integrate.quad(lambda t: t * unnorm(t), -10, 10, limit=200)
    m2, _ = integrate.quad(lambda t: t * t * unnorm(t), -10, 10, limit=200)
    mean = m1 / z0
    return mean, m2 / z0 - mean**2


class TestPgGibbs:
    def test_recovers_quadrature_moments(self):
        model, shard = logistic_shard_1d(n=60, seed=1)
        n_splits = 2
        mean_q, var_q = quad_subposterior_moments_1d(model, shard, n_splits)
        chain, stream = pg_gibbs_logistic(
            model, shard, n_splits, n_iter=8000, burn_in=2000, seed=3
        )
        draws = chain.draws[:, 0]
        # Conservative MC error bound: inflate the naive s.e. for autocorrelation.
        se = draws.std(ddof=1) / math.sqrt(draws.size / 10.0)
        assert abs(draws.mean() - mean_q) < 4 * se
        np.testing.assert_allclose(draws.var(ddof=1), var_q, rtol=0.2)
        assert stream.n_records == chain.n_retained == 6000
        assert chain.acceptance_rate is None

    def test_stream_reconstructs_conditional_means(self):
        model, shard = logistic_shard_1d(n=40, seed=2)
        chain, stream = pg_gibbs_logistic(
            model, shard, 1, n_iter=500, burn_in=100, seed=4
        )
        # Every conditional mean lam^-1 eta must be finite and near the draws.
        means = np.array(
            [np.linalg.solve(stream.precisions[i], stream.eta) for i in range(50)]
        )
        assert np.all(np.isfinite(means))
        assert abs(means.mean() - chain.draws[:, 0].mean()) < 0.5

    def test_requires_logistic_and_normal_prior(self):
        model, shard = logistic_shard_1d()
        linear = ModelSpec(
            model_id="lin",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(1), cov=np.eye(1)),
            dim=1,
        )
        with pytest.raises(ConfigurationError):
            pg_gibbs_logistic(linear, shard, 1, n_iter=10, burn_in=1, seed=0)
        lap = ModelSpec(
            model_id="lap",
            likelihood=LogisticLikelihood(),
            prior=LaplacePrior(scale=1.0),
            dim=1,
        )
        with pytest.raises(ConfigurationError):
            pg_gibbs_logistic(lap, shard, 1, n_iter=10, burn_in=1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_omega_raises_spd_error(self, monkeypatch, bad):
        model, shard = logistic_shard_1d(n=40, seed=2)
        shard = replace(shard, shard_id=3)

        def broken(c, rng):
            omega = sample_pg_vec(c, rng)
            omega[7] = bad
            return omega

        monkeypatch.setattr(samplers_module, "sample_pg_vec", broken)
        with pytest.raises(SpdError, match="conditional precision on shard 3 is not finite"):
            pg_gibbs_logistic(model, shard, 2, n_iter=20, burn_in=5, seed=0)

    def test_deterministic_given_seed(self):
        model, shard = logistic_shard_1d(n=30, seed=5)
        a, _ = pg_gibbs_logistic(model, shard, 2, n_iter=300, burn_in=50, seed=9)
        b, _ = pg_gibbs_logistic(model, shard, 2, n_iter=300, burn_in=50, seed=9)
        np.testing.assert_array_equal(a.draws, b.draws)


class TestStreamIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        precs = np.stack([np.eye(2) + 0.1 * i for i in range(5)])
        stream = ConditionalGaussianStream(eta=rng.normal(size=2), precisions=precs)
        path = tmp_path / "cond_0.ndjson"
        write_stream(stream, path)
        back = read_stream(path)
        np.testing.assert_array_equal(back.eta, stream.eta)
        np.testing.assert_array_equal(back.precisions, stream.precisions)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type":"rec","n":1,"prec_row_major":[1.0]}\n')
        from splitevidence import DecodeError

        with pytest.raises(DecodeError):
            read_stream(path)

    def test_out_of_order_records_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"type":"header","eta":[0.0]}\n'
            '{"type":"rec","n":2,"prec_row_major":[1.0]}\n'
        )
        from splitevidence import DecodeError

        with pytest.raises(DecodeError):
            read_stream(path)


class TestSubposteriorClosure:
    @pytest.mark.parametrize("prior_kind", ["normal", "laplace"])
    @pytest.mark.parametrize(
        "lik",
        [
            LogisticLikelihood(),
            LinearKnownVar(noise_var=1.7),
            LinearLogNormalVar(logsigma_mean=0.1, logsigma_sd=0.8),
        ],
    )
    def test_matches_reference_density(self, prior_kind, lik):
        rng = np.random.default_rng(12)
        n, p = 25, 3
        X = rng.normal(size=(n, p))
        if isinstance(lik, LogisticLikelihood):
            y = (rng.random(n) < 0.5).astype(float)
        else:
            y = rng.normal(size=n)
        data = Dataset(X=X, y=y)
        prior = (
            NormalPrior(mean=rng.normal(size=p), cov=np.eye(p) * 1.5)
            if prior_kind == "normal"
            else LaplacePrior(scale=0.9)
        )
        model = ModelSpec(model_id="m", likelihood=lik, prior=prior, dim=p)
        shard = whole_shard(data)
        for n_splits in (1, 4):
            target = subposterior_closure(model, shard, n_splits)
            for _ in range(5):
                theta = rng.normal(size=model.theta_dim)
                np.testing.assert_allclose(
                    target(theta),
                    log_subposterior_unnorm(model, theta, shard, n_splits),
                    rtol=1e-9,
                    atol=1e-9,
                )

        # A correlated prior covariance, feature subsets down to the empty
        # model that reversible jump visits, S=16, and coefficients large
        # enough that the logistic linear predictor saturates (|x| > 709).
        priors = [prior]
        if prior_kind == "normal":
            a = rng.normal(size=(p, p))
            priors.append(NormalPrior(mean=rng.normal(size=p), cov=a @ a.T + 0.5 * np.eye(p)))
        for prior in priors:
            for active in (None, (0, 2), ()):
                model = ModelSpec(
                    model_id="m", likelihood=lik, prior=prior, dim=p, active_features=active
                )
                for n_splits in (1, 4, 16):
                    target = subposterior_closure(model, shard, n_splits)
                    for coef_scale in (1.0, 1.0, 300.0):
                        theta = rng.normal(size=model.theta_dim)
                        theta[: model.n_coef] *= coef_scale
                        np.testing.assert_allclose(
                            target(theta),
                            log_subposterior_unnorm(model, theta, shard, n_splits),
                            rtol=1e-9,
                            atol=1e-9,
                        )


    @pytest.mark.parametrize("prior_kind", ["normal", "laplace"])
    @pytest.mark.parametrize("active", [None, (0, 2), ()], ids=["all", "0-2", "none"])
    @pytest.mark.parametrize("n_splits", [1, 16])
    def test_logistic_scalar_and_batch_share_one_formula(
        self, monkeypatch, prior_kind, active, n_splits
    ):
        rng = np.random.default_rng(13)
        n, p = 40, 3
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < 0.5).astype(float)
        a = rng.normal(size=(p, p))
        prior = (
            NormalPrior(mean=rng.normal(size=p), cov=a @ a.T + 0.5 * np.eye(p))
            if prior_kind == "normal"
            else LaplacePrior(scale=0.9)
        )
        model = ModelSpec(
            model_id="m", likelihood=LogisticLikelihood(), prior=prior, dim=p,
            active_features=active,
        )
        shard = whole_shard(Dataset(X=X, y=y))
        density = SubposteriorDensity(model, shard, n_splits)
        assert np.array_equal(density.X, design(model, shard))

        def unused(theta):
            raise AssertionError("the logistic density has its own prior block")

        monkeypatch.setattr(density, "_log_subprior", unused)
        for coef_scale in (1.0, 300.0):  # 300: linear predictors beyond 709
            theta = coef_scale * rng.normal(size=model.theta_dim)
            value = density(theta)
            assert isinstance(value, float)
            np.testing.assert_allclose(
                value, density.logpdf_batch(theta[None])[0], rtol=1e-12, atol=0.0
            )
            np.testing.assert_allclose(
                value, log_subposterior_unnorm(model, theta, shard, n_splits), rtol=1e-9
            )


LIKELIHOODS = [
    pytest.param(LogisticLikelihood(), id="logistic"),
    pytest.param(LinearKnownVar(noise_var=1.7), id="known_var"),
    pytest.param(LinearLogNormalVar(logsigma_mean=0.1, logsigma_sd=0.8), id="lognormal"),
]


def objective_problem(lik, prior_kind, rng, active=None):
    """Model and shard for checks of the Newton objective and its Hessian."""
    n, p = 80, 3
    X = rng.normal(size=(n, p))
    if isinstance(lik, LogisticLikelihood):
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = X @ rng.normal(size=p) + rng.normal(size=n)
    a = rng.normal(size=(p, p))
    prior = (
        NormalPrior(mean=rng.normal(size=p), cov=a @ a.T + 0.5 * np.eye(p))
        if prior_kind == "normal"
        else LaplacePrior(scale=0.9)
    )
    model = ModelSpec(
        model_id="m", likelihood=lik, prior=prior, dim=p, active_features=active
    )
    return model, whole_shard(Dataset(X=X, y=y))


class TestNegLogSubposteriorObjective:
    @pytest.mark.parametrize("prior_kind", ["normal", "laplace"])
    @pytest.mark.parametrize("lik", LIKELIHOODS)
    def test_gradient_matches_fd(self, lik, prior_kind):
        """Finite-difference gradient; the objective is minus the reference."""
        rng = np.random.default_rng(31)
        model, shard = objective_problem(lik, prior_kind, rng)
        n_splits = 4
        d = model.theta_dim
        fun = SubposteriorDensity(model, shard, n_splits).neg_and_grad
        h = 1e-6
        theta0 = rng.normal(size=d)
        for _ in range(4):
            theta = rng.normal(size=d)
            val, grad = fun(theta)
            fd = np.empty(d)
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                fd[j] = (fun(theta + step)[0] - fun(theta - step)[0]) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)
            # the objective is minus the reference density up to a constant
            np.testing.assert_allclose(
                val - fun(theta0)[0],
                log_subposterior_unnorm(model, theta0, shard, n_splits)
                - log_subposterior_unnorm(model, theta, shard, n_splits),
                rtol=1e-9,
                atol=1e-9,
            )

    @pytest.mark.parametrize("n_splits", [1, 4])
    @pytest.mark.parametrize("prior_kind", ["normal", "laplace"])
    @pytest.mark.parametrize("lik", LIKELIHOODS)
    @pytest.mark.parametrize("active", [None, (0, 2)], ids=["all", "sub"])
    def test_hessian_matches_fd(self, active, lik, prior_kind, n_splits):
        """neg_hessian against central differences of the gradient."""
        rng = np.random.default_rng(32)
        model, shard = objective_problem(lik, prior_kind, rng, active)
        density = SubposteriorDensity(model, shard, n_splits)
        d = model.theta_dim
        h = 1e-5
        for _ in range(3):
            # away from zero, where the Laplace block's gradient jumps
            theta = rng.normal(size=d)
            theta[: model.n_coef] += np.where(theta[: model.n_coef] < 0, -0.1, 0.1)
            fd = np.empty((d, d))
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                fd[:, j] = (
                    density.neg_and_grad(theta + step)[1]
                    - density.neg_and_grad(theta - step)[1]
                ) / (2.0 * h)
            hess = density.neg_hessian(theta)
            np.testing.assert_array_equal(hess, hess.T)
            np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-5)

    def test_known_var_hessian_is_closed_form(self):
        rng = np.random.default_rng(33)
        noise_var = 1.7
        model, shard = objective_problem(LinearKnownVar(noise_var=noise_var), "normal", rng)
        n_splits = 4
        hess = SubposteriorDensity(model, shard, n_splits).neg_hessian(rng.normal(size=3))
        expected = shard.X.T @ shard.X / noise_var + np.linalg.inv(model.prior.cov) / n_splits
        np.testing.assert_allclose(hess, expected, rtol=1e-12, atol=1e-12)


class TestLaplaceFit:
    def test_exact_on_conjugate_gaussian_subposterior(self):
        # For a linear-Gaussian model the subposterior is exactly Gaussian,
        # so the MAP and inverse curvature are the posterior moments.
        rng = np.random.default_rng(20)
        n, p = 40, 2
        X = rng.normal(size=(n, p))
        theta_true = np.array([1.0, -0.5])
        y = X @ theta_true + rng.normal(size=n)
        data = Dataset(X=X, y=y)
        model = ModelSpec(
            model_id="lin",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(p), cov=2.0 * np.eye(p)),
            dim=p,
        )
        shard = whole_shard(data)
        n_splits = 2
        fit = laplace_fit(model, shard, n_splits)
        prec = X.T @ X + np.linalg.inv(2.0 * np.eye(p)) / n_splits
        cov = np.linalg.inv(prec)
        mean = cov @ (X.T @ y)
        np.testing.assert_allclose(fit.mean, mean, atol=1e-6)
        np.testing.assert_allclose(fit.cov, cov, atol=1e-6)

    def test_lognormal_var_fit_is_close_to_truth(self):
        rng = np.random.default_rng(21)
        n = 400
        X = rng.normal(size=(n, 2))
        y = X @ np.array([1.0, -1.0]) + 0.5 * rng.normal(size=n)
        model = ModelSpec(
            model_id="ln",
            likelihood=LinearLogNormalVar(logsigma_mean=0.0, logsigma_sd=1.0),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        fit = laplace_fit(model, whole_shard(Dataset(X=X, y=y)), 1)
        np.testing.assert_allclose(fit.mean[:2], [1.0, -1.0], atol=0.1)
        np.testing.assert_allclose(fit.mean[2], math.log(0.5), atol=0.1)
        assert fit.cov.shape == (3, 3)

    @staticmethod
    def scaled_gradient(density, theta):
        """sqrt(g' H^-1 g) at theta, the gradient in units of the curvature."""
        grad = density.neg_and_grad(theta)[1]
        return math.sqrt(grad @ np.linalg.solve(density.neg_hessian(theta), grad))

    @staticmethod
    def scipy_mode(density, start):
        res = optimize.minimize(
            density.neg_and_grad, start, jac=True, method="BFGS", options={"gtol": 1e-10}
        )
        return res.x

    @pytest.mark.parametrize("n_splits", [1, 16])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scaled_gradient_vanishes_at_every_scenario_mode(self, scenario, n_splits):
        data, models = make_synthetic(scenario, seed=0)
        shards = uniform_split(data.X.shape[0], n_splits, seed=0).shards(data)
        for model in models:
            for shard in shards:
                fit = laplace_fit(model, shard, n_splits)
                density = SubposteriorDensity(model, shard, n_splits)
                assert self.scaled_gradient(density, fit.mean) <= 1e-8
                np.testing.assert_allclose(
                    fit.cov @ density.neg_hessian(fit.mean), np.eye(model.theta_dim), atol=1e-6
                )

    @pytest.mark.parametrize("n_splits", [1, 16])
    def test_logistic_laplace_prior_matches_scipy(self, n_splits):
        data, models = make_synthetic("logistic_basic", seed=0)
        model = replace(models[0], prior=LaplacePrior(scale=1.0))
        shard = uniform_split(data.X.shape[0], n_splits, seed=0).shards(data)[0]
        fit = laplace_fit(model, shard, n_splits)
        density = SubposteriorDensity(model, shard, n_splits)
        assert self.scaled_gradient(density, fit.mean) <= 1e-8
        mode = self.scipy_mode(density, np.zeros(model.theta_dim))
        sd = np.sqrt(np.diag(fit.cov))
        np.testing.assert_array_less(np.abs(fit.mean - mode) / sd, 1e-6)

    def test_laplace_prior_mode_at_zero(self):
        # a feature without signal and a strong prior: two coefficients sit
        # at the kink of |theta|, where the fit stops them exactly
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 4))
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-(X @ [1.0, -1.0, 0.0, 0.02])))).astype(float)
        model = ModelSpec(
            model_id="lap", likelihood=LogisticLikelihood(), prior=LaplacePrior(scale=0.05), dim=4
        )
        shard = whole_shard(Dataset(X=X, y=y))
        fit = laplace_fit(model, shard, 4)
        np.testing.assert_array_equal(fit.mean[2:], 0.0)
        density = SubposteriorDensity(model, shard, 4)
        value, grad = density.neg_and_grad(fit.mean)
        assert np.abs(grad).max() <= 1e-8
        for direction in np.eye(4)[2:]:  # leaving zero costs more than it gains
            for h in (1e-4, -1e-4):
                assert density.neg_and_grad(fit.mean + h * direction)[0] > value

    @pytest.mark.parametrize(
        "log_sigma, coef_scale", [(40.0, 30.0), (300.0, 0.0), (-20.0, 1.0)]
    )
    def test_lognormal_var_from_a_far_start(self, log_sigma, coef_scale):
        # an undamped Newton step from a huge sigma lands where exp(-2 log
        # sigma) overflows; the capped, backtracked steps reach the mode
        data, models = make_synthetic("toy_gaussian", seed=0)
        model = models[-1]
        shard = uniform_split(data.X.shape[0], 16, seed=0).shards(data)[3]
        density = SubposteriorDensity(model, shard, 16)
        init = np.append(coef_scale * (-1.0) ** np.arange(model.n_coef), log_sigma)
        grad = density.neg_and_grad(init)[1]
        step = np.linalg.solve(density.neg_hessian(init), grad)
        if log_sigma > 0:
            with pytest.raises(OverflowError):
                density.neg_and_grad(init - step)
        fit = laplace_fit(model, shard, 16, init=init)
        assert self.scaled_gradient(density, fit.mean) <= 1e-8
        mode = self.scipy_mode(density, laplace_fit(model, shard, 16).mean)
        np.testing.assert_allclose(fit.mean, mode, atol=1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "init, message",
        [([1.0, -1.0, -352.0], "curvature is not finite"), ([0.0, 0.0, -353.0], "start point")],
    )
    def test_overflow_at_a_tiny_sigma_raises_without_warning(self, init, message):
        # exp(-2 log sigma) is finite, but the curvature (or the gradient)
        # it scales overflows: an EstimatorError, and no RuntimeWarning
        rng = np.random.default_rng(22)
        n, p = 200, 2
        X = rng.normal(size=(n, p))
        y = X @ np.array([1.0, -1.0]) + rng.normal(size=n)
        model = ModelSpec(
            model_id="lognormal",
            likelihood=LinearLogNormalVar(logsigma_mean=0.0, logsigma_sd=1.0),
            prior=NormalPrior(mean=np.zeros(p), cov=np.eye(p)),
            dim=p,
        )
        with pytest.raises(EstimatorError, match=message):
            laplace_fit(model, whole_shard(Dataset(X=X, y=y)), 1, init=init)

    def test_start_without_finite_density_raises(self):
        data, models = make_synthetic("toy_gaussian", seed=0)
        shard = uniform_split(data.X.shape[0], 16, seed=0).shards(data)[0]
        init = np.append(np.zeros(models[-1].n_coef), -400.0)  # exp(800) overflows
        with pytest.raises(EstimatorError, match="start point"):
            laplace_fit(models[-1], shard, 16, init=init)

    def test_fit_that_cannot_converge_raises(self, monkeypatch):
        data, models = make_synthetic("toy_gaussian", seed=0)
        shard = uniform_split(data.X.shape[0], 16, seed=0).shards(data)[0]
        monkeypatch.setattr(samplers_module, "_NEWTON_MAX_ITER", 3)
        init = np.append(np.zeros(models[-1].n_coef), 300.0)
        with pytest.raises(EstimatorError, match="did not converge in 3 Newton steps"):
            laplace_fit(models[-1], shard, 16, init=init)
