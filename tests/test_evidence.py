import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from splitevidence import (
    CombinationError,
    ConditionalGaussianStream,
    Dataset,
    DomainError,
    EstimatorError,
    EvidenceEstimate,
    GaussianMoments,
    LinearKnownVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    SpdError,
    SubposteriorDensity,
    approx_isub,
    chib_log_evidence,
    combine_evidence,
    compare_models,
    conditional_isub,
    exact_evidence_conjugate_gaussian,
    exact_local_evidence,
    exact_local_moments,
    importance_log_evidence,
    laplace_metropolis_log_evidence,
    log_alpha,
    log_bayes_factor,
    pg_gibbs_logistic,
    posterior_model_probs,
    whole_shard,
)
from splitevidence.diagnostics import quadrature_subposterior_summary
from splitevidence.evidence import logsumexp


def _conjugate_problem(seed=0, n=200, p=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    theta = np.linspace(0.5, -0.5, p)
    y = X @ theta + rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    model = ModelSpec(
        model_id="lin",
        likelihood=LinearKnownVar(noise_var=1.0),
        prior=NormalPrior(mean=np.zeros(p), cov=np.eye(p)),
        dim=p,
    )
    return data, model


def _logistic_problem(seed=7, n=240):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 1))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.3 * X[:, 0]))).astype(float)
    data = Dataset(X=X, y=y)
    model = ModelSpec(
        model_id="logit",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(1), cov=np.eye(1)),
        dim=1,
    )
    return data, model


def _round_robin(data, n_splits):
    rows = np.arange(data.X.shape[0])
    return [Shard(data, rows[s::n_splits], shard_id=s) for s in range(n_splits)]


class TestLogSumExp:
    @pytest.mark.parametrize(
        "values",
        [
            [0.0],
            [-1e300, 0.0, 1e-20],
            [-np.inf, 2.0, -np.inf, 2.0],
            [-np.inf, -np.inf],
            [800.0, 799.0, -np.inf, 1.0],
            list(np.linspace(-745.0, 3.0, 50)),
            list(np.random.default_rng(3).normal(scale=50.0, size=2000)),
        ],
        ids=["one", "tiny", "neg-inf", "all-neg-inf", "large", "range", "random"],
    )
    def test_matches_scipy(self, values):
        got = logsumexp(np.array(values))
        want = special.logsumexp(values)
        if np.isneginf(want):
            assert np.isneginf(got)
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_non_finite_peak_propagates(self):
        assert logsumexp([1.0, np.inf]) == np.inf
        assert np.isnan(logsumexp([1.0, np.nan]))


class TestImportance:
    def test_matches_conjugate_closed_form(self):
        data, model = _conjugate_problem()
        shard = whole_shard(data)
        truth = exact_local_evidence(model, shard, 1)
        mom = exact_local_moments(model, shard, 1)
        est = importance_log_evidence(
            SubposteriorDensity(model, shard, 1), mom, n_samples=20_000, seed=4
        )
        assert est.method == "importance"
        assert abs(est.log_value - truth) < 5 * est.mc_std_err
        assert abs(est.log_value - truth) < 0.01
        assert est.ess > 10_000
        assert est.warnings == ()

    def test_matches_quadrature_logistic(self):
        data, model = _logistic_problem()
        shard = whole_shard(data)
        density = SubposteriorDensity(model, shard, 1)
        truth, mom = quadrature_subposterior_summary(density)
        est = importance_log_evidence(density, mom, n_samples=20_000, seed=9)
        assert abs(est.log_value - truth) < 0.02

    def test_deterministic_in_seed(self):
        data, model = _conjugate_problem()
        shard = whole_shard(data)
        mom = exact_local_moments(model, shard, 1)
        density = SubposteriorDensity(model, shard, 1)
        a = importance_log_evidence(density, mom, n_samples=500, seed=3)
        b = importance_log_evidence(density, mom, n_samples=500, seed=3)
        assert a.log_value == b.log_value
        assert a.ess == b.ess

    def test_low_ess_warning(self):
        data, model = _conjugate_problem(n=400, p=1)
        shard = whole_shard(data)
        bad = GaussianMoments(mean=np.array([5.0]), cov=np.array([[1e-4]]))
        est = importance_log_evidence(
            SubposteriorDensity(model, shard, 1), bad, n_samples=200, seed=0
        )
        assert est.ess < 10
        assert est.warnings == ("low_ess",)

    def test_validation(self):
        data, model = _conjugate_problem()
        shard = whole_shard(data)
        mom = exact_local_moments(model, shard, 1)
        density = SubposteriorDensity(model, shard, 1)
        with pytest.raises(DomainError):
            importance_log_evidence(density, mom, n_samples=50)
        wrong = GaussianMoments(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(EstimatorError):
            importance_log_evidence(density, wrong)


class TestLaplaceMetropolis:
    def test_exact_on_gaussian_subposterior(self):
        # the subposterior is exactly Gaussian, so the volume formula is exact
        data, model = _conjugate_problem()
        for n_splits in (1, 3):
            shards = _round_robin(data, n_splits)
            for shard in shards:
                truth = exact_local_evidence(model, shard, n_splits)
                mom = exact_local_moments(model, shard, n_splits)
                density = SubposteriorDensity(model, shard, n_splits)
                est = laplace_metropolis_log_evidence(density, mom)
                assert est.method == "laplace"
                assert est.mc_std_err is None
                assert abs(est.log_value - truth) < 1e-8

    def test_close_on_logistic(self):
        data, model = _logistic_problem()
        shard = whole_shard(data)
        density = SubposteriorDensity(model, shard, 1)
        truth, mom = quadrature_subposterior_summary(density)
        est = laplace_metropolis_log_evidence(density, mom)
        assert abs(est.log_value - truth) < 0.05

    def test_dim_mismatch(self):
        data, model = _conjugate_problem()
        wrong = GaussianMoments(mean=np.zeros(5), cov=np.eye(5))
        with pytest.raises(EstimatorError):
            laplace_metropolis_log_evidence(SubposteriorDensity(model, whole_shard(data), 1), wrong)


class TestChib:
    def test_matches_quadrature_1d_logistic(self):
        data, model = _logistic_problem()
        for n_splits, shard in [(1, whole_shard(data)), (2, _round_robin(data, 2)[0])]:
            density = SubposteriorDensity(model, shard, n_splits)
            truth, _ = quadrature_subposterior_summary(density)
            chain, stream = pg_gibbs_logistic(density, n_iter=6000, burn_in=1000, seed=11)
            est = chib_log_evidence(density, chain, stream)
            assert est.method == "chib"
            assert est.n_samples_used == chain.n_retained
            assert abs(est.log_value - truth) < 0.02

    def test_agrees_with_importance(self):
        data, model = _logistic_problem(seed=3, n=300)
        shard = whole_shard(data)
        density = SubposteriorDensity(model, shard, 1)
        chain, stream = pg_gibbs_logistic(density, n_iter=6000, burn_in=1000, seed=2)
        chib = chib_log_evidence(density, chain, stream)
        from splitevidence import chain_moments

        mom = chain_moments(chain)
        imp = importance_log_evidence(density, mom, n_samples=20_000, seed=5)
        assert abs(chib.log_value - imp.log_value) < 0.05

    def test_explicit_anchor_point(self):
        data, model = _logistic_problem()
        shard = whole_shard(data)
        density = SubposteriorDensity(model, shard, 1)
        chain, stream = pg_gibbs_logistic(density, n_iter=4000, burn_in=1000, seed=11)
        default = chib_log_evidence(density, chain, stream)
        shifted = chib_log_evidence(
            density, chain, stream, theta_star=chain.draws.mean(0) + 0.05
        )
        # identity holds at any anchor with positive posterior density
        assert abs(default.log_value - shifted.log_value) < 0.02

    def test_stream_chain_mismatch(self):
        data, model = _logistic_problem()
        shard = whole_shard(data)
        density = SubposteriorDensity(model, shard, 1)
        chain, stream = pg_gibbs_logistic(density, n_iter=2000, burn_in=500, seed=0)
        short = ConditionalGaussianStream(
            eta=stream.eta, precisions=stream.precisions[:-1]
        )
        with pytest.raises(EstimatorError):
            chib_log_evidence(density, chain, short)


class TestConditionalIsub:
    def test_frozen_standard_normal_products(self):
        # S identical N(0,1) conditionals: integral of phi^S is
        # (2 pi)^(-(S-1)/2) / sqrt(S)
        stream = ConditionalGaussianStream(
            eta=np.zeros(1), precisions=np.ones((4, 1, 1))
        )
        for n_splits in (2, 3):
            got = conditional_isub([stream] * n_splits)
            want = -0.5 * (n_splits - 1) * math.log(2 * math.pi) - 0.5 * math.log(
                n_splits
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        from splitevidence import quadrature_isub_oracle

        data, model = _logistic_problem()
        n_splits = 2
        shards = _round_robin(data, n_splits)
        truth = quadrature_isub_oracle(model, shards, n_splits)
        streams = []
        for shard in shards:
            _, stream = pg_gibbs_logistic(
                SubposteriorDensity(model, shard, n_splits),
                n_iter=6000,
                burn_in=1000,
                seed=17 + shard.shard_id,
            )
            streams.append(stream)
        got = conditional_isub(streams)
        assert abs(got - truth) < 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            conditional_isub([])
        a = ConditionalGaussianStream(eta=np.zeros(1), precisions=np.ones((2, 1, 1)))
        b = ConditionalGaussianStream(eta=np.zeros(2), precisions=np.stack([np.eye(2)] * 2))
        with pytest.raises(DomainError):
            conditional_isub([a, b])

    def test_non_spd_record_aborts(self):
        precs = np.ones((3, 1, 1))
        precs[1, 0, 0] = -2.0
        bad = ConditionalGaussianStream(eta=np.zeros(1), precisions=precs)
        with pytest.raises(SpdError):
            conditional_isub([bad, bad])


class TestCombine:
    def test_single_split_is_identity(self):
        local = EvidenceEstimate(
            log_value=-123.456, mc_std_err=0.01, method="chib", n_samples_used=100
        )
        combined = combine_evidence(0.0, [local], 0.0, 1)
        assert combined.log_value == local.log_value
        assert combined.mc_std_err == local.mc_std_err

    def test_conjugate_recombination_exact(self):
        data, model = _conjugate_problem(seed=5, n=600, p=3)
        truth = exact_evidence_conjugate_gaussian(
            data.X, data.y, model.prior.mean, model.prior.cov, 1.0
        )
        for n_splits in (2, 5):
            shards = _round_robin(data, n_splits)
            locals_ = [
                EvidenceEstimate(
                    log_value=exact_local_evidence(model, sh, n_splits),
                    mc_std_err=None,
                    method="exact",
                    n_samples_used=0,
                )
                for sh in shards
            ]
            moms = [exact_local_moments(model, sh, n_splits) for sh in shards]
            combined = combine_evidence(
                log_alpha(model, n_splits), locals_, approx_isub(moms), n_splits
            )
            assert combined.log_value == pytest.approx(truth, abs=1e-9)

    def test_se_and_warning_propagation(self):
        a = EvidenceEstimate(
            log_value=-1.0, mc_std_err=0.3, method="chib", n_samples_used=10
        )
        b = EvidenceEstimate(
            log_value=-2.0,
            mc_std_err=0.4,
            method="importance",
            n_samples_used=20,
            warnings=("low_ess",),
        )
        combined = combine_evidence(0.5, [a, b], -0.25, 2)
        assert combined.log_value == pytest.approx(2 * 0.5 - 3.0 - 0.25)
        assert combined.mc_std_err == pytest.approx(0.5)
        assert combined.warnings == ("low_ess",)
        assert combined.n_samples_used == 30

    def test_validation(self):
        est = EvidenceEstimate(
            log_value=0.0, mc_std_err=None, method="chib", n_samples_used=0
        )
        with pytest.raises(CombinationError):
            combine_evidence(0.0, [est], 0.0, 2)
        with pytest.raises(CombinationError, match="1"):
            combine_evidence(0.0, [est, None, est], 0.0, 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            EvidenceEstimate(
                log_value=0.0, mc_std_err=None, method="magic", n_samples_used=0
            )


class TestModelComparison:
    def test_two_model_probs(self):
        probs = posterior_model_probs([0.0, math.log(3.0)])
        assert probs[1] == pytest.approx(0.75)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_prior_weights(self):
        # prior odds 3:1 against the better model cancel a BF of 3
        probs = posterior_model_probs(
            [0.0, math.log(3.0)], np.log([0.75, 0.25])
        )
        assert probs[0] == pytest.approx(0.5)

    def test_prior_must_normalize(self):
        with pytest.raises(DomainError):
            posterior_model_probs([0.0, 0.0], np.log([0.7, 0.7]))
        with pytest.raises(DomainError):
            posterior_model_probs([0.0, 0.0], np.log([0.5, 0.25, 0.25]))
        with pytest.raises(DomainError):
            posterior_model_probs([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-200, 200), min_size=1, max_size=6),
        st.floats(-500, 500),
    )
    def test_shift_invariance(self, log_evs, shift):
        base = posterior_model_probs(log_evs)
        shifted = posterior_model_probs([v + shift for v in log_evs])
        assert np.allclose(base, shifted, atol=1e-12)
        assert base.sum() == pytest.approx(1.0, abs=1e-12)

    def test_compare_models(self):
        ests = [
            EvidenceEstimate(
                log_value=v, mc_std_err=None, method="exact", n_samples_used=0
            )
            for v in (-10.0, -12.5, -9.0)
        ]
        cmp = compare_models(["a", "b", "c"], ests)
        assert cmp.model_ids == ("a", "b", "c")
        assert np.allclose(cmp.log_bf_matrix, -cmp.log_bf_matrix.T)
        assert np.all(np.diag(cmp.log_bf_matrix) == 0.0)
        assert cmp.log_bf_matrix[0, 1] == pytest.approx(2.5)
        assert cmp.posterior_probs.argmax() == 2
        assert cmp.posterior_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_compare_models_validation(self):
        est = EvidenceEstimate(
            log_value=0.0, mc_std_err=None, method="exact", n_samples_used=0
        )
        with pytest.raises(DomainError):
            compare_models(["a", "b"], [est])
        with pytest.raises(DomainError):
            compare_models([], [])

    def test_log_bayes_factor_inputs(self):
        est = EvidenceEstimate(
            log_value=-4.0, mc_std_err=None, method="exact", n_samples_used=0
        )
        assert log_bayes_factor(est, -6.0) == pytest.approx(2.0)
        assert log_bayes_factor(-6.0, est) == pytest.approx(-2.0)
        assert log_bayes_factor(est, est) == 0.0
