"""Jump sampler over feature subsets: prior recovery, exact conjugate
model odds, the distributed Bayes-factor combination, and the sojourn
summary serialization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import betabinom, binom, chisquare

from splitevidence.diagnostics import exact_local_evidence, exact_local_moments, make_synthetic
from splitevidence.errors import DecodeError, DomainError, UnexploredModelError
from splitevidence.gaussian import GaussianMoments
from splitevidence import rjmcmc as rjmcmc_module
from splitevidence.models import (
    Dataset,
    LaplacePrior,
    LinearKnownVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    whole_shard,
)
from splitevidence.rjmcmc import (
    BetaBinomialPrior,
    ModelIndicator,
    RJOutput,
    UniformIndicatorPrior,
    distributed_log_bf,
    model_log_bf,
    model_posterior_odds,
    read_rj_output,
    rj_output_from_json,
    rj_output_to_json,
    rjmcmc_sample,
    submodel,
    write_rj_output,
)
from splitevidence.sharding import uniform_split


def _conjugate_problem(n=60, p=2, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = X @ np.array([0.3, 0.2]) + rng.standard_normal(n)
    base = ModelSpec(
        model_id="lin",
        likelihood=LinearKnownVar(noise_var=1.0),
        prior=NormalPrior(mean=np.zeros(p), cov=np.eye(p)),
        dim=p,
    )
    return base, Dataset(X=X, y=y)


def _all_indicators(p):
    return [
        ModelIndicator(tuple(j for j in range(p) if (mask >> j) & 1), p)
        for mask in range(2**p)
    ]


class TestModelIndicator:
    def test_sorts_and_round_trips_bits(self):
        ind = ModelIndicator((3, 0, 2), 5)
        assert ind.active == (0, 2, 3)
        assert ind.bits == "10110"
        assert ModelIndicator.from_bits("10110") == ind
        assert ind.size == 3

    def test_empty_indicator(self):
        ind = ModelIndicator((), 4)
        assert ind.bits == "0000"
        assert ind.size == 0
        assert ModelIndicator.from_bits("0000") == ind

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(DomainError):
            ModelIndicator((1, 1), 3)
        with pytest.raises(DomainError):
            ModelIndicator((3,), 3)
        with pytest.raises(DomainError):
            ModelIndicator((-1,), 3)

    def test_from_bits_rejects_malformed(self):
        with pytest.raises(DomainError):
            ModelIndicator.from_bits("10a1")
        with pytest.raises(DomainError):
            ModelIndicator.from_bits("")


class TestBetaBinomialPrior:
    def test_per_subset_mass_uniform_over_sizes(self):
        # a = b = 1 puts mass 1/(p+1) on each size, split over subsets
        prior = BetaBinomialPrior()
        p = 4
        for k in range(p + 1):
            per_subset = prior.log_prob(k, p)
            expected = -math.log(p + 1) - math.log(math.comb(p, k))
            assert per_subset == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            BetaBinomialPrior(a=0.0)
        with pytest.raises(DomainError):
            BetaBinomialPrior(b=-1.0)
        with pytest.raises(DomainError):
            BetaBinomialPrior().log_prob(5, 4)
        with pytest.raises(DomainError):
            BetaBinomialPrior().log_prob(-1, 4)

    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        p=st.integers(1, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_size_pmf_normalizes(self, a, b, p):
        prior = BetaBinomialPrior(a=a, b=b)
        assert logsumexp(prior.size_log_pmf(p)) == pytest.approx(0.0, abs=1e-10)


    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.3, 2.5), (7.0, 0.6), (40.0, 55.0)])
    @pytest.mark.parametrize("p", [1, 5, 25])
    def test_size_pmf_matches_scipy(self, a, b, p):
        got = BetaBinomialPrior(a=a, b=b).size_log_pmf(p)
        np.testing.assert_allclose(
            got, betabinom(p, a, b).logpmf(np.arange(p + 1)), rtol=1e-13, atol=1e-12
        )


class TestUniformIndicatorPrior:
    def test_constant_subset_mass(self):
        prior = UniformIndicatorPrior()
        for k in range(6):
            assert prior.log_prob(k, 5) == pytest.approx(-5 * math.log(2), abs=1e-12)
        with pytest.raises(DomainError):
            prior.log_prob(6, 5)

    @given(p=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_size_pmf_is_binomial_half(self, p):
        prior = UniformIndicatorPrior()
        pmf = np.exp(prior.size_log_pmf(p))
        sizes = np.arange(p + 1)
        expected = np.array([math.comb(p, int(k)) for k in sizes]) * 0.5**p
        np.testing.assert_allclose(pmf, expected, rtol=1e-12)
        np.testing.assert_allclose(pmf, binom(p, 0.5).pmf(sizes), rtol=1e-12)


class TestSubmodel:
    def test_builds_restricted_spec(self):
        base, data = _conjugate_problem()
        ind = ModelIndicator((1,), 2)
        spec = submodel(base, ind)
        assert spec.active_features == (1,)
        assert spec.theta_dim == 1
        assert spec.model_id == "lin:01"
        assert spec.dim == base.dim

    def test_rejects_feature_count_mismatch(self):
        base, _ = _conjugate_problem()
        with pytest.raises(DomainError):
            submodel(base, ModelIndicator((0,), 3))


class TestPriorRecovery:
    @pytest.mark.parametrize(
        "prior", [BetaBinomialPrior(), UniformIndicatorPrior()], ids=["bb", "flat"]
    )
    def test_flat_likelihood_recovers_model_prior(self, prior):
        # all-zero features make the logistic likelihood constant, so the
        # chain's subset marginal must match the model prior
        p = 4
        n = 40
        data = Dataset(X=np.zeros((n, p)), y=(np.arange(n) % 2).astype(float))
        base = ModelSpec(
            model_id="flat",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(p), cov=np.eye(p)),
            dim=p,
        )
        out = rjmcmc_sample(
            base,
            whole_shard(data),
            n_splits=1,
            n_iter=100_000,
            burn_in=5_000,
            seed=42,
            model_prior=prior,
        )
        indicators = _all_indicators(p)
        assert sum(out.count(ind) for ind in indicators) == out.n_iterations

        # thin the dependent visit sequence before the frequency test
        thin = 25
        n_eff = out.n_iterations // thin
        expected = np.array(
            [math.exp(prior.log_prob(ind.size, p)) for ind in indicators]
        )
        observed = np.array(
            [out.count(ind) / out.n_iterations * n_eff for ind in indicators]
        )
        stat, pvalue = chisquare(observed, expected * n_eff)
        assert pvalue > 0.01, f"chi-square p={pvalue:.4f} (stat {stat:.1f})"


@pytest.fixture(scope="module")
def run():
    base, data = _conjugate_problem()
    out = rjmcmc_sample(
        base,
        whole_shard(data),
        n_splits=1,
        n_iter=150_000,
        burn_in=10_000,
        seed=3,
    )
    return base, data, out


class TestConjugateOdds:
    def test_sojourn_odds_match_exact_evidence(self, run):
        base, data, out = run
        prior = BetaBinomialPrior()
        shard = whole_shard(data)
        logs = {}
        for ind in _all_indicators(base.dim):
            spec = submodel(base, ind)
            logs[ind] = exact_local_evidence(spec, shard, 1) + prior.log_prob(
                ind.size, base.dim
            )
        pairs = [
            (ModelIndicator((0, 1), 2), ModelIndicator((), 2)),
            (ModelIndicator((0, 1), 2), ModelIndicator((0,), 2)),
            (ModelIndicator((0,), 2), ModelIndicator((1,), 2)),
        ]
        for a, b in pairs:
            est = model_posterior_odds(out, a, b)
            exact = logs[a] - logs[b]
            assert est == pytest.approx(exact, abs=0.3), (a.bits, b.bits)

    def test_within_model_moments_match_conjugate(self, run):
        base, data, out = run
        full = ModelIndicator((0, 1), 2)
        exact = exact_local_moments(submodel(base, full), whole_shard(data), 1)
        got = out.moments[full]
        assert np.allclose(got.mean, exact.mean, atol=0.05)
        assert np.allclose(got.cov, exact.cov, atol=0.05)

    def test_same_seed_reproduces(self, run):
        base, data, out = run
        again = rjmcmc_sample(
            base,
            whole_shard(data),
            n_splits=1,
            n_iter=150_000,
            burn_in=10_000,
            seed=3,
        )
        assert again.visit_counts == out.visit_counts
        assert set(again.moments) == set(out.moments)
        for ind, mom in out.moments.items():
            assert np.array_equal(again.moments[ind].mean, mom.mean)
            assert np.array_equal(again.moments[ind].cov, mom.cov)

    def test_distributed_single_shard_reduces_to_local(self, run):
        base, data, out = run
        a = ModelIndicator((0, 1), 2)
        b = ModelIndicator((0,), 2)
        assert distributed_log_bf([out], a, b, base, 1) == model_log_bf(out, a, b)
        # same for a pair touching the empty model
        c = ModelIndicator((), 2)
        assert distributed_log_bf([out], a, c, base, 1) == model_log_bf(out, a, c)


class TestDistributedBayesFactor:
    def test_two_shards_match_full_data_factor(self):
        base, data = _conjugate_problem()
        shard = whole_shard(data)
        exact = {}
        for ind in _all_indicators(base.dim):
            exact[ind] = exact_local_evidence(submodel(base, ind), shard, 1)

        S = 2
        plan = uniform_split(data.X.shape[0], S, seed=11)
        outs = [
            rjmcmc_sample(
                base,
                sh,
                n_splits=S,
                n_iter=150_000,
                burn_in=10_000,
                seed=100 + s,
            )
            for s, sh in enumerate(plan.shards(data))
        ]
        pairs = [
            (ModelIndicator((0, 1), 2), ModelIndicator((), 2)),
            (ModelIndicator((0, 1), 2), ModelIndicator((0,), 2)),
            (ModelIndicator((0,), 2), ModelIndicator((1,), 2)),
        ]
        for a, b in pairs:
            est = distributed_log_bf(outs, a, b, base, S)
            want = exact[a] - exact[b]
            assert est == pytest.approx(want, abs=0.3), (a.bits, b.bits)

    def test_requires_one_output_per_shard(self):
        base, data = _conjugate_problem()
        out = rjmcmc_sample(
            base, whole_shard(data), 1, n_iter=2_000, burn_in=100, seed=0
        )
        a = ModelIndicator((0, 1), 2)
        b = ModelIndicator((0,), 2)
        with pytest.raises(DomainError):
            distributed_log_bf([out], a, b, base, 2)


def _toy_output(counts, min_visits=500, moments=None):
    p = len(next(iter(counts)))
    visit_counts = {
        ModelIndicator.from_bits(bits): c for bits, c in counts.items()
    }
    return RJOutput(
        n_features=p,
        visit_counts=visit_counts,
        moments=moments or {},
        n_iterations=sum(counts.values()),
        burn_in=0,
        seed=0,
        min_visits=min_visits,
    )


class TestUnexploredModels:
    def test_odds_require_at_least_one_visit(self):
        out = _toy_output({"11": 800, "10": 200})
        a = ModelIndicator.from_bits("11")
        missing = ModelIndicator.from_bits("01")
        assert model_posterior_odds(out, a, ModelIndicator.from_bits("10")) == (
            pytest.approx(math.log(4.0))
        )
        with pytest.raises(UnexploredModelError, match="01"):
            model_posterior_odds(out, a, missing)
        with pytest.raises(UnexploredModelError, match="01"):
            model_posterior_odds(out, missing, a)

    def test_distributed_enforces_minimum_visits_per_shard(self):
        base, data = _conjugate_problem()
        plan = uniform_split(data.X.shape[0], 2, seed=0)
        shards = plan.shards(data)
        good = rjmcmc_sample(
            base, shards[0], 2, n_iter=30_000, burn_in=1_000, seed=1
        )
        starved = _toy_output({"11": 28_990, "01": 10}, min_visits=500)
        a = ModelIndicator.from_bits("11")
        b = ModelIndicator.from_bits("01")
        with pytest.raises(UnexploredModelError, match="shard 1"):
            distributed_log_bf([good, starved], a, b, base, 2)


class TestDrawBlocks:
    @pytest.mark.parametrize(
        "prior", [NormalPrior(mean=np.zeros(3), cov=np.eye(3)), LaplacePrior(scale=1.0)],
        ids=["normal", "laplace"],
    )
    def test_blocks_split_the_chain_reproducibly(self, monkeypatch, prior):
        # 30 iterations in blocks of 7: four full blocks and a partial one
        monkeypatch.setattr(rjmcmc_module, "_DRAW_BLOCK", 7)
        sizes = []
        standard = rjmcmc_module._standard_variates

        def spy(base, rng, size):
            sizes.append(size)
            return standard(base, rng, size)

        monkeypatch.setattr(rjmcmc_module, "_standard_variates", spy)
        rng = np.random.default_rng(5)
        data = Dataset(X=rng.normal(size=(40, 3)), y=(rng.random(40) < 0.5).astype(float))
        base = ModelSpec(model_id="b", likelihood=LogisticLikelihood(), prior=prior, dim=3)
        runs = [
            rjmcmc_sample(base, whole_shard(data), 2, n_iter=30, burn_in=5, seed=9, min_visits=2)
            for _ in range(2)
        ]
        assert sizes == [7, 7, 7, 7, 2] * 2
        assert rj_output_to_json(runs[0]) == rj_output_to_json(runs[1])
        assert sum(runs[0].visit_counts.values()) == 25


class TestSamplerValidation:
    def test_rejects_oversized_model_space(self):
        p = 26
        base = ModelSpec(
            model_id="big",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(p), cov=np.eye(p)),
            dim=p,
        )
        data = Dataset(X=np.zeros((4, p)), y=np.zeros(4))
        with pytest.raises(DomainError):
            rjmcmc_sample(base, whole_shard(data), 1, n_iter=10, burn_in=1, seed=0)

    def test_rejects_restricted_base_model(self):
        base, data = _conjugate_problem()
        restricted = submodel(base, ModelIndicator((0,), 2))
        with pytest.raises(DomainError):
            rjmcmc_sample(
                restricted, whole_shard(data), 1, n_iter=10, burn_in=1, seed=0
            )

    def test_rejects_bad_burn_in(self):
        base, data = _conjugate_problem()
        with pytest.raises(DomainError):
            rjmcmc_sample(base, whole_shard(data), 1, n_iter=10, burn_in=10, seed=0)

    def test_counts_must_sum_to_iterations(self):
        with pytest.raises(DomainError):
            RJOutput(
                n_features=2,
                visit_counts={ModelIndicator.from_bits("11"): 5},
                moments={},
                n_iterations=6,
                burn_in=0,
                seed=0,
                min_visits=1,
            )


class TestSerialization:
    def _sample_output(self):
        moments = {
            ModelIndicator.from_bits("11"): GaussianMoments(
                mean=np.array([0.125, -1.5]),
                cov=np.array([[2.0, 0.25], [0.25, 1.0]]),
            ),
        }
        return _toy_output({"11": 700, "10": 200, "00": 100}, moments=moments)

    def test_round_trip_is_exact(self):
        out = self._sample_output()
        text = rj_output_to_json(out)
        back = rj_output_from_json(text)
        assert back.visit_counts == out.visit_counts
        assert back.n_features == out.n_features
        assert back.n_iterations == out.n_iterations
        assert back.min_visits == out.min_visits
        assert set(back.moments) == set(out.moments)
        for ind, mom in out.moments.items():
            assert np.array_equal(back.moments[ind].mean, mom.mean)
            assert np.array_equal(back.moments[ind].cov, mom.cov)

    def test_encoding_is_canonical(self):
        out = self._sample_output()
        text = rj_output_to_json(out)
        assert text.endswith("\n")
        assert "\n" not in text[:-1]
        assert text == rj_output_to_json(out)
        # models keyed by bitstring in sorted order
        body = text[text.index('"models"') :]
        assert body.index('"00"') < body.index('"10"') < body.index('"11"')

    def test_file_round_trip(self, tmp_path):
        out = self._sample_output()
        path = tmp_path / "rj.json"
        write_rj_output(out, path)
        back = read_rj_output(path)
        assert back.visit_counts == out.visit_counts

    def test_sampler_output_survives_round_trip(self):
        base, data = _conjugate_problem()
        out = rjmcmc_sample(
            base, whole_shard(data), 1, n_iter=20_000, burn_in=1_000, seed=5
        )
        back = rj_output_from_json(rj_output_to_json(out))
        assert back.visit_counts == out.visit_counts
        for ind, mom in out.moments.items():
            assert np.array_equal(back.moments[ind].mean, mom.mean)
            assert np.array_equal(back.moments[ind].cov, mom.cov)

    def test_few_visits_per_model_still_read_back(self):
        # 300 retained draws over 2^5 models: some models have fewer than
        # dim+2 visits or sit at a few distinct points, and their summary is
        # written as null
        data, models = make_synthetic("rj_mixture", seed=0)
        base = next(m for m in models if m.model_id == "full")
        plan = uniform_split(data.X.shape[0], 2, seed=0)
        outputs = []
        for shard in plan.shards(data):
            out = rjmcmc_sample(base, shard, 2, n_iter=400, burn_in=100, seed=0, min_visits=0)
            back = rj_output_from_json(rj_output_to_json(out))
            assert back.visit_counts == out.visit_counts
            assert set(back.moments) == set(out.moments)
            for ind, mom in out.moments.items():
                assert np.array_equal(back.moments[ind].cov, mom.cov)
                assert out.visit_counts[ind] >= mom.dim + 2
            outputs.append(out)
        nulls = [
            ind for ind, count in outputs[0].visit_counts.items()
            if ind.size and count >= 2 and ind not in outputs[0].moments
        ]
        assert nulls  # the run does reach the null-summary case
        full = ModelIndicator(tuple(range(base.dim)), base.dim)
        with pytest.raises(UnexploredModelError, match="has no moment summary on shard 0"):
            distributed_log_bf(outputs, nulls[0], full, base, 2)

    def test_decode_rejects_malformed(self):
        out = self._sample_output()
        text = rj_output_to_json(out)
        cases = [
            "not json",
            "[1,2]",
            text.replace('"schema_version":1', '"schema_version":2'),
            text.replace('"11"', '"111"'),
            text.replace('"count":700', '"count":0'),
            text.replace('"count":700', '"count":700.5'),
            text.replace('"n_iterations":1000', '"n_iterations":999'),
            text.replace('"mean":[0.125,-1.5]', '"mean":[NaN,-1.5]'),
            text.replace('[2.0,0.25,0.25,1.0]', '[1.0,2.0,2.0,1.0]'),
        ]
        for case in cases:
            with pytest.raises(DecodeError):
                rj_output_from_json(case)

    def test_decode_rejects_partial_moments(self):
        out = self._sample_output()
        text = rj_output_to_json(out)
        broken = text.replace('"mean":[0.125,-1.5]', '"mean":null')
        with pytest.raises(DecodeError):
            rj_output_from_json(broken)

    def test_decode_rejects_missing_keys(self):
        with pytest.raises(DecodeError):
            rj_output_from_json('{"schema_version":1,"n_features":2}')
