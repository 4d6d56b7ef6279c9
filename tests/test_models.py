"""Tests for likelihoods, priors and prior fractionation.

The closed forms for log alpha are checked against direct numerical
integration of p(theta)^(1/S), and the normalized fractionated priors are
checked pointwise against the densities they must collapse to.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from splitevidence import (
    ConfigurationError,
    Dataset,
    DomainError,
    LaplacePrior,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    load_csv,
    log_alpha,
    log_likelihood,
    log_prior,
    log_subposterior_unnorm,
    log_subprior,
    model_spec_from_json,
    model_spec_to_json,
    save_csv,
    whole_shard,
)
from splitevidence import samplers as samplers_module
from splitevidence.models import check_compatible, expit, softplus_sum
from splitevidence.samplers import SubposteriorDensity

LOG_2PI = math.log(2.0 * math.pi)


def normal_model(m0, V0, model_id="m", likelihood=None, active=None):
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    if likelihood is None:
        likelihood = LinearKnownVar(noise_var=1.0)
    return ModelSpec(
        model_id=model_id,
        likelihood=likelihood,
        prior=NormalPrior(mean=m0, cov=np.atleast_2d(np.asarray(V0, dtype=float))),
        dim=m0.shape[0],
        active_features=active,
    )


def laplace_model(p, scale, likelihood=None):
    if likelihood is None:
        likelihood = LinearKnownVar(noise_var=1.0)
    return ModelSpec(
        model_id="lap", likelihood=likelihood, prior=LaplacePrior(scale=scale), dim=p
    )


class TestLogAlphaQuadrature:
    """log alpha closed forms against 1-d and 2-d numerical integration."""

    @pytest.mark.parametrize("n_splits", [1, 2, 5, 10])
    @pytest.mark.parametrize("m0,v0", [(0.0, 1.0), (1.5, 4.0), (-2.0, 0.25)])
    def test_normal_1d(self, n_splits, m0, v0):
        model = normal_model([m0], [[v0]])

        def integrand(t):
            return stats.norm.pdf(t, loc=m0, scale=math.sqrt(v0)) ** (1.0 / n_splits)

        width = math.sqrt(n_splits * v0)
        val, err = integrate.quad(integrand, m0 - 60 * width, m0 + 60 * width)
        assert err < 1e-10
        np.testing.assert_allclose(log_alpha(model, n_splits), math.log(val), atol=1e-9)

    @pytest.mark.parametrize("n_splits", [1, 2, 5, 10])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_laplace_1d(self, n_splits, scale):
        model = laplace_model(1, scale)

        def integrand(t):
            return stats.laplace.pdf(t, scale=scale) ** (1.0 / n_splits)

        width = n_splits * scale
        val, err = integrate.quad(integrand, -80 * width, 80 * width, points=[0.0])
        assert err < 1e-10
        np.testing.assert_allclose(log_alpha(model, n_splits), math.log(val), atol=1e-9)

    def test_normal_2d_correlated(self):
        m0 = np.array([0.5, -1.0])
        V0 = np.array([[2.0, 0.8], [0.8, 1.0]])
        model = normal_model(m0, V0)
        n_splits = 3
        dist = stats.multivariate_normal(mean=m0, cov=V0)

        def integrand(t1, t0):
            return dist.pdf([t0, t1]) ** (1.0 / n_splits)

        val, err = integrate.dblquad(integrand, -25, 25, -25, 25)
        assert err < 1e-7 * val
        np.testing.assert_allclose(log_alpha(model, n_splits), math.log(val), atol=1e-7)

    def test_frozen_values(self):
        # 1-d standard normal, S=2: 0.25 log 2pi + 0.5 log 2.
        np.testing.assert_allclose(
            log_alpha(normal_model([0.0], [[1.0]]), 2),
            0.25 * LOG_2PI + 0.5 * math.log(2.0),
            rtol=1e-15,
        )
        # 1-d Laplace scale 1, S=2: 1.5 log 2.
        np.testing.assert_allclose(
            log_alpha(laplace_model(1, 1.0), 2), 1.5 * math.log(2.0), rtol=1e-15
        )

    def test_single_split_is_exactly_zero(self):
        assert log_alpha(normal_model([1.0, 2.0], np.diag([2.0, 3.0])), 1) == 0.0
        assert log_alpha(laplace_model(3, 2.0), 1) == 0.0

    def test_lognormal_scale_block_adds_normal_term(self):
        lik = LinearLogNormalVar(logsigma_mean=0.0, logsigma_sd=1.0)
        base = normal_model([0.0], [[1.0]])
        extended = normal_model([0.0], [[1.0]], likelihood=lik)
        # Both blocks are unit normals, so alpha doubles in log domain.
        np.testing.assert_allclose(
            log_alpha(extended, 4), 2.0 * log_alpha(base, 4), rtol=1e-14
        )

    def test_bad_splits_rejected(self):
        with pytest.raises(DomainError):
            log_alpha(normal_model([0.0], [[1.0]]), 0)
        with pytest.raises(DomainError):
            log_alpha(normal_model([0.0], [[1.0]]), -3)


class TestSubprior:
    """The normalized fractionated prior must equal its known closed form."""

    @given(
        theta=st.floats(-30, 30),
        n_splits=st.integers(1, 12),
        v0=st.floats(0.1, 9.0),
        m0=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_normal_subprior_is_inflated_normal(self, theta, n_splits, v0, m0):
        model = normal_model([m0], [[v0]])
        expected = stats.norm.logpdf(theta, loc=m0, scale=math.sqrt(n_splits * v0))
        got = log_subprior(model, np.array([theta]), n_splits)
        np.testing.assert_allclose(got, expected, atol=1e-11)

    @given(
        theta=st.floats(-30, 30),
        n_splits=st.integers(1, 12),
        scale=st.floats(0.2, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_laplace_subprior_is_inflated_laplace(self, theta, n_splits, scale):
        model = laplace_model(1, scale)
        expected = stats.laplace.logpdf(theta, scale=n_splits * scale)
        got = log_subprior(model, np.array([theta]), n_splits)
        np.testing.assert_allclose(got, expected, atol=1e-11)

    @given(n_splits=st.integers(1, 8), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_telescoping_recovers_log_joint(self, n_splits, seed):
        rng = np.random.default_rng(seed)
        n, p = 4 * n_splits, 2
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        data = Dataset(X=X, y=y)
        model = normal_model(np.zeros(p), np.eye(p))
        theta = rng.normal(size=p)
        perm = rng.permutation(n)
        shards = [
            Shard(dataset=data, rows=perm[s::n_splits], shard_id=s) for s in range(n_splits)
        ]
        total = sum(
            log_subposterior_unnorm(model, theta, sh, n_splits) for sh in shards
        ) + n_splits * log_alpha(model, n_splits)
        direct = log_likelihood(model, theta, data) + log_prior(model, theta)
        np.testing.assert_allclose(total, direct, atol=1e-8)


class TestLikelihoods:
    def test_logistic_frozen_single_observation(self):
        # One observation with y=0 and linear predictor 2: -log(1 + e^2).
        model = normal_model([0.0], [[1.0]], likelihood=LogisticLikelihood())
        data = Dataset(X=np.array([[2.0]]), y=np.array([0.0]))
        np.testing.assert_allclose(
            log_likelihood(model, np.array([1.0]), data),
            -np.logaddexp(0.0, 2.0),
            rtol=1e-15,
        )

    def test_logistic_extreme_linear_predictor_is_finite(self):
        model = normal_model([0.0], [[1.0]], likelihood=LogisticLikelihood())
        data = Dataset(X=np.array([[1.0], [-1.0]]), y=np.array([1.0, 0.0]))
        for t in (-40.0, 40.0):
            val = log_likelihood(model, np.array([t]), data)
            assert np.isfinite(val)

    def test_linear_known_var_matches_scipy(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        theta = rng.normal(size=3)
        model = normal_model(np.zeros(3), np.eye(3), likelihood=LinearKnownVar(noise_var=2.5))
        data = Dataset(X=X, y=y)
        expected = stats.norm.logpdf(y, loc=X @ theta, scale=math.sqrt(2.5)).sum()
        np.testing.assert_allclose(log_likelihood(model, theta, data), expected, rtol=1e-12)

    def test_lognormal_var_matches_known_var_at_fixed_scale(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        theta = rng.normal(size=2)
        logsigma = 0.3
        free = normal_model(
            np.zeros(2), np.eye(2),
            likelihood=LinearLogNormalVar(logsigma_mean=0.0, logsigma_sd=1.0),
        )
        fixed = normal_model(
            np.zeros(2), np.eye(2),
            likelihood=LinearKnownVar(noise_var=math.exp(2 * logsigma)),
        )
        data = Dataset(X=X, y=y)
        np.testing.assert_allclose(
            log_likelihood(free, np.append(theta, logsigma), data),
            log_likelihood(fixed, theta, data),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("block_cells", [None, 60], ids=["one_block", "blocks"])
    @pytest.mark.parametrize("n_splits", [1, 4])
    @pytest.mark.parametrize("prior_kind", ["normal", "laplace"])
    @pytest.mark.parametrize(
        "lik",
        [
            LogisticLikelihood(),
            LinearKnownVar(noise_var=1.3),
            LinearLogNormalVar(logsigma_mean=0.1, logsigma_sd=0.7),
        ],
        ids=["logistic", "known_var", "lognormal"],
    )
    @pytest.mark.parametrize("active", [None, (0, 2), ()], ids=["all", "sub", "none"])
    def test_logpdf_batch_matches_reference(
        self, active, lik, prior_kind, n_splits, block_cells, monkeypatch
    ):
        rng = np.random.default_rng(5)
        n, p = 30, 3
        X = rng.normal(size=(n, p))
        if isinstance(lik, LogisticLikelihood):
            y = (rng.random(n) < 0.5).astype(float)
        else:
            y = rng.normal(size=n)
        a = rng.normal(size=(p, p))
        prior = (
            NormalPrior(mean=rng.normal(size=p), cov=a @ a.T + 0.5 * np.eye(p))
            if prior_kind == "normal"
            else LaplacePrior(scale=0.9)
        )
        model = ModelSpec(
            model_id="m", likelihood=lik, prior=prior, dim=p, active_features=active
        )
        if block_cells is not None:
            # 60 rows x draws per block: 2 draws of 30 rows, so 7 draws take 4 blocks
            monkeypatch.setattr(samplers_module, "_BLOCK_CELLS", block_cells)
        shard = whole_shard(Dataset(X=X, y=y))
        thetas = 3.0 * rng.normal(size=(7, model.theta_dim))
        got = SubposteriorDensity(model, shard, n_splits).logpdf_batch(thetas)
        ref = [log_subposterior_unnorm(model, t, shard, n_splits) for t in thetas]
        assert got.shape == (7,)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_active_features_subset_columns(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        data = Dataset(X=X, y=y)
        sub = ModelSpec(
            model_id="sub",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(4), cov=np.eye(4)),
            dim=4,
            active_features=(0, 2),
        )
        direct = Dataset(X=X[:, [0, 2]], y=y)
        full = normal_model(np.zeros(2), np.eye(2))
        theta = np.array([0.4, -1.1])
        np.testing.assert_allclose(
            log_likelihood(sub, theta, data), log_likelihood(full, theta, direct), rtol=1e-14
        )
        assert sub.theta_dim == 2


class TestExpit:
    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([TestSoftplusSum.EDGES, 40.0 * rng.normal(size=1000)])
        with np.errstate(over="raise"):  # the overflow of exp(-x) stays inside expit
            got = expit(x)
        np.testing.assert_allclose(got, special.expit(x), rtol=1e-15, atol=0.0)
        assert expit(750.0) == 1.0 and expit(-750.0) == 0.0
        assert special.expit(750.0) == 1.0 and special.expit(-750.0) == 0.0


class TestSoftplusSum:
    EDGES = [0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0,
             709.0, -709.0, 750.0, -750.0, 1e4, -1e4]

    def test_matches_logaddexp(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([self.EDGES, rng.normal(size=300), 12.0 * rng.normal(size=300)])
        ref = np.logaddexp(0.0, x)
        flat = softplus_sum(x)
        assert np.isfinite(flat)
        np.testing.assert_allclose(flat, ref.sum(), rtol=1e-12, atol=1e-12)
        # one row: the axis=0 form is the elementwise softplus
        single = softplus_sum(x[None, :], axis=0)
        assert np.all(np.isfinite(single))
        np.testing.assert_allclose(single, ref, rtol=1e-12, atol=1e-12)

    def test_axis0_matches_logaddexp_per_column(self):
        # rows x draws, the layout of the batched likelihood block
        rng = np.random.default_rng(9)
        block = 3.0 * rng.normal(size=(40, 6))
        block[: len(self.EDGES), 0] = self.EDGES
        block[: len(self.EDGES), 3] = self.EDGES[::-1]
        before = block.copy()
        got = softplus_sum(block, axis=0)
        assert got.shape == (6,)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, np.logaddexp(0.0, block).sum(axis=0), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_array_equal(block, before)

    def test_fast_path_matches_logaddexp(self):
        # every x below 700: the exp-then-log1p path, exact to rounding even
        # where sum x + sum |x| would cancel (x = -1e17)
        rng = np.random.default_rng(10)
        edges = [0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0,
                 -709.0, -750.0, -1e4, -1e17]
        x = np.concatenate([edges, rng.normal(size=300), 12.0 * rng.normal(size=300)])
        assert x.max() < 700.0
        ref = np.logaddexp(0.0, x)
        np.testing.assert_allclose(softplus_sum(x), ref.sum(), rtol=1e-12, atol=1e-12)
        block = x[:600].reshape(40, 15)
        np.testing.assert_allclose(
            softplus_sum(block, axis=0),
            np.logaddexp(0.0, block).sum(axis=0),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_slow_path_keeps_positive_parts_beside_huge_negatives(self):
        # an entry at or above 700 takes the |x| form; there the positive
        # parts must not cancel against a -1e17 entry
        x = np.array([700.5, 3.3, -1e17])
        np.testing.assert_allclose(
            softplus_sum(x), np.logaddexp(0.0, x).sum(), rtol=1e-12
        )
        # the second column holds no large entry but shares the slow path
        block = np.array([[700.5, 1.0], [3.3, 2.0], [-1e17, -1e17]])
        np.testing.assert_allclose(
            softplus_sum(block, axis=0), np.logaddexp(0.0, block).sum(axis=0), rtol=1e-12
        )

    @pytest.mark.parametrize("top", [699.9, 700.0, 700.1, 710.0])
    def test_either_side_of_the_guard(self, top):
        # maxima just below, at and above the switch to the |x| form, and
        # past the largest x whose exp is finite
        rng = np.random.default_rng(11)
        x = 5.0 * rng.normal(size=120)
        x[17] = top
        np.testing.assert_allclose(
            softplus_sum(x), np.logaddexp(0.0, x).sum(), rtol=1e-12, atol=1e-12
        )
        block = x.reshape(40, 3)
        got = softplus_sum(block, axis=0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, np.logaddexp(0.0, block).sum(axis=0), rtol=1e-12, atol=1e-12
        )

class TestPriorDensities:
    def test_normal_prior_frozen_value(self):
        # N(0, 4) evaluated at 2.
        model = normal_model([0.0], [[4.0]])
        np.testing.assert_allclose(
            log_prior(model, np.array([2.0])),
            stats.norm.logpdf(2.0, scale=2.0),
            rtol=1e-14,
        )

    def test_laplace_prior_matches_scipy(self):
        model = laplace_model(2, 1.5)
        theta = np.array([0.7, -2.0])
        np.testing.assert_allclose(
            log_prior(model, theta),
            stats.laplace.logpdf(theta, scale=1.5).sum(),
            rtol=1e-14,
        )


class TestValidation:
    def test_theta_dimension_mismatch(self):
        model = normal_model(np.zeros(2), np.eye(2))
        data = Dataset(X=np.zeros((3, 2)), y=np.zeros(3))
        with pytest.raises(ConfigurationError):
            log_likelihood(model, np.zeros(3), data)

    def test_logistic_requires_binary_outcome(self):
        model = normal_model([0.0], [[1.0]], likelihood=LogisticLikelihood())
        data = Dataset(X=np.ones((3, 1)), y=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ConfigurationError):
            check_compatible(model, data)

    def test_feature_count_mismatch(self):
        model = normal_model(np.zeros(3), np.eye(3))
        data = Dataset(X=np.ones((3, 2)), y=np.zeros(3))
        with pytest.raises(ConfigurationError):
            check_compatible(model, data)

    def test_empty_shard_rejected(self):
        data = Dataset(X=np.ones((3, 1)), y=np.zeros(3))
        with pytest.raises(ConfigurationError):
            Shard(dataset=data, rows=np.array([], dtype=int), shard_id=0)

    def test_duplicate_active_features_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(
                model_id="bad",
                likelihood=LinearKnownVar(noise_var=1.0),
                prior=NormalPrior(mean=np.zeros(3), cov=np.eye(3)),
                dim=3,
                active_features=(1, 1),
            )

    def test_active_feature_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(
                model_id="bad",
                likelihood=LinearKnownVar(noise_var=1.0),
                prior=NormalPrior(mean=np.zeros(3), cov=np.eye(3)),
                dim=3,
                active_features=(0, 3),
            )


class TestWireFormats:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        data = Dataset(X=rng.normal(size=(9, 3)), y=rng.normal(size=9))
        path = tmp_path / "data.csv"
        save_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)

    def test_csv_missing_outcome_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,x1\n1,2\n")
        with pytest.raises(ConfigurationError):
            load_csv(path)

    def test_csv_bad_feature_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,z\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            load_csv(path)

    def test_csv_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,2\n3,oops\n")
        with pytest.raises(ConfigurationError):
            load_csv(path)

    def test_csv_selected_rows_match_full_load(self, tmp_path):
        # columns out of order, blank lines, and a file of several read blocks
        rng = np.random.default_rng(3)
        n = 4000
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        lines = ["x2,y,x1\n"]
        for i in range(n):
            lines.append(",".join(repr(float(v)) for v in (X[i, 1], y[i], X[i, 0])) + "\n")
            if i % 997 == 0:
                lines.append("\n")
        path = tmp_path / "data.csv"
        path.write_text("".join(lines))
        assert path.stat().st_size > 3 * (1 << 16)
        full = load_csv(path)
        np.testing.assert_array_equal(full.X, X)
        np.testing.assert_array_equal(full.y, y)
        masks = [
            rng.random(n) < 0.1,
            np.ones(n, dtype=bool),
            np.arange(n) == 0,
            np.arange(n) == n - 1,
            np.arange(n) % 16 == 5,
        ]
        for mask in masks:
            part = load_csv(path, rows=mask)
            np.testing.assert_array_equal(part.X, full.X[mask])
            np.testing.assert_array_equal(part.y, full.y[mask])

    def test_csv_selected_rows_count_every_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,x1\n1,2\n\n3,4\n5,oops\n")
        with pytest.raises(DomainError, match="plan covers 2 rows, dataset has 3"):
            load_csv(path, rows=[True, True])
        with pytest.raises(DomainError, match="plan covers 4 rows, dataset has 3"):
            load_csv(path, rows=[True, True, False, False])
        # only the selected rows are converted; their numbers count every row
        part = load_csv(path, rows=[False, True, False])
        np.testing.assert_array_equal(part.X, [[4.0]])
        with pytest.raises(ConfigurationError, match="malformed row 3"):
            load_csv(path, rows=[False, False, True])

    def test_model_spec_json_round_trip(self):
        specs = [
            normal_model(np.array([0.0, 1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])),
            laplace_model(3, 0.7, likelihood=LogisticLikelihood()),
            ModelSpec(
                model_id="sub",
                likelihood=LinearLogNormalVar(logsigma_mean=0.2, logsigma_sd=1.1),
                prior=NormalPrior(mean=np.zeros(4), cov=np.eye(4)),
                dim=4,
                active_features=(3, 1),
            ),
        ]
        for spec in specs:
            back = model_spec_from_json(model_spec_to_json(spec))
            assert back.model_id == spec.model_id
            assert type(back.likelihood) is type(spec.likelihood)
            assert back.dim == spec.dim
            assert back.active == spec.active
            assert back.theta_dim == spec.theta_dim
            if isinstance(spec.prior, NormalPrior):
                np.testing.assert_array_equal(back.prior.mean, spec.prior.mean)
                np.testing.assert_array_equal(back.prior.cov, spec.prior.cov)

    def test_model_spec_bad_json(self):
        with pytest.raises(ConfigurationError):
            model_spec_from_json("{not json")
        with pytest.raises(ConfigurationError):
            model_spec_from_json('{"model_id": "m"}')


class TestShardAccess:
    def test_whole_shard_covers_all_rows(self):
        data = Dataset(X=np.arange(8, dtype=float).reshape(4, 2), y=np.arange(4, dtype=float))
        sh = whole_shard(data)
        np.testing.assert_array_equal(sh.X, data.X)
        np.testing.assert_array_equal(sh.y, data.y)
        assert sh.n == 4

    def test_shard_materializes_only_its_rows(self):
        data = Dataset(X=np.arange(12, dtype=float).reshape(6, 2), y=np.arange(6, dtype=float))
        sh = Shard(dataset=data, rows=np.array([5, 1]), shard_id=1)
        np.testing.assert_array_equal(sh.y, [5.0, 1.0])
        assert sh.X.shape == (2, 2)
