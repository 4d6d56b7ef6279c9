import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitevidence import (
    ConfigurationError,
    Dataset,
    DecodeError,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    SchemaVersionError,
    WorkerError,
    exact_evidence_conjugate_gaussian,
    make_synthetic,
    whole_shard,
)
from splitevidence import cluster as cluster_module
from splitevidence.cluster import (
    RunConfig,
    WorkerResult,
    WorkerTask,
    combine_worker_results,
    decode_worker_result,
    derived_seed,
    encode_worker_result,
    make_tasks,
    read_worker_result,
    run_cluster,
    run_worker,
    worker_seed,
    write_worker_result,
)
from splitevidence.diagnostics import quadrature_subposterior_summary
from splitevidence.samplers import ConditionalGaussianStream, SubposteriorDensity
from splitevidence.sharding import uniform_split


def _logistic_setup(seed=7, n=240):
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


def _result_fixture(**overrides):
    base = dict(
        shard_id=0,
        model_id="m1",
        n_obs=10,
        dim=2,
        n_splits=2,
        n_samples=100,
        seed=42,
        mean=np.array([0.25, -1.5]),
        cov=np.array([[1.0, 0.1], [0.1, 2.0]]),
        evidence_method="importance",
        log_local_evidence=-12.5,
        evidence_std_err=0.01,
        acceptance_rate=0.3,
        ess=80.0,
        conditional_stream_path=None,
    )
    base.update(overrides)
    return WorkerResult(**base)


class TestSeeds:
    def test_stable_and_distinct(self):
        seeds = [worker_seed(5, s) for s in range(20)]
        assert len(set(seeds)) == 20
        assert seeds == [worker_seed(5, s) for s in range(20)]

    def test_adding_shards_preserves_existing(self):
        # shard 3's seed does not depend on how many shards exist
        assert worker_seed(9, 3) == worker_seed(9, 3)
        assert derived_seed(9, 3, 1) != worker_seed(9, 3)

    def test_master_seed_matters(self):
        assert worker_seed(1, 0) != worker_seed(2, 0)


class TestRunConfig:
    def test_mode_method_compatibility(self):
        with pytest.raises(ConfigurationError):
            RunConfig(mode="conditional", evidence="importance")
        with pytest.raises(ConfigurationError):
            RunConfig(mode="approx", evidence="chib")
        with pytest.raises(ConfigurationError):
            RunConfig(mode="teleport")
        with pytest.raises(ConfigurationError):
            RunConfig(parallelism=0)
        RunConfig(mode="conditional", evidence="chib")

    def test_conditional_task_needs_logistic_normal(self):
        data, models = make_synthetic("linear_conjugate", seed=0)
        with pytest.raises(ConfigurationError):
            WorkerTask(
                shard=whole_shard(data),
                model=models[0],
                n_splits=1,
                config=RunConfig(
                    mode="conditional",
                    samples=100,
                    burn_in=10,
                    evidence="chib",
                    evidence_samples=100,
                ),
                seed=0,
            )


class TestRunWorker:
    def test_flat_likelihood_shard(self):
        # all-zero features make the logistic likelihood constant (1/2)^n,
        # so the subposterior is the subprior and the evidence is n log 1/2
        n = 60
        data = Dataset(X=np.zeros((n, 1)), y=np.zeros(n))
        model = ModelSpec(
            model_id="flat",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(1), cov=np.eye(1)),
            dim=1,
        )
        n_splits = 2
        task = WorkerTask(
            shard=whole_shard(data),
            model=model,
            n_splits=n_splits,
            config=RunConfig(
                mode="approx",
                samples=8000,
                burn_in=1500,
                evidence="importance",
                evidence_samples=20_000,
            ),
            seed=3,
        )
        result = run_worker(task)
        assert abs(result.log_local_evidence - n * np.log(0.5)) < 0.02
        # subprior is N(0, S * 1)
        assert abs(result.mean[0]) < 0.1
        assert abs(result.cov[0, 0] - n_splits) < 0.25

    def test_deterministic_bytes(self):
        data, model = _logistic_setup()
        task = WorkerTask(
            shard=whole_shard(data),
            model=model,
            n_splits=1,
            config=RunConfig(
                mode="approx",
                samples=2000,
                burn_in=400,
                evidence="laplace",
                evidence_samples=0,
            ),
            seed=11,
        )
        a = encode_worker_result(run_worker(task))
        b = encode_worker_result(run_worker(task))
        assert a == b

    def test_exact_oracle_matches_closed_form(self):
        data, models = make_synthetic("linear_conjugate", seed=1)
        model = models[0]
        from splitevidence import exact_local_evidence

        shard = whole_shard(data)
        task = WorkerTask(
            shard=shard,
            model=model,
            n_splits=1,
            config=RunConfig(mode="exact", evidence="importance", evidence_samples=0),
            seed=0,
        )
        result = run_worker(task)
        assert result.n_samples == 0
        assert result.evidence_method == "exact"
        assert result.log_local_evidence == pytest.approx(
            exact_local_evidence(model, shard, 1), abs=1e-8
        )

    def test_exact_oracle_rejects_logistic(self):
        data, model = _logistic_setup()
        task = WorkerTask(
            shard=whole_shard(data),
            model=model,
            n_splits=1,
            config=RunConfig(mode="exact", evidence="importance", evidence_samples=0),
            seed=0,
        )
        with pytest.raises(WorkerError, match="shard 0"):
            run_worker(task)

    def test_conditional_writes_stream(self, tmp_path):
        data, model = _logistic_setup()
        path = str(tmp_path / "cond_0.ndjson")
        task = WorkerTask(
            shard=whole_shard(data),
            model=model,
            n_splits=1,
            config=RunConfig(
                mode="conditional",
                samples=1500,
                burn_in=300,
                evidence="chib",
                evidence_samples=0,
            ),
            seed=5,
            stream_path=path,
        )
        result = run_worker(task)
        assert result.conditional_stream_path == path
        assert os.path.exists(path)
        assert result.stream is not None
        assert result.stream.n_records == result.n_samples
        assert result.acceptance_rate is None

    @pytest.mark.parametrize(
        "mode, evidence",
        [("approx", "importance"), ("approx", "laplace"), ("conditional", "chib")],
    )
    def test_one_density_build_per_task(self, monkeypatch, mode, evidence):
        # the Laplace fit, the chain and the estimator share the task's density
        builds = []
        build = SubposteriorDensity.__init__

        def counted(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(SubposteriorDensity, "__init__", counted)
        data, model = _logistic_setup()
        config = RunConfig(
            mode=mode, evidence=evidence, samples=400, burn_in=100, evidence_samples=200
        )
        run_worker(WorkerTask(whole_shard(data), model, 2, config, seed=0))
        assert len(builds) == 1

    @pytest.mark.parametrize("evidence", ["importance", "laplace"])
    def test_only_the_chain_target_goes_through_the_closure(self, monkeypatch, evidence):
        # a plain function in place of the closure (as a tracing wrapper
        # returns) sees every chain call and changes no byte of the result
        data, model = _logistic_setup()
        config = RunConfig(evidence=evidence, samples=400, burn_in=100, evidence_samples=200)
        task = WorkerTask(whole_shard(data), model, 2, config, seed=0)
        plain = encode_worker_result(run_worker(task))
        calls = []

        def closure(density):
            def target(theta):
                calls.append(theta)
                return density(theta)

            return target

        monkeypatch.setattr(cluster_module, "subposterior_closure", closure)
        assert encode_worker_result(run_worker(task)) == plain
        assert len(calls) == config.samples + 1


class TestRunCluster:
    def test_single_shard_matches_worker(self):
        data, model = _logistic_setup()
        plan = uniform_split(data.X.shape[0], 1, seed=0)
        cfg = RunConfig(
            mode="approx",
            evidence="laplace",
            samples=2000,
            burn_in=400,
            seed=2,
        )
        results = run_cluster(data, plan, model, cfg)
        assert len(results) == 1
        task = make_tasks(data, plan, model, cfg)[0]
        assert results[0] == run_worker(task)

    def test_conjugate_recombination_through_protocol(self):
        data, models = make_synthetic("linear_conjugate", seed=3)
        model = models[0]
        truth = exact_evidence_conjugate_gaussian(
            data.X, data.y, model.prior.mean, model.prior.cov, 1.0
        )
        plan = uniform_split(data.X.shape[0], 4, seed=1)
        cfg = RunConfig(mode="exact", seed=5)
        results = run_cluster(data, plan, model, cfg)
        assert [r.shard_id for r in results] == [0, 1, 2, 3]
        combined = combine_worker_results(model, results)
        assert combined.method == "combined_approx"
        assert combined.log_value == pytest.approx(truth, abs=1e-6)

    def test_parallelism_does_not_change_results(self):
        data, models = make_synthetic("linear_conjugate", seed=3)
        model = models[0]
        plan = uniform_split(data.X.shape[0], 4, seed=1)
        serial = run_cluster(
            data, plan, model, RunConfig(mode="exact", seed=5)
        )
        threaded = run_cluster(
            data,
            plan,
            model,
            RunConfig(mode="exact", seed=5, parallelism=4),
        )
        assert all(a == b for a, b in zip(serial, threaded))

    def test_worker_failure_reports_shard(self):
        data, model = _logistic_setup()
        plan = uniform_split(data.X.shape[0], 2, seed=0)
        # exact mode on a logistic model fails inside every worker
        cfg = RunConfig(mode="exact", seed=0)
        with pytest.raises(WorkerError, match="shard 0"):
            run_cluster(data, plan, model, cfg)

    def test_worker_failure_names_each_shard_once(self):
        data, model = _logistic_setup()
        plan = uniform_split(data.X.shape[0], 3, seed=0)
        with pytest.raises(WorkerError) as info:
            run_cluster(data, plan, model, RunConfig(mode="exact", seed=0))
        message = str(info.value)
        assert message.startswith("3 worker(s) failed: shard 0: ")
        for sid in range(3):
            assert message.count(f"shard {sid}:") == 1

    def test_conditional_end_to_end(self, tmp_path):
        data, model = _logistic_setup()
        truth, _ = quadrature_subposterior_summary(SubposteriorDensity(model, whole_shard(data), 1))
        plan = uniform_split(data.X.shape[0], 2, seed=0)
        cfg = RunConfig(
            mode="conditional",
            evidence="chib",
            samples=5000,
            burn_in=1000,
            seed=3,
        )
        results = run_cluster(data, plan, model, cfg, stream_dir=str(tmp_path))
        combined = combine_worker_results(model, results)
        assert combined.method == "combined_conditional"
        assert abs(combined.log_value - truth) < 0.15

        # reload results purely from disk: streams come back via their paths
        paths = [tmp_path / f"result_{r.shard_id}.json" for r in results]
        for r, p in zip(results, paths):
            write_worker_result(r, p)
        loaded = [read_worker_result(p) for p in paths]
        again = combine_worker_results(model, loaded)
        assert again.log_value == pytest.approx(combined.log_value, abs=1e-12)

    def test_combine_validates_shard_coverage(self):
        data, models = make_synthetic("linear_conjugate", seed=3)
        model = models[0]
        plan = uniform_split(data.X.shape[0], 3, seed=1)
        results = run_cluster(data, plan, model, RunConfig(mode="exact"))
        with pytest.raises(WorkerError):
            combine_worker_results(model, results[:2])
        with pytest.raises(WorkerError):
            combine_worker_results(model, [])
        other = ModelSpec(
            model_id="other",
            likelihood=model.likelihood,
            prior=model.prior,
            dim=model.dim,
        )
        with pytest.raises(WorkerError, match="model"):
            combine_worker_results(other, results)

    @pytest.mark.parametrize("ess, warnings", [(5.0, ("low_ess",)), (80.0, ())])
    def test_combine_carries_low_ess_warnings(self, ess, warnings):
        model = ModelSpec(
            model_id="m1",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        results = [_result_fixture(shard_id=s, ess=ess) for s in range(2)]
        assert results[0].local_estimate().warnings == warnings
        assert combine_worker_results(model, results).warnings == warnings

    def test_missing_stream_for_conditional(self):
        result = _result_fixture(n_splits=1, evidence_method="chib")
        model = ModelSpec(
            model_id="m1",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        with pytest.raises(WorkerError, match="stream"):
            combine_worker_results(model, [result])

    @pytest.mark.parametrize("n_records, dim", [(99, 2), (100, 3)])
    def test_stream_must_match_its_result(self, n_records, dim):
        stream = ConditionalGaussianStream(
            eta=np.zeros(dim), precisions=np.broadcast_to(np.eye(dim), (n_records, dim, dim))
        )
        result = _result_fixture(n_splits=1, evidence_method="chib", stream=stream)
        model = ModelSpec(
            model_id="m1",
            likelihood=LogisticLikelihood(),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        with pytest.raises(DecodeError, match=f"{n_records} draws of dimension {dim}"):
            combine_worker_results(model, [result])


class TestCanonicalSerialization:
    def test_round_trip_identity(self):
        result = _result_fixture()
        blob = encode_worker_result(result)
        back = decode_worker_result(blob)
        assert back == result
        assert encode_worker_result(back) == blob

    def test_trailing_newline_single_line(self):
        blob = encode_worker_result(_result_fixture())
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1

    def test_key_order_is_fixed(self):
        blob = encode_worker_result(_result_fixture()).decode()
        order = [
            '"schema_version"',
            '"shard_id"',
            '"model_id"',
            '"n_obs"',
            '"dim"',
            '"n_splits"',
            '"n_samples"',
            '"seed"',
            '"mean"',
            '"cov_row_major"',
            '"log_local_evidence"',
            '"acceptance_rate"',
            '"ess"',
            '"conditional_stream_path"',
        ]
        positions = [blob.index(key) for key in order]
        assert positions == sorted(positions)

    def test_nulls_are_explicit(self):
        blob = encode_worker_result(
            _result_fixture(evidence_std_err=None, acceptance_rate=None, ess=None)
        ).decode()
        assert '"std_err":null' in blob
        assert '"acceptance_rate":null' in blob
        assert '"ess":null' in blob
        assert '"conditional_stream_path":null' in blob

    def test_schema_version_gate(self):
        blob = encode_worker_result(_result_fixture())
        tampered = blob.replace(b'"schema_version":1', b'"schema_version":2')
        with pytest.raises(SchemaVersionError):
            decode_worker_result(tampered)

    def test_non_spd_cov_rejected(self):
        blob = encode_worker_result(_result_fixture())
        tampered = blob.replace(b'"cov_row_major":[1.0,', b'"cov_row_major":[-1.0,')
        with pytest.raises(DecodeError, match="covariance"):
            decode_worker_result(tampered)

    def test_malformed_payloads(self):
        with pytest.raises(DecodeError):
            decode_worker_result(b"not json\n")
        with pytest.raises(DecodeError):
            decode_worker_result(b"[1,2]\n")
        blob = encode_worker_result(_result_fixture())
        with pytest.raises(DecodeError, match="missing"):
            decode_worker_result(
                blob.replace(b'"acceptance_rate":0.3,', b"")
            )
        with pytest.raises(DecodeError, match="mean"):
            decode_worker_result(blob.replace(b'"dim":2', b'"dim":3'))
        with pytest.raises(DecodeError, match="finite"):
            decode_worker_result(
                blob.replace(b'"value":-12.5', b'"value":Infinity')
            )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_randomized_round_trips(self, data):
        dim = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + dim * np.eye(dim)
        maybe_float = st.one_of(
            st.none(), st.floats(-1e6, 1e6, allow_nan=False)
        )
        result = WorkerResult(
            shard_id=data.draw(st.integers(0, 1000)),
            model_id=data.draw(
                st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=1,
                    max_size=12,
                )
            ),
            n_obs=data.draw(st.integers(1, 10**6)),
            dim=dim,
            n_splits=data.draw(st.integers(1, 64)),
            n_samples=data.draw(st.integers(0, 10**6)),
            seed=data.draw(st.integers(0, 2**63 - 1)),
            mean=rng.standard_normal(dim),
            cov=cov,
            evidence_method=data.draw(
                st.sampled_from(["chib", "importance", "laplace", "exact"])
            ),
            log_local_evidence=data.draw(st.floats(-1e8, 1e8, allow_nan=False)),
            evidence_std_err=data.draw(maybe_float),
            acceptance_rate=data.draw(maybe_float),
            ess=data.draw(maybe_float),
            conditional_stream_path=data.draw(
                st.one_of(st.none(), st.just("cond_0.ndjson"))
            ),
        )
        blob = encode_worker_result(result)
        back = decode_worker_result(blob)
        assert back == result
        assert encode_worker_result(back) == blob
