"""End-to-end accuracy and protocol checks for the distributed pipeline.

Each test pins one headline guarantee at a fixed tolerance: exactness of
the conjugate recombination, sampled-pipeline accuracy, agreement of the
evidence estimators with quadrature, Bayes-factor stability across split
counts, the known failure mode of the conditional method, reversible-jump
model ranking, and byte-level determinism of the run protocol.  Budgets
and tolerances are deliberately hard-coded; a change that moves any of
them is a behavior change, not a tuning knob.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from oracle_utils import quad_log_product_of_normals_1d, sample_pg_truncated_vec

from splitevidence import (
    GaussianMoments,
    approx_isub,
    combine_evidence,
    ModelIndicator,
    RunConfig,
    UniformIndicatorPrior,
    WorkerResult,
    chain_moments,
    chib_log_evidence,
    combine_worker_results,
    decode_worker_result,
    distributed_log_bf,
    encode_worker_result,
    epsilon_metrics,
    exact_evidence_conjugate_gaussian,
    importance_log_evidence,
    laplace_fit,
    laplace_metropolis_log_evidence,
    make_synthetic,
    model_log_bf,
    pg_gibbs_logistic,
    rjmcmc_sample,
    run_cluster,
    uniform_split,
    whole_shard,
)
from splitevidence.cli import main as cli_main
from splitevidence.diagnostics import quadrature_subposterior_summary
from splitevidence.models import (
    Dataset,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    log_alpha,
)
from splitevidence.samplers import SubposteriorDensity, pg_mean, sample_pg_vec


def _report(label: str, detail: str) -> None:
    print(f"{label}: PASS ({detail})")


def _conjugate_oracle(data, model) -> float:
    return exact_evidence_conjugate_gaussian(
        data.X,
        data.y,
        model.prior.mean,
        model.prior.cov,
        model.likelihood.noise_var,
    )


def _logistic_data(rng, n, p, theta, rho=0.5):
    common = rng.standard_normal((n, 1))
    idio = rng.standard_normal((n, p))
    X = math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio
    y = (rng.random(n) < expit(X @ np.asarray(theta))).astype(float)
    return Dataset(X=X, y=y)


def test_exact_recombination_matches_conjugate_oracle():
    # analytic worker summaries must reproduce the closed-form evidence to
    # floating-point accuracy at every split count
    start = time.perf_counter()
    data, models = make_synthetic("linear_conjugate", seed=0)
    model = models[0]
    oracle = _conjugate_oracle(data, model)
    config = RunConfig(mode="exact")
    worst = 0.0
    for n_splits in (1, 2, 5, 10):
        plan = uniform_split(data.X.shape[0], n_splits, seed=1)
        results = run_cluster(data, plan, model, config)
        combined = combine_worker_results(model, results)
        worst = max(worst, abs(combined.log_value - oracle))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"max |delta| = {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(
        "exact recombination vs conjugate oracle",
        f"max |delta| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_sampled_pipeline_tracks_conjugate_oracle():
    start = time.perf_counter()
    data, models = make_synthetic("linear_conjugate", seed=0)
    model = models[0]
    oracle = _conjugate_oracle(data, model)
    tol = 0.005 * abs(oracle)
    worst = 0.0
    for n_splits in (1, 5, 10):
        plan = uniform_split(data.X.shape[0], n_splits, seed=1)
        config = RunConfig(
            mode="approx",
            evidence="importance",
            samples=10_000,
            burn_in=2_000,
            evidence_samples=10_000,
            seed=3,
        )
        combined = combine_worker_results(
            model, run_cluster(data, plan, model, config)
        )
        worst = max(worst, abs(combined.log_value - oracle))
    elapsed = time.perf_counter() - start
    assert worst < tol, f"max |delta| = {worst:.3f} vs tol {tol:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(
        "sampled pipeline vs conjugate oracle",
        f"max |delta| = {worst:.3f} (tol {tol:.3f}), {elapsed:.1f}s",
    )


def test_product_integral_matches_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    split_cycle = (2, 3, 5)
    worst = 0.0
    for i in range(200):
        n_splits = split_cycle[i % 3]
        means = rng.uniform(-3.0, 3.0, n_splits)
        sds = rng.uniform(0.2, 2.0, n_splits)
        parts = [
            GaussianMoments(mean=np.array([m]), cov=np.array([[sd**2]]))
            for m, sd in zip(means, sds)
        ]
        got = approx_isub(parts)
        want = quad_log_product_of_normals_1d(means, sds)
        # relative error of the integral itself, not of its log
        worst = max(worst, abs(math.expm1(got - want)))
    assert worst < 1e-8, f"worst relative error {worst:.3e}"
    one = GaussianMoments(mean=np.array([0.3]), cov=np.array([[0.7]]))
    assert approx_isub([one]) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(
        "product integral vs quadrature",
        f"worst rel err = {worst:.2e} over 200 cases, {elapsed:.1f}s",
    )


def test_polya_gamma_sampler_moments():
    start = time.perf_counter()
    n_draws = 100_000
    lines = []
    for c in (0.1, 1.0, 5.0):
        truth = float(pg_mean(c))
        rng = np.random.default_rng(int(10 * c))
        exact_mean = float(np.mean(sample_pg_vec(np.full(n_draws, c), rng)))
        tol = max(0.01 * truth, 0.002)
        assert abs(exact_mean - truth) < tol, (
            f"c={c}: |{exact_mean:.5f} - {truth:.5f}| >= {tol:.5f}"
        )
        rng_e = np.random.default_rng(int(10 * c) + 1)
        rng_t = np.random.default_rng(int(10 * c) + 2)
        big = 300_000
        m_e = float(np.mean(sample_pg_vec(np.full(big, c), rng_e)))
        m_t = float(np.mean(sample_pg_truncated_vec(np.full(big, c), rng_t)))
        assert abs(m_e - m_t) < 0.005 * truth, (
            f"c={c}: samplers disagree, {m_e:.5f} vs {m_t:.5f}"
        )
        lines.append(f"c={c}: |err|={abs(exact_mean - truth):.5f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("polya-gamma moments", "; ".join(lines) + f", {elapsed:.1f}s")


def test_evidence_estimators_agree():
    start = time.perf_counter()
    prior1 = NormalPrior(mean=np.zeros(1), cov=np.eye(1))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200)
    y = (rng.random(200) < expit(1.2 * x)).astype(float)
    small = Dataset(X=x[:, None], y=y)
    model1 = ModelSpec(
        model_id="one", likelihood=LogisticLikelihood(), prior=prior1, dim=1
    )
    density = SubposteriorDensity(model1, whole_shard(small), 1)
    quad, _ = quadrature_subposterior_summary(density)

    chain, stream = pg_gibbs_logistic(density, n_iter=6_000, burn_in=1_000, seed=11)
    chib = chib_log_evidence(density, chain, stream)
    fit = laplace_fit(density)
    imp = importance_log_evidence(density, fit, n_samples=20_000, seed=3)
    lm = laplace_metropolis_log_evidence(density, chain_moments(chain))
    errs = {
        "chib": abs(chib.log_value - quad),
        "importance": abs(imp.log_value - quad),
        "laplace_metropolis": abs(lm.log_value - quad),
    }
    for name, err in errs.items():
        assert err < 0.2, f"{name} off quadrature by {err:.3f}"

    rng = np.random.default_rng(55)
    big = _logistic_data(rng, 5_000, 5, [1.0, -1.0, 0.5, -0.5, 0.25])
    model5 = ModelSpec(
        model_id="five",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(5), cov=np.eye(5)),
        dim=5,
    )
    density5 = SubposteriorDensity(model5, whole_shard(big), 1)
    chain5, stream5 = pg_gibbs_logistic(density5, n_iter=4_000, burn_in=800, seed=21)
    chib5 = chib_log_evidence(density5, chain5, stream5)
    imp5 = importance_log_evidence(
        density5, laplace_fit(density5), n_samples=20_000, seed=9
    )
    gap = abs(chib5.log_value - imp5.log_value)
    assert gap < 0.1, f"chib vs importance gap {gap:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(
        "estimator agreement",
        "1-d max |err| = {:.3f}; 5-d chib/importance gap = {:.3f}, {:.1f}s".format(
            max(errs.values()), gap, elapsed
        ),
    )


def test_bayes_factors_stable_across_splits():
    # the approximate combination should rank the data-generating model
    # first at every split count and keep the Bayes factors where the
    # single-shard run put them; the per-shard normal approximations come
    # from the analytic Laplace fit, so the check isolates the combination
    # rule from Monte Carlo moment noise
    start = time.perf_counter()
    split_grid = (1, 10, 25, 50)
    worst_drift = 0.0
    for seed in range(5):
        data, models = make_synthetic("toy_gaussian", seed=seed)
        evidences = {}
        for n_splits in split_grid:
            shards = uniform_split(data.X.shape[0], n_splits, seed=seed).shards(
                data
            )
            evs = []
            for model in models:
                densities = [SubposteriorDensity(model, sh, n_splits) for sh in shards]
                fits = [laplace_fit(density) for density in densities]
                locals_ = [
                    laplace_metropolis_log_evidence(density, fit)
                    for density, fit in zip(densities, fits)
                ]
                est = combine_evidence(
                    log_alpha(model, n_splits),
                    locals_,
                    approx_isub(fits),
                    n_splits,
                )
                evs.append(est.log_value)
            evidences[n_splits] = evs
            assert int(np.argmax(evs)) == len(models) - 1, (
                f"seed {seed}, S={n_splits}: true model not ranked first"
            )
        base = evidences[1]
        bf_ref = [base[-1] - base[k] for k in range(len(models) - 1)]
        for n_splits in split_grid[1:]:
            evs = evidences[n_splits]
            for k, ref in enumerate(bf_ref):
                drift = abs((evs[-1] - evs[k]) - ref) / abs(ref)
                worst_drift = max(worst_drift, drift)
                assert drift < 0.10, (
                    f"seed {seed}, S={n_splits}, model m{k + 1}: "
                    f"BF drift {100 * drift:.1f}%"
                )
    elapsed = time.perf_counter() - start
    _report(
        "bayes factor stability",
        f"worst BF drift = {100 * worst_drift:.1f}% (cap 10%), {elapsed:.0f}s",
    )


def test_conditional_method_degrades_with_splits():
    # repeated runs on one dataset: the conditional combination gets
    # noisier as shards multiply while the approximate one stays put
    start = time.perf_counter()
    data, models = make_synthetic("logistic_basic", seed=0)
    model = models[0]
    n_rows = data.X.shape[0]
    n_reps = 20
    stds = {}
    for mode in ("conditional", "approx"):
        for n_splits in (2, 16):
            plan = uniform_split(n_rows, n_splits, seed=0)
            values = []
            for rep in range(n_reps):
                if mode == "conditional":
                    config = RunConfig(
                        mode="conditional",
                        evidence="chib",
                        samples=1_000,
                        burn_in=250,
                        seed=rep,
                    )
                else:
                    config = RunConfig(
                        mode="approx",
                        evidence="importance",
                        samples=1_000,
                        burn_in=250,
                        evidence_samples=4_000,
                        seed=rep,
                    )
                combined = combine_worker_results(
                    model, run_cluster(data, plan, model, config)
                )
                values.append(combined.log_value)
            stds[(mode, n_splits)] = float(np.std(values, ddof=1))
    assert stds[("conditional", 16)] > stds[("conditional", 2)], (
        f"conditional std did not grow: {stds}"
    )
    assert stds[("approx", 16)] <= 3.0 * stds[("approx", 2)], (
        f"approximate std blew up: {stds}"
    )
    elapsed = time.perf_counter() - start
    _report(
        "conditional degradation",
        "conditional std {:.3f} -> {:.3f}, approx std {:.3f} -> {:.3f}, {:.0f}s".format(
            stds[("conditional", 2)],
            stds[("conditional", 16)],
            stds[("approx", 2)],
            stds[("approx", 16)],
            elapsed,
        ),
    )


def test_epsilon_metrics_trend_with_split_count():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    data = _logistic_data(rng, 2_000, 2, [0.8, -0.5])
    model = ModelSpec(
        model_id="two",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
        dim=2,
    )
    exact = quadrature_subposterior_summary(SubposteriorDensity(model, whole_shard(data), 1))[0]

    split_grid = (1, 2, 4, 8)
    pairs = []
    for rep in range(6):
        for n_splits in split_grid:
            plan = uniform_split(data.X.shape[0], n_splits, seed=rep)
            config = RunConfig(
                mode="approx",
                evidence="importance",
                samples=2_000,
                burn_in=500,
                evidence_samples=4_000,
                seed=10 * rep + n_splits,
            )
            combined = combine_worker_results(
                model, run_cluster(data, plan, model, config)
            )
            pairs.append(epsilon_metrics(exact, combined.log_value, n_splits))

    logs = np.array([math.log(p.n_splits) for p in pairs])
    eps2 = np.array([p.eps2 for p in pairs])
    slope = float(np.polyfit(logs, eps2, 1)[0])
    assert slope > 0.0, f"eps2 slope on log S is {slope:.3f}"

    means = {
        s: float(np.mean([p.eps1 for p in pairs if p.n_splits == s]))
        for s in split_grid
    }
    seq = [means[s] for s in split_grid]
    inversions = sum(1 for a, b in zip(seq, seq[1:]) if b < a)
    assert inversions <= 1, f"eps1 means {seq} have {inversions} inversions"
    elapsed = time.perf_counter() - start
    _report(
        "epsilon trends",
        f"eps2 slope = {slope:.2f}, eps1 means = "
        + "[" + ", ".join(f"{v:.3f}" for v in seq) + f"], {elapsed:.0f}s",
    )


def test_reversible_jump_model_ranking():
    start = time.perf_counter()
    data, models = make_synthetic("rj_mixture", seed=0)
    base = models[0]
    m1 = ModelIndicator(active=(0, 1, 2, 4), n_features=5)
    m2 = ModelIndicator(active=(0, 3, 4), n_features=5)
    m3 = ModelIndicator(active=(0, 1, 4), n_features=5)
    prior = UniformIndicatorPrior()

    out = rjmcmc_sample(
        base,
        whole_shard(data),
        n_splits=1,
        n_iter=100_000,
        burn_in=10_000,
        seed=0,
        model_prior=prior,
        min_visits=50,
    )
    b12 = model_log_bf(out, m1, m2, prior)
    b13 = model_log_bf(out, m1, m3, prior)
    b23 = model_log_bf(out, m2, m3, prior)
    assert abs(b12 - 3.2) < 1.5, f"log BF(1/2) = {b12:.3f}"
    assert abs(b13 - 3.6) < 1.5, f"log BF(1/3) = {b13:.3f}"
    assert abs(b23 - 0.4) < 1.0, f"log BF(2/3) = {b23:.3f}"
    assert b13 > b12 > b23, f"ordering failed: {b13:.3f}, {b12:.3f}, {b23:.3f}"

    shards = uniform_split(data.X.shape[0], 3, seed=0).shards(data)
    for run_seed in (1, 2, 3):
        outs = [
            rjmcmc_sample(
                base,
                sh,
                n_splits=3,
                n_iter=100_000,
                burn_in=10_000,
                seed=100 * run_seed + s,
                model_prior=prior,
                min_visits=50,
            )
            for s, sh in enumerate(shards)
        ]
        d12 = distributed_log_bf(outs, m1, m2, base, 3, prior)
        d13 = distributed_log_bf(outs, m1, m3, base, 3, prior)
        d23 = distributed_log_bf(outs, m2, m3, base, 3, prior)
        assert d13 > d12 > d23, (
            f"seed {run_seed}: ordering failed: {d13:.3f}, {d12:.3f}, {d23:.3f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(
        "reversible jump ranking",
        f"single-run BFs = ({b12:.2f}, {b13:.2f}, {b23:.2f}), "
        f"3-shard ordering held for 3 seeds, {elapsed:.0f}s",
    )


def _run_cli(args) -> None:
    code = cli_main([str(a) for a in args])
    assert code == 0, f"cli exited {code} for {args}"


def _run_tree_bytes(out_dir: Path) -> dict:
    captured = {}
    for name in ("plan.json", "evidence.json"):
        captured[name] = (out_dir / name).read_bytes()
    for result in sorted(out_dir.glob("*/result_*.json")):
        captured[str(result.relative_to(out_dir))] = result.read_bytes()
    return captured


def _random_worker_result(rng) -> WorkerResult:
    dim = int(rng.integers(1, 7))
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    method = ("importance", "laplace", "chib", "exact")[int(rng.integers(4))]
    return WorkerResult(
        shard_id=int(rng.integers(0, 50)),
        model_id=f"m{int(rng.integers(0, 10))}",
        n_obs=int(rng.integers(1, 10_000)),
        dim=dim,
        n_splits=int(rng.integers(1, 64)),
        n_samples=int(rng.integers(0, 100_000)),
        seed=int(rng.integers(0, 2**31)),
        mean=rng.standard_normal(dim),
        cov=cov,
        evidence_method=method,
        log_local_evidence=float(rng.normal(scale=1_000.0)),
        evidence_std_err=None if rng.random() < 0.3 else float(rng.random()),
        acceptance_rate=None if rng.random() < 0.5 else float(rng.random()),
        ess=None if rng.random() < 0.5 else float(rng.uniform(1.0, 1e5)),
        conditional_stream_path=None
        if rng.random() < 0.8
        else f"streams/cond_{int(rng.integers(100))}.ndjson",
    )


def test_run_protocol_is_deterministic(tmp_path):
    start = time.perf_counter()
    work = tmp_path / "work"
    work.mkdir()
    _run_cli(["synth", "--scenario", "linear_conjugate", "--seed", "0",
              "--out", work])
    run_args = [
        "run",
        "--data", work / "data.csv",
        "--model", work / "model_m1.json",
        "--splits", "3",
        "--mode", "approx",
        "--evidence", "importance",
        "--samples", "600",
        "--burn-in", "150",
        "--evidence-samples", "800",
        "--seed", "17",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    _run_cli(run_args + ["--out", out1])
    _run_cli(run_args + ["--out", out2])
    first = _run_tree_bytes(out1)
    second = _run_tree_bytes(out2)
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"artifacts differ between identical runs: {diffs}"
    assert sum(1 for name in first if "result_" in name) == 3

    rng = np.random.default_rng(0)
    for _ in range(100):
        result = _random_worker_result(rng)
        assert decode_worker_result(encode_worker_result(result)) == result
    elapsed = time.perf_counter() - start
    _report(
        "protocol determinism",
        f"{len(first)} artifacts byte-identical, 100 round trips, {elapsed:.0f}s",
    )
