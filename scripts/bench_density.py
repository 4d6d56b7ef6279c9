"""Shard density, random-walk Metropolis and reversible-jump cost: per call, per cell, per iteration.

Builds the ``SubposteriorDensity`` of shard 0 of the ``logistic_basic``
scenario split 16 ways (625 rows, 5 coefficients), the shard size an
approx-mode worker sees at S=16, and of shard 0 of the ``rj_mixture``
scenario split 3 ways (1334 rows, 5 coefficients), the shard size of a
reversible-jump run at S=3, and times five things. Each line gives the
median and the min-max spread over ``--repeats`` repeats; BLAS runs on one
thread.

* ``call_<rows>``: one scalar ``density(theta)`` at the Laplace mean, in
  us, on each of the two shards. This is the random-walk and
  reversible-jump target.
* ``block``: ``logpdf_batch`` on ``--draws`` thetas from the Laplace fit, in
  ns per cell (rows x draws), for each cap ``samplers._BLOCK_CELLS`` on the
  cells of one likelihood block in ``--caps``. This is the importance-sampling
  likelihood block.
* ``importance_625``: one ``importance_log_evidence`` call with ``--draws``
  draws on the 625-row shard, proposal from the Laplace fit, in ms. This
  is the approx-mode evidence step: the proposal draws, one density build,
  ``logpdf_batch`` and the weight reductions.
* ``rwmh``: one iteration of ``rwmh_chain`` (1000 iterations, 250 burn-in,
  started at the Laplace fit), in us, split into the target and the kernel,
  which is everything else: proposal, accept test, adaptation, bookkeeping
  and the timing wrapper's own call.
* ``rj``: one iteration of ``rjmcmc_sample`` on the 1334-row shard (6000
  iterations, 1000 burn-in, from the full model), in us, split into the
  target calls and the kernel, which is everything else but the Laplace
  fits of newly visited models: proposals, jump moves, building each new
  model's density, bookkeeping and the timing wrapper's own calls.

    PYTHONPATH=src python scripts/bench_density.py [--repeats 5] [--caps 2000000 65536]
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from splitevidence import make_synthetic, uniform_split  # noqa: E402
from splitevidence import evidence, rjmcmc, samplers  # noqa: E402

CAPS = [2_000_000, 262_144, 131_072, 65_536, 32_768, 16_384]


def row(name, runs, unit):
    med = statistics.median(runs)
    print(f"{name},{med:.2f},{min(runs):.2f},{max(runs):.2f},{unit}")


def us_per_call(density, theta, calls):
    start = time.perf_counter()
    for _ in range(calls):
        density(theta)
    return 1e6 * (time.perf_counter() - start) / calls


def ns_per_cell(density, thetas, cap, calls):
    saved, samplers._BLOCK_CELLS = samplers._BLOCK_CELLS, cap
    try:
        start = time.perf_counter()
        for _ in range(calls):
            density.logpdf_batch(thetas)
        spent = time.perf_counter() - start
    finally:
        samplers._BLOCK_CELLS = saved
    return 1e9 * spent / (calls * density.n * thetas.shape[0])


def ms_per_importance(model, shard, n_splits, fit, draws, calls=5):
    start = time.perf_counter()
    for seed in range(calls):
        evidence.importance_log_evidence(model, shard, n_splits, fit, draws, seed=seed)
    return 1e3 * (time.perf_counter() - start) / calls


def rwmh_split(density, fit, seed, n_iter=1000, burn_in=250):
    """(us per iteration, of which the target) for one chain."""
    in_target = 0.0

    def target(theta):
        nonlocal in_target
        start = time.perf_counter()
        value = density(theta)
        in_target += time.perf_counter() - start
        return value

    start = time.perf_counter()
    samplers.rwmh_chain(target, fit.mean, n_iter, burn_in, seed=seed, init_cov=fit.cov)
    total = time.perf_counter() - start
    return 1e6 * total / n_iter, 1e6 * in_target / n_iter


def rj_split(base, shard, n_splits, seed, n_iter=6000, burn_in=1000):
    """(us per iteration, of which the target) for one run, Laplace fits left out."""
    in_target = in_fit = 0.0

    def closure(model, shard, n_splits):
        density = samplers.subposterior_closure(model, shard, n_splits)

        def target(theta):
            nonlocal in_target
            start = time.perf_counter()
            value = density(theta)
            in_target += time.perf_counter() - start
            return value

        return target

    def fit(*args, **kwargs):
        nonlocal in_fit
        start = time.perf_counter()
        moments = samplers.laplace_fit(*args, **kwargs)
        in_fit += time.perf_counter() - start
        return moments

    saved = rjmcmc.subposterior_closure, rjmcmc.laplace_fit
    rjmcmc.subposterior_closure, rjmcmc.laplace_fit = closure, fit
    try:
        start = time.perf_counter()
        rjmcmc.rjmcmc_sample(base, shard, n_splits, n_iter, burn_in, seed=seed)
        total = time.perf_counter() - start
    finally:
        rjmcmc.subposterior_closure, rjmcmc.laplace_fit = saved
    return 1e6 * (total - in_fit) / n_iter, 1e6 * in_target / n_iter


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--caps", type=int, nargs="+", default=CAPS,
                        help="cells per likelihood block")
    parser.add_argument("--draws", type=int, default=4000, help="thetas per logpdf_batch call")
    args = parser.parse_args()

    data, models = make_synthetic("logistic_basic", seed=0)
    shard = uniform_split(data.X.shape[0], 16, seed=0).shard(data, 0)
    model = models[0]
    density = samplers.SubposteriorDensity(model, shard, 16)
    fit = samplers.laplace_fit(model, shard, 16)
    thetas = np.random.default_rng(0).multivariate_normal(fit.mean, 1.5 * fit.cov, args.draws)
    density.logpdf_batch(thetas)  # warm-up
    rwmh_split(density, fit, seed=0)
    rj_data, rj_models = make_synthetic("rj_mixture", seed=0)
    rj_shard = uniform_split(rj_data.X.shape[0], 3, seed=0).shard(rj_data, 0)
    rj_density = samplers.SubposteriorDensity(rj_models[0], rj_shard, 3)
    rj_mean = samplers.laplace_fit(rj_models[0], rj_shard, 3).mean

    print(f"# shards {density.n} x {model.theta_dim} and {rj_density.n} x 5, "
          f"{args.repeats} repeats")
    print("name,median,min,max,unit")
    for dens, mean in ((density, fit.mean), (rj_density, rj_mean)):
        row(f"call_{dens.n}", [us_per_call(dens, mean, 20_000) for _ in range(args.repeats)], "us")
    for cap in args.caps:
        runs = [ns_per_cell(density, thetas, cap, 20) for _ in range(args.repeats)]
        row(f"block_{cap}", runs, "ns_per_cell")
    runs = [ms_per_importance(model, shard, 16, fit, args.draws) for _ in range(args.repeats)]
    row(f"importance_{density.n}", runs, "ms")
    splits = [rwmh_split(density, fit, seed=r) for r in range(args.repeats)]
    row("rwmh_iter", [total for total, _ in splits], "us")
    row("rwmh_target", [target for _, target in splits], "us")
    row("rwmh_kernel", [total - target for total, target in splits], "us")
    splits = [rj_split(rj_models[0], rj_shard, 3, seed=r) for r in range(args.repeats)]
    row("rj_iter", [total for total, _ in splits], "us")
    row("rj_target", [target for _, target in splits], "us")
    row("rj_kernel", [total - target for total, target in splits], "us")


if __name__ == "__main__":
    main()
