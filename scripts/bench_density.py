"""Shard density and random-walk Metropolis cost: per call, per cell, per iteration.

Builds the ``SubposteriorDensity`` of shard 0 of the ``logistic_basic``
scenario split 16 ways (625 rows, 5 coefficients), the shard size an
approx-mode worker sees at S=16, and times three things. Each line gives
the median and the min-max spread over ``--repeats`` repeats; BLAS runs on
one thread.

* ``call``: one scalar ``density(theta)`` at the Laplace mean, in us. This
  is the random-walk target.
* ``block``: ``logpdf_batch`` on ``--draws`` thetas from the Laplace fit, in
  ns per cell (rows x draws), for each cap ``samplers._BLOCK_CELLS`` on the
  cells of one likelihood block in ``--caps``. This is the importance-sampling
  likelihood block.
* ``rwmh``: one iteration of ``rwmh_chain`` (1000 iterations, 250 burn-in,
  started at the Laplace fit), in us, split into the target and the kernel,
  which is everything else: proposal, accept test, adaptation, bookkeeping
  and the timing wrapper's own call.

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
from splitevidence import samplers  # noqa: E402

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

    print(f"# shard {density.n} x {model.theta_dim}, {args.repeats} repeats")
    print("name,median,min,max,unit")
    row("call", [us_per_call(density, fit.mean, 20_000) for _ in range(args.repeats)], "us")
    for cap in args.caps:
        runs = [ns_per_cell(density, thetas, cap, 20) for _ in range(args.repeats)]
        row(f"block_{cap}", runs, "ns_per_cell")
    splits = [rwmh_split(density, fit, seed=r) for r in range(args.repeats)]
    row("rwmh_iter", [total for total, _ in splits], "us")
    row("rwmh_target", [target for _, target in splits], "us")
    row("rwmh_kernel", [total - target for total, target in splits], "us")


if __name__ == "__main__":
    main()
