"""Polya-Gamma draws per microsecond, by batch size, and one PG-Gibbs iteration.

Times ``samplers.sample_pg_vec`` on the linear predictors of the
``logistic_basic`` scenario at its generating coefficients (the c values a
PG-Gibbs sweep sees), taking the first n rows for each batch size n.  Each
repeat r draws from ``default_rng(r)`` for about ``--draws`` draws in total
and reports ns per draw; the table gives the median and the min-max spread
over the repeats.

A second table times ``pg_gibbs_logistic`` on shard 0 of ``logistic_basic``
split 16 ways (625 rows, 5 coefficients), the shard a conditional worker
sees at S=16.  Repeat r runs ``--draws`` / 625 iterations (at least 10) with
seed r and reports us per iteration (``gibbs_625_iter``, from the first PG
call to the end, so the one-off setup is left out), split into the omega
draw (``sample_pg_vec``), X' Omega X (``_precision``), and Cholesky plus the
theta draw (``_draw_theta``); the timing wrappers' own calls stay in the
iteration.  BLAS runs on one thread.

    PYTHONPATH=src python scripts/bench_pg.py [--sizes 40 625 10000] [--repeats 5]
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from splitevidence import make_synthetic, samplers, uniform_split  # noqa: E402
from splitevidence.samplers import sample_pg_vec  # noqa: E402

LOGISTIC_BASIC_THETA = np.array([1.0, -1.0, 0.5, -0.5, 0.25])
GIBBS_PARTS = (("omega", "sample_pg_vec"), ("xox", "_precision"), ("chol_theta", "_draw_theta"))


def ns_per_draw(c: np.ndarray, n_draws: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    calls = max(1, -(-n_draws // c.size))
    start = time.perf_counter()
    for _ in range(calls):
        sample_pg_vec(c, rng)
    return 1e9 * (time.perf_counter() - start) / (calls * c.size)


def gibbs_split(model, shard, n_iter: int, seed: int) -> dict:
    """us per PG-Gibbs iteration: the whole iteration and each timed part."""
    busy = defaultdict(float)
    first = []

    def timed(name, fn):
        def wrapper(*args):
            start = time.perf_counter()
            if not first:
                first.append(start)
            value = fn(*args)
            busy[name] += time.perf_counter() - start
            return value

        return wrapper

    saved = {attr: getattr(samplers, attr) for _, attr in GIBBS_PARTS}
    for name, attr in GIBBS_PARTS:
        setattr(samplers, attr, timed(name, saved[attr]))
    try:
        samplers.pg_gibbs_logistic(model, shard, 16, n_iter=n_iter, burn_in=0, seed=seed)
        end = time.perf_counter()
    finally:
        for attr, fn in saved.items():
            setattr(samplers, attr, fn)
    busy["iter"] = end - first[0]
    return {name: 1e6 * spent / n_iter for name, spent in busy.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 625, 10_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--draws", type=int, default=500_000, help="draws per repeat")
    args = parser.parse_args()

    data, models = make_synthetic("logistic_basic", seed=0)
    linpred = data.X @ LOGISTIC_BASIC_THETA
    if max(args.sizes) > linpred.size:
        parser.error(f"batch sizes are limited to {linpred.size}")
    sample_pg_vec(linpred[:100], np.random.default_rng(0))  # warm-up

    print("n,median_ns_per_draw,min_ns,max_ns,draws_per_us")
    for n in args.sizes:
        runs = [ns_per_draw(linpred[:n], args.draws, seed) for seed in range(args.repeats)]
        med = statistics.median(runs)
        print(f"{n},{med:.0f},{min(runs):.0f},{max(runs):.0f},{1e3 / med:.2f}")

    shard = uniform_split(data.X.shape[0], 16, seed=0).shard(data, 0)
    n_iter = max(10, args.draws // shard.X.shape[0])
    gibbs_split(models[0], shard, 10, seed=0)  # warm-up
    splits = [gibbs_split(models[0], shard, n_iter, seed) for seed in range(args.repeats)]
    print(f"# gibbs: {shard.X.shape[0]} rows, {n_iter} iterations per repeat")
    print("name,median_us,min_us,max_us")
    for name in ("iter", *(name for name, _ in GIBBS_PARTS)):
        runs = [split[name] for split in splits]
        print(f"gibbs_{shard.X.shape[0]}_{name},{statistics.median(runs):.1f},"
              f"{min(runs):.1f},{max(runs):.1f}")


if __name__ == "__main__":
    main()
