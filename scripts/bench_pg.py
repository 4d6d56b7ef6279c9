"""Polya-Gamma draws per microsecond, by batch size.

Times ``samplers.sample_pg_vec`` on the linear predictors of the
``logistic_basic`` scenario at its generating coefficients (the c values a
PG-Gibbs sweep sees), taking the first n rows for each batch size n.  Each
repeat r draws from ``default_rng(r)`` for about ``--draws`` draws in total
and reports ns per draw; the table gives the median and the min-max spread
over the repeats.  BLAS runs on one thread.

    PYTHONPATH=src python scripts/bench_pg.py [--sizes 40 625 10000] [--repeats 5]
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from splitevidence import make_synthetic  # noqa: E402
from splitevidence.samplers import sample_pg_vec  # noqa: E402

LOGISTIC_BASIC_THETA = np.array([1.0, -1.0, 0.5, -0.5, 0.25])


def ns_per_draw(c: np.ndarray, n_draws: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    calls = max(1, -(-n_draws // c.size))
    start = time.perf_counter()
    for _ in range(calls):
        sample_pg_vec(c, rng)
    return 1e9 * (time.perf_counter() - start) / (calls * c.size)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 625, 10_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--draws", type=int, default=500_000, help="draws per repeat")
    args = parser.parse_args()

    data, _ = make_synthetic("logistic_basic", seed=0)
    linpred = data.X @ LOGISTIC_BASIC_THETA
    if max(args.sizes) > linpred.size:
        parser.error(f"batch sizes are limited to {linpred.size}")
    sample_pg_vec(linpred[:100], np.random.default_rng(0))  # warm-up

    print("n,median_ns_per_draw,min_ns,max_ns,draws_per_us")
    for n in args.sizes:
        runs = [ns_per_draw(linpred[:n], args.draws, seed) for seed in range(args.repeats)]
        med = statistics.median(runs)
        print(f"{n},{med:.0f},{min(runs):.0f},{max(runs):.0f},{1e3 / med:.2f}")


if __name__ == "__main__":
    main()
