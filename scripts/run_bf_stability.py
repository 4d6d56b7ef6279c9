"""Bayes-factor stability of the approximate combination across split counts.

Runs the correlated linear suite (17 covariates, 6 nested models) at each
split count using analytic Laplace subposterior approximations, then
reports every model's combined evidence, its Bayes factor against the full
model, and the drift of that Bayes factor relative to the single-shard
run.
"""
import argparse
import csv
import time
from pathlib import Path

import numpy as np

from splitevidence import (
    SubposteriorDensity,
    approx_isub,
    combine_evidence,
    laplace_fit,
    laplace_metropolis_log_evidence,
    make_synthetic,
    uniform_split,
)
from splitevidence.models import log_alpha


def combined_log_evidence(model, shards, n_splits):
    densities = [SubposteriorDensity(model, sh, n_splits) for sh in shards]
    fits = [laplace_fit(density) for density in densities]
    locals_ = [
        laplace_metropolis_log_evidence(density, fit)
        for density, fit in zip(densities, fits)
    ]
    est = combine_evidence(
        log_alpha(model, n_splits), locals_, approx_isub(fits), n_splits
    )
    return est.log_value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--splits", type=int, nargs="+", default=[1, 10, 25, 50])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--out", type=Path, default=Path("bf_stability.csv"))
    args = parser.parse_args()
    if 1 not in args.splits:
        parser.error("the drift column needs the S=1 baseline in --splits")

    rows = []
    for seed in args.seeds:
        data, models = make_synthetic("toy_gaussian", seed=seed)
        evidences = {}
        for n_splits in sorted(args.splits):
            shards = uniform_split(data.X.shape[0], n_splits, seed=seed).shards(
                data
            )
            start = time.perf_counter()
            evidences[n_splits] = [
                combined_log_evidence(model, shards, n_splits)
                for model in models
            ]
            wall_ms = 1000.0 * (time.perf_counter() - start)
            best = models[int(np.argmax(evidences[n_splits]))].model_id
            print(
                f"seed={seed} S={n_splits:<3d} best={best} "
                f"({wall_ms:.0f} ms for {len(models)} models)"
            )
        base = evidences[1]
        for n_splits in sorted(args.splits):
            evs = evidences[n_splits]
            for k, model in enumerate(models):
                bf = evs[-1] - evs[k]
                ref = base[-1] - base[k]
                drift = abs(bf - ref) / abs(ref) if ref != 0.0 else 0.0
                rows.append(
                    (seed, model.model_id, n_splits, repr(evs[k]),
                     repr(bf), repr(drift))
                )

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["seed", "model_id", "n_splits", "log_evidence",
             "log_bf_full_vs_model", "bf_drift_vs_single_shard"]
        )
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
