"""Error-metric growth of the approximate combination as shards multiply.

A 2-d logistic model keeps the whole-data evidence within reach of
adaptive quadrature, so the absolute log error (eps1) and the log-domain
error (eps2) of the sampled pipeline are measured exactly at each split
count.  The fitted least-squares slope of eps2 on log S summarizes the
growth rate.
"""
import argparse
import csv
import math
from pathlib import Path

import numpy as np

from splitevidence import (
    RunConfig,
    SubposteriorDensity,
    combine_worker_results,
    epsilon_metrics,
    run_cluster,
    uniform_split,
    whole_shard,
)
from splitevidence.diagnostics import quadrature_subposterior_summary
from splitevidence.models import Dataset, LogisticLikelihood, ModelSpec, NormalPrior, expit


def build_data(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = (rng.random(n) < expit(X @ np.array([0.8, -0.5]))).astype(float)
    return Dataset(X=X, y=y)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-obs", type=int, default=2000)
    parser.add_argument("--splits", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--repetitions", type=int, default=6)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--burn-in", type=int, default=500)
    parser.add_argument("--evidence-samples", type=int, default=4000)
    parser.add_argument("--data-seed", type=int, default=8)
    parser.add_argument("--out", type=Path, default=Path("epsilon_trends.csv"))
    args = parser.parse_args()

    data = build_data(args.data_seed, args.n_obs)
    model = ModelSpec(
        model_id="two",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
        dim=2,
    )
    exact = quadrature_subposterior_summary(SubposteriorDensity(model, whole_shard(data), 1))[0]
    print(f"quadrature log evidence: {exact:+.6f}")

    pairs = []
    rows = []
    for rep in range(args.repetitions):
        for n_splits in args.splits:
            plan = uniform_split(args.n_obs, n_splits, seed=rep)
            config = RunConfig(
                mode="approx",
                evidence="importance",
                samples=args.samples,
                burn_in=args.burn_in,
                evidence_samples=args.evidence_samples,
                seed=10 * rep + n_splits,
            )
            combined = combine_worker_results(
                model, run_cluster(data, plan, model, config)
            )
            pair = epsilon_metrics(exact, combined.log_value, n_splits)
            pairs.append(pair)
            rows.append(
                (n_splits, rep, repr(combined.log_value),
                 repr(pair.eps1), repr(pair.eps2))
            )

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n_splits", "repetition", "log_evidence", "eps1", "eps2"]
        )
        writer.writerows(rows)

    logs = np.array([math.log(p.n_splits) for p in pairs])
    eps2 = np.array([p.eps2 for p in pairs])
    slope = float(np.polyfit(logs, eps2, 1)[0])
    for n_splits in args.splits:
        mean1 = np.mean([p.eps1 for p in pairs if p.n_splits == n_splits])
        print(f"S={n_splits:<3d} mean eps1 = {mean1:.4f}")
    print(f"eps2 slope on log S: {slope:+.3f}")
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
