"""Repeated-run comparison of the conditional and approximate combinations.

One fixed logistic dataset is recombined at several split counts with both
methods, many times with fresh sampler seeds.  The per-run estimates go to
a tidy CSV and a second CSV holds the replicate error table (RMSE, percent
RMSE, bias/variance split) against the pooled mean of the S=1 runs.
"""
import argparse
import csv
import time
from pathlib import Path

import numpy as np

from splitevidence import (
    RunConfig,
    combine_worker_results,
    make_synthetic,
    run_cluster,
    uniform_split,
)
from splitevidence.diagnostics import error_table_metrics


def run_once(data, model, n_splits, mode, rep, args):
    plan = uniform_split(data.X.shape[0], n_splits, seed=args.plan_seed)
    # the mode's default estimator: chib in conditional mode, importance in approx
    config = RunConfig(
        mode=mode,
        samples=args.samples,
        burn_in=args.burn_in,
        evidence_samples=args.evidence_samples,
        seed=rep,
    )
    start = time.perf_counter()
    combined = combine_worker_results(model, run_cluster(data, plan, model, config))
    wall_ms = 1000.0 * (time.perf_counter() - start)
    return combined.log_value, wall_ms


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--splits", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    parser.add_argument("--repetitions", type=int, default=10)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--burn-in", type=int, default=250)
    parser.add_argument("--evidence-samples", type=int, default=4000)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--plan-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("conditional_vs_approx"))
    args = parser.parse_args()

    data, models = make_synthetic("logistic_basic", seed=args.data_seed)
    model = models[0]
    args.out.mkdir(parents=True, exist_ok=True)

    rows = []
    per_cell = {}
    for mode in ("conditional", "approx"):
        for n_splits in args.splits:
            values = []
            for rep in range(args.repetitions):
                value, wall_ms = run_once(data, model, n_splits, mode, rep, args)
                values.append(value)
                rows.append(
                    ("logistic_basic", model.model_id, n_splits, rep,
                     repr(value), mode, repr(wall_ms))
                )
            per_cell[(mode, n_splits)] = values
            print(
                f"{mode:>11} S={n_splits:<3d} "
                f"mean={np.mean(values):+.3f} std={np.std(values, ddof=1):.4f}"
            )

    runs_path = args.out / "runs.csv"
    with open(runs_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["scenario", "model_id", "n_splits", "repetition",
             "log_evidence", "method", "wall_time_ms"]
        )
        writer.writerows(rows)

    # reference: the two methods agree at S=1 up to sampler noise, so the
    # pooled S=1 mean anchors the error table
    reference = float(
        np.mean(per_cell[("conditional", 1)] + per_cell[("approx", 1)])
    )
    metrics_path = args.out / "error_table.csv"
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["method", "n_splits", "rmse", "pct_rmse",
             "bias_sq_over_var", "n_repetitions"]
        )
        for (mode, n_splits), values in per_cell.items():
            report = error_table_metrics(values, reference, n_splits)
            writer.writerow(
                [mode, n_splits, repr(report.rmse), repr(report.pct_rmse),
                 repr(report.bias_sq_over_var), report.n_repetitions]
            )
    print(f"wrote {runs_path} and {metrics_path} (reference {reference:+.3f})")


if __name__ == "__main__":
    main()
