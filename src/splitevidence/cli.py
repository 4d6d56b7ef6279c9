"""Command-line surface for reproducible split-evidence runs.

Subcommands cover the whole workflow: generate synthetic fixtures, plan a
data split, run a single worker by hand, combine worker result files,
drive the full pipeline in one process, run the jump sampler over feature
subsets, and sweep scenarios into a timing/accuracy report.  `worker` and
`combine` exist separately so a file-exchange deployment (workers on
different machines moving only JSON) stays operable by hand.

Every artifact a run writes is reproducible byte-for-byte from the inputs
and flags; all randomness flows from the single ``--seed`` value.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cluster, wire
from .diagnostics import SCENARIOS, make_synthetic
from .errors import (
    CombinationError,
    ConfigurationError,
    DomainError,
    EstimatorError,
    QuadratureError,
    SpdError,
    UnexploredModelError,
    WorkerError,
)
from .evidence import EvidenceEstimate, ModelComparison, compare_models
from .models import (
    ModelSpec,
    load_csv,
    model_spec_from_json,
    model_spec_to_json,
    save_csv,
    whole_shard,
)
from .rjmcmc import (
    ModelIndicator,
    distributed_log_bf,
    rjmcmc_sample,
    write_rj_output,
)
from .sharding import STRATEGIES, ShardPlan, read_plan, stratified_split, uniform_split, write_plan

# `run` settings outside cluster.RunConfig, with their defaults; `data`,
# `models` and `out` have none
_RUN_DEFAULTS = {"splits": 1, "strategy": "uniform", "kmeans_k": 10, "verbose": False}
_RUN_FIELDS = tuple(f.name for f in fields(cluster.RunConfig))
_CONFIG_KEYS = ("data", "models", "out", *_RUN_DEFAULTS, *_RUN_FIELDS)


def _error_code(exc: Exception) -> str:
    if isinstance(exc, (ConfigurationError, FileNotFoundError)):
        return "E_INPUT"
    if isinstance(exc, WorkerError):
        return "E_WORKER"
    if isinstance(exc, CombinationError):
        return "E_COMBINE"
    if isinstance(exc, EstimatorError):
        return "E_ESTIMATOR"
    if isinstance(exc, (QuadratureError, SpdError)):
        return "E_NUMERIC"
    if isinstance(exc, UnexploredModelError):
        return "E_UNEXPLORED"
    if isinstance(exc, DomainError):
        return "E_DOMAIN"
    return "E_INTERNAL"


def _load_models(paths: Sequence[str]) -> List[ModelSpec]:
    models = []
    seen = set()
    for path in paths:
        with open(path) as handle:
            spec = model_spec_from_json(handle.read())
        if spec.model_id in seen:
            raise ConfigurationError(f"duplicate model id {spec.model_id!r}")
        if os.sep in spec.model_id or spec.model_id in ("", ".", ".."):
            raise ConfigurationError(f"model id {spec.model_id!r} is not a safe name")
        seen.add(spec.model_id)
        models.append(spec)
    return models


def _build_plan(data, splits: int, strategy: str, kmeans_k: int, seed: int) -> ShardPlan:
    if splits < 1:
        raise ConfigurationError("splits must be at least 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if strategy == "uniform":
        return uniform_split(data.X.shape[0], splits, seed=seed)
    return stratified_split(data.X, data.y, splits, kmeans_k=kmeans_k, seed=seed)


def _run_config(values) -> cluster.RunConfig:
    """The cluster.RunConfig of the settings in ``values`` that name one of its fields."""
    return cluster.RunConfig(**{k: values[k] for k in _RUN_FIELDS if k in values})


def _evidence_json(
    n_splits: int,
    comparison: ModelComparison,
    estimates: Sequence[EvidenceEstimate],
) -> str:
    models = {}
    for i, model_id in enumerate(comparison.model_ids):
        est = estimates[i]
        models[model_id] = {
            "log_evidence": float(est.log_value),
            "std_err": None if est.mc_std_err is None else float(est.mc_std_err),
            "method": est.method,
            "n_samples": int(est.n_samples_used),
            "ess": None if est.ess is None else float(est.ess),
            "warnings": list(est.warnings),
            "log_prior_prob": float(comparison.log_prior_probs[i]),
            "posterior_prob": float(comparison.posterior_probs[i]),
        }
    obj = {
        "schema_version": 1,
        "n_splits": int(n_splits),
        "model_ids": list(comparison.model_ids),
        "models": models,
        "log_bf_matrix": [
            [float(v) for v in row] for row in np.asarray(comparison.log_bf_matrix)
        ],
        "posterior_probs": [float(v) for v in comparison.posterior_probs],
    }
    return wire.dumps(obj)


def _opt_float(value) -> str:
    return "" if value is None else repr(float(value))


def _write_report_csv(
    path: str,
    comparison: ModelComparison,
    estimates: Sequence[EvidenceEstimate],
    per_model_results: Dict[str, Sequence[cluster.WorkerResult]],
    result_paths: Dict[Tuple[str, int], str],
) -> None:
    """Tidy long-format report: one metric per row, blank where not applicable."""
    rows: List[Tuple[str, str, str, str, str]] = []
    ids = list(comparison.model_ids)
    for i, model_id in enumerate(ids):
        est = estimates[i]
        rows.append(("log_evidence", model_id, "", "", repr(float(est.log_value))))
        rows.append(("std_err", model_id, "", "", _opt_float(est.mc_std_err)))
        rows.append(
            ("posterior_prob", model_id, "", "", repr(float(comparison.posterior_probs[i])))
        )
    matrix = np.asarray(comparison.log_bf_matrix)
    for i, first in enumerate(ids):
        for j, second in enumerate(ids):
            if i != j:
                rows.append(("log_bf", first, second, "", repr(float(matrix[i, j]))))
    for model_id in ids:
        for result in per_model_results.get(model_id, ()):
            sid = str(result.shard_id)
            # the size of the result file as written
            payload = os.path.getsize(result_paths[model_id, result.shard_id])
            rows.append(("n_obs", model_id, "", sid, str(result.n_obs)))
            rows.append(
                ("acceptance_rate", model_id, "", sid, _opt_float(result.acceptance_rate))
            )
            rows.append(("ess", model_id, "", sid, _opt_float(result.ess)))
            rows.append(("payload_bytes", model_id, "", sid, str(payload)))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["record", "model_id", "second_model_id", "shard_id", "value"])
        writer.writerows(rows)


def _print_summary(
    n_splits: int,
    label: str,
    comparison: ModelComparison,
    estimates: Sequence[EvidenceEstimate],
) -> None:
    print(f"combined over {n_splits} shard(s) [{label}]")
    for i, model_id in enumerate(comparison.model_ids):
        est = estimates[i]
        prob = float(comparison.posterior_probs[i])
        se = "exact" if est.mc_std_err is None else f"se {est.mc_std_err:.6f}"
        print(
            f"model {model_id}: log evidence {est.log_value:.6f} "
            f"({se}) posterior prob {prob:.6f}"
        )
        if est.warnings:
            print(f"model {model_id}: warnings {', '.join(est.warnings)}")
    best = comparison.model_ids[int(np.argmax(comparison.posterior_probs))]
    print(f"preferred model: {best}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    cluster.RunConfig(seed=args.seed)  # rejects a negative seed
    data, models = make_synthetic(args.scenario, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    save_csv(data, data_path)
    print(f"wrote {data_path} ({data.X.shape[0]} rows, {data.X.shape[1]} features)")
    for model in models:
        path = os.path.join(args.out, f"model_{model.model_id}.json")
        with open(path, "w") as handle:
            handle.write(model_spec_to_json(model))
        print(f"wrote {path}")
    return 0


def _cmd_shard(args) -> int:
    data = load_csv(args.data)
    plan = _build_plan(data, args.splits, args.strategy, args.kmeans_k, args.seed)
    write_plan(plan, args.out)
    sizes = ",".join(str(s) for s in plan.sizes())
    print(f"wrote {args.out} ({plan.strategy} split into {plan.n_splits}: sizes {sizes})")
    return 0


def _cmd_worker(args) -> int:
    # unset flags take their defaults from cluster.RunConfig, as in `run`
    config = _run_config({k: v for k, v in vars(args).items() if v is not None})
    if args.stream_out is not None and config.mode != "conditional":
        raise ConfigurationError(f"--stream-out needs conditional mode, not {config.mode}")
    plan = read_plan(args.plan)
    if not 0 <= args.shard_id < plan.n_splits:
        raise ConfigurationError(
            f"shard id {args.shard_id} outside 0..{plan.n_splits - 1}"
        )
    data = load_csv(args.data, rows=plan.assignment == args.shard_id)
    model = _load_models([args.model])[0]
    task = cluster.shard_task(
        whole_shard(data, args.shard_id),
        model,
        plan.n_splits,
        config,
        stream_dir=os.path.dirname(os.path.abspath(args.out)),
    )
    if args.stream_out is not None:
        task.stream_path = args.stream_out
    result = cluster.run_worker(task)
    cluster.write_worker_result(result, args.out)
    print(f"wrote {args.out} (shard {args.shard_id}, {result.n_obs} rows)")
    return 0


# the split count, the comparison, each model's combined estimate, and each
# model's results by shard id
_Combined = Tuple[int, ModelComparison, List[EvidenceEstimate], Dict[str, List[cluster.WorkerResult]]]


def _combine_results(
    models: Sequence[ModelSpec],
    results: Sequence[cluster.WorkerResult],
) -> _Combined:
    by_model: Dict[str, List[cluster.WorkerResult]] = {}
    for result in results:
        by_model.setdefault(result.model_id, []).append(result)
    known = {model.model_id for model in models}
    stray = sorted(set(by_model) - known)
    if stray:
        raise ConfigurationError(f"results reference unknown model(s): {stray}")
    missing = sorted(known - set(by_model))
    if missing:
        raise ConfigurationError(f"no results for model(s): {missing}")
    estimates = []
    for model in models:
        group = sorted(by_model[model.model_id], key=lambda r: r.shard_id)
        estimates.append(cluster.combine_worker_results(model, group))
        by_model[model.model_id] = group
    n_splits = results[0].n_splits
    comparison = compare_models([m.model_id for m in models], estimates)
    return n_splits, comparison, estimates, by_model


def _write_outputs(
    evidence_path: str,
    report_path: Optional[str],
    label: str,
    combined: _Combined,
    result_paths: Dict[Tuple[str, int], str],
) -> None:
    """Write ``evidence.json``, the report CSV if asked for, and the printed summary."""
    n_splits, comparison, estimates, by_model = combined
    with open(evidence_path, "w") as handle:
        handle.write(_evidence_json(n_splits, comparison, estimates))
    if report_path is not None:
        _write_report_csv(report_path, comparison, estimates, by_model, result_paths)
    _print_summary(n_splits, label, comparison, estimates)


def _cmd_combine(args) -> int:
    models = _load_models(args.model)
    results = [cluster.read_worker_result(path) for path in args.results]
    combined = _combine_results(models, results)
    paths = {(r.model_id, r.shard_id): path for r, path in zip(results, args.results)}
    _write_outputs(args.out, args.report, results[0].evidence_method, combined, paths)
    return 0


def _merge_run_config(args) -> Dict[str, object]:
    """`run` settings by config key: defaults, then the --config file, then flags."""
    merged: Dict[str, object] = dict(_RUN_DEFAULTS)
    if args.config is not None:
        with open(args.config) as handle:
            loaded = wire.loads(handle.read(), "config file").obj
        unknown = sorted(set(loaded) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigurationError(f"unknown config key(s): {unknown}")
        merged.update(loaded)
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    for key in ("data", "models", "out"):
        if key not in merged:
            raise ConfigurationError(f"missing required setting {key!r}")
    if not merged["models"]:
        raise ConfigurationError("at least one model file is required")
    for path in (merged["data"], *merged["models"]):
        if not os.path.isfile(path):
            raise ConfigurationError(f"input file not found: {path}")
    return merged


def _cmd_run(args) -> int:
    settings = _merge_run_config(args)
    data = load_csv(settings["data"])
    models = _load_models(settings["models"])
    try:
        config = _run_config(settings)
        plan = _build_plan(
            data, settings["splits"], settings["strategy"], settings["kmeans_k"], config.seed
        )
    except TypeError as exc:
        raise ConfigurationError(f"bad config value: {exc}")
    out = settings["out"]
    # every task is built, and so checked, before anything is written
    tasks = {
        model.model_id: cluster.make_tasks(
            data, plan, model, config, stream_dir=os.path.join(out, model.model_id)
        )
        for model in models
    }
    os.makedirs(out, exist_ok=True)
    write_plan(plan, os.path.join(out, "plan.json"))

    results: List[cluster.WorkerResult] = []
    paths: Dict[Tuple[str, int], str] = {}
    sizes = plan.sizes()
    for model in models:
        model_dir = os.path.join(out, model.model_id)
        os.makedirs(model_dir, exist_ok=True)
        if settings["verbose"]:
            for sid in range(plan.n_splits):
                sys.stderr.write(
                    f"access model={model.model_id} shard={sid} rows={sizes[sid]}\n"
                )
        for result in cluster.run_tasks(tasks[model.model_id], config.parallelism):
            path = os.path.join(model_dir, f"result_{result.shard_id}.json")
            cluster.write_worker_result(result, path)
            results.append(result)
            paths[model.model_id, result.shard_id] = path

    combined = _combine_results(models, results)
    _write_outputs(
        os.path.join(out, "evidence.json"), os.path.join(out, "report.csv"), config.mode,
        combined, paths,
    )
    return 0


def _cmd_rjmcmc(args) -> int:
    if not args.samples > args.burn_in >= 0:
        raise ConfigurationError("need samples > burn_in >= 0")
    if args.min_visits < 0:
        raise ConfigurationError(f"min_visits must be non-negative, got {args.min_visits}")
    data = load_csv(args.data)
    base = _load_models([args.model])[0]
    indicators = []
    for bits in args.indicator or ():
        indicator = ModelIndicator.from_bits(bits)
        if indicator.n_features != base.dim:
            raise ConfigurationError(
                f"indicator {bits!r} does not cover {base.dim} features"
            )
        indicators.append(indicator)
    plan = _build_plan(data, args.splits, args.strategy, args.kmeans_k, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_plan(plan, os.path.join(args.out, "plan.json"))

    outputs = []
    for shard in plan.shards(data):
        out = rjmcmc_sample(
            base,
            shard,
            plan.n_splits,
            n_iter=args.samples,
            burn_in=args.burn_in,
            seed=cluster.worker_seed(args.seed, shard.shard_id),
            min_visits=args.min_visits,
        )
        write_rj_output(out, os.path.join(args.out, f"rj_result_{shard.shard_id}.json"))
        outputs.append(out)

    log_bf = {}
    for i, first in enumerate(indicators):
        for second in indicators[i + 1 :]:
            key = f"{first.bits}|{second.bits}"
            log_bf[key] = float(
                distributed_log_bf(outputs, first, second, base, plan.n_splits)
            )
    if indicators:
        tracked = indicators
    else:
        ranked = {}
        for out in outputs:
            for indicator, count in out.visit_counts.items():
                ranked[indicator] = ranked.get(indicator, 0) + count
        tracked = sorted(ranked, key=lambda ind: (-ranked[ind], ind.bits))[:5]
    summary = {
        "schema_version": 1,
        "n_splits": plan.n_splits,
        "seed": args.seed,
        "n_iterations": args.samples,
        "burn_in": args.burn_in,
        "indicators": [ind.bits for ind in tracked],
        "visit_counts": {
            ind.bits: [out.count(ind) for out in outputs] for ind in tracked
        },
        "log_bf": log_bf,
    }
    summary_path = os.path.join(args.out, "rj_summary.json")
    with open(summary_path, "w") as handle:
        handle.write(wire.dumps(summary))
    print(f"wrote {summary_path}")
    for key, value in log_bf.items():
        print(f"log BF {key}: {value:.4f}")
    return 0


def _cmd_diagnose(args) -> int:
    base = _run_config(vars(args))
    data, models = make_synthetic(args.scenario, seed=args.seed)
    if args.model:
        wanted = set(args.model)
        known = {m.model_id for m in models}
        missing = sorted(wanted - known)
        if missing:
            raise ConfigurationError(
                f"scenario {args.scenario} has no model(s) {missing}"
            )
        models = [m for m in models if m.model_id in wanted]
    try:
        split_values = [int(tok) for tok in args.splits.split(",") if tok]
    except ValueError:
        raise ConfigurationError(f"bad --splits list {args.splits!r}")
    if not split_values or any(s < 1 for s in split_values):
        raise ConfigurationError("splits must be positive integers")
    if args.repetitions < 1:
        raise ConfigurationError("repetitions must be at least 1")

    rows = []
    for n_splits in split_values:
        for rep in range(args.repetitions):
            master = cluster.derived_seed(args.seed, n_splits, rep)
            plan = uniform_split(data.X.shape[0], n_splits, seed=master)
            config = replace(base, seed=master)
            for model in models:
                started = time.perf_counter()
                results = cluster.run_cluster(data, plan, model, config)
                estimate = cluster.combine_worker_results(model, results)
                elapsed_ms = int(round((time.perf_counter() - started) * 1000))
                rows.append(
                    (
                        args.scenario,
                        model.model_id,
                        str(n_splits),
                        str(rep),
                        repr(float(estimate.log_value)),
                        estimate.method,
                        str(elapsed_ms),
                    )
                )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "scenario",
                "model_id",
                "n_splits",
                "repetition",
                "log_evidence",
                "method",
                "wall_time_ms",
            ]
        )
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitevidence",
        description="distributed model evidence over data shards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset and its model files")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("shard", help="plan a data split and write it to JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="uniform")
    p.add_argument("--kmeans-k", dest="kmeans_k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser("worker", help="run one shard's sampler and write its result")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--shard-id", dest="shard_id", type=int, required=True)
    # the run settings default to None: cluster.RunConfig supplies them
    p.add_argument("--mode", choices=cluster.MODES)
    p.add_argument("--evidence", choices=cluster.EVIDENCE_METHODS)
    p.add_argument("--samples", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--evidence-samples", dest="evidence_samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--stream-out", dest="stream_out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("combine", help="combine worker result files into evidence")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--report", default=None, help="also write a report CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("run", help="full pipeline: shard, sample, combine, report")
    p.add_argument("--config", default=None, help="JSON file mirroring the run config")
    p.add_argument("--data", default=None)
    p.add_argument("--model", dest="models", action="append", default=None)
    p.add_argument("--splits", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--kmeans-k", dest="kmeans_k", type=int, default=None)
    p.add_argument("--mode", choices=cluster.MODES, default=None)
    p.add_argument("--evidence", choices=cluster.EVIDENCE_METHODS, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--evidence-samples", dest="evidence_samples", type=int,
                   default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--verbose", action="store_true", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("rjmcmc", help="jump over feature subsets on every shard")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="base model including every feature")
    p.add_argument("--splits", type=int, default=1)
    p.add_argument("--strategy", choices=STRATEGIES, default="uniform")
    p.add_argument("--kmeans-k", dest="kmeans_k", type=int, default=10)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-visits", dest="min_visits", type=int, default=500)
    p.add_argument(
        "--indicator",
        action="append",
        help="bitstring of a model to track (repeatable); pairs get Bayes factors",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rjmcmc)

    p = sub.add_parser("diagnose", help="sweep split counts and write a report CSV")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--splits", required=True, help="comma list, e.g. 1,2,4")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--model", action="append", default=None)
    p.add_argument("--mode", choices=cluster.MODES, default="approx")
    p.add_argument("--evidence", choices=cluster.EVIDENCE_METHODS, default=None)
    p.add_argument("--samples", type=int, default=2_000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    p.add_argument("--evidence-samples", dest="evidence_samples", type=int,
                   default=2_000)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        payload = {"error": {"code": _error_code(exc), "message": str(exc)}}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
