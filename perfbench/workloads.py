"""Workload definitions: seeded inputs and the CLI calls of one pass.

Each workload is a closed loop of ``splitevidence`` CLI invocations run one
after another from a single process.  Inputs are generated here from the
benchmark seed with plain numpy; the program only ever sees the CSV and
model JSON files written to the workload's directory.  All paths handed to
the program are relative to that directory, so the artifacts (and hence
their byte counts) do not depend on where the checkout lives.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    splits: int
    samples: int
    burn_in: int
    models: Dict[str, Tuple[int, ...]]  # model id -> active feature indices
    evidence_samples: int = 0
    min_visits: int = 0
    indicators: Tuple[str, ...] = ()

    @property
    def retained(self) -> int:
        return self.samples - self.burn_in


P = 5
FULL = tuple(range(P))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="approx_s16",
            n=10_000,
            splits=16,
            samples=1_000,
            burn_in=250,
            evidence_samples=4_000,
            models={"full": FULL, "no_x5": (0, 1, 2, 3)},
        ),
        Workload(
            name="conditional_s16_files",
            n=10_000,
            splits=16,
            samples=250,
            burn_in=50,
            models={"full": FULL},
        ),
        Workload(
            name="rj_s3",
            n=4_000,
            splits=3,
            samples=6_000,
            burn_in=1_000,
            min_visits=2,
            models={"full": FULL},
            indicators=("11111", "01111", "10111"),
        ),
    )
}


def _expit(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _equicorrelated(rng: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    common = rng.standard_normal((n, 1))
    idio = rng.standard_normal((n, p))
    return math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio


def make_data(workload: Workload, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Design matrix and 0/1 outcome for one workload and benchmark seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    n = workload.n
    if workload.name == "rj_s3":
        # shaped like the rj_mixture scenario: weak features, and the third
        # feature matters only in the second half of the rows
        X = 0.05 * _equicorrelated(rng, n, P, 0.9)
        theta_a = np.array([-1.0, 1.0, 0.0, 0.0, 1.0])
        theta_b = np.array([-1.0, 1.0, 7.0, 0.0, 1.0])
        logits = np.concatenate([X[: n // 2] @ theta_a, X[n // 2 :] @ theta_b])
    else:
        # shaped like the logistic_basic scenario
        X = _equicorrelated(rng, n, P, 0.5)
        logits = X @ np.array([1.0, -1.0, 0.5, -0.5, 0.25])
    y = (rng.random(n) < _expit(logits)).astype(float)
    return X, y


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to the program, fixed for every pass of a run."""
    return 1_000 + int(seed)


def write_inputs(workload: Workload, X: np.ndarray, y: np.ndarray, workdir: str) -> None:
    """CSV in the program's format plus one model JSON per candidate model."""
    with open(os.path.join(workdir, "data.csv"), "w") as fh:
        fh.write("y," + ",".join(f"x{j + 1}" for j in range(P)) + "\n")
        for yi, row in zip(y.tolist(), X.tolist()):
            fh.write(repr(yi) + "," + ",".join(repr(v) for v in row) + "\n")
    for model_id, active in workload.models.items():
        doc = {
            "model_id": model_id,
            "likelihood": {"kind": "logistic"},
            "prior": {
                "kind": "normal",
                "mean": [0.0] * P,
                "cov": np.eye(P).tolist(),
            },
            "dim": P,
            "active_features": None if active == FULL else list(active),
        }
        with open(os.path.join(workdir, f"model_{model_id}.json"), "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def pass_commands(workload: Workload, seed: int) -> List[List[str]]:
    """argv of every CLI call in one pass, in order."""
    w = workload
    common = ["--seed", str(program_seed(seed))]
    chain = ["--samples", str(w.samples), "--burn-in", str(w.burn_in)]
    if w.name == "approx_s16":
        models = [a for m in w.models for a in ("--model", f"model_{m}.json")]
        return [
            ["run", "--data", "data.csv", *models, "--splits", str(w.splits),
             "--mode", "approx", "--evidence", "importance", *chain,
             "--evidence-samples", str(w.evidence_samples), *common,
             "--parallelism", "1", "--out", "run"]
        ]
    if w.name == "conditional_s16_files":
        cmds = [["shard", "--data", "data.csv", "--splits", str(w.splits), *common,
                 "--out", "plan.json"]]
        for s in range(w.splits):
            cmds.append(
                ["worker", "--data", "data.csv", "--model", "model_full.json",
                 "--plan", "plan.json", "--shard-id", str(s), "--mode", "conditional",
                 *chain, *common, "--stream-out", f"cond_{s}.ndjson",
                 "--out", f"result_{s}.json"]
            )
        cmds.append(["combine", "--model", "model_full.json", "--results",
                     *[f"result_{s}.json" for s in range(w.splits)],
                     "--out", "evidence.json"])
        return cmds
    indicators = [a for bits in w.indicators for a in ("--indicator", bits)]
    return [
        ["rjmcmc", "--data", "data.csv", "--model", "model_full.json",
         "--splits", str(w.splits), *chain, *common,
         "--min-visits", str(w.min_visits), *indicators, "--out", "rj"]
    ]


def artifacts(workload: Workload) -> List[str]:
    """Every file a pass writes, relative to the workload directory."""
    w = workload
    if w.name == "approx_s16":
        return ["run/plan.json", "run/evidence.json", "run/report.csv"] + comm_files(w)
    if w.name == "conditional_s16_files":
        return ["plan.json", "evidence.json"] + comm_files(w)
    return ["rj/plan.json", "rj/rj_summary.json"] + comm_files(w)


def comm_files(workload: Workload) -> List[str]:
    """What the workers hand to the combiner in one pass."""
    w = workload
    if w.name == "approx_s16":
        return [f"run/{m}/result_{s}.json" for m in w.models for s in range(w.splits)]
    if w.name == "conditional_s16_files":
        return [f"{kind}_{s}.{ext}" for s in range(w.splits)
                for kind, ext in (("result", "json"), ("cond", "ndjson"))]
    return [f"rj/rj_result_{s}.json" for s in range(w.splits)]


def expected_counts(workload: Workload) -> Dict[str, int]:
    """Per-pass layer counts that the configuration fixes exactly."""
    w = workload
    if w.name == "approx_s16":
        return {
            "samplers.target_calls": len(w.models) * w.splits * (w.samples + 1),
            "samplers.sample_pg_vec_calls": 0,
        }
    if w.name == "conditional_s16_files":
        return {
            "samplers.sample_pg_vec_calls": w.splits * w.samples,
            "samplers.pg_draws": w.n * w.samples,
        }
    return {"samplers.sample_pg_vec_calls": 0}
