"""Output checks made apart from the program, with plain numpy.

Every check reads the artifacts a pass left in the workload directory and
returns a list of failure messages (empty when the outputs are right).
Nothing here imports ``splitevidence``: the references are a full-data
Newton/Laplace fit and importance sampling from it, and the recombination
identity is recomputed from the numbers in the result files.

Tolerances on the references admit the split error the method has today
(at S=16 the approximate combination moves the log Bayes factor by a few
nats) so that a later change that gets closer still passes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from workloads import FULL, Workload

LOG_2PI = math.log(2.0 * math.pi)

# |program - reference| limits, in nats: about twice the largest distance
# seen over benchmark seeds 0-29 (README.md lists the spread)
TOL_LOG_EVIDENCE_APPROX = 20.0
TOL_LOG_BF_APPROX = 20.0
TOL_LOG_EVIDENCE_CONDITIONAL = 10.0
TOL_LOG_BF_RJ = 3.5
# the recombination identity holds to rounding
TOL_IDENTITY = 1e-8
REFERENCE_IS_DRAWS = 4_000


# ---------------------------------------------------------------------------
# references


def _log_joint(X: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """log likelihood plus log N(0, I) prior, for each row of ``thetas``."""
    linpred = X @ thetas.T
    loglik = y @ linpred - np.logaddexp(0.0, linpred).sum(axis=0)
    d = thetas.shape[1]
    return loglik - 0.5 * (d * LOG_2PI + np.einsum("md,md->m", thetas, thetas))


def laplace_fit(X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Posterior mode and negative Hessian by Newton's method."""
    d = X.shape[1]
    theta = np.zeros(d)
    for _ in range(100):
        prob = 0.5 * (1.0 + np.tanh(0.5 * (X @ theta)))
        grad = X.T @ (y - prob) - theta
        hess = X.T @ (X * (prob * (1.0 - prob))[:, None]) + np.eye(d)
        step = np.linalg.solve(hess, grad)
        theta = theta + step
        if np.max(np.abs(step)) < 1e-12:
            break
    prob = 0.5 * (1.0 + np.tanh(0.5 * (X @ theta)))
    hess = X.T @ (X * (prob * (1.0 - prob))[:, None]) + np.eye(d)
    return theta, hess


def laplace_log_evidence(X: np.ndarray, y: np.ndarray) -> float:
    mode, hess = laplace_fit(X, y)
    _, logdet = np.linalg.slogdet(hess)
    d = X.shape[1]
    return float(_log_joint(X, y, mode[None, :])[0] + 0.5 * d * LOG_2PI - 0.5 * logdet)


def importance_log_evidence(
    X: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_draws: int
) -> float:
    """Importance sampling from the Laplace fit, covariance inflated by 1.2."""
    mode, hess = laplace_fit(X, y)
    d = X.shape[1]
    low = np.linalg.cholesky(1.2 * np.linalg.inv(hess))
    z = rng.standard_normal((n_draws, d))
    thetas = mode + z @ low.T
    log_q = -0.5 * (
        d * LOG_2PI + 2.0 * np.sum(np.log(np.diag(low))) + np.einsum("md,md->m", z, z)
    )
    log_w = np.concatenate(
        [_log_joint(X, y, thetas[i : i + 500]) for i in range(0, n_draws, 500)]
    ) - log_q
    peak = log_w.max()
    return float(peak + math.log(np.mean(np.exp(log_w - peak))))


def references(workload: Workload, X: np.ndarray, y: np.ndarray, seed: int) -> Dict[str, float]:
    """Full-data log evidence of each model (keyed by model id or bits)."""
    if workload.name == "rj_s3":
        out = {}
        for bits in workload.indicators:
            cols = [j for j, c in enumerate(bits) if c == "1"]
            out[bits] = laplace_log_evidence(X[:, cols], y)
        return out
    rng = np.random.default_rng([seed, 99])
    return {
        model_id: importance_log_evidence(X[:, list(active)], y, rng, REFERENCE_IS_DRAWS)
        for model_id, active in workload.models.items()
    }


# ---------------------------------------------------------------------------
# closed forms the combination must reproduce


def log_alpha(d: int, n_splits: int) -> float:
    """log of the integral of N(0, I_d)^(1/S)."""
    S = n_splits
    return 0.5 * d * ((S - 1.0) / S) * LOG_2PI + 0.5 * d * math.log(S)


def _log_normalizer(eta: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """xi with exp(eta'x - x'lam x/2 + xi) a density, for a stack of lams."""
    d = eta.shape[-1]
    chol = np.linalg.cholesky(lams)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    sol = np.linalg.solve(lams, np.broadcast_to(eta, lams.shape[:-1])[..., None])[..., 0]
    quad = np.einsum("...i,...i->...", np.broadcast_to(eta, sol.shape), sol)
    return -0.5 * (d * LOG_2PI - logdet + quad)


def log_product_integral(means: np.ndarray, covs: np.ndarray) -> float:
    """log of the integral over theta of prod_s N(theta; mean_s, cov_s)."""
    lams = np.linalg.inv(covs)
    lams = 0.5 * (lams + np.swapaxes(lams, -1, -2))
    etas = np.einsum("sij,sj->si", lams, means)
    parts = sum(float(_log_normalizer(etas[s], lams[s])) for s in range(len(etas)))
    return parts - float(_log_normalizer(etas.sum(axis=0), lams.sum(axis=0)))


def log_conditional_isub(etas: np.ndarray, precisions: np.ndarray) -> float:
    """log of the draw-averaged product integral of the conditional Gaussians.

    ``etas`` is (S, d) and ``precisions`` is (S, N, d, d), paired by draw.
    """
    parts = sum(_log_normalizer(etas[s], precisions[s]) for s in range(len(etas)))
    terms = parts - _log_normalizer(etas.sum(axis=0), precisions.sum(axis=0))
    peak = terms.max()
    return float(peak + math.log(np.mean(np.exp(terms - peak))))


# ---------------------------------------------------------------------------
# reading artifacts


def digests(files: Sequence[str]) -> Dict[str, str]:
    """sha256 of each file (relative to the working directory), or "missing"."""
    out = {}
    for rel in files:
        try:
            with open(rel, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            out[rel] = "missing"
    return out


def _load(workdir: str, rel: str):
    with open(os.path.join(workdir, rel)) as fh:
        return json.load(fh)


def read_stream(path: str) -> Tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        recs = [json.loads(line) for line in fh if line.strip()]
    if [r["n"] for r in recs] != list(range(1, len(recs) + 1)):
        raise ValueError(f"{path}: records out of order")
    d = len(header["eta"])
    precs = np.array([r["prec_row_major"] for r in recs], dtype=float)
    return np.array(header["eta"], dtype=float), precs.reshape(len(recs), d, d)


def _results(workdir: str, files: Sequence[str]) -> List[dict]:
    return [_load(workdir, f) for f in files]


def _check_results(results: List[dict], workload: Workload, what: str) -> List[str]:
    errors = []
    ids = [r["shard_id"] for r in results]
    if ids != list(range(workload.splits)):
        errors.append(f"{what}: shard ids {ids}")
    total = sum(r["n_obs"] for r in results)
    if total != workload.n:
        errors.append(f"{what}: n_obs sum to {total}, not {workload.n}")
    kept = sorted({r["n_samples"] for r in results})
    if kept != [workload.retained]:
        errors.append(f"{what}: results keep {kept} draws, not {workload.retained}")
    return errors


def _moments(results: List[dict]) -> Tuple[np.ndarray, np.ndarray]:
    means = np.array([r["mean"] for r in results], dtype=float)
    d = means.shape[1]
    covs = np.array([r["cov_row_major"] for r in results], dtype=float)
    return means, covs.reshape(len(results), d, d)


def _near(name: str, value: float, ref: float, tol: float) -> List[str]:
    if abs(value - ref) <= tol:
        return []
    return [f"{name}: {value:.6f} is {value - ref:+.6f} from {ref:.6f} (tolerance {tol})"]


# ---------------------------------------------------------------------------
# per-workload checks


def check_approx(workload: Workload, workdir: str, refs: Dict[str, float]) -> List[str]:
    evidence = _load(workdir, "run/evidence.json")
    errors = []
    values = {}
    for model_id, active in workload.models.items():
        files = [f"run/{model_id}/result_{s}.json" for s in range(workload.splits)]
        results = _results(workdir, files)
        errors += _check_results(results, workload, model_id)
        reported = evidence["models"][model_id]["log_evidence"]
        values[model_id] = reported
        second = (
            workload.splits * log_alpha(len(active), workload.splits)
            + sum(r["log_local_evidence"]["value"] for r in results)
            + log_product_integral(*_moments(results))
        )
        errors += _near(f"{model_id} recombination", reported, second, TOL_IDENTITY)
        errors += _near(f"{model_id} log evidence", reported, refs[model_id],
                        TOL_LOG_EVIDENCE_APPROX)
    first, second = list(workload.models)
    errors += _near(f"log BF {first}|{second}", values[first] - values[second],
                    refs[first] - refs[second], TOL_LOG_BF_APPROX)
    return errors


def check_conditional(workload: Workload, workdir: str, refs: Dict[str, float]) -> List[str]:
    evidence = _load(workdir, "evidence.json")
    results = _results(workdir, [f"result_{s}.json" for s in range(workload.splits)])
    errors = _check_results(results, workload, "full")
    etas, precs = [], []
    for r in results:
        eta, prec = read_stream(os.path.join(workdir, r["conditional_stream_path"]))
        sid = r["shard_id"]
        if prec.shape[0] != workload.retained:
            errors.append(f"stream {sid}: {prec.shape[0]} records, not {workload.retained}")
            continue
        asym = np.abs(prec - np.swapaxes(prec, 1, 2)).max()
        if asym > 1e-12 * np.abs(prec).max():
            errors.append(f"stream {sid}: a precision is not symmetric ({asym:.3g})")
        elif np.linalg.eigvalsh(prec).min() <= 0.0:
            errors.append(f"stream {sid}: a precision is not positive definite")
        etas.append(eta)
        precs.append(prec)
    reported = evidence["models"]["full"]["log_evidence"]
    if not errors:
        second = (
            workload.splits * log_alpha(len(FULL), workload.splits)
            + sum(r["log_local_evidence"]["value"] for r in results)
            + log_conditional_isub(np.array(etas), np.array(precs))
        )
        errors += _near("full recombination", reported, second, TOL_IDENTITY)
    errors += _near("full log evidence", reported, refs["full"],
                    TOL_LOG_EVIDENCE_CONDITIONAL)
    return errors


def check_rj(workload: Workload, workdir: str, refs: Dict[str, float]) -> List[str]:
    errors = []
    for s in range(workload.splits):
        out = _load(workdir, f"rj/rj_result_{s}.json")
        visits = sum(block["count"] for block in out["models"].values())
        if visits != workload.retained or out["n_iterations"] != workload.retained:
            errors.append(f"shard {s}: {visits} visits, not {workload.retained}")
    log_bf = _load(workdir, "rj/rj_summary.json")["log_bf"]
    a, b, c = workload.indicators
    cycle = log_bf[f"{a}|{b}"] + log_bf[f"{b}|{c}"] - log_bf[f"{a}|{c}"]
    errors += _near("log BF transitivity", cycle, 0.0, TOL_IDENTITY)
    for key, value in log_bf.items():
        first, second = key.split("|")
        errors += _near(f"log BF {key}", value, refs[first] - refs[second], TOL_LOG_BF_RJ)
    return errors


CHECKS = {
    "approx_s16": check_approx,
    "conditional_s16_files": check_conditional,
    "rj_s3": check_rj,
}


def check_outputs(workload: Workload, workdir: str, refs: Dict[str, float]) -> List[str]:
    """Failure messages for the artifacts in ``workdir``; empty when correct."""
    try:
        return CHECKS[workload.name](workload, workdir, refs)
    except (OSError, ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    import argparse

    from workloads import WORKLOADS, make_data

    parser = argparse.ArgumentParser(description="print the reference log evidences")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    chosen = WORKLOADS[args.workload]
    print(json.dumps(references(chosen, *make_data(chosen, args.seed), args.seed)))
