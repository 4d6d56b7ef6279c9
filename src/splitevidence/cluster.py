"""One-round coordinator/worker execution over shards.

Each worker receives exactly one shard, samples its subposterior, and
returns a compact summary: Gaussian moments, a local log evidence, and in
conditional mode the per-draw Gaussian full conditionals.  It builds the
shard's ``SubposteriorDensity`` once, and the Laplace fit, the sampler and
the evidence estimator all take that one object.  Workers never
see another shard's rows and never exchange messages; the coordinator
fans out, waits, and combines.  Approx-mode payloads are O(p^2) per worker
regardless of shard size or chain length; conditional-mode payloads grow
as O(N p^2) with the chain length N.

Results serialize to one canonical ``wire`` line with a fixed key order,
so identical runs are byte-identical.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import wire
from .errors import (
    CombinationError,
    ConfigurationError,
    DecodeError,
    SchemaVersionError,
    WorkerError,
)
from .evidence import (
    MIN_IMPORTANCE_DRAWS,
    EvidenceEstimate,
    approx_isub,
    chib_log_evidence,
    combine_evidence,
    conditional_isub,
    ess_warnings,
    importance_log_evidence,
    laplace_metropolis_log_evidence,
)
from .gaussian import GaussianMoments
from .models import (
    Dataset,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    check_compatible,
    log_alpha,
)
from .samplers import (
    ConditionalGaussianStream,
    SubposteriorDensity,
    chain_moments,
    laplace_fit,
    pg_gibbs_logistic,
    read_stream,
    rwmh_chain,
    subposterior_closure,
    write_stream,
)

SCHEMA_VERSION = 1

MODES = ("approx", "conditional", "exact")
EVIDENCE_METHODS = ("chib", "importance", "laplace")

# sub-role indices for per-worker seed derivation
_ROLE_SAMPLER = 0
_ROLE_EVIDENCE = 1


def worker_seed(master_seed: int, shard_id: int) -> int:
    """Stable per-shard seed; adding shards never perturbs existing ones."""
    return derived_seed(master_seed, shard_id, _ROLE_SAMPLER)


def derived_seed(master_seed: int, shard_id: int, role: int) -> int:
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(shard_id), int(role)))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every worker of a run; the one place they are checked.

    Field names are the command-line flags and the ``run --config`` keys.
    ``evidence=None`` picks the mode's estimator: chib in conditional mode,
    importance otherwise.  Chib needs the PG-Gibbs draws that only
    conditional mode makes, and conditional mode needs chib.  Exact mode is
    the analytic bypass for conjugate linear models and runs no chain.
    """

    mode: str = "approx"
    evidence: Optional[str] = None
    samples: int = 10_000
    burn_in: int = 2_000
    evidence_samples: int = 10_000
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.evidence is None:
            default = "chib" if self.mode == "conditional" else "importance"
            object.__setattr__(self, "evidence", default)
        if self.evidence not in EVIDENCE_METHODS:
            raise ConfigurationError(
                f"unknown evidence method {self.evidence!r}; choose from {EVIDENCE_METHODS}"
            )
        if (self.evidence == "chib") != (self.mode == "conditional"):
            raise ConfigurationError(
                f"{self.mode} mode with the {self.evidence} estimator: the chib "
                "estimator runs in conditional mode, and only there"
            )
        if not self.samples > self.burn_in >= 0:
            raise ConfigurationError("need samples > burn_in >= 0")
        if self.mode == "approx" and self.evidence == "importance" and (
            self.evidence_samples < MIN_IMPORTANCE_DRAWS
        ):
            raise ConfigurationError(
                f"the importance estimator needs evidence_samples >= "
                f"{MIN_IMPORTANCE_DRAWS}, got {self.evidence_samples}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be at least 1")


@dataclass
class WorkerTask:
    """Everything one worker needs; holds only its own shard.

    Built by ``shard_task``, which derives ``seed`` from ``config.seed``
    and the shard id.
    """

    shard: Shard
    model: ModelSpec
    n_splits: int
    config: RunConfig
    seed: int
    stream_path: Optional[str] = None

    def __post_init__(self):
        check_compatible(self.model, self.shard)
        retained, d = self.config.samples - self.config.burn_in, self.model.theta_dim
        if self.config.mode != "exact" and retained < d + 2:
            raise ConfigurationError(
                f"samples - burn_in = {retained}: moments need at least dim+2 = {d + 2} draws"
            )
        if self.config.mode == "conditional":
            ok = isinstance(self.model.likelihood, LogisticLikelihood) and isinstance(
                self.model.prior, NormalPrior
            )
            if not ok:
                raise ConfigurationError(
                    "conditional mode requires a logistic likelihood with a "
                    "Gaussian prior"
                )


@dataclass(eq=False)
class WorkerResult:
    """Summary a worker sends back; the only thing that leaves the shard."""

    shard_id: int
    model_id: str
    n_obs: int
    dim: int
    n_splits: int
    n_samples: int
    seed: int
    mean: np.ndarray
    cov: np.ndarray
    evidence_method: str
    log_local_evidence: float
    evidence_std_err: Optional[float]
    acceptance_rate: Optional[float] = None
    ess: Optional[float] = None
    conditional_stream_path: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    # runtime-only: the in-memory stream in conditional mode; never serialized
    stream: Optional[ConditionalGaussianStream] = field(
        default=None, repr=False, compare=False
    )

    def __eq__(self, other):
        """Equal when the canonical encodings are; the in-memory stream is not compared."""
        if not isinstance(other, WorkerResult):
            return NotImplemented
        return encode_worker_result(self) == encode_worker_result(other)

    def moments(self) -> GaussianMoments:
        return GaussianMoments(mean=self.mean, cov=self.cov)

    def local_estimate(self) -> EvidenceEstimate:
        return EvidenceEstimate(
            log_value=self.log_local_evidence,
            mc_std_err=self.evidence_std_err,
            method=self.evidence_method,
            n_samples_used=self.n_samples,
            ess=self.ess,
            warnings=ess_warnings(self.ess),
        )


def run_worker(task: WorkerTask) -> WorkerResult:
    """Sample one subposterior and summarize it; deterministic given the task."""
    try:
        return _run_worker_inner(task)
    except Exception as exc:
        raise WorkerError(f"shard {task.shard.shard_id}: {exc}") from exc


def _run_worker_inner(task: WorkerTask) -> WorkerResult:
    shard = task.shard
    model = task.model
    n_splits = task.n_splits
    config = task.config
    chain = stream = stream_path = None
    # the one density of this shard: the fit, the chain and the estimator share it
    density = None if config.mode == "exact" else SubposteriorDensity(model, shard, n_splits)

    if config.mode == "exact":
        # analytic bypass for conjugate linear models, used to exercise the
        # protocol without Monte Carlo noise; the closed forms reject any
        # other model
        from .diagnostics import exact_local_evidence, exact_local_moments

        mom = exact_local_moments(model, shard, n_splits)
        est = EvidenceEstimate(
            log_value=float(exact_local_evidence(model, shard, n_splits)),
            mc_std_err=None,
            method="exact",
            n_samples_used=0,
        )
    elif config.mode == "conditional":
        chain, stream = pg_gibbs_logistic(
            density, n_iter=config.samples, burn_in=config.burn_in, seed=task.seed
        )
        mom = chain_moments(chain)
        est = chib_log_evidence(density, chain, stream)
        if task.stream_path is not None:
            write_stream(stream, task.stream_path)
            stream_path = str(task.stream_path)
    else:
        # approx mode: adaptive random-walk chain started at the Laplace fit
        fit = laplace_fit(density)
        chain = rwmh_chain(
            subposterior_closure(density),
            fit.mean,
            n_iter=config.samples,
            burn_in=config.burn_in,
            seed=task.seed,
            init_cov=fit.cov,
        )
        mom = chain_moments(chain)
        if config.evidence == "importance":
            est = importance_log_evidence(
                density,
                mom,
                n_samples=config.evidence_samples,
                # the evidence stage gets its own stream so changing the chain
                # length does not shift the importance draws
                seed=derived_seed(task.seed, shard.shard_id, _ROLE_EVIDENCE),
            )
        else:
            est = laplace_metropolis_log_evidence(density, mom)

    return WorkerResult(
        shard_id=shard.shard_id,
        model_id=model.model_id,
        n_obs=int(shard.X.shape[0]),
        dim=model.theta_dim,
        n_splits=n_splits,
        n_samples=0 if chain is None else chain.n_retained,
        seed=task.seed,
        mean=mom.mean,
        cov=mom.cov,
        evidence_method=est.method,
        log_local_evidence=est.log_value,
        evidence_std_err=est.mc_std_err,
        acceptance_rate=None if chain is None else chain.acceptance_rate,
        ess=est.ess,
        conditional_stream_path=stream_path,
        stream=stream,
    )


def shard_task(
    shard: Shard,
    model: ModelSpec,
    n_splits: int,
    config: RunConfig,
    stream_dir: Optional[str] = None,
) -> WorkerTask:
    """The task of one shard: the one place a worker's seed and stream file are set.

    Worker s draws from ``worker_seed(config.seed, s)``.  In conditional
    mode with a ``stream_dir``, it writes its stream to
    ``<stream_dir>/cond_<s>.ndjson``.
    """
    stream_path = None
    if config.mode == "conditional" and stream_dir is not None:
        stream_path = f"{stream_dir}/cond_{shard.shard_id}.ndjson"
    return WorkerTask(
        shard=shard,
        model=model,
        n_splits=n_splits,
        config=config,
        seed=worker_seed(config.seed, shard.shard_id),
        stream_path=stream_path,
    )


def make_tasks(
    data: Dataset,
    plan,
    model: ModelSpec,
    config: RunConfig,
    stream_dir: Optional[str] = None,
) -> List[WorkerTask]:
    return [
        shard_task(shard, model, plan.n_splits, config, stream_dir)
        for shard in plan.shards(data)
    ]


def run_cluster(
    data: Dataset,
    plan,
    model: ModelSpec,
    config: RunConfig,
    stream_dir: Optional[str] = None,
) -> List[WorkerResult]:
    """Fan out one task per shard, fan in; exactly one result per shard.

    Every worker runs under the same ``config``, with the task
    ``shard_task`` builds for its shard.
    """
    return run_tasks(make_tasks(data, plan, model, config, stream_dir), config.parallelism)


def run_tasks(tasks: Sequence[WorkerTask], parallelism: int = 1) -> List[WorkerResult]:
    """Run the tasks in a thread pool of ``parallelism`` threads.

    Results come back ordered by shard id regardless of scheduling.  Any
    failure aborts the whole run with a per-shard report.
    """
    if parallelism == 1:
        outcomes = [_attempt(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(_attempt, tasks))
    failures = [str(o) for o in outcomes if isinstance(o, WorkerError)]
    if failures:
        raise WorkerError(f"{len(failures)} worker(s) failed: {'; '.join(failures)}")
    return sorted(outcomes, key=lambda r: r.shard_id)


def _attempt(task: WorkerTask) -> WorkerResult | WorkerError:
    """The task's result, or the WorkerError it failed with."""
    try:
        return run_worker(task)
    except WorkerError as exc:
        return exc


def _resolve_stream(result: WorkerResult) -> ConditionalGaussianStream:
    if result.stream is not None:
        stream = result.stream
    elif result.conditional_stream_path is not None:
        stream = read_stream(result.conditional_stream_path)
    else:
        raise WorkerError(
            f"shard {result.shard_id}: conditional combination needs a stream, "
            "but the result carries neither an in-memory stream nor a file path"
        )
    if (stream.n_records, stream.dim) != (result.n_samples, result.dim):
        raise DecodeError(
            f"shard {result.shard_id}: stream holds {stream.n_records} draws of dimension "
            f"{stream.dim}, the result reports {result.n_samples} of dimension {result.dim}"
        )
    return stream


def combine_worker_results(
    model: ModelSpec,
    results: Sequence[WorkerResult],
) -> EvidenceEstimate:
    """Recombine per-shard results into the full-data log evidence.

    Every shard must report the same local evidence method.  Chib results
    close the I_sub integral with their per-draw conditional streams; any
    other method closes it with the Gaussian moment summaries.
    """
    if len(results) == 0:
        raise WorkerError("no worker results to combine")
    n_splits = results[0].n_splits
    ordered = sorted(results, key=lambda r: r.shard_id)
    if [r.shard_id for r in ordered] != list(range(n_splits)):
        raise WorkerError(
            f"expected shards 0..{n_splits - 1}, got {[r.shard_id for r in ordered]}"
        )
    for r in ordered:
        if r.model_id != model.model_id:
            raise WorkerError(
                f"shard {r.shard_id} result is for model {r.model_id!r}, "
                f"not {model.model_id!r}"
            )
        if r.n_splits != n_splits:
            raise WorkerError("results disagree on the split count")
    methods = sorted({r.evidence_method for r in ordered})
    if len(methods) > 1:
        raise CombinationError(f"shards report different local evidence methods {methods}")

    locals_ = [r.local_estimate() for r in ordered]
    if methods[0] == "chib":
        streams = [_resolve_stream(r) for r in ordered]
        log_isub = conditional_isub(streams)
        method = "combined_conditional"
    else:
        log_isub = approx_isub([r.moments() for r in ordered])
        method = "combined_approx"
    return combine_evidence(
        log_alpha(model, n_splits), locals_, log_isub, n_splits, method=method
    )


# ---------------------------------------------------------------------------
# canonical serialization


def encode_worker_result(result: WorkerResult) -> bytes:
    """The canonical ``wire`` line of a result, in its fixed key order."""
    obj = {
        "schema_version": result.schema_version,
        "shard_id": result.shard_id,
        "model_id": result.model_id,
        "n_obs": result.n_obs,
        "dim": result.dim,
        "n_splits": result.n_splits,
        "n_samples": result.n_samples,
        "seed": result.seed,
        "mean": [float(v) for v in result.mean],
        "cov_row_major": [float(v) for v in np.asarray(result.cov).ravel()],
        "log_local_evidence": {
            "method": result.evidence_method,
            "value": float(result.log_local_evidence),
            "std_err": None
            if result.evidence_std_err is None
            else float(result.evidence_std_err),
        },
        "acceptance_rate": None
        if result.acceptance_rate is None
        else float(result.acceptance_rate),
        "ess": None if result.ess is None else float(result.ess),
        "conditional_stream_path": result.conditional_stream_path,
    }
    return wire.dumps(obj).encode("utf-8")


def decode_worker_result(payload: bytes) -> WorkerResult:
    doc = wire.loads(payload, "worker result")
    version = doc.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )
    dim = doc.integer("dim", minimum=1)
    mean, cov = doc.gaussian("mean", "cov_row_major", dim)
    evidence = doc.sub("log_local_evidence")
    return WorkerResult(
        shard_id=doc.integer("shard_id", minimum=0),
        model_id=doc.string("model_id"),
        n_obs=doc.integer("n_obs", minimum=1),
        dim=dim,
        n_splits=doc.integer("n_splits", minimum=1),
        n_samples=doc.integer("n_samples", minimum=0),
        seed=doc.integer("seed", minimum=0),
        mean=mean,
        cov=cov,
        evidence_method=evidence.string("method", choices=EVIDENCE_METHODS + ("exact",)),
        log_local_evidence=evidence.number("value"),
        evidence_std_err=evidence.number("std_err", null=True),
        acceptance_rate=doc.number("acceptance_rate", null=True),
        ess=doc.number("ess", null=True),
        conditional_stream_path=doc.string("conditional_stream_path", null=True),
        schema_version=version,
    )


def write_worker_result(result: WorkerResult, path) -> None:
    """Write the canonical encoding to ``path``.

    A conditional stream path is recorded relative to the result file's
    directory, so a result and its stream can move together; the path the
    worker wrote to may be relative to the current directory or absolute.
    """
    if result.conditional_stream_path is not None:
        base = os.path.dirname(os.path.abspath(path))
        result = replace(
            result,
            conditional_stream_path=os.path.relpath(result.conditional_stream_path, base),
        )
    with open(path, "wb") as handle:
        handle.write(encode_worker_result(result))


def read_worker_result(path) -> WorkerResult:
    """Decode a result file; a relative stream path resolves against its directory."""
    with open(path, "rb") as handle:
        result = decode_worker_result(handle.read())
    if result.conditional_stream_path is not None:
        result.conditional_stream_path = os.path.join(
            os.path.dirname(path), result.conditional_stream_path
        )
    return result
