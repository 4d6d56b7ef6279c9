"""Per-shard evidence estimators and the whole-data combination rules.

For S shards the full-data log evidence decomposes exactly as

    log p(y) = S log alpha + sum_s log ev_s + log I_sub,

where ev_s is the evidence of shard s under the fractionated prior and
I_sub is the integral of the product of the S normalized subposterior
densities.  The estimators below produce the per-shard pieces, each from
the shard's ``SubposteriorDensity`` as its worker built it; I_sub is
computed either from Gaussian moment summaries (approximate) or from the
per-draw Gaussian full conditionals of a PG-Gibbs run (conditional), in
both cases by the one kernel ``gaussian.log_product_integrals``.
All quantities live in the log domain and averages of densities use
log-sum-exp throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CombinationError, DomainError, EstimatorError
from .gaussian import (
    GaussianMoments,
    batched_log_normalizer,
    chol_spd,
    log_product_integrals,
    natural_params,
)
from .samplers import Chain, ConditionalGaussianStream, SubposteriorDensity

LOG_2PI = math.log(2.0 * math.pi)
MIN_IMPORTANCE_DRAWS = 100
LOW_ESS = 10.0  # importance-weight ESS below which an estimate warns "low_ess"
PROPOSAL_INFLATION = 1.5  # importance proposal covariance over the moment covariance

METHODS = (
    "chib",
    "importance",
    "laplace",
    "exact",
    "combined_approx",
    "combined_conditional",
)


@dataclass
class EvidenceEstimate:
    """A log evidence value with its provenance and error proxy.

    ``mc_std_err`` is a delta-method proxy that ignores the Monte Carlo
    error of the pooled subposterior-overlap integral and any chain
    autocorrelation; it is a diagnostic, not a guarantee.
    """

    log_value: float
    mc_std_err: Optional[float]
    method: str
    n_samples_used: int
    ess: Optional[float] = None
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown evidence method {self.method!r}")


@dataclass
class ModelComparison:
    """Pairwise Bayes factors and posterior model probabilities."""

    model_ids: Tuple[str, ...]
    log_evidences: np.ndarray
    log_prior_probs: np.ndarray
    log_bf_matrix: np.ndarray      # [i, j] = log BF of model i over model j
    posterior_probs: np.ndarray


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-D array, shifted by its largest entry.

    That entry's term, exactly 1, is left out of the sum and added back
    through log1p.  -inf entries add nothing, so all -inf gives -inf; a
    +inf or NaN entry gives that value.
    """
    a = np.asarray(a, dtype=float)
    top = int(np.argmax(a))
    peak = float(a[top])
    if not math.isfinite(peak):
        return peak
    terms = np.exp(a - peak)
    terms[top] = 0.0
    return peak + math.log1p(float(terms.sum()))


def ess_warnings(ess: Optional[float]) -> Tuple[str, ...]:
    """The warnings of a local estimate whose importance weights have this ESS."""
    return ("low_ess",) if ess is not None and ess < LOW_ESS else ()


def _logmeanexp_with_se(log_terms: np.ndarray) -> Tuple[float, float]:
    """log of the mean of exp(terms) plus a delta-method standard error."""
    log_terms = np.asarray(log_terms, dtype=float)
    n = log_terms.shape[0]
    peak = float(np.max(log_terms))
    if not np.isfinite(peak):
        raise EstimatorError("all log terms are -inf; estimator collapsed")
    w = np.exp(log_terms - peak)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / (mean * math.sqrt(n))) if n > 1 else float("inf")
    return peak + math.log(mean), se


def chib_log_evidence(
    density: SubposteriorDensity,
    chain: Chain,
    stream: ConditionalGaussianStream,
    theta_star: Optional[np.ndarray] = None,
) -> EvidenceEstimate:
    """Candidate-point evidence identity evaluated at the chain mean.

    log ev = log subprior(theta*) + log lik(theta*) - log posterior(theta*),
    with the posterior ordinate estimated by averaging the Gaussian full
    conditional densities recorded in the stream at theta*.
    """
    if stream.n_records != chain.n_retained:
        raise EstimatorError("stream and chain disagree on the number of draws")
    if theta_star is None:
        theta_star = chain.draws.mean(axis=0)
    theta_star = np.asarray(theta_star, dtype=float)

    xis = batched_log_normalizer(stream.eta, stream.precisions)
    quad = np.einsum("i,nij,j->n", theta_star, stream.precisions, theta_star)
    log_cond = stream.eta @ theta_star - 0.5 * quad + xis
    log_ordinate, se = _logmeanexp_with_se(log_cond)

    log_ev = density(theta_star) - log_ordinate
    return EvidenceEstimate(
        log_value=float(log_ev),
        mc_std_err=se,
        method="chib",
        n_samples_used=stream.n_records,
    )


def importance_log_evidence(
    density: SubposteriorDensity,
    proposal: GaussianMoments,
    n_samples: int = 10_000,
    seed: int = 0,
) -> EvidenceEstimate:
    """Importance-sampled shard evidence under the fractionated prior.

    The proposal is N(mean, PROPOSAL_INFLATION * cov); weights are
    lik * subprior / proposal, averaged with log-sum-exp.
    """
    if n_samples < MIN_IMPORTANCE_DRAWS:
        raise DomainError(f"importance sampling needs at least {MIN_IMPORTANCE_DRAWS} draws")
    d = density.dim
    if proposal.dim != d:
        raise EstimatorError(
            f"proposal dimension {proposal.dim} does not match model dimension {d}"
        )
    rng = np.random.default_rng(seed)
    low = chol_spd(PROPOSAL_INFLATION * proposal.cov, what="proposal covariance")
    z = rng.standard_normal((n_samples, d))
    thetas = proposal.mean + z @ low.T
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    log_q = -0.5 * (d * LOG_2PI + logdet + np.einsum("md,md->m", z, z))

    log_w = density.logpdf_batch(thetas) - log_q
    if np.any(np.isnan(log_w)):
        raise EstimatorError("importance weights contain NaN")
    log_ev, se = _logmeanexp_with_se(log_w)

    peak = np.max(log_w)
    w = np.exp(log_w - peak)
    ess = float(w.sum() ** 2 / (w @ w))
    return EvidenceEstimate(
        log_value=log_ev,
        mc_std_err=se,
        method="importance",
        n_samples_used=n_samples,
        ess=ess,
        warnings=ess_warnings(ess),
    )


def laplace_metropolis_log_evidence(
    density: SubposteriorDensity, moments: GaussianMoments
) -> EvidenceEstimate:
    """Gaussian-volume evidence approximation at the moment summary.

    (p/2) log 2pi + (1/2) log|cov| + log lik(mean) + log subprior(mean).
    Exact when the subposterior is Gaussian.
    """
    d = density.dim
    if moments.dim != d:
        raise EstimatorError(
            f"moment dimension {moments.dim} does not match model dimension {d}"
        )
    low = moments.chol()
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    log_ev = 0.5 * d * LOG_2PI + 0.5 * logdet + density(moments.mean)
    return EvidenceEstimate(
        log_value=float(log_ev),
        mc_std_err=None,
        method="laplace",
        n_samples_used=0,
    )


def conditional_isub(streams: Sequence[ConditionalGaussianStream]) -> float:
    """log I_sub from per-draw Gaussian full conditionals, paired by draw index.

    For each retained draw the integral of the product over shards of the
    conditional Gaussians is evaluated in closed form; the estimate is the
    log of their average.  The streams must hold the same number of draws.
    Any non-SPD precision record aborts.
    """
    if len(streams) == 0:
        raise DomainError("no streams given")
    dims = {s.dim for s in streams}
    if len(dims) != 1:
        raise DomainError(f"streams have mixed dimensions {sorted(dims)}")
    counts = sorted({s.n_records for s in streams})
    if len(counts) != 1:
        raise DomainError(f"streams hold different numbers of draws {counts}")
    log_integrals = log_product_integrals(
        np.stack([s.eta for s in streams]), np.stack([s.precisions for s in streams])
    )
    return logsumexp(log_integrals) - math.log(counts[0])


def approx_isub(moments: Sequence[GaussianMoments]) -> float:
    """log I_sub when every subposterior is summarized by Gaussian moments."""
    etas, lams = natural_params(moments)
    return float(log_product_integrals(etas, lams[:, None])[0])


def combine_evidence(
    log_alpha_value: float,
    local: Sequence[Optional[EvidenceEstimate]],
    log_isub: float,
    n_splits: int,
    method: str = "combined_approx",
) -> EvidenceEstimate:
    """S log alpha + sum of local log evidences + log I_sub.

    At S=1 this reduces exactly to the single local estimate because both
    log alpha and log I_sub are exactly zero there.
    """
    if len(local) != n_splits:
        raise CombinationError(
            f"expected {n_splits} local estimates, got {len(local)}"
        )
    missing = [i for i, est in enumerate(local) if est is None]
    if missing:
        raise CombinationError(f"missing local evidence for shards {missing}")
    log_value = n_splits * log_alpha_value + sum(e.log_value for e in local) + log_isub
    ses = [e.mc_std_err for e in local if e.mc_std_err is not None]
    mc = math.sqrt(sum(se**2 for se in ses)) if ses else None
    warnings = tuple(sorted({w for e in local for w in e.warnings}))
    return EvidenceEstimate(
        log_value=float(log_value),
        mc_std_err=mc,
        method=method,
        n_samples_used=sum(e.n_samples_used for e in local),
        warnings=warnings,
    )


def log_bayes_factor(first, second) -> float:
    """log evidence ratio; accepts EvidenceEstimate or plain floats."""
    a = first.log_value if isinstance(first, EvidenceEstimate) else float(first)
    b = second.log_value if isinstance(second, EvidenceEstimate) else float(second)
    return a - b


def posterior_model_probs(
    log_evidences: Sequence[float],
    log_prior_probs: Optional[Sequence[float]] = None,
) -> np.ndarray:
    log_evidences = np.asarray(log_evidences, dtype=float)
    k = log_evidences.shape[0]
    if k == 0:
        raise DomainError("no models to compare")
    if log_prior_probs is None:
        log_prior_probs = np.full(k, -math.log(k))
    log_prior_probs = np.asarray(log_prior_probs, dtype=float)
    if log_prior_probs.shape[0] != k:
        raise DomainError("prior probabilities and evidences have different lengths")
    total_prior = math.exp(logsumexp(log_prior_probs))
    if abs(total_prior - 1.0) > 1e-9:
        raise DomainError(f"prior model probabilities sum to {total_prior}, not 1")
    log_post = log_evidences + log_prior_probs
    probs = np.exp(log_post - logsumexp(log_post))
    return probs / probs.sum()


def compare_models(
    model_ids: Sequence[str],
    estimates: Sequence[EvidenceEstimate],
    log_prior_probs: Optional[Sequence[float]] = None,
) -> ModelComparison:
    if len(model_ids) != len(estimates) or len(model_ids) == 0:
        raise DomainError("model ids and estimates must be equal-length and non-empty")
    log_ev = np.array([e.log_value for e in estimates], dtype=float)
    k = log_ev.shape[0]
    if log_prior_probs is None:
        log_prior = np.full(k, -math.log(k))
    else:
        log_prior = np.asarray(log_prior_probs, dtype=float)
    probs = posterior_model_probs(log_ev, log_prior)
    bf = log_ev[:, None] - log_ev[None, :]
    return ModelComparison(
        model_ids=tuple(model_ids),
        log_evidences=log_ev,
        log_prior_probs=log_prior,
        log_bf_matrix=bf,
        posterior_probs=probs,
    )
