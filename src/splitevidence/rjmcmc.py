"""Reversible-jump variable selection on one shard, and the distributed
Bayes-factor combination across shards.

The sampler explores (gamma, theta_gamma) jointly: within-model
random-walk updates alternate with birth/death jumps that toggle one
feature, drawing the entering coefficient from its subprior marginal so
the Jacobian is 1.  Per-model sojourn frequencies estimate posterior model
probabilities; per-model moment summaries feed the distributed Bayes
factor, which stitches shard-level sojourn odds together with the
fractionation constants and the Gaussian overlap integrals of each model.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import wire
from .errors import DecodeError, DomainError, SchemaVersionError, SpdError, UnexploredModelError
from .evidence import approx_isub
from .gaussian import GaussianMoments, chol_spd, sample_moments
from .models import (
    LaplacePrior,
    ModelSpec,
    NormalPrior,
    Shard,
    check_compatible,
    log_alpha,
)
from .samplers import SubposteriorDensity, laplace_fit, subposterior_closure

LOG_2PI = math.log(2.0 * math.pi)

MAX_FEATURES = 25

# iterations whose random numbers the sampler draws in one block
_DRAW_BLOCK = 1024


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _log_choose(n: int) -> np.ndarray:
    """log of the binomial coefficient C(n, k) for k = 0..n."""
    lg = math.lgamma
    return np.array([lg(n + 1) - lg(k + 1) - lg(n - k + 1) for k in range(n + 1)])


@dataclass(frozen=True)
class ModelIndicator:
    """Which features a candidate model includes."""

    active: Tuple[int, ...]
    n_features: int

    def __post_init__(self):
        feats = tuple(sorted(int(i) for i in self.active))
        if len(set(feats)) != len(feats):
            raise DomainError("indicator has duplicate features")
        if feats and (feats[0] < 0 or feats[-1] >= self.n_features):
            raise DomainError("indicator feature index out of range")
        object.__setattr__(self, "active", feats)

    @property
    def size(self) -> int:
        return len(self.active)

    @property
    def bits(self) -> str:
        included = set(self.active)
        return "".join("1" if j in included else "0" for j in range(self.n_features))

    @classmethod
    def from_bits(cls, bits: str) -> "ModelIndicator":
        if not bits or any(c not in "01" for c in bits):
            raise DomainError(f"malformed indicator bitstring {bits!r}")
        return cls(
            active=tuple(j for j, c in enumerate(bits) if c == "1"),
            n_features=len(bits),
        )


@dataclass(frozen=True)
class BetaBinomialPrior:
    """Model prior p(gamma) = B(a + |gamma|, b + p - |gamma|) / B(a, b).

    Each specific subset of size k gets this mass, which integrates a
    shared Bernoulli inclusion probability against Beta(a, b); larger
    model spaces are automatically penalized.
    """

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("beta-binomial hyperparameters must be positive")

    def log_prob(self, size: int, n_features: int) -> float:
        if not 0 <= size <= n_features:
            raise DomainError(f"model size {size} outside 0..{n_features}")
        return _log_beta(self.a + size, self.b + n_features - size) - _log_beta(self.a, self.b)

    def size_log_pmf(self, n_features: int) -> np.ndarray:
        """log pmf over model sizes 0..p (subset mass times binomial count)."""
        per_subset = [self.log_prob(k, n_features) for k in range(n_features + 1)]
        return _log_choose(n_features) + per_subset


@dataclass(frozen=True)
class UniformIndicatorPrior:
    """Flat prior over all 2^p indicators: every subset gets mass 2^-p.

    Unlike the beta-binomial it puts no extra weight on the extreme model
    sizes, so sojourn counts track the likelihood alone.
    """

    def log_prob(self, size: int, n_features: int) -> float:
        if not 0 <= size <= n_features:
            raise DomainError(f"model size {size} outside 0..{n_features}")
        return -n_features * math.log(2.0)

    def size_log_pmf(self, n_features: int) -> np.ndarray:
        return _log_choose(n_features) - n_features * math.log(2.0)


ModelPrior = BetaBinomialPrior | UniformIndicatorPrior


@dataclass(eq=False)
class RJOutput:
    """Sojourn counts and per-model moment summaries from one shard."""

    n_features: int
    visit_counts: Dict[ModelIndicator, int]
    moments: Dict[ModelIndicator, GaussianMoments]
    n_iterations: int
    burn_in: int
    seed: int
    min_visits: int

    def __post_init__(self):
        total = sum(self.visit_counts.values())
        if total != self.n_iterations:
            raise DomainError(
                f"visit counts sum to {total}, expected {self.n_iterations}"
            )

    def count(self, indicator: ModelIndicator) -> int:
        return self.visit_counts.get(indicator, 0)


def submodel(base: ModelSpec, indicator: ModelIndicator) -> ModelSpec:
    if indicator.n_features != base.dim:
        raise DomainError(
            f"indicator covers {indicator.n_features} features, model has {base.dim}"
        )
    return ModelSpec(
        model_id=f"{base.model_id}:{indicator.bits}",
        likelihood=base.likelihood,
        prior=base.prior,
        dim=base.dim,
        active_features=indicator.active,
    )


class _ModelCache:
    """Per-model closures: target density, proposal Cholesky, start point.

    Everything here is a deterministic function of (gamma, shard, prior),
    never of the chain's history, so lazy construction does not perturb
    the transition kernel.
    """

    def __init__(self, base: ModelSpec, shard: Shard, n_splits: int):
        self.base = base
        self.shard = shard
        self.n_splits = n_splits
        self._entries: Dict[Tuple[int, ...], dict] = {}

    def entry(self, active: Tuple[int, ...]) -> dict:
        cached = self._entries.get(active)
        if cached is not None:
            return cached
        spec = submodel(self.base, ModelIndicator(active, self.base.dim))
        density = SubposteriorDensity(spec, self.shard, self.n_splits)
        target = subposterior_closure(density)
        d = spec.theta_dim
        if d == 0:
            entry = {
                "spec": spec,
                "target": target,
                "d": 0,
                "start": np.zeros(0),
                "prop_chol": None,
            }
        else:
            fit = laplace_fit(density)
            scale = 2.38**2 / d
            prop_chol = chol_spd(
                scale * (fit.cov + 1e-9 * np.eye(d)), what="jump proposal covariance"
            )
            entry = {
                "spec": spec,
                "target": target,
                "d": d,
                "start": fit.mean,
                "prop_chol": prop_chol,
            }
        self._entries[active] = entry
        return entry


def _coef_marginal(base: ModelSpec, feature: int, n_splits: int):
    """Subprior marginal of one coefficient: log density, and the map that
    takes a standard variate of ``_standard_variates`` to a draw."""
    prior = base.prior
    if isinstance(prior, NormalPrior):
        mean = float(prior.mean[feature])
        var = n_splits * float(prior.cov[feature, feature])
        sd = math.sqrt(var)

        def born(z):
            return mean + sd * z

        def logpdf(value):
            return -0.5 * (LOG_2PI + math.log(var) + (value - mean) ** 2 / var)

        return born, logpdf
    if isinstance(prior, LaplacePrior):
        scale = n_splits * prior.scale

        def born(z):
            return scale * z

        def logpdf(value):
            return -math.log(2.0 * scale) - abs(value) / scale

        return born, logpdf
    raise DomainError(f"unsupported prior kind {prior.kind!r}")


def _standard_variates(base: ModelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """N(0, 1) draws under a normal prior, Laplace(0, 1) under a Laplace prior."""
    if isinstance(base.prior, NormalPrior):
        return rng.standard_normal(size)
    return rng.laplace(size=size)


def rjmcmc_sample(
    base: ModelSpec,
    shard: Shard,
    n_splits: int,
    n_iter: int = 100_000,
    burn_in: int = 10_000,
    seed: int = 0,
    model_prior: ModelPrior = BetaBinomialPrior(),
    min_visits: int = 500,
) -> RJOutput:
    """Explore models and coefficients jointly on one shard.

    The chain starts in the full model.  Each iteration applies one
    within-model random-walk update (skipped for the empty model) and one
    birth/death jump that toggles a uniformly chosen feature, the entering
    coefficient drawn from its subprior marginal.  The random numbers of
    ``_DRAW_BLOCK`` iterations are drawn at once.  Sojourn counts and
    per-model draws accumulate after burn-in.  A model of dimension d keeps
    the moments of its draws only when it was visited at least
    max(``min_visits``, d + 2) times, the rule of ``chain_moments``, and its
    covariance passes ``chol_spd``, the check ``rj_output_from_json``
    applies, so every output reads back.
    """
    p = base.dim
    if p > MAX_FEATURES:
        raise DomainError(f"model space limited to {MAX_FEATURES} features, got {p}")
    if base.active_features is not None and len(base.active_features) != p:
        raise DomainError("the base model must include every feature")
    if not 0 <= burn_in < n_iter:
        raise DomainError("need 0 <= burn_in < n_iter")
    check_compatible(base, shard)

    cache = _ModelCache(base, shard, n_splits)
    size_log_prior = [model_prior.log_prob(k, p) for k in range(p + 1)]
    marginals = [_coef_marginal(base, j, n_splits) for j in range(p)]

    active = tuple(range(p))
    entry = cache.entry(active)
    theta = entry["start"].copy()
    log_target = entry["target"](theta)
    if not np.isfinite(log_target):
        raise DomainError("initial state has zero subposterior density")

    rng = np.random.default_rng(seed)
    counts: Dict[Tuple[int, ...], int] = {}
    kept: Dict[Tuple[int, ...], List[np.ndarray]] = {}

    for lo in range(0, n_iter, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n_iter - lo)
        walks = rng.standard_normal((size, p))
        log_us = np.log(rng.random((size, 2))).tolist()
        toggles = rng.integers(p, size=size).tolist()
        variates = _standard_variates(base, rng, size).tolist()
        for it, z, (log_u_walk, log_u_jump), j, variate in zip(
            range(lo, lo + size), walks, log_us, toggles, variates
        ):
            # within-model random-walk move
            d = entry["d"]
            if d > 0:
                proposal = theta + entry["prop_chol"] @ z[:d]
                cand = entry["target"](proposal)
                if cand - log_target > log_u_walk:
                    theta = proposal
                    log_target = cand

            # birth/death jump: toggle one uniformly chosen feature
            pos = bisect_left(active, j)
            born, logpdf = marginals[j]
            if pos < len(active) and active[pos] == j:
                # death: remove feature j, reverse move would rebirth it
                new_active = active[:pos] + active[pos + 1 :]
                new_theta = np.concatenate((theta[:pos], theta[pos + 1 :]))
                log_hastings = logpdf(float(theta[pos]))
            else:
                # birth: insert feature j with a subprior-marginal draw
                new_active = active[:pos] + (j,) + active[pos:]
                value = born(variate)
                new_theta = np.concatenate((theta[:pos], (value,), theta[pos:]))
                log_hastings = -logpdf(value)
            new_entry = cache.entry(new_active)
            cand = new_entry["target"](new_theta)
            log_accept = (
                cand
                - log_target
                + size_log_prior[len(new_active)]
                - size_log_prior[len(active)]
                + log_hastings
            )
            if log_accept > log_u_jump:
                active = new_active
                entry = new_entry
                theta = new_theta
                log_target = cand

            if it >= burn_in:
                counts[active] = counts.get(active, 0) + 1
                if entry["d"] > 0:
                    kept.setdefault(active, []).append(theta)

    retained = n_iter - burn_in
    visit_counts = {
        ModelIndicator(a, p): c for a, c in sorted(counts.items())
    }
    moments = {}
    for a, draws in kept.items():
        if len(draws) < max(min_visits, draws[0].shape[0] + 2):
            continue
        mom = sample_moments(draws)
        try:
            chol_spd(mom.cov, what="covariance")
        except SpdError:
            continue  # too few distinct draws: the count stays, the summary is null
        moments[ModelIndicator(a, p)] = mom
    return RJOutput(
        n_features=p,
        visit_counts=visit_counts,
        moments=moments,
        n_iterations=retained,
        burn_in=burn_in,
        seed=seed,
        min_visits=min_visits,
    )


def _require_visits(
    out: RJOutput, indicator: ModelIndicator, minimum: int, where: str
) -> int:
    count = out.count(indicator)
    if count < minimum:
        raise UnexploredModelError(
            f"model {indicator.bits} visited {count} < {minimum} times {where}"
        )
    return count


def model_posterior_odds(
    out: RJOutput,
    first: ModelIndicator,
    second: ModelIndicator,
) -> float:
    """log of the sojourn-frequency ratio, the posterior odds estimate."""
    c1 = _require_visits(out, first, 1, "in this run")
    c2 = _require_visits(out, second, 1, "in this run")
    return math.log(c1) - math.log(c2)


def model_log_bf(
    out: RJOutput,
    first: ModelIndicator,
    second: ModelIndicator,
    model_prior: ModelPrior = BetaBinomialPrior(),
) -> float:
    """Prior-corrected sojourn odds: the local Bayes factor estimate."""
    odds = model_posterior_odds(out, first, second)
    p = out.n_features
    return odds + model_prior.log_prob(second.size, p) - model_prior.log_prob(
        first.size, p
    )


def distributed_log_bf(
    outputs: Sequence[RJOutput],
    first: ModelIndicator,
    second: ModelIndicator,
    base: ModelSpec,
    n_splits: int,
    model_prior: ModelPrior = BetaBinomialPrior(),
) -> float:
    """Combine shard-level sojourn odds into the full-data log Bayes factor.

    Per shard: prior-corrected log sojourn odds.  Globally: the
    fractionation constants and the overlap integrals of each model's
    per-shard Gaussian moment summaries.  At S=1 both global corrections
    are exactly zero and this reduces to the single-shard estimate.
    """
    if len(outputs) != n_splits or n_splits < 1:
        raise DomainError(
            f"expected {n_splits} shard outputs, got {len(outputs)}"
        )
    spec1 = submodel(base, first)
    spec2 = submodel(base, second)

    total = 0.0
    moments1: List[GaussianMoments] = []
    moments2: List[GaussianMoments] = []
    for s, out in enumerate(outputs):
        where = f"on shard {s}"
        _require_visits(out, first, out.min_visits, where)
        _require_visits(out, second, out.min_visits, where)
        total += model_log_bf(out, first, second, model_prior)
        for spec, indicator, bucket in (
            (spec1, first, moments1),
            (spec2, second, moments2),
        ):
            if spec.theta_dim == 0:
                continue
            mom = out.moments.get(indicator)
            if mom is None:
                raise UnexploredModelError(
                    f"model {indicator.bits} has no moment summary {where}"
                )
            bucket.append(mom)

    total += n_splits * (log_alpha(spec1, n_splits) - log_alpha(spec2, n_splits))
    if moments1:
        total += approx_isub(moments1)
    if moments2:
        total -= approx_isub(moments2)
    return total


# ---------------------------------------------------------------------------
# serialization

RJ_SCHEMA_VERSION = 1


def rj_output_to_json(out: RJOutput) -> str:
    """Canonical ``wire`` line keyed by indicator bitstrings."""
    models = {}
    for indicator in sorted(out.visit_counts, key=lambda m: m.bits):
        mom = out.moments.get(indicator)
        models[indicator.bits] = {
            "count": out.visit_counts[indicator],
            "mean": None if mom is None else [float(v) for v in mom.mean],
            "cov_row_major": None
            if mom is None
            else [float(v) for v in mom.cov.ravel()],
        }
    obj = {
        "schema_version": RJ_SCHEMA_VERSION,
        "n_features": out.n_features,
        "n_iterations": out.n_iterations,
        "burn_in": out.burn_in,
        "seed": out.seed,
        "min_visits": out.min_visits,
        "models": models,
    }
    return wire.dumps(obj)


def rj_output_from_json(text: str) -> RJOutput:
    doc = wire.loads(text, "sampler output")
    version = doc.integer("schema_version")
    if version != RJ_SCHEMA_VERSION:
        raise SchemaVersionError(f"unsupported sampler output schema {version}")
    p = doc.integer("n_features", minimum=1)
    visit_counts: Dict[ModelIndicator, int] = {}
    moments: Dict[ModelIndicator, GaussianMoments] = {}
    try:
        for bits, block in doc.sub("models").items():
            indicator = ModelIndicator.from_bits(bits)
            if indicator.n_features != p:
                raise DecodeError(f"indicator {bits!r} does not cover {p} features")
            visit_counts[indicator] = block.integer("count", minimum=1)
            gauss = block.gaussian("mean", "cov_row_major", null=True)
            if gauss is not None:
                moments[indicator] = GaussianMoments(*gauss)
        return RJOutput(
            n_features=p,
            visit_counts=visit_counts,
            moments=moments,
            n_iterations=doc.integer("n_iterations", minimum=0),
            burn_in=doc.integer("burn_in", minimum=0),
            seed=doc.integer("seed", minimum=0),
            min_visits=doc.integer("min_visits", minimum=0),
        )
    except DomainError as exc:
        raise DecodeError(f"sampler output invalid: {exc}") from exc


def write_rj_output(out: RJOutput, path) -> None:
    with open(path, "w") as handle:
        handle.write(rj_output_to_json(out))


def read_rj_output(path) -> RJOutput:
    with open(path) as handle:
        return rj_output_from_json(handle.read())
