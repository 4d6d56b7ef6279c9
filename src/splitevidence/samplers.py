"""Per-shard samplers: Polya-Gamma draws, adaptive RWMH, PG-Gibbs.

Two samplers produce subposterior draws.  A generic random-walk Metropolis
chain works for every likelihood/prior pair; for logistic likelihoods with a
normal prior a Polya-Gamma Gibbs sampler is available whose per-draw
Gaussian full conditionals are recorded as a ConditionalGaussianStream.
Those conditionals carry a constant natural mean vector and a per-draw
precision matrix, which is all the downstream estimators need.

PG(1, c) variates are drawn exactly with the alternating-series rejection
sampler of Devroye (mixture of a truncated exponential and a truncated
inverse-Gaussian proposal, accepted through partial sums of the Jacobi
series).  A truncated sum-of-gammas sampler with an analytic tail-mean
correction is kept alongside as an independent cross-check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import minimize
from scipy.special import expit, log_ndtr

from .errors import (
    ConfigurationError,
    DecodeError,
    DomainError,
    EstimatorError,
    SpdError,
)
from .gaussian import GaussianMoments, chol_spd
from .models import (
    LaplacePrior,
    LinearKnownVar,
    LinearLogNormalVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    design,
    log_alpha,
    softplus_sum,
)

LOG_2PI = math.log(2.0 * math.pi)

_TRUNC = 0.64  # split point between the two proposal tails
_MAX_SERIES_TERMS = 1000


# ---------------------------------------------------------------------------
# Polya-Gamma sampling.

def pg_mean(c: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """E[PG(1, c)] = tanh(c/2) / (2c), with the c -> 0 limit 1/4."""
    c = np.abs(np.asarray(c, dtype=float))
    small = c < 1e-6
    safe = np.where(small, 1.0, c)
    out = np.where(small, 0.25 - c * c / 48.0, np.tanh(safe / 2.0) / (2.0 * safe))
    return out if out.ndim else float(out)


def _mass_texpon(z: np.ndarray) -> np.ndarray:
    """Probability of the truncated-exponential branch of the proposal."""
    t = _TRUNC
    fz = np.pi**2 / 8.0 + z * z / 2.0
    b = math.sqrt(1.0 / t) * (t * z - 1.0)
    a = -math.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = np.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    qdivp = 4.0 / np.pi * (np.exp(xb) + np.exp(xa))
    return 1.0 / (1.0 + qdivp)


def _rtigauss(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-Gaussian IG(1/z, 1) truncated to (0, TRUNC], vectorized."""
    t = _TRUNC
    out = np.empty_like(z)
    small = z < 1.0 / t

    todo = np.flatnonzero(small)
    while todo.size:
        k = todo.size
        e1 = rng.standard_exponential(k)
        e2 = rng.standard_exponential(k)
        ok = e1 * e1 <= 2.0 * e2 / t
        x = t / (1.0 + t * e1) ** 2
        alpha = np.exp(-0.5 * (z[todo] ** 2) * x)
        acc = ok & (rng.random(k) <= alpha)
        out[todo[acc]] = x[acc]
        todo = todo[~acc]

    big = np.flatnonzero(~small)
    if big.size:
        mu = 1.0 / z[big]
        rem = np.arange(big.size)
        vals = np.empty(big.size)
        while rem.size:
            m = mu[rem]
            ysq = rng.standard_normal(rem.size) ** 2
            my = m * ysq
            x = m + 0.5 * m * my - 0.5 * m * np.sqrt(my * (4.0 + my))
            flip = rng.random(rem.size) * (m + x) > m
            x = np.where(flip, m * m / x, x)
            acc = x <= t
            vals[rem[acc]] = x[acc]
            rem = rem[~acc]
        out[big] = vals
    return out


def _piecewise_coef(n: int, x: np.ndarray) -> np.ndarray:
    """n-th Jacobi series coefficient a_n(x), valid on both tails."""
    half = n + 0.5
    K = half * np.pi
    out = np.empty_like(x)
    left = x <= _TRUNC
    xl = x[left]
    out[left] = K * (2.0 / (np.pi * xl)) ** 1.5 * np.exp(-2.0 * half * half / xl)
    xr = x[~left]
    out[~left] = K * np.exp(-0.5 * K * K * xr)
    return out


def _series_accept(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Alternating-series accept/reject decision per proposal."""
    s = _piecewise_coef(0, x)
    y = rng.random(x.shape[0]) * s
    accepted = np.zeros(x.shape[0], dtype=bool)
    open_ = np.arange(x.shape[0])
    n = 0
    while open_.size:
        n += 1
        if n > _MAX_SERIES_TERMS:
            raise EstimatorError("Jacobi series did not resolve acceptance")
        an = _piecewise_coef(n, x[open_])
        if n % 2 == 1:
            s[open_] -= an
            hit = y[open_] <= s[open_]
            accepted[open_[hit]] = True
            open_ = open_[~hit]
        else:
            s[open_] += an
            rej = y[open_] > s[open_]
            open_ = open_[~rej]
    return accepted


def sample_pg_vec(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact PG(1, c_i) draw for every entry of c."""
    c = np.asarray(c, dtype=float)
    z = 0.5 * np.abs(c).ravel()
    fz = np.pi**2 / 8.0 + z * z / 2.0
    p_exp = _mass_texpon(z)
    out = np.empty(z.shape[0])
    todo = np.arange(z.shape[0])
    while todo.size:
        k = todo.size
        use_exp = rng.random(k) < p_exp[todo]
        x = np.empty(k)
        n_exp = int(use_exp.sum())
        if n_exp:
            x[use_exp] = _TRUNC + rng.standard_exponential(n_exp) / fz[todo[use_exp]]
        if k - n_exp:
            x[~use_exp] = _rtigauss(z[todo[~use_exp]], rng)
        acc = _series_accept(x, rng)
        out[todo[acc]] = 0.25 * x[acc]
        todo = todo[~acc]
    return out.reshape(np.shape(c)) if np.ndim(c) else out


def sample_pg(c: float, rng: np.random.Generator) -> float:
    """One exact PG(1, c) draw."""
    return float(sample_pg_vec(np.array([c]), rng)[0])


def sample_pg_truncated_vec(
    c: np.ndarray,
    rng: np.random.Generator,
    n_terms: int = 200,
    chunk: int = 20_000,
) -> np.ndarray:
    """Truncated sum-of-gammas PG(1, c) draw with analytic tail-mean correction.

    The infinite series (1/2 pi^2) sum_k g_k / ((k - 1/2)^2 + c^2/(4 pi^2))
    with g_k iid Exp(1) is cut at ``n_terms`` and rescaled so its mean is
    exactly E[PG(1, c)].
    """
    c = np.asarray(c, dtype=float)
    flat = np.abs(c).ravel()
    out = np.empty(flat.shape[0])
    ksq = (np.arange(1, n_terms + 1) - 0.5) ** 2
    for lo in range(0, flat.shape[0], chunk):
        cc = flat[lo : lo + chunk]
        denom = ksq[None, :] + (cc[:, None] / (2.0 * np.pi)) ** 2
        gam = rng.standard_exponential((cc.shape[0], n_terms))
        raw = (gam / denom).sum(axis=1) / (2.0 * np.pi**2)
        mean_trunc = (1.0 / denom).sum(axis=1) / (2.0 * np.pi**2)
        out[lo : lo + cc.shape[0]] = raw * (pg_mean(cc) / mean_trunc)
    return out.reshape(np.shape(c)) if np.ndim(c) else out


def sample_pg_truncated(c: float, rng: np.random.Generator, n_terms: int = 200) -> float:
    return float(sample_pg_truncated_vec(np.array([c]), rng, n_terms=n_terms)[0])


# ---------------------------------------------------------------------------
# Chains and chain summaries.

@dataclass(eq=False)
class Chain:
    """Retained draws of one subposterior sampler run."""

    draws: np.ndarray  # (N_retained, theta_dim)
    burn_in: int
    acceptance_rate: Optional[float]
    seed: int

    @property
    def n_retained(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


def chain_moments(chain: Chain) -> GaussianMoments:
    """Sample mean and covariance (ddof=1) of the retained draws."""
    draws = chain.draws
    n, d = draws.shape
    if n < d + 2:
        raise EstimatorError(
            f"need at least dim+2 = {d + 2} retained draws for moments, have {n}"
        )
    mean = draws.mean(axis=0)
    centred = draws - mean
    cov = centred.T @ centred / (n - 1)
    cov = 0.5 * (cov + cov.T)
    chol_spd(cov, what="chain covariance")
    return GaussianMoments(mean=mean, cov=cov)


# ---------------------------------------------------------------------------
# Fast subposterior log-density closures.

def _subprior_closure(model: ModelSpec, n_splits: int) -> Callable[[np.ndarray], float]:
    """Normalized fractionated prior as a fast closure."""
    S = n_splits
    d = model.theta_dim
    if isinstance(model.prior, NormalPrior):
        mean = model.coef_prior_mean()
        cov = model.coef_prior_cov()
        if model.infers_scale:
            lik = model.likelihood
            mean = np.append(mean, lik.logsigma_mean)
            full = np.zeros((d, d))
            full[: d - 1, : d - 1] = cov
            full[d - 1, d - 1] = lik.logsigma_sd**2
            cov = full
        L = chol_spd(cov, what="prior covariance")
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        const = -0.5 * (d * LOG_2PI + d * math.log(S) + logdet)
        # whitening factor of the fractionated prior, S^-1/2 L^-1, built once
        # so that each evaluation is a single mat-vec
        white = solve_triangular(L, np.eye(d), lower=True) / math.sqrt(S)

        def subprior(theta: np.ndarray) -> float:
            half = white @ (theta - mean)
            return const - 0.5 * float(half @ half)

        return subprior

    scale = model.prior.scale
    n_coef = model.n_coef
    lap_const = -n_coef * math.log(2.0 * scale * S)
    if model.infers_scale:
        lik = model.likelihood
        ls_const = -0.5 * (LOG_2PI + math.log(S) + 2.0 * math.log(lik.logsigma_sd))
        ls_mean, ls_var = lik.logsigma_mean, lik.logsigma_sd**2

        def subprior(theta: np.ndarray) -> float:
            coef = theta[:-1]
            ls = theta[-1]
            return (
                lap_const
                - float(np.abs(coef).sum()) / (scale * S)
                + ls_const
                - 0.5 * (ls - ls_mean) ** 2 / (S * ls_var)
            )

        return subprior

    def subprior(theta: np.ndarray) -> float:
        return lap_const - float(np.abs(theta).sum()) / (scale * S)

    return subprior


def subposterior_closure(
    model: ModelSpec, shard: Shard, n_splits: int
) -> Callable[[np.ndarray], float]:
    """Fast unnormalized log subposterior; equals models.log_subposterior_unnorm.

    Linear likelihoods are reduced to their Gram matrices so each evaluation
    costs O(theta_dim^2) independent of the shard size.
    """
    subprior = _subprior_closure(model, n_splits)
    Xa = design(model, shard)
    y = shard.y
    n = y.shape[0]
    lik = model.likelihood

    if isinstance(lik, LogisticLikelihood):

        def target(theta: np.ndarray) -> float:
            linpred = Xa @ theta
            return float(y @ linpred - softplus_sum(linpred)) + subprior(theta)

        return target

    gram = Xa.T @ Xa
    xty = Xa.T @ y
    yty = float(y @ y)

    if isinstance(lik, LinearKnownVar):
        const = -0.5 * n * (LOG_2PI + math.log(lik.noise_var))
        inv_var = 1.0 / lik.noise_var

        def target(theta: np.ndarray) -> float:
            rss = yty - 2.0 * float(theta @ xty) + float(theta @ gram @ theta)
            return const - 0.5 * max(rss, 0.0) * inv_var + subprior(theta)

        return target

    const = -0.5 * n * LOG_2PI

    def target(theta: np.ndarray) -> float:
        coef = theta[:-1]
        ls = theta[-1]
        rss = yty - 2.0 * float(coef @ xty) + float(coef @ gram @ coef)
        return const - n * ls - 0.5 * max(rss, 0.0) * math.exp(-2.0 * ls) + subprior(theta)

    return target


# ---------------------------------------------------------------------------
# Random-walk Metropolis with burn-in-only adaptation.

def rwmh_chain(
    log_target: Callable[[np.ndarray], float],
    init: np.ndarray,
    n_iter: int = 10_000,
    burn_in: int = 2_000,
    seed: int = 0,
    init_cov: Optional[np.ndarray] = None,
    adapt_interval: int = 100,
    target_accept: float = 0.234,
) -> Chain:
    """Gaussian random-walk Metropolis.

    During burn-in the proposal covariance tracks (2.38^2/d) times the
    running sample covariance (plus a 1e-6 jitter), with a Robbins-Monro
    scalar step correction so badly scaled starting covariances recover.
    Everything is frozen once burn-in ends, so the retained draws come from
    a fixed-kernel chain.  Identical (seed, target, init, n_iter) arguments
    reproduce the chain bit for bit.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    d = init.shape[0]
    if not 0 <= burn_in < n_iter:
        raise DomainError(f"need 0 <= burn_in < n_iter, got {burn_in}, {n_iter}")
    fx = float(log_target(init))
    if not np.isfinite(fx):
        raise EstimatorError("log target is not finite at the chain start point")

    rng = np.random.default_rng(seed)
    z_all = rng.standard_normal((n_iter, d))
    log_u = np.log(rng.random(n_iter))

    scale = 2.38**2 / d
    base_cov = np.eye(d) if init_cov is None else np.atleast_2d(np.asarray(init_cov, float))
    chol = chol_spd(scale * (base_cov + 1e-6 * np.eye(d)), what="proposal covariance")
    log_step = 0.0

    # Running moments restart halfway through burn-in to drop the transient.
    restart_at = burn_in // 2
    mean = init.copy()
    m2 = np.zeros((d, d))
    count = 1

    draws = np.empty((n_iter - burn_in, d))
    x = init.copy()
    accepted_post = 0

    for t in range(n_iter):
        prop = x + math.exp(log_step) * (chol @ z_all[t])
        fp = log_target(prop)
        fp = fp if np.isfinite(fp) else -np.inf
        log_ratio = fp - fx
        accept = log_u[t] <= log_ratio
        if accept:
            x = prop
            fx = fp
        if t < burn_in:
            acc_prob = math.exp(min(log_ratio, 0.0)) if np.isfinite(log_ratio) else 0.0
            log_step += (acc_prob - target_accept) / (t + 1) ** 0.6
            if t == restart_at:
                mean = x.copy()
                m2 = np.zeros((d, d))
                count = 1
            else:
                count += 1
                delta = x - mean
                mean = mean + delta / count
                m2 = m2 + np.outer(delta, x - mean)
            if (t + 1) % adapt_interval == 0 and count > 2 * d:
                cov = m2 / (count - 1)
                cov = 0.5 * (cov + cov.T)
                try:
                    chol = chol_spd(scale * (cov + 1e-6 * np.eye(d)), what="proposal")
                except SpdError:
                    pass  # keep the previous factor until the estimate is usable
        else:
            draws[t - burn_in] = x
            if accept:
                accepted_post += 1

    return Chain(
        draws=draws,
        burn_in=burn_in,
        acceptance_rate=accepted_post / (n_iter - burn_in),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# PG-Gibbs for logistic subposteriors + conditional Gaussian stream.

@dataclass(eq=False)
class ConditionalGaussianStream:
    """Natural parameters of the per-draw Gaussian full conditionals.

    The natural mean vector eta is constant across draws; the precision
    matrix varies per draw.  Record n corresponds to retained draw n.
    """

    eta: np.ndarray         # (d,)
    precisions: np.ndarray  # (N, d, d)

    @property
    def n_records(self) -> int:
        return self.precisions.shape[0]

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def pg_gibbs_logistic(
    model: ModelSpec,
    shard: Shard,
    n_splits: int,
    n_iter: int = 10_000,
    burn_in: int = 2_000,
    seed: int = 0,
) -> Tuple[Chain, ConditionalGaussianStream]:
    """Polya-Gamma Gibbs sampler for a logistic subposterior.

    Requires a logistic likelihood and a normal prior.  Returns the retained
    coefficient draws together with the stream of per-draw Gaussian full
    conditionals (constant natural mean X'(y - 1/2) + V0^-1 m0 / S, per-draw
    precision X' diag(omega) X + V0^-1 / S).
    """
    if not isinstance(model.likelihood, LogisticLikelihood):
        raise ConfigurationError("PG-Gibbs requires a logistic likelihood")
    if not isinstance(model.prior, NormalPrior):
        raise ConfigurationError("PG-Gibbs requires a normal prior")
    if not 0 <= burn_in < n_iter:
        raise DomainError(f"need 0 <= burn_in < n_iter, got {burn_in}, {n_iter}")

    Xa = design(model, shard)
    y = shard.y
    d = model.theta_dim
    rng = np.random.default_rng(seed)

    m0 = model.coef_prior_mean()
    V0 = model.coef_prior_cov()
    L0 = chol_spd(V0, what="prior covariance")
    prior_prec = cho_solve((L0, True), np.eye(d)) / n_splits
    prior_prec = 0.5 * (prior_prec + prior_prec.T)
    eta = Xa.T @ (y - 0.5) + prior_prec @ m0

    n_keep = n_iter - burn_in
    draws = np.empty((n_keep, d))
    precs = np.empty((n_keep, d, d))
    theta = m0.copy()

    for t in range(n_iter):
        linpred = Xa @ theta
        omega = sample_pg_vec(linpred, rng)
        lam = Xa.T @ (Xa * omega[:, None]) + prior_prec
        lam = 0.5 * (lam + lam.T)
        try:
            low = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(lam).min())
            raise SpdError(
                f"conditional precision on shard {shard.shard_id} is not SPD",
                min_eigenvalue=min_eig,
            ) from None
        m = cho_solve((low, True), eta)
        theta = m + solve_triangular(low.T, rng.standard_normal(d), lower=False)
        if t >= burn_in:
            draws[t - burn_in] = theta
            precs[t - burn_in] = lam

    chain = Chain(draws=draws, burn_in=burn_in, acceptance_rate=None, seed=seed)
    stream = ConditionalGaussianStream(eta=eta, precisions=precs)
    return chain, stream


def write_stream(stream: ConditionalGaussianStream, path) -> None:
    """NDJSON serialization: one header line, then one record per draw."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(
            {"type": "header", "eta": [float(v) for v in stream.eta]},
            ensure_ascii=False, separators=(",", ":"),
        ) + "\n")
        for i in range(stream.n_records):
            rec = {
                "type": "rec",
                "n": i + 1,
                "prec_row_major": [float(v) for v in stream.precisions[i].ravel()],
            }
            fh.write(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n")


def read_stream(path) -> ConditionalGaussianStream:
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DecodeError(f"{path}: bad stream header: {exc}") from None
        if header.get("type") != "header" or "eta" not in header:
            raise DecodeError(f"{path}: first line is not a stream header")
        eta = np.asarray(header["eta"], dtype=float)
        d = eta.shape[0]
        precs = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DecodeError(f"{path}:{lineno}: bad stream record: {exc}") from None
            if rec.get("type") != "rec":
                raise DecodeError(f"{path}:{lineno}: expected a 'rec' line")
            if rec.get("n") != len(precs) + 1:
                raise DecodeError(f"{path}:{lineno}: records out of order")
            flat = np.asarray(rec["prec_row_major"], dtype=float)
            if flat.shape[0] != d * d:
                raise DecodeError(f"{path}:{lineno}: precision has wrong length")
            precs.append(flat.reshape(d, d))
    if not precs:
        raise DecodeError(f"{path}: stream has no records")
    arr = np.stack(precs)
    if not np.all(np.isfinite(arr)) or not np.all(np.isfinite(eta)):
        raise DecodeError(f"{path}: stream contains non-finite values")
    return ConditionalGaussianStream(eta=eta, precisions=arr)


# ---------------------------------------------------------------------------
# Laplace fit of a subposterior (MAP + inverse curvature).

def _neg_log_subpost_and_grad(model: ModelSpec, shard: Shard, n_splits: int):
    Xa = design(model, shard)
    y = shard.y
    n = y.shape[0]
    S = n_splits
    lik = model.likelihood
    prior = model.prior
    n_coef = model.n_coef

    if isinstance(prior, NormalPrior):
        m0 = model.coef_prior_mean()
        L0 = chol_spd(model.coef_prior_cov(), what="prior covariance")
        prec0 = cho_solve((L0, True), np.eye(n_coef)) / S

        def prior_terms(coef):
            diff = coef - m0
            g = prec0 @ diff
            return 0.5 * float(diff @ g), g
    else:
        b_s = prior.scale * S

        def prior_terms(coef):
            return float(np.abs(coef).sum()) / b_s, np.sign(coef) / b_s

    def fun(theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if model.infers_scale:
            coef, ls = theta[:-1], theta[-1]
        else:
            coef, ls = theta, None
        grad = np.empty_like(theta)
        if isinstance(lik, LogisticLikelihood):
            linpred = Xa @ coef
            val = float(softplus_sum(linpred) - y @ linpred)
            grad_coef = -(Xa.T @ (y - expit(linpred)))
        elif isinstance(lik, LinearKnownVar):
            r = y - Xa @ coef
            val = 0.5 * float(r @ r) / lik.noise_var
            grad_coef = -(Xa.T @ r) / lik.noise_var
        else:
            r = y - Xa @ coef
            w = math.exp(-2.0 * ls)
            rss = float(r @ r)
            val = n * ls + 0.5 * rss * w
            grad_coef = -(Xa.T @ r) * w
            grad[-1] = n - rss * w
        pval, pgrad = prior_terms(coef)
        val += pval
        grad[: n_coef] = grad_coef + pgrad
        if model.infers_scale:
            lsig = lik.logsigma_mean, lik.logsigma_sd
            val += 0.5 * (ls - lsig[0]) ** 2 / (S * lsig[1] ** 2)
            grad[-1] += (ls - lsig[0]) / (S * lsig[1] ** 2)
        return val, grad

    return fun


def _neg_hessian(model: ModelSpec, theta: np.ndarray, shard: Shard, n_splits: int):
    Xa = design(model, shard)
    y = shard.y
    n = y.shape[0]
    S = n_splits
    lik = model.likelihood
    d = model.theta_dim
    hess = np.zeros((d, d))
    if model.infers_scale:
        coef, ls = theta[:-1], theta[-1]
    else:
        coef, ls = theta, None

    if isinstance(lik, LogisticLikelihood):
        prob = expit(Xa @ coef)
        w = prob * (1.0 - prob)
        hess[: model.n_coef, : model.n_coef] = Xa.T @ (Xa * w[:, None])
    elif isinstance(lik, LinearKnownVar):
        hess[: model.n_coef, : model.n_coef] = Xa.T @ Xa / lik.noise_var
    else:
        w = math.exp(-2.0 * ls)
        r = y - Xa @ coef
        hess[:-1, :-1] = Xa.T @ Xa * w
        cross = 2.0 * (Xa.T @ r) * w
        hess[:-1, -1] = cross
        hess[-1, :-1] = cross
        hess[-1, -1] = 2.0 * float(r @ r) * w
    if isinstance(model.prior, NormalPrior):
        L0 = chol_spd(model.coef_prior_cov(), what="prior covariance")
        hess[: model.n_coef, : model.n_coef] += (
            cho_solve((L0, True), np.eye(model.n_coef)) / S
        )
    if model.infers_scale:
        hess[-1, -1] += 1.0 / (S * lik.logsigma_sd**2)
    return 0.5 * (hess + hess.T)


def laplace_fit(
    model: ModelSpec, shard: Shard, n_splits: int, init: Optional[np.ndarray] = None
) -> GaussianMoments:
    """Subposterior MAP and inverse curvature as Gaussian moments."""
    fun = _neg_log_subpost_and_grad(model, shard, n_splits)
    if init is None:
        init = np.zeros(model.theta_dim)
        if isinstance(model.prior, NormalPrior):
            init[: model.n_coef] = model.coef_prior_mean()
        if model.infers_scale:
            init[-1] = model.likelihood.logsigma_mean
    res = minimize(fun, np.asarray(init, dtype=float), jac=True, method="L-BFGS-B")
    if not np.all(np.isfinite(res.x)):
        raise EstimatorError("Laplace fit did not converge to a finite point")
    hess = _neg_hessian(model, res.x, shard, n_splits)
    low = chol_spd(hess + 1e-10 * np.eye(model.theta_dim), what="curvature")
    cov = cho_solve((low, True), np.eye(model.theta_dim))
    cov = 0.5 * (cov + cov.T)
    return GaussianMoments(mean=res.x, cov=cov)
