"""Independent numerical oracles shared by the test suite.

These deliberately avoid the package's own linear algebra: products of
normal densities are integrated with adaptive quadrature over a window
derived from the pooled precision, so agreement with the closed forms is
evidence rather than tautology.

The slow scalar reference of the shard density lives here too:
``log_likelihood``, ``log_prior``, ``log_subprior`` and
``log_subposterior_unnorm`` evaluate one theta at a time, with
``np.logaddexp`` for the logistic log-partition, and the tests hold
``samplers.SubposteriorDensity`` to them.  They share the model types,
``design``, ``chol_spd`` and ``log_alpha`` with the package, not its
density code.
"""
import math

import numpy as np
from scipy import integrate, stats

from splitevidence.errors import ConfigurationError
from splitevidence.gaussian import chol_spd
from splitevidence.models import (
    LinearKnownVar,
    LogisticLikelihood,
    NormalPrior,
    design,
    log_alpha,
)
from splitevidence.samplers import pg_mean

LOG_2PI = math.log(2.0 * math.pi)


def quad_log_product_of_normals_1d(means, sds, rel_tol=1e-11):
    """log integral of prod_s N(t | means[s], sds[s]^2) by adaptive quadrature."""
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    prec = np.sum(1.0 / sds**2)
    centre = np.sum(means / sds**2) / prec
    width = 1.0 / math.sqrt(prec)

    # Factor out the peak height to keep the integrand well scaled.
    log_peak = float(
        sum(stats.norm.logpdf(centre, loc=m, scale=s) for m, s in zip(means, sds))
    )

    def integrand(t):
        logp = np.sum(stats.norm.logpdf(t, loc=means, scale=sds))
        return math.exp(logp - log_peak)

    lo, hi = centre - 30 * width, centre + 30 * width
    val, err = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=300)
    if not (err < 100 * rel_tol * val):
        raise RuntimeError(f"quadrature did not converge: value {val}, error {err}")
    return log_peak + math.log(val)


def exact_log_evidence_linear_gaussian(X, y, prior_mean, prior_cov, noise_var):
    """Direct n-dimensional marginal likelihood N(y | X m0, sigma^2 I + X V0 X').

    Only usable for small n; serves as an independent cross-check of the
    p-dimensional closed form implemented in the package.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    cov = noise_var * np.eye(X.shape[0]) + X @ prior_cov @ X.T
    return float(
        stats.multivariate_normal(mean=X @ prior_mean, cov=cov, allow_singular=False).logpdf(y)
    )


def sample_pg_truncated_vec(
    c: np.ndarray,
    rng: np.random.Generator,
    n_terms: int = 200,
    chunk: int = 20_000,
) -> np.ndarray:
    """Truncated sum-of-gammas PG(1, c) draw with analytic tail-mean correction.

    An independent cross-check of the package's exact PG sampler.  The
    infinite series (1/2 pi^2) sum_k g_k / ((k - 1/2)^2 + c^2/(4 pi^2)) with
    g_k iid Exp(1) is cut at ``n_terms`` and rescaled so its mean is exactly
    E[PG(1, c)].
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
# The scalar reference of the shard density.

def _split_theta(model, theta):
    """Coefficients and log sigma (None for a fixed scale) of one theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[-1] != model.theta_dim:
        raise ConfigurationError(
            f"theta has dimension {theta.shape[-1]}, model {model.model_id} "
            f"samples {model.theta_dim}"
        )
    if model.infers_scale:
        return theta[..., : model.n_coef], theta[..., -1]
    return theta, None


def log_likelihood(model, theta, data):
    """log p(y | theta) of a dataset or shard."""
    coefs, logsigma = _split_theta(model, theta)
    Xa = design(model, data)
    y = data.y
    lik = model.likelihood
    if isinstance(lik, LogisticLikelihood):
        linpred = Xa @ coefs
        return float(np.sum(y * linpred - np.logaddexp(0.0, linpred)))
    resid = y - Xa @ coefs
    rss = float(resid @ resid)
    n = y.shape[0]
    if isinstance(lik, LinearKnownVar):
        return -0.5 * n * (LOG_2PI + math.log(lik.noise_var)) - 0.5 * rss / lik.noise_var
    ls = float(logsigma)
    return -0.5 * n * LOG_2PI - n * ls - 0.5 * rss * math.exp(-2.0 * ls)


def log_prior(model, theta):
    """log p(theta), the full (unfractionated) prior."""
    coefs, logsigma = _split_theta(model, theta)
    d = model.n_coef
    prior = model.prior
    if isinstance(prior, NormalPrior):
        L = chol_spd(model.coef_prior_cov(), what="prior covariance")
        half = np.linalg.solve(L, coefs - model.coef_prior_mean())
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        out = -0.5 * (d * LOG_2PI + logdet + float(half @ half))
    else:
        out = -d * math.log(2.0 * prior.scale) - float(np.abs(coefs).sum()) / prior.scale
    if model.infers_scale:
        lik = model.likelihood
        z = (float(logsigma) - lik.logsigma_mean) / lik.logsigma_sd
        out -= 0.5 * (LOG_2PI + 2.0 * math.log(lik.logsigma_sd) + z * z)
    return out


def log_subprior(model, theta, n_splits):
    """Normalized fractionated prior log density."""
    return log_prior(model, theta) / n_splits - log_alpha(model, n_splits)


def log_subposterior_unnorm(model, theta, shard, n_splits):
    """log p(y_s | theta) + (1/S) log p(theta) - log alpha."""
    return log_likelihood(model, theta, shard) + log_subprior(model, theta, n_splits)
