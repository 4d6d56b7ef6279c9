"""Independent numerical oracles shared by the test suite.

These deliberately avoid the package's own linear algebra: products of
normal densities are integrated with adaptive quadrature over a window
derived from the pooled precision, so agreement with the closed forms is
evidence rather than tautology.
"""
import math

import numpy as np
from scipy import integrate, stats

from splitevidence.samplers import pg_mean


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
