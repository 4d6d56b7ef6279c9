"""Gaussian moment and natural-parameter algebra.

Natural form writes a Gaussian density as exp(eta'theta - theta'lam theta/2
+ xi), with lam = cov^-1, eta = cov^-1 mean and xi the log normalizer.  Two
primitives carry every combination rule: ``batched_log_normalizer`` (xi
over a stack of precisions) and ``log_product_integrals``, the one kernel
for the log integral of a product of Gaussians, used for the approximate,
the conditional and the reversible-jump I_sub alike.  Everything is routed
through Cholesky factors; no matrix is ever inverted explicitly for a
quadratic form.  ``chol_spd`` is the one check that a matrix, or each of a
stack, is symmetric positive definite, ``chol_solve`` the one solve with
its factor, and ``sample_moments`` the one mean and covariance of a set of
draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, SpdError

LOG_2PI = math.log(2.0 * math.pi)
SYM_TOL = 1e-10  # relative asymmetry a symmetric matrix may carry


def chol_spd(a: np.ndarray, what: str = "matrix", item: Optional[str] = None) -> np.ndarray:
    """Lower Cholesky factor of one SPD matrix, or of each in a (..., d, d) stack.

    A matrix fails when an entry is not finite, when it is asymmetric beyond
    ``SYM_TOL`` relative to max(1, its largest entry), or when it is not
    positive definite; 0 x 0 matrices pass.  SpdError names the first that
    fails, as ``<what> <item> <k>`` for a stack when ``item`` is given (k
    counted from 1 on each leading axis), with the smallest eigenvalue of an
    indefinite one.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise SpdError(f"{what} is not square: shape {a.shape}")
    mats = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])

    def fail(k: int, problem: str, min_eigenvalue: Optional[float] = None):
        where = what
        if item is not None and a.ndim > 2:
            index = np.unravel_index(k, a.shape[:-2])
            where = f"{what} {item} {','.join(str(i + 1) for i in index)}"
        raise SpdError(f"{where} {problem}", min_eigenvalue=min_eigenvalue)

    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        fail(int(np.argmin(finite)), "is not finite")
    flipped = mats.swapaxes(1, 2)
    if (mats != flipped).any():  # most matrices are exactly symmetric
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)
        asym = np.abs(mats - flipped).max(axis=(1, 2)) > SYM_TOL * scale
        if asym.any():
            fail(int(np.argmax(asym)), f"is not symmetric to tolerance {SYM_TOL}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for k, mat in enumerate(mats):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                fail(k, "is not positive definite", float(np.linalg.eigvalsh(mat).min()))
        raise


def chol_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from the lower Cholesky factor ``low`` of A: two triangular solves."""
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


@dataclass(eq=False)
class GaussianMoments:
    """Mean vector and covariance matrix of a p-dimensional Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if self.cov.shape != (self.dim, self.dim):
            raise DomainError(
                f"covariance shape {self.cov.shape} does not match mean length {self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def chol(self) -> np.ndarray:
        return chol_spd(self.cov, what="covariance")


def sample_moments(draws: np.ndarray) -> GaussianMoments:
    """Mean and symmetrized sample covariance (ddof=1) of the rows of ``draws``."""
    draws = np.asarray(draws, dtype=float)
    mean = draws.mean(axis=0)
    centred = draws - mean
    cov = centred.T @ centred / (draws.shape[0] - 1)
    return GaussianMoments(mean=mean, cov=0.5 * (cov + cov.T))


def _inverse_and_solve(low: np.ndarray, vec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(A^-1 symmetrized, A^-1 vec) from the lower Cholesky factor of A."""
    inv = chol_solve(low, np.eye(low.shape[0]))
    return 0.5 * (inv + inv.T), chol_solve(low, vec)


def natural_params(parts: Sequence[GaussianMoments]) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked natural parameters: etas (S, p) and lams (S, p, p)."""
    if len(parts) == 0:
        raise DomainError("empty factor list")
    dims = {m.dim for m in parts}
    if len(dims) != 1:
        raise DomainError(f"factors have mixed dimensions {sorted(dims)}")
    lams, etas = zip(*(_inverse_and_solve(m.chol(), m.mean) for m in parts))
    return np.stack(etas), np.stack(lams)


def consensus_moments(parts: Sequence[GaussianMoments]) -> GaussianMoments:
    """Precision-weighted pooling of per-shard Gaussian moments."""
    etas, lams = natural_params(parts)
    low = chol_spd(lams.sum(axis=0), what="precision")
    cov, mean = _inverse_and_solve(low, etas.sum(axis=0))
    return GaussianMoments(mean=mean, cov=cov)


def batched_log_normalizer(eta: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """xi such that exp(eta'x - x'lam x/2 + xi) integrates to one, per precision.

    ``lams`` has shape (..., p, p) and ``eta`` broadcasts against (..., p);
    returns shape (...).  A non-SPD precision raises SpdError naming its
    index.
    """
    lams = np.asarray(lams, dtype=float)
    p = lams.shape[-1]
    chols = chol_spd(lams, what="precision", item="record")
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
    rhs = np.broadcast_to(eta, lams.shape[:-1])[..., None]
    half = np.linalg.solve(chols, rhs)[..., 0]
    quad = np.einsum("...p,...p->...", half, half)
    return -0.5 * (p * LOG_2PI - logdet + quad)


def log_product_integrals(etas: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """log of the integral of a product of S Gaussians, for each of N draws.

    ``etas`` (S, p) holds one natural mean per factor and ``lams``
    (S, N, p, p) the factors' precisions, paired by draw.  Returns the N
    values sum_s xi(eta_s, lam_sn) - xi(sum_s eta_s, sum_s lam_sn).  The
    factors and the pooled Gaussian share one normalizer call, so a single
    factor gives exactly 0.0.
    """
    etas = np.asarray(etas, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if etas.ndim != 2 or lams.ndim != 4 or not 0 < etas.shape[0] == lams.shape[0]:
        raise DomainError("expected stacked natural parameters (S,p) and (S,N,p,p), S >= 1")
    xis = batched_log_normalizer(
        np.concatenate([etas, etas.sum(axis=0, keepdims=True)])[:, None, :],
        np.concatenate([lams, lams.sum(axis=0, keepdims=True)]),
    )
    return xis[:-1].sum(axis=0) - xis[-1]
