"""Per-shard subposterior density and samplers: Polya-Gamma draws, RWMH, PG-Gibbs.

``SubposteriorDensity`` is the one place in the package where the shard
density (likelihood times the fractionated prior p(theta)^(1/S) / alpha) is
defined and tuned.  It serves the random-walk and reversible-jump target,
the objective, gradient and Hessian of the Newton iteration of the Laplace
fit, the prior block of PG-Gibbs, and the evidence estimators and
quadrature oracles; its logistic likelihood runs through the
``models.softplus_sum`` kernel.

Two samplers produce subposterior draws.  A generic random-walk Metropolis
chain works for every likelihood/prior pair; for logistic likelihoods with a
normal prior a Polya-Gamma Gibbs sampler is available whose per-draw
Gaussian full conditionals are recorded as a ConditionalGaussianStream.
Those conditionals carry a constant natural mean vector and a per-draw
precision matrix, which is all the downstream estimators need.

PG(1, c) variates are drawn exactly with Devroye's alternating-series
rejection sampler (a two-tail proposal accepted through partial sums of the
Jacobi series).  ``sample_pg_vec`` draws a block of i.i.d. proposals per
entry in one vectorised pass and keeps the first accepted one; the entries
left without one get further, narrow passes.  Each proposal's scaled
uniform is compared with fixed bounds on the partial sums (a squeeze), so
only the few proposals between the bounds compute the series term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import wire
from .errors import (
    ConfigurationError,
    DecodeError,
    DomainError,
    EstimatorError,
    SpdError,
)
from .gaussian import GaussianMoments, chol_solve, chol_spd, sample_moments
from .models import (
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    Shard,
    design,
    expit,
    softplus_sum,
)

LOG_2PI = math.log(2.0 * math.pi)

# rows x draws per likelihood block: a 512 KiB buffer, so every pass over it stays in L2
_BLOCK_CELLS = 65_536

# Polya-Gamma proposals.  J = 4 PG(1, c) with z = |c|/2 has the Jacobi
# density cosh(z) exp(-z^2 x/2) sum_n (-1)^n a_n(x), and a_0 bounds the sum.
# Proposals come from a mixture of a right tail (x > _TRUNC, exponential)
# and a left tail (x <= _TRUNC).  On the left, entries with z < _BIG_Z draw
# 1/sqrt(x) from the normal tail beyond _TAIL with Robert's exponential
# proposal and accept the exp(-z^2 x/2) tilt in the same test; larger z draw
# an inverse-Gaussian IG(1/z, 1) and reject x > _TRUNC.  Every test of one
# proposal is folded into one uniform, so each proposal is a single
# accept/reject trial and the first accepted one is an exact draw.
_TRUNC = 0.64  # split point between the two proposal tails
_TAIL = 1.0 / math.sqrt(_TRUNC)
_TAIL_RATE = 0.5 * (_TAIL + math.sqrt(_TAIL * _TAIL + 4.0))
_BIG_Z = 2.5  # z from which the left tail is an inverse-Gaussian proposal
# Left-tail mass over right-tail mass is fz exp(fz _TRUNC) times _SMALL_W
# (normal-tail proposal) or times exp(-z) _BIG_W (inverse-Gaussian proposal).
_SMALL_W = (4.0 / math.pi) / _TAIL_RATE * math.sqrt(2.0 / math.pi) * math.exp(
    0.5 * _TAIL_RATE * _TAIL_RATE - _TAIL_RATE * _TAIL
)
_BIG_W = 4.0 / math.pi
# a_n / a_0 = (2n + 1) q^(n(n+1)/2) with q = exp(-4/x) on the left and
# exp(-pi^2 x) on the right, so q <= exp(-4/_TRUNC) on both tails: the
# partial sum after one term is at least _SURE_ACCEPT and after two at most
# 1 + _SERIES_SLACK.  A scaled uniform u <= _SURE_ACCEPT accepts and
# u > 1 + _SERIES_SLACK rejects without computing q.
_SERIES_SLACK = 5.0 * math.exp(-12.0 / _TRUNC)
_SURE_ACCEPT = 1.0 - 3.0 * math.exp(-4.0 / _TRUNC)
# A batch of n entries starts with ceil(_FIRST_PASS_CELLS / n) proposals
# per entry, at most _PASS_COLS; each leftover pass draws _PASS_COLS.
_FIRST_PASS_CELLS = 160
_PASS_COLS = 4


# ---------------------------------------------------------------------------
# Polya-Gamma sampling.

def pg_mean(c: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """E[PG(1, c)] = tanh(c/2) / (2c), with the c -> 0 limit 1/4."""
    c = np.abs(np.asarray(c, dtype=float))
    small = c < 1e-6
    safe = np.where(small, 1.0, c)
    out = np.where(small, 0.25 - c * c / 48.0, np.tanh(safe / 2.0) / (2.0 * safe))
    return out if out.ndim else float(out)


def _series_accepts(u: float, q: float) -> bool:
    """Whether u <= 1 - 3q + 5q^3 - 7q^6 + ..., decided from the partial sums."""
    s = 1.0
    n = 0
    while True:
        n += 1
        term = (2 * n + 1) * q ** (n * (n + 1) // 2)
        if n % 2:
            s -= term
            if u <= s:
                return True
        else:
            s += term
            if u > s:
                return False


def _pg_pass(
    z: np.ndarray, fz: np.ndarray, p_right: np.ndarray, big: bool,
    rng: np.random.Generator, cols: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``cols`` i.i.d. proposals of J = 4 PG(1, 2z) per entry; the first accepted.

    Returns (accepted, draw) per entry.  Proposal j of entry i is cell
    (j, i) of each block, so per-entry parameters broadcast along rows.
    """
    shape = (cols, z.shape[0])
    side, u = rng.random((2, *shape))
    right = side < p_right
    e = rng.standard_exponential(shape)
    if big:
        mu = 1.0 / z
        my = mu * rng.standard_normal(shape) ** 2
        x = 2.0 * mu / (2.0 + my + np.sqrt(my * (4.0 + my)))
        x = np.where(rng.random(shape) * (mu + x) > mu, mu * mu / x, x)
        u[(x > _TRUNC) & ~right] = 2.0  # rejects a left proposal beyond _TRUNC
    else:
        root = e / _TAIL_RATE
        root += _TAIL  # 1/sqrt(x)
        x = 1.0 / root
        x *= x
        tilt = root  # (root - _TAIL_RATE)^2 / 2 + z^2 x / 2, in place
        tilt -= _TAIL_RATE
        tilt *= tilt
        tilt += x * (z * z)
        tilt *= 0.5
        np.copyto(tilt, 0.0, where=right)  # the right tail has no tilt
        u *= np.exp(tilt, out=tilt)
    e /= fz
    e += _TRUNC
    np.copyto(x, e, where=right)
    # the squeeze: only cells in (_SURE_ACCEPT, 1 + _SERIES_SLACK] need q
    accepted = u <= _SURE_ACCEPT
    flat = accepted.reshape(-1)
    for k in np.flatnonzero(flat != (u.reshape(-1) <= 1.0 + _SERIES_SLACK)).tolist():
        xk = x.item(k)
        flat[k] = _series_accepts(
            u.item(k), math.exp(-(math.pi ** 2) * xk if right.item(k) else -4.0 / xk)
        )
    draw = x[-1]
    for j in range(cols - 2, -1, -1):
        draw = np.where(accepted[j], x[j], draw)
    return (accepted[0] if cols == 1 else accepted.any(axis=0)), draw


def _sample_j(z: np.ndarray, big: bool, rng: np.random.Generator) -> np.ndarray:
    """J = 4 PG(1, 2z) per entry: passes until every entry has an accepted proposal."""
    fz = 0.5 * z * z + math.pi ** 2 / 8.0
    if big:
        w = _BIG_W * fz * np.exp(np.minimum(fz * _TRUNC - z, 700.0))
    else:
        w = _SMALL_W * fz * np.exp(fz * _TRUNC)
    p_right = 1.0 / (1.0 + w)
    cols = min(_PASS_COLS, -(-_FIRST_PASS_CELLS // max(z.shape[0], 1)))
    accepted, out = _pg_pass(z, fz, p_right, big, rng, cols)
    todo = np.flatnonzero(~accepted)
    while todo.size:
        accepted, x = _pg_pass(z[todo], fz[todo], p_right[todo], big, rng, _PASS_COLS)
        out[todo[accepted]] = x[accepted]
        todo = todo[~accepted]
    return out


def sample_pg_vec(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact PG(1, c_i) draw for every entry of c."""
    c = np.asarray(c, dtype=float)
    z = 0.5 * np.abs(c).ravel()
    big = z >= _BIG_Z
    if big.any():
        out = np.empty(z.shape[0])
        for group, is_big in ((np.flatnonzero(~big), False), (np.flatnonzero(big), True)):
            out[group] = _sample_j(z[group], is_big, rng)
    else:
        out = _sample_j(z, False, rng)
    out *= 0.25
    return out.reshape(np.shape(c))


def sample_pg(c: float, rng: np.random.Generator) -> float:
    """One exact PG(1, c) draw."""
    return float(sample_pg_vec(c, rng))


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
    n, d = chain.draws.shape
    if n < d + 2:
        raise EstimatorError(
            f"need at least dim+2 = {d + 2} retained draws for moments, have {n}"
        )
    mom = sample_moments(chain.draws)
    chol_spd(mom.cov, what="chain covariance")
    return mom


# ---------------------------------------------------------------------------
# The subposterior density of one shard.

class SubposteriorDensity:
    """log p(y_s | theta) + (1/S) log p(theta) - log alpha for one shard.

    Calling it on one theta gives the log density, the random-walk and
    reversible-jump target; ``logpdf_batch`` evaluates a stack of thetas for
    the evidence estimators; ``neg_and_grad`` and ``neg_hessian`` give the
    Laplace fit its objective, gradient and curvature.

    The fractionated prior has at most two blocks: a Gaussian block on the
    trailing coordinates ``gauss`` (all of theta under a normal prior, log
    sigma alone under a Laplace prior), with mean ``prior_mean`` and
    precision ``prior_prec`` = Lambda / S, and a Laplace(0, b S) block on the
    coefficients under a Laplace prior, ``laplace_scale`` = b S.  Linear likelihoods are reduced to
    their Gram matrices, so each evaluation costs O(theta_dim^2) whatever
    the shard size; a known noise variance is log sigma held fixed at
    log(noise_var) / 2.

    A logistic likelihood is stacked with the Gaussian block into one
    Fortran-order matrix A = [X; W; l'], W the whitening factor S^-1/2 L^-1
    on the Gaussian columns and l = X'y + W'W m, so that
    log density = (A theta)[-1] - softplus_sum(X theta) - |W theta|^2 / 2
    + const (minus |coef|_1 / (b S) under a Laplace prior): one product
    per theta, or per block of thetas.  ``X`` is the view A[:n].

    The scalar call skips the overflow guard of ``softplus_sum`` when
    max_i sum_j |X_ij| (computed once here) times max_j |theta_j| is below
    700, which bounds every linear predictor below 700.  Then exp and log1p
    run in place on A theta, the Gaussian rows are squared in place, and
    one dot product with fixed weights (-1 per data row, -1/2 per Gaussian
    row, +1 for l) sums the three terms.  On the 625 x 5 and 1334 x 5
    shards of ``scripts/bench_density.py`` a call took 7.3-7.7 and
    9.4-10.3 us against 9.9 and 12.5 us through the guarded kernel (2 vCPU,
    one BLAS thread, both timed in one process).  A theta outside the bound
    takes the block expression.
    """

    def __init__(self, model: ModelSpec, shard: Shard, n_splits: int):
        S = n_splits
        lik = model.likelihood
        self.n_coef = model.n_coef
        X = design(model, shard)
        self.y = shard.y
        self.n = self.y.shape[0]
        self.logistic = isinstance(lik, LogisticLikelihood)
        if not self.logistic:
            self.X = X
            self.gram = X.T @ X
            self.xty = X.T @ self.y
            self.yty = float(self.y @ self.y)
            # log sigma and 1/sigma^2 when the noise variance is known
            self.fixed_scale = None
            if not model.infers_scale:
                self.fixed_scale = (0.5 * math.log(lik.noise_var), 1.0 / lik.noise_var)

        normal = isinstance(model.prior, NormalPrior)
        mean = model.coef_prior_mean() if normal else np.zeros(0)
        cov = model.coef_prior_cov() if normal else np.zeros((0, 0))
        self.laplace_scale = None if normal else model.prior.scale * S
        if model.infers_scale:
            mean = np.append(mean, lik.logsigma_mean)
            cov = np.pad(cov, (0, 1))
            cov[-1, -1] = lik.logsigma_sd**2
        k = mean.shape[0]
        d = model.theta_dim
        self.gauss = slice(d - k, d)
        self.prior_mean = mean
        L = chol_spd(cov, what="prior covariance")
        l_inv = np.linalg.solve(L, np.eye(k))
        prec = l_inv.T @ l_inv / S
        self.prior_prec = 0.5 * (prec + prec.T)
        # whitening factor S^-1/2 L^-1, so the Gaussian block costs one mat-vec
        self._white = l_inv / math.sqrt(S)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        self._prior_const = -0.5 * (k * LOG_2PI + k * math.log(S) + logdet)
        if self.laplace_scale is not None:
            self._prior_const -= self.n_coef * math.log(2.0 * self.laplace_scale)
        if self.logistic:
            n = self.n
            white_mean = self._white @ mean
            stacked = np.zeros((n + k + 1, d), order="F")
            stacked[:n] = X
            stacked[n:-1, self.gauss] = self._white
            stacked[-1] = X.T @ self.y
            stacked[-1, self.gauss] += self._white.T @ white_mean
            self._stacked = stacked
            self.X = stacked[:n]
            self._logistic_const = self._prior_const - 0.5 * float(white_mean @ white_mean)
            # |x_i| <= _row_bound * max_j |theta_j| for every linear predictor x
            self._row_bound = float(np.abs(X).sum(axis=1).max())
            # the scalar call's terms of A theta, summed by one dot product
            self._weights = np.concatenate([np.full(n, -1.0), np.full(k, -0.5), [1.0]])

    def _logistic_logpdf(self, thetas: np.ndarray, work: Optional[np.ndarray] = None):
        """Logistic log density at theta (d,), or at each row of thetas (m, d).

        ``work``, if given, receives the product A thetas'.
        """
        full = np.matmul(self._stacked, thetas.T, out=work)
        n = self.n
        half = full[n:-1]
        out = (
            full[-1]
            - softplus_sum(full[:n], axis=0)
            - 0.5 * np.add.reduce(half * half, axis=0)
            + self._logistic_const
        )
        if self.laplace_scale is not None:
            out -= np.add.reduce(np.abs(thetas), axis=-1) / self.laplace_scale
        return out

    def _log_subprior(self, theta: np.ndarray) -> float:
        """Normalized fractionated prior (1/S) log p(theta) - log alpha."""
        half = self._white @ (theta[self.gauss] - self.prior_mean)
        out = self._prior_const - 0.5 * float(half @ half)
        if self.laplace_scale is not None:
            out -= float(np.abs(theta[: self.n_coef]).sum()) / self.laplace_scale
        return out

    def _scale(self, theta: np.ndarray):
        """Coefficients, log sigma and 1/sigma^2 of a linear likelihood."""
        if self.fixed_scale is None:
            ls = theta[-1]
            return theta[:-1], ls, math.exp(-2.0 * ls)
        return (theta,) + self.fixed_scale

    def _rss(self, coef: np.ndarray) -> float:
        rss = self.yty - 2.0 * float(coef @ self.xty) + float(coef @ self.gram @ coef)
        return max(rss, 0.0)

    def __call__(self, theta: np.ndarray) -> float:
        if self.logistic:
            coefs = theta.tolist()
            if self._row_bound * max(map(abs, coefs), default=0.0) >= 700.0:
                return float(self._logistic_logpdf(theta))
            # every linear predictor is below 700, so exp(x) is finite
            full = self._stacked @ theta
            lin = full[: self.n]
            np.log1p(np.exp(lin, out=lin), out=lin)
            half = full[self.n : -1]
            np.multiply(half, half, out=half)
            out = float(self._weights @ full) + self._logistic_const
            if self.laplace_scale is not None:
                out -= sum(map(abs, coefs)) / self.laplace_scale
            return out
        coef, ls, w = self._scale(theta)
        loglik = -0.5 * self.n * LOG_2PI - self.n * ls - 0.5 * self._rss(coef) * w
        return loglik + self._log_subprior(theta)

    def logpdf_batch(self, thetas: np.ndarray) -> np.ndarray:
        """The log density at each row of ``thetas``, shape (M, theta_dim) -> (M,)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self.logistic:
            m = thetas.shape[0]
            out = np.empty(m)
            step = max(1, _BLOCK_CELLS // self.n)
            # One product buffer serves every block.  A fresh one per block,
            # next to softplus_sum's buffer of the same size, can send both
            # back to the system allocator after each block, whose pages then
            # fault in again: that doubled the cost per cell at 625 rows.
            rows = self._stacked.shape[0]
            work = np.empty(rows * min(step, m))
            for lo in range(0, m, step):
                block = thetas[lo : lo + step]
                full = work[: rows * block.shape[0]].reshape(rows, -1)
                out[lo : lo + step] = self._logistic_logpdf(block, full)
            return out
        coef = thetas[:, : self.n_coef]
        quad = np.einsum("mi,ij,mj->m", coef, self.gram, coef)
        rss = np.maximum(self.yty - 2.0 * coef @ self.xty + quad, 0.0)
        if self.fixed_scale is None:
            ls = thetas[:, -1]
            w = np.exp(-2.0 * ls)
        else:
            ls, w = self.fixed_scale
        out = -0.5 * self.n * LOG_2PI - self.n * ls - 0.5 * rss * w
        half = (thetas[:, self.gauss] - self.prior_mean) @ self._white.T
        out += self._prior_const - 0.5 * np.einsum("mi,mi->m", half, half)
        if self.laplace_scale is not None:
            out -= np.abs(thetas[:, : self.n_coef]).sum(axis=1) / self.laplace_scale
        return out

    def neg_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """Minus the log density up to a constant, and its gradient.

        At a coefficient of exactly 0 under a Laplace prior the gradient
        entry is the subgradient of least magnitude, 0 when zero is optimal
        in that coordinate.
        """
        theta = np.asarray(theta, dtype=float)
        nc = self.n_coef
        grad = np.empty_like(theta)
        if self.logistic:
            linpred = self.X @ theta
            val = float(softplus_sum(linpred) - self.y @ linpred)
            grad[:nc] = -(self.X.T @ (self.y - expit(linpred)))
        else:
            coef, ls, w = self._scale(theta)
            rss = self._rss(coef)
            val = self.n * ls + 0.5 * rss * w
            with np.errstate(over="ignore"):  # an infinite gradient rejects the point
                grad[:nc] = -(self.xty - self.gram @ coef) * w
            if self.fixed_scale is None:
                grad[-1] = self.n - rss * w
        diff = theta[self.gauss] - self.prior_mean
        g = self.prior_prec @ diff
        val += 0.5 * float(diff @ g)
        grad[self.gauss] += g
        if self.laplace_scale is not None:
            coef = theta[:nc]
            val += float(np.abs(coef).sum()) / self.laplace_scale
            grad[:nc] += np.sign(coef) / self.laplace_scale
            kink = np.flatnonzero(coef == 0.0)
            slope = grad[kink]
            shrunk = np.maximum(np.abs(slope) - 1.0 / self.laplace_scale, 0.0)
            grad[kink] = np.sign(slope) * shrunk
        return val, grad

    def neg_hessian(self, theta: np.ndarray) -> np.ndarray:
        """Minus the Hessian of the log density; the Laplace block adds nothing."""
        theta = np.asarray(theta, dtype=float)
        nc = self.n_coef
        hess = np.zeros((theta.shape[0],) * 2)
        if self.logistic:
            prob = expit(self.X @ theta)
            w = prob * (1.0 - prob)
            hess[:nc, :nc] = self.X.T @ (self.X * w[:, None])
        else:
            coef, ls, w = self._scale(theta)
            with np.errstate(over="ignore"):  # an infinite curvature fails the fit
                hess[:nc, :nc] = self.gram * w
                if self.fixed_scale is None:
                    cross = 2.0 * (self.xty - self.gram @ coef) * w
                    hess[:nc, -1] = cross
                    hess[-1, :nc] = cross
                    hess[-1, -1] = 2.0 * self._rss(coef) * w
        hess[self.gauss, self.gauss] += self.prior_prec
        return 0.5 * hess + 0.5 * hess.T  # halves first: the sum of two may overflow


def subposterior_closure(model: ModelSpec, shard: Shard, n_splits: int) -> SubposteriorDensity:
    """The shard's subposterior density, a callable log density of theta."""
    return SubposteriorDensity(model, shard, n_splits)


# ---------------------------------------------------------------------------
# Random-walk Metropolis with burn-in-only adaptation.

_RWMH_ADAPT_INTERVAL = 100  # burn-in iterations between proposal refits
_RWMH_TARGET_ACCEPT = 0.234  # Robbins-Monro target for the step scale


def rwmh_chain(
    log_target: Callable[[np.ndarray], float],
    init: np.ndarray,
    n_iter: int = 10_000,
    burn_in: int = 2_000,
    seed: int = 0,
    init_cov: Optional[np.ndarray] = None,
) -> Chain:
    """Gaussian random-walk Metropolis.

    Every ``_RWMH_ADAPT_INTERVAL`` burn-in iterations the proposal
    covariance is refit to (2.38^2/d) times the sample covariance of the
    stored burn-in states (plus a 1e-6 jitter): from ``init`` on, and from
    the halfway point on once burn-in is half done, to drop the transient.
    A Robbins-Monro scalar step correction lets badly scaled starting
    covariances recover.  Everything is frozen once burn-in ends, so the
    retained draws come from a fixed-kernel chain.  Identical (seed, target,
    init, n_iter) arguments reproduce the chain bit for bit.
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

    states = np.empty((burn_in + 1, d))  # init, then the state after each burn-in step
    states[0] = init
    start = 0  # first state of the refit window
    x = init.copy()

    for t in range(burn_in):
        prop = x + math.exp(log_step) * (chol @ z_all[t])
        fp = log_target(prop)
        log_ratio = fp - fx if math.isfinite(fp) else -math.inf
        if log_u[t] <= log_ratio:
            x, fx = prop, fp
        acc_prob = math.exp(min(log_ratio, 0.0))
        log_step += (acc_prob - _RWMH_TARGET_ACCEPT) / (t + 1) ** 0.6
        states[t + 1] = x
        if t == burn_in // 2:
            start = t + 1
        if (t + 1) % _RWMH_ADAPT_INTERVAL == 0 and t + 2 - start > 2 * d:
            cov = sample_moments(states[start : t + 2]).cov
            try:
                chol = chol_spd(scale * (cov + 1e-6 * np.eye(d)), what="proposal")
            except SpdError:
                pass  # keep the previous factor until the estimate is usable

    # The kernel is frozen from here on: every increment comes from one product.
    steps = math.exp(log_step) * (z_all[burn_in:] @ chol.T)
    draws = np.empty_like(steps)
    accepted_post = 0
    for t, step in enumerate(steps):
        prop = x + step
        fp = log_target(prop)
        if math.isfinite(fp) and log_u[burn_in + t] <= fp - fx:
            x, fx = prop, fp
            accepted_post += 1
        draws[t] = x
    rate = accepted_post / (n_iter - burn_in)
    return Chain(draws=draws, burn_in=burn_in, acceptance_rate=rate, seed=seed)


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


def _precision(Xa: np.ndarray, omega: np.ndarray, prior_prec: np.ndarray) -> np.ndarray:
    """Symmetric precision X' diag(omega) X + prior_prec of one PG-Gibbs full conditional."""
    lam = (Xa.T * omega) @ Xa + prior_prec
    return 0.5 * (lam + lam.T)


def _draw_theta(
    lam: np.ndarray, eta: np.ndarray, rng: np.random.Generator, what: str
) -> np.ndarray:
    """One draw from N(lam^-1 eta, lam^-1).

    A factor that fails or is not finite goes to ``chol_spd``, which raises
    SpdError naming what is wrong with ``lam``.
    """
    try:
        low = np.linalg.cholesky(lam)
    except np.linalg.LinAlgError:
        low = None
    if low is None or not np.isfinite(low).all():
        low = chol_spd(lam, what=what)
    # theta = lam^-1 eta + low^-T z with z ~ N(0, I)
    inv = np.linalg.inv(low)
    return inv.T @ (inv @ eta + rng.standard_normal(eta.shape[0]))


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

    density = SubposteriorDensity(model, shard, n_splits)
    Xa = density.X
    prior_prec = density.prior_prec
    d = model.theta_dim
    rng = np.random.default_rng(seed)
    eta = Xa.T @ (density.y - 0.5) + prior_prec @ density.prior_mean

    n_keep = n_iter - burn_in
    draws = np.empty((n_keep, d))
    precs = np.empty((n_keep, d, d))
    theta = density.prior_mean.copy()
    what = f"conditional precision on shard {shard.shard_id}"

    for t in range(n_iter):
        omega = sample_pg_vec(Xa @ theta, rng)
        lam = _precision(Xa, omega, prior_prec)
        theta = _draw_theta(lam, eta, rng, what)
        if t >= burn_in:
            draws[t - burn_in] = theta
            precs[t - burn_in] = lam

    chain = Chain(draws=draws, burn_in=burn_in, acceptance_rate=None, seed=seed)
    stream = ConditionalGaussianStream(eta=eta, precisions=precs)
    return chain, stream


def write_stream(stream: ConditionalGaussianStream, path) -> None:
    """NDJSON serialization: one header line, then one record per draw."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(wire.dumps({"type": "header", "eta": stream.eta.tolist()}))
        for n, prec in enumerate(stream.precisions, start=1):
            fh.write(wire.dumps({"type": "rec", "n": n, "prec_row_major": prec.ravel().tolist()}))


def read_stream(path) -> ConditionalGaussianStream:
    """Read a stream back; every precision is checked at once, errors name the record."""
    with open(path, "r", encoding="utf-8") as fh:
        header = wire.loads(fh.readline(), f"{path}: stream header")
        header.string("type", choices=("header",))
        eta = header.array("eta", (None,))
        d = eta.shape[0]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:  # the file and line go into the message only when a record fails
                rec = wire.loads(line, "stream record")
                rec.string("type", choices=("rec",))
                if rec.integer("n") != len(rows) + 1:
                    raise DecodeError("stream records out of order")
                rows.append(rec.sequence("prec_row_major", d * d))
            except DecodeError as exc:
                raise DecodeError(f"{path}:{lineno}: {exc}") from None
    precisions = wire.spd_matrices(rows, d, f"{path}: precision", item="of record")
    return ConditionalGaussianStream(eta=eta, precisions=precisions)


# ---------------------------------------------------------------------------
# Laplace fit of a subposterior (MAP + inverse curvature).

_NEWTON_MAX_ITER = 100  # steps before a fit that has not converged raises
_NEWTON_MAX_STEP = 5.0  # cap on the largest coordinate change of one step
_NEWTON_TOL = 1e-10  # on the scaled gradient, and on a step relative to 1 + |theta|
_ARMIJO = 1e-4  # share of the predicted decrease a step must achieve
_ROUNDING = 1e-12  # relative rounding of the objective a step may add


def laplace_fit(
    model: ModelSpec, shard: Shard, n_splits: int, init: Optional[np.ndarray] = None
) -> GaussianMoments:
    """Subposterior MAP and inverse curvature as Gaussian moments.

    Damped Newton on ``neg_and_grad`` and ``neg_hessian``, the Hessian that
    also gives the covariance.  Each step is capped at ``_NEWTON_MAX_STEP``
    per coordinate and halved until the objective falls by ``_ARMIJO`` of
    the predicted decrease; a trial point where the objective overflows or
    is not finite counts as a rejected step.  The fit stops when the scaled
    gradient sqrt(g' H^-1 g) is at most ``_NEWTON_TOL`` or a step moves no
    coordinate by more than ``_NEWTON_TOL (1 + |theta|)``, and raises
    EstimatorError after ``_NEWTON_MAX_ITER`` steps.  Under a Laplace prior
    a coefficient stops at 0 rather than cross it, and stays there while 0
    is optimal in that coordinate.  By default the fit starts at the prior
    mean, with log sigma of a linear likelihood at the residual scale there.
    """
    density = SubposteriorDensity(model, shard, n_splits)
    d = model.theta_dim
    if init is None:
        x = np.zeros(d)
        x[density.gauss] = density.prior_mean
        if not density.logistic and density.fixed_scale is None:
            x[-1] = 0.5 * math.log(max(density._rss(x[:-1]) / density.n, 1e-12))
    else:
        x = np.array(init, dtype=float)
    try:
        f, g = density.neg_and_grad(x)
    except OverflowError:
        f = math.inf
    if not (math.isfinite(f) and np.isfinite(g).all()):
        raise EstimatorError("the Laplace fit's start point has no finite density")
    eye = np.eye(d)
    for _ in range(_NEWTON_MAX_ITER):
        hess = density.neg_hessian(x) + 1e-10 * eye
        free = np.flatnonzero((x != 0.0) | (g != 0.0))  # the rest sit at a kink
        step = np.zeros(d)
        step[free], scaled = _newton_step(hess[np.ix_(free, free)], g[free])
        if scaled <= _NEWTON_TOL:
            break
        x, f, g, moved = _line_search(density, x, f, g, step)
        if moved <= _NEWTON_TOL * (1.0 + float(np.abs(x).max())):
            hess = density.neg_hessian(x) + 1e-10 * eye
            break
    else:
        raise EstimatorError(f"Laplace fit did not converge in {_NEWTON_MAX_ITER} Newton steps")
    cov = chol_solve(chol_spd(hess, what="curvature"), eye)
    return GaussianMoments(mean=x, cov=0.5 * (cov + cov.T))


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> Tuple[np.ndarray, float]:
    """-H^-1 g and the scaled gradient sqrt(g' H^-1 g).

    Where H is not positive definite the step is -|H|^-1 g through its
    eigenvalues and the scaled gradient is inf.
    """
    try:
        low = chol_spd(hess, what="curvature")
    except SpdError as exc:
        if exc.min_eigenvalue is None:  # not finite: no direction to step along
            raise EstimatorError(f"Laplace fit: {exc}") from None
        vals, vecs = np.linalg.eigh(hess)
        vals = np.maximum(np.abs(vals), 1e-10 * np.abs(vals).max())
        return -vecs @ ((vecs.T @ grad) / vals), math.inf
    half = np.linalg.solve(low, grad)
    return -np.linalg.solve(low.T, half), math.sqrt(float(half @ half))


def _line_search(density: SubposteriorDensity, x, f, g, step):
    """Backtracking Armijo search from ``x`` along ``step``, capped.

    Under a Laplace prior a coefficient that would change sign stops at 0.
    Returns the accepted point, its objective and gradient, and the largest
    coordinate change.
    """
    big = float(np.abs(step).max())
    t = 1.0 if big <= _NEWTON_MAX_STEP else _NEWTON_MAX_STEP / big
    bound = f + _ROUNDING * abs(f)
    nc = density.n_coef if density.laplace_scale is not None else 0
    for _ in range(100):
        trial = x + t * step
        coef = trial[:nc]
        coef[coef * x[:nc] < 0.0] = 0.0
        try:
            ft, gt = density.neg_and_grad(trial)
        except OverflowError:
            ft = math.inf
        move = trial - x
        if (
            math.isfinite(ft)
            and ft <= bound + _ARMIJO * float(g @ move)
            and np.isfinite(gt).all()
        ):
            return trial, ft, gt, float(np.abs(move).max())
        t *= 0.5
    raise EstimatorError("the Laplace fit's line search found no finite decrease")
