"""Likelihoods, priors and fractionated priors.

This module defines the model, dataset and shard types and their wire
formats, the logistic log-partition kernel ``softplus_sum`` and the closed
form of log alpha.  Samplers and estimators evaluate the shard density
through ``samplers.SubposteriorDensity``; the tests hold it to a slow scalar
reference kept beside their other oracles.  A model couples one likelihood
(logistic, linear regression with known noise variance, or linear regression
with a log-normal prior on the noise scale) with one prior family on the
coefficients (multivariate normal or iid Laplace centred at zero).

When a dataset is split into S shards each shard works with the fractionated
prior p(theta)^(1/S) / alpha, where alpha = integral of p(theta)^(1/S).
Closed forms for log alpha are implemented per prior family; the identity
sum over shards of the unnormalized log subposterior plus S log alpha equals
the full-data log joint, which the tests exercise pointwise.

Parameter layout: the sampled vector theta holds one coefficient per active
feature in increasing feature order, followed by log sigma when the noise
scale is inferred.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import wire
from .errors import ConfigurationError, DomainError
from .gaussian import chol_spd

LOG_2PI = math.log(2.0 * math.pi)

# softplus_sum folds a likelihood block's rows pairwise this many times
_FOLDS = 4


@dataclass(frozen=True)
class LogisticLikelihood:
    kind = "logistic"


@dataclass(frozen=True)
class LinearKnownVar:
    noise_var: float
    kind = "linear_gaussian_known_var"

    def __post_init__(self):
        if not (self.noise_var > 0):
            raise ConfigurationError("noise_var must be positive")


@dataclass(frozen=True)
class LinearLogNormalVar:
    """Linear regression where log sigma gets its own normal prior."""

    logsigma_mean: float
    logsigma_sd: float
    kind = "linear_gaussian_lognormal_var"

    def __post_init__(self):
        if not (self.logsigma_sd > 0):
            raise ConfigurationError("logsigma_sd must be positive")


Likelihood = Union[LogisticLikelihood, LinearKnownVar, LinearLogNormalVar]
_LIKELIHOOD_KINDS = (LogisticLikelihood.kind, LinearKnownVar.kind, LinearLogNormalVar.kind)


@dataclass(frozen=True, eq=False)
class NormalPrior:
    mean: np.ndarray
    cov: np.ndarray

    kind = "normal"

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "cov", np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if self.cov.shape != (self.mean.shape[0],) * 2:
            raise ConfigurationError("prior mean and covariance dimensions disagree")
        chol_spd(self.cov, what="prior covariance")


@dataclass(frozen=True)
class LaplacePrior:
    """Independent Laplace(0, scale) coordinates."""

    scale: float

    kind = "laplace"

    def __post_init__(self):
        if not (self.scale > 0):
            raise ConfigurationError("laplace scale must be positive")


Prior = Union[NormalPrior, LaplacePrior]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One candidate model: likelihood + prior + active feature set.

    ``dim`` is the number of feature columns in the dataset the model reads.
    ``active_features`` restricts the model to a subset of those columns;
    inactive coefficients are absent from theta rather than pinned at zero,
    so the sampling dimension is the number of active features (plus one for
    log sigma under the log-normal noise model).
    """

    model_id: str
    likelihood: Likelihood
    prior: Prior
    dim: int
    active_features: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError("dim must be at least 1")
        if self.active_features is not None:
            feats = tuple(int(i) for i in self.active_features)
            if len(set(feats)) != len(feats):
                raise ConfigurationError("active_features has duplicates")
            if any(i < 0 or i >= self.dim for i in feats):
                raise ConfigurationError("active_features index out of range")
            object.__setattr__(self, "active_features", tuple(sorted(feats)))
        if isinstance(self.prior, NormalPrior) and self.prior.mean.shape[0] != self.dim:
            raise ConfigurationError(
                f"normal prior has dimension {self.prior.mean.shape[0]}, model dim is {self.dim}"
            )

    @property
    def active(self) -> tuple:
        if self.active_features is None:
            return tuple(range(self.dim))
        return self.active_features

    @property
    def n_coef(self) -> int:
        return len(self.active)

    @property
    def infers_scale(self) -> bool:
        return isinstance(self.likelihood, LinearLogNormalVar)

    @property
    def theta_dim(self) -> int:
        return self.n_coef + (1 if self.infers_scale else 0)

    def coef_prior_mean(self) -> np.ndarray:
        if isinstance(self.prior, NormalPrior):
            return self.prior.mean[list(self.active)].copy()
        return np.zeros(self.n_coef)

    def coef_prior_cov(self) -> np.ndarray:
        if not isinstance(self.prior, NormalPrior):
            raise ConfigurationError("coef_prior_cov is only defined for normal priors")
        idx = list(self.active)
        return self.prior.cov[np.ix_(idx, idx)].copy()


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix X (n x p) and outcome vector y (n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if X.shape[0] != y.shape[0]:
            raise ConfigurationError("X and y row counts disagree")
        if X.shape[0] == 0:
            raise ConfigurationError("dataset is empty")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ConfigurationError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Shard:
    """A view of one worker's rows of a dataset."""

    dataset: Dataset
    rows: np.ndarray
    shard_id: int

    def __post_init__(self):
        rows = np.atleast_1d(np.asarray(self.rows, dtype=np.int64))
        if rows.size == 0:
            raise ConfigurationError(f"shard {self.shard_id} is empty")
        if rows.min() < 0 or rows.max() >= self.dataset.n:
            raise ConfigurationError(f"shard {self.shard_id} has row indices out of range")
        if np.unique(rows).size != rows.size:
            raise ConfigurationError(f"shard {self.shard_id} repeats rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_X", self.dataset.X[rows])
        object.__setattr__(self, "_y", self.dataset.y[rows])

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def whole_shard(dataset: Dataset, shard_id: int = 0) -> Shard:
    """A shard holding every row: the S=1 shard, or a worker's own rows."""
    return Shard(dataset=dataset, rows=np.arange(dataset.n), shard_id=shard_id)


def check_compatible(model: ModelSpec, data: Union[Dataset, Shard]) -> None:
    """Validate that a model can read a dataset or shard."""
    X = data.X
    y = data.y
    if X.shape[1] != model.dim:
        raise ConfigurationError(
            f"model {model.model_id} expects {model.dim} features, data has {X.shape[1]}"
        )
    if isinstance(model.likelihood, LogisticLikelihood):
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ConfigurationError("logistic outcome must be coded 0/1")


def design(model: ModelSpec, data: Union[Dataset, Shard]) -> np.ndarray:
    """Columns of X the model actually reads."""
    X = data.X
    if model.active_features is None:
        return X
    return X[:, list(model.active)]


def softplus_sum(linpred: np.ndarray, axis: Optional[int] = None):
    """Logistic log-partition: the sum of log(1 + exp(x)) over ``axis``.

    The logistic density (``samplers.SubposteriorDensity``) runs through this
    kernel.  A block of at least ``2 ** _FOLDS`` rows summed over axis 0 (the
    likelihood block of ``logpdf_batch``) takes one exp pass, adds 1 in place,
    and multiplies rows pairwise ``_FOLDS`` times, so each remaining row holds
    a product of about 16 factors 1 + exp(x); one log over those rows and a
    short column sum finish it.  On a 625 x 104 block (the importance-sampling
    block of a 625-row shard) that took a median of 111 us against 190 us for
    exp, log1p and the full column sum (2 vCPU, numpy 2.4, one process, 10
    alternating repeats).  Each folded row's log carries about 30 roundings
    of 1.1e-16, so a column sum moves only in its last digits.  If a column
    sum is not finite (the product overflowed, an x of 710 or more, or a NaN)
    the block is recomputed by the guarded route below.

    Other inputs take that route directly: a max guard, then, when every x is
    below 700, exp(x) is finite and log1p(exp(x)) exact to rounding.
    Otherwise (or on NaN) it is sum max(x, 0) + sum log1p(exp(-|x|)), with
    exp and log1p run in place on the |x| buffer.  The positive parts are
    summed as they are: the form (sum x + sum |x|) / 2 would cancel them
    next to a huge negative x.
    """
    linpred = np.asarray(linpred, dtype=float)
    if axis == 0 and linpred.ndim == 2 and linpred.shape[0] >= 1 << _FOLDS:
        with np.errstate(over="ignore"):
            prod = np.exp(linpred)
            prod += 1.0
            rows = prod.shape[0]
            for _ in range(_FOLDS):
                half = rows // 2
                if rows % 2:
                    prod[0] *= prod[rows - 1]
                np.multiply(prod[:half], prod[half : 2 * half], out=prod[:half])
                rows = half
            head = prod[:rows]
            out = np.add.reduce(np.log(head, out=head), axis=0)
        if math.isfinite(np.add.reduce(out)):
            return out
    if linpred.size and np.maximum.reduce(linpred, axis=None) < 700.0:
        out = np.exp(linpred)
        return np.add.reduce(np.log1p(out, out=out), axis=axis)
    pos = np.add.reduce(np.maximum(linpred, 0.0), axis=axis)
    mag = np.abs(linpred)
    np.negative(mag, out=mag)
    np.exp(mag, out=mag)
    np.log1p(mag, out=mag)
    return pos + np.add.reduce(mag, axis=axis)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    exp(-x) overflows to inf below x = -709, where the result is 0, the
    correctly rounded value from x = -745 on; the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def log_alpha(model: ModelSpec, n_splits: int) -> float:
    """log of the normalizer of the fractionated prior p(theta)^(1/S).

    Exactly 0.0 at S=1.  The prior factorizes over the coefficient block and
    the optional log-sigma block, so log alpha is a sum of per-block closed
    forms: for a normal block of dimension d with covariance V,
    (d/2)((S-1)/S) log 2pi + ((S-1)/(2S)) log|V| + (d/2) log S; for d iid
    Laplace(0, b) coordinates, d(((S-1)/S) log(2b) + log S).
    """
    S = int(n_splits)
    if S < 1:
        raise DomainError(f"number of splits must be >= 1, got {n_splits}")
    frac = (S - 1.0) / S
    log_s = math.log(S)
    total = 0.0
    d = model.n_coef
    if isinstance(model.prior, NormalPrior):
        if d > 0:
            L = chol_spd(model.coef_prior_cov(), what="prior covariance")
            logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
            total += 0.5 * d * frac * LOG_2PI + 0.5 * frac * logdet + 0.5 * d * log_s
    else:
        total += d * (frac * math.log(2.0 * model.prior.scale) + log_s)
    if model.infers_scale:
        lik = model.likelihood
        logdet = 2.0 * math.log(lik.logsigma_sd)
        total += 0.5 * frac * LOG_2PI + 0.5 * frac * logdet + 0.5 * log_s
    return total


# ---------------------------------------------------------------------------
# Wire formats: dataset CSV and ModelSpec JSON.

def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header y,x1,...,xp."""
    header = ["y"] + [f"x{j + 1}" for j in range(dataset.p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.n):
            writer.writerow([repr(float(dataset.y[i]))] + [repr(float(v)) for v in dataset.X[i]])


def load_csv(path, rows: Optional[Sequence[bool]] = None) -> Dataset:
    """Read a dataset from CSV; requires a header with y and x1..xp columns.

    The file is streamed one line per record; blank lines are skipped.  With
    ``rows``, a flag per data row (a shard plan's ``assignment == shard_id``),
    every record is still counted but only flagged ones are converted, in
    file order; a file with another number of data rows raises DomainError.
    """
    keep = None if rows is None else np.asarray(rows, dtype=bool).tolist()
    # bytes until a record is converted: counting the other rows skips decoding
    with open(path, "rb") as fh:
        header = next(csv.reader([fh.readline().decode("utf-8")]), None)
        if header is None:
            raise ConfigurationError(f"{path}: empty CSV")
        header = [h.strip() for h in header]
        if "y" not in header:
            raise ConfigurationError(f"{path}: missing outcome column 'y'")
        p = len(header) - 1
        expected = {f"x{j + 1}" for j in range(p)}
        found = set(header) - {"y"}
        if found != expected:
            raise ConfigurationError(
                f"{path}: feature columns must be x1..x{p}, found {sorted(found)}"
            )
        y_pos = header.index("y")
        x_pos = [header.index(f"x{j + 1}") for j in range(p)]
        ys = []
        xs = []
        n_records = 0
        for block in iter(lambda: fh.readlines(1 << 16), []):
            records = list(filter(None, map(bytes.rstrip, block)))
            numbers = range(n_records + 1, n_records + len(records) + 1)
            n_records += len(records)
            if keep is not None:
                flags = keep[numbers.start - 1:n_records]
                records = itertools.compress(records, flags)
                numbers = itertools.compress(numbers, flags)
            for number, row in zip(numbers, csv.reader(map(bytes.decode, records))):
                try:
                    ys.append(float(row[y_pos]))
                    xs.append([float(row[j]) for j in x_pos])
                except (ValueError, IndexError):
                    raise ConfigurationError(
                        f"{path}: malformed row {number}: {row!r}"
                    ) from None
    if keep is not None and n_records != len(keep):
        raise DomainError(f"plan covers {len(keep)} rows, dataset has {n_records}")
    if not ys:
        raise ConfigurationError(f"{path}: no data rows")
    return Dataset(X=np.asarray(xs, dtype=float), y=np.asarray(ys, dtype=float))


def model_spec_to_json(model: ModelSpec) -> str:
    """Canonical single-line JSON for a ModelSpec (documented key order)."""
    lik = model.likelihood
    if isinstance(lik, LogisticLikelihood):
        lik_doc = {"kind": lik.kind}
    elif isinstance(lik, LinearKnownVar):
        lik_doc = {"kind": lik.kind, "noise_var": lik.noise_var}
    else:
        lik_doc = {
            "kind": lik.kind,
            "logsigma_mean": lik.logsigma_mean,
            "logsigma_sd": lik.logsigma_sd,
        }
    if isinstance(model.prior, NormalPrior):
        prior_doc = {
            "kind": "normal",
            "mean": [float(v) for v in model.prior.mean],
            "cov": [[float(v) for v in row] for row in model.prior.cov],
        }
    else:
        prior_doc = {"kind": "laplace", "scale": model.prior.scale}
    doc = {
        "model_id": model.model_id,
        "likelihood": lik_doc,
        "prior": prior_doc,
        "dim": model.dim,
        "active_features": None if model.active_features is None else list(model.active),
    }
    return wire.dumps(doc)


def model_spec_from_json(text: str) -> ModelSpec:
    doc = wire.loads(text, "model spec")
    likelihood = doc.sub("likelihood")
    kind = likelihood.string("kind", choices=_LIKELIHOOD_KINDS)
    if kind == LogisticLikelihood.kind:
        lik = LogisticLikelihood()
    elif kind == LinearKnownVar.kind:
        lik = LinearKnownVar(noise_var=likelihood.number("noise_var"))
    else:
        lik = LinearLogNormalVar(
            logsigma_mean=likelihood.number("logsigma_mean"),
            logsigma_sd=likelihood.number("logsigma_sd"),
        )
    dim = doc.integer("dim", minimum=1)
    prior_doc = doc.sub("prior")
    if prior_doc.string("kind", choices=("normal", "laplace")) == "normal":
        prior = NormalPrior(*prior_doc.gaussian("mean", "cov", dim, row_major=False))
    else:
        prior = LaplacePrior(scale=prior_doc.number("scale"))
    active = doc.array("active_features", (None,), integer=True, null=True, default=None)
    return ModelSpec(
        model_id=doc.string("model_id"),
        likelihood=lik,
        prior=prior,
        dim=dim,
        active_features=None if active is None else tuple(active.tolist()),
    )
