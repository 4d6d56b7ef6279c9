"""Shard plans: who gets which rows.

Two strategies: uniform random splits without replacement, and stratified
splits where strata are k-means cluster membership of the features crossed
with the outcome value.  Plans are pure functions of (inputs, seed) and are
immutable once built; the JSON form is canonical so reruns are
byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import wire
from .errors import DecodeError, DomainError
from .models import Dataset, Shard

STRATEGIES = ("uniform", "stratified")


@dataclass(eq=False)
class ShardPlan:
    """A partition of row indices into shards."""

    n_splits: int
    assignment: np.ndarray
    strategy: str
    seed: int
    kmeans_k: Optional[int] = None
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise DomainError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        self.assignment = np.asarray(self.assignment)
        if self.assignment.ndim != 1 or self.assignment.shape[0] == 0:
            raise DomainError("assignment must be a non-empty 1-d vector")
        if not np.issubdtype(self.assignment.dtype, np.integer):
            raise DomainError("assignment must be integer shard ids")
        self.assignment = self.assignment.astype(np.int64)
        if self.n_splits < 1:
            raise DomainError("need at least one shard")
        if self.assignment.min() < 0 or self.assignment.max() >= self.n_splits:
            raise DomainError("assignment contains out-of-range shard ids")
        counts = np.bincount(self.assignment, minlength=self.n_splits)
        if np.any(counts == 0):
            empty = np.flatnonzero(counts == 0).tolist()
            raise DomainError(f"shards {empty} received no rows")

    @property
    def n_rows(self) -> int:
        return int(self.assignment.shape[0])

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_splits)

    def shard_rows(self, shard_id: int) -> np.ndarray:
        if not 0 <= shard_id < self.n_splits:
            raise DomainError(f"shard id {shard_id} out of range")
        return np.flatnonzero(self.assignment == shard_id)

    def shard(self, data: Dataset, shard_id: int) -> Shard:
        """The rows of ``data`` that shard ``shard_id`` holds."""
        if data.X.shape[0] != self.n_rows:
            raise DomainError(
                f"plan covers {self.n_rows} rows, dataset has {data.X.shape[0]}"
            )
        return Shard(data, self.shard_rows(shard_id), shard_id=shard_id)

    def shards(self, data: Dataset) -> List[Shard]:
        return [self.shard(data, s) for s in range(self.n_splits)]


def uniform_split(n_rows: int, n_splits: int, seed: int = 0) -> ShardPlan:
    """Seeded random permutation dealt round-robin; sizes differ by at most 1."""
    if n_splits < 1:
        raise DomainError("need at least one shard")
    if n_splits > n_rows:
        raise DomainError(f"cannot split {n_rows} rows into {n_splits} shards")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_rows)
    assignment = np.empty(n_rows, dtype=np.int64)
    assignment[order] = np.arange(n_rows) % n_splits
    return ShardPlan(
        n_splits=n_splits, assignment=assignment, strategy="uniform", seed=int(seed)
    )


def _kmeans_pp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_lloyd(
    X: np.ndarray, k: int, max_iters: int = 100, seed: int = 0
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; returns integer labels.

    Stops when no label changes or after max_iters sweeps.  A cluster left
    empty by an assignment step is re-seeded from the point farthest from
    its current center.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DomainError("X must be a non-empty 2-d matrix")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= {n}, got {k}")
    if max_iters < 1:
        raise DomainError("max_iters must be at least 1")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_centers(X, k, rng)
    x_sq = (X**2).sum(axis=1)
    labels = None
    for _ in range(max_iters):
        d2 = x_sq[:, None] - 2.0 * (X @ centers.T) + (centers**2).sum(axis=1)[None, :]
        np.maximum(d2, 0.0, out=d2)
        new_labels = d2.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # hand each empty cluster its own farthest point, stealing only
            # from clusters that keep at least one member
            own = d2[np.arange(n), new_labels]
            order = np.argsort(-own, kind="stable")
            pos = 0
            for j in empties:
                while counts[new_labels[order[pos]]] <= 1:
                    pos += 1
                far = int(order[pos])
                pos += 1
                counts[new_labels[far]] -= 1
                new_labels[far] = j
                counts[j] = 1
                centers[j] = X[far]
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = X[labels == j].mean(axis=0)
    return labels.astype(np.int64)


def stratified_split(
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int,
    kmeans_k: int = 10,
    seed: int = 0,
) -> ShardPlan:
    """Deal each (cluster, outcome) stratum round-robin across shards.

    Clustering runs on z-scored features.  The round-robin pointer carries
    over between strata, so per-stratum counts differ by at most 1 across
    shards and so do the global shard sizes.  Strata smaller than the shard
    count are allowed and listed in the plan metadata.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DomainError("X and y must have matching row counts")
    n = X.shape[0]
    if n_splits < 1:
        raise DomainError("need at least one shard")
    if n_splits > n:
        raise DomainError(f"cannot split {n} rows into {n_splits} shards")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Z = (X - mu) / sd
    # never ask for more clusters than there are distinct rows; with one
    # distinct row the stratification collapses to the outcome alone
    n_distinct = np.unique(Z, axis=0).shape[0]
    k_eff = min(int(kmeans_k), n_distinct)
    labels = kmeans_lloyd(Z, k_eff, max_iters=100, seed=seed)

    outcome_values, outcome_idx = np.unique(y, return_inverse=True)
    rng = np.random.default_rng([seed, 1])
    assignment = np.empty(n, dtype=np.int64)
    pointer = 0
    small_strata = []
    for cluster in range(k_eff):
        for oi in range(outcome_values.shape[0]):
            rows = np.flatnonzero((labels == cluster) & (outcome_idx == oi))
            if rows.shape[0] == 0:
                continue
            if rows.shape[0] < n_splits:
                small_strata.append(
                    {
                        "cluster": int(cluster),
                        "outcome": float(outcome_values[oi]),
                        "size": int(rows.shape[0]),
                    }
                )
            rows = rows[rng.permutation(rows.shape[0])]
            assignment[rows] = (pointer + np.arange(rows.shape[0])) % n_splits
            pointer += rows.shape[0]
    metadata = {"n_strata": 0, "small_strata": small_strata}
    metadata["n_strata"] = int(
        np.unique(labels * outcome_values.shape[0] + outcome_idx).shape[0]
    )
    return ShardPlan(
        n_splits=n_splits,
        assignment=assignment,
        strategy="stratified",
        seed=int(seed),
        kmeans_k=k_eff,
        metadata=metadata,
    )


def plan_to_json(plan: ShardPlan) -> str:
    """Canonical ``wire`` line; identical plans give identical bytes."""
    obj = {
        "S": plan.n_splits,
        "strategy": plan.strategy,
        "seed": plan.seed,
        "assignment": plan.assignment.tolist(),
        "kmeans_k": plan.kmeans_k,
        "metadata": plan.metadata,
    }
    return wire.dumps(obj)


def plan_from_json(text: str) -> ShardPlan:
    doc = wire.loads(text, "plan")
    try:
        return ShardPlan(
            n_splits=doc.integer("S", minimum=1),
            assignment=doc.array("assignment", (None,), integer=True),
            strategy=doc.string("strategy", choices=STRATEGIES),
            seed=doc.integer("seed", minimum=0),
            kmeans_k=doc.integer("kmeans_k", minimum=1, null=True, default=None),
            metadata=doc.sub("metadata", default={}).obj,
        )
    except DomainError as exc:
        raise DecodeError(f"plan invalid: {exc}") from exc


def write_plan(plan: ShardPlan, path) -> None:
    with open(path, "w") as handle:
        handle.write(plan_to_json(plan))


def read_plan(path) -> ShardPlan:
    with open(path) as handle:
        return plan_from_json(handle.read())
