import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitevidence import Dataset, DecodeError, DomainError
from splitevidence.sharding import (
    ShardPlan,
    kmeans_lloyd,
    plan_from_json,
    plan_to_json,
    read_plan,
    stratified_split,
    uniform_split,
    write_plan,
)


class TestUniformSplit:
    def test_sizes_within_one(self):
        plan = uniform_split(10, 3, seed=0)
        assert sorted(plan.sizes().tolist()) == [3, 3, 4]

    def test_single_shard(self):
        plan = uniform_split(10, 1, seed=0)
        assert np.all(plan.assignment == 0)

    def test_deterministic(self):
        a = uniform_split(100, 7, seed=3)
        b = uniform_split(100, 7, seed=3)
        c = uniform_split(100, 7, seed=4)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_too_many_shards(self):
        with pytest.raises(DomainError):
            uniform_split(3, 4, seed=0)
        with pytest.raises(DomainError):
            uniform_split(3, 0, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 30),
        st.integers(0, 2**31),
    )
    def test_partition_property(self, n_rows, n_splits, seed):
        if n_splits > n_rows:
            n_splits = n_rows
        plan = uniform_split(n_rows, n_splits, seed=seed)
        assert plan.assignment.shape == (n_rows,)
        sizes = plan.sizes()
        assert sizes.sum() == n_rows
        assert sizes.max() - sizes.min() <= 1
        recovered = np.concatenate([plan.shard_rows(s) for s in range(n_splits)])
        assert sorted(recovered.tolist()) == list(range(n_rows))


class TestKmeans:
    def test_separates_blobs(self):
        X = np.concatenate([np.zeros(20), np.full(20, 100.0)])[:, None]
        labels = kmeans_lloyd(X, 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_k_one(self):
        rng = np.random.default_rng(0)
        labels = kmeans_lloyd(rng.standard_normal((30, 2)), 1, seed=0)
        assert np.all(labels == 0)

    def test_k_equals_n_zero_wcss(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 2))
        labels = kmeans_lloyd(X, 12, seed=0)
        assert sorted(labels.tolist()) == list(range(12))
        for j in range(12):
            cluster = X[labels == j]
            assert np.allclose(cluster, cluster.mean(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3))
        a = kmeans_lloyd(X, 5, seed=9)
        b = kmeans_lloyd(X, 5, seed=9)
        assert np.array_equal(a, b)

    def test_duplicate_points(self):
        # more clusters than distinct points exercises the reseeding path
        X = np.repeat(np.array([[0.0], [100.0]]), 5, axis=0)
        labels = kmeans_lloyd(X, 4, seed=0)
        assert labels.shape == (10,)
        assert np.all((0 <= labels) & (labels < 4))

    def test_validation(self):
        X = np.zeros((5, 1))
        with pytest.raises(DomainError):
            kmeans_lloyd(X, 6, seed=0)
        with pytest.raises(DomainError):
            kmeans_lloyd(X, 0, seed=0)
        with pytest.raises(DomainError):
            kmeans_lloyd(X, 2, max_iters=0, seed=0)


class TestStratifiedSplit:
    def test_balanced_binary_outcome(self):
        # one effective cluster, 50/50 outcomes, two shards: 25 of each
        # outcome per shard
        X = np.zeros((100, 2))
        y = np.concatenate([np.zeros(50), np.ones(50)])
        plan = stratified_split(X, y, 2, seed=0)
        for s in range(2):
            ys = y[plan.shard_rows(s)]
            assert (ys == 0).sum() == 25
            assert (ys == 1).sum() == 25

    def test_single_shard_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        y = (rng.random(40) < 0.5).astype(float)
        plan = stratified_split(X, y, 1, seed=0)
        assert np.all(plan.assignment == 0)

    def test_identical_rows_match_uniform_sizes(self):
        X = np.ones((17, 3))
        y = np.ones(17)
        plan = stratified_split(X, y, 5, seed=0)
        assert sorted(plan.sizes().tolist()) == sorted(
            uniform_split(17, 5, seed=0).sizes().tolist()
        )
        assert plan.metadata["n_strata"] == 1

    def test_per_stratum_balance_separated_blobs(self):
        # blobs are perfectly separated, so cluster membership is knowable
        # from the feature value and the balance invariant can be audited
        rng = np.random.default_rng(3)
        n = 123
        blob = (rng.random(n) < 0.4).astype(int)
        X = np.where(blob[:, None] == 1, 100.0, 0.0) + rng.standard_normal((n, 1)) * 0.01
        y = (rng.random(n) < 0.5).astype(float)
        n_splits = 4
        plan = stratified_split(X, y, n_splits, kmeans_k=2, seed=1)
        for b in (0, 1):
            for val in (0.0, 1.0):
                rows = np.flatnonzero((blob == b) & (y == val))
                counts = np.bincount(
                    plan.assignment[rows], minlength=n_splits
                )
                assert counts.max() - counts.min() <= 1
        sizes = plan.sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_small_strata_recorded(self):
        X = np.zeros((9, 1))
        y = np.concatenate([np.zeros(8), np.ones(1)])
        plan = stratified_split(X, y, 3, seed=0)
        small = plan.metadata["small_strata"]
        assert any(entry["size"] == 1 for entry in small)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        a = stratified_split(X, y, 3, seed=2)
        b = stratified_split(X, y, 3, seed=2)
        assert np.array_equal(a.assignment, b.assignment)

    def test_validation(self):
        with pytest.raises(DomainError):
            stratified_split(np.zeros((3, 1)), np.zeros(3), 4, seed=0)
        with pytest.raises(DomainError):
            stratified_split(np.zeros((3, 1)), np.zeros(2), 2, seed=0)


class TestShardPlanType:
    def test_empty_shard_rejected(self):
        with pytest.raises(DomainError, match="no rows"):
            ShardPlan(
                n_splits=3,
                assignment=np.array([0, 1, 0, 1]),
                strategy="uniform",
                seed=0,
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ShardPlan(
                n_splits=2,
                assignment=np.array([0, 1, 2]),
                strategy="uniform",
                seed=0,
            )
        with pytest.raises(DomainError):
            ShardPlan(
                n_splits=2,
                assignment=np.array([0, -1]),
                strategy="uniform",
                seed=0,
            )

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            ShardPlan(
                n_splits=2,
                assignment=np.array([0.0, 1.0]),
                strategy="uniform",
                seed=0,
            )

    def test_bad_strategy(self):
        with pytest.raises(DomainError):
            ShardPlan(
                n_splits=1,
                assignment=np.zeros(3, dtype=np.int64),
                strategy="fancy",
                seed=0,
            )

    def test_shards_materialize(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        data = Dataset(X=X, y=y)
        plan = uniform_split(10, 3, seed=1)
        shards = plan.shards(data)
        assert [s.shard_id for s in shards] == [0, 1, 2]
        seen = np.concatenate([s.rows for s in shards])
        assert sorted(seen.tolist()) == list(range(10))
        for s in shards:
            assert np.array_equal(s.X, X[s.rows])

    def test_shards_row_count_mismatch(self):
        data = Dataset(X=np.zeros((5, 1)), y=np.zeros(5))
        plan = uniform_split(6, 2, seed=0)
        with pytest.raises(DomainError):
            plan.shards(data)


    def test_one_shard_matches_all_shards(self):
        rng = np.random.default_rng(2)
        data = Dataset(X=rng.standard_normal((11, 2)), y=rng.standard_normal(11))
        plan = uniform_split(11, 3, seed=4)
        for i, expected in enumerate(plan.shards(data)):
            got = plan.shard(data, i)
            assert got.shard_id == expected.shard_id == i
            assert np.array_equal(got.rows, expected.rows)
            assert np.array_equal(got.X, expected.X)
            assert np.array_equal(got.y, expected.y)
        short = Dataset(X=data.X[:10], y=data.y[:10])
        with pytest.raises(DomainError, match="plan covers 11 rows, dataset has 10"):
            plan.shard(short, 0)

class TestPlanJson:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        for plan in (
            uniform_split(30, 4, seed=7),
            stratified_split(X, y, 3, kmeans_k=2, seed=7),
        ):
            text = plan_to_json(plan)
            back = plan_from_json(text)
            assert back.n_splits == plan.n_splits
            assert back.strategy == plan.strategy
            assert back.seed == plan.seed
            assert back.kmeans_k == plan.kmeans_k
            assert back.metadata == plan.metadata
            assert np.array_equal(back.assignment, plan.assignment)
            assert plan_to_json(back) == text

    def test_bytes_are_stable(self):
        a = plan_to_json(uniform_split(20, 3, seed=5))
        b = plan_to_json(uniform_split(20, 3, seed=5))
        assert a == b
        assert a.endswith("\n")
        assert "\n" not in a[:-1]

    def test_decode_errors(self):
        with pytest.raises(DecodeError):
            plan_from_json("not json")
        with pytest.raises(DecodeError):
            plan_from_json("[1,2]")
        with pytest.raises(DecodeError):
            plan_from_json('{"S":2,"strategy":"uniform","seed":0}')
        with pytest.raises(DecodeError):
            plan_from_json(
                '{"S":2,"strategy":"uniform","seed":0,"assignment":[0,"x"]}'
            )
        with pytest.raises(DecodeError):
            plan_from_json(
                '{"S":2,"strategy":"uniform","seed":0,"assignment":[0,0]}'
            )
        with pytest.raises(DecodeError):
            plan_from_json(
                '{"S":"2","strategy":"uniform","seed":0,"assignment":[0,1]}'
            )

    def test_file_round_trip(self, tmp_path):
        plan = uniform_split(12, 3, seed=2)
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        again = read_plan(path)
        assert np.array_equal(again.assignment, plan.assignment)
        write_plan(again, tmp_path / "plan2.json")
        assert (tmp_path / "plan.json").read_bytes() == (
            tmp_path / "plan2.json"
        ).read_bytes()
