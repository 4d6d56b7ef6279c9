"""Spans around the calls into each layer of ``splitevidence``.

The tracer replaces public functions where their caller looks them up (for
example ``cluster.pg_gibbs_logistic`` and ``samplers.sample_pg_vec``) with
wrappers that record a span: name, start, end and the index of the
enclosing span.  The closures returned by ``subposterior_closure`` are
wrapped as they are handed to ``cluster`` and ``rjmcmc``.  Spans stay in
memory for the pass and are aggregated into per-layer metrics after it;
the untraced passes run the program's own, unpatched functions.
"""
from __future__ import annotations

import contextlib
import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int]]  # name, start, end, parent, shard


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span; ``after(tracer, args, result)`` may return a shard id."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, None))
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
            tag = after(tracer, args, result) if after is not None else None
            tracer.spans[idx] = (name, start, end, parent, tag)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's modules for the duration of one pass."""
        from splitevidence import cli, cluster, rjmcmc, samplers, sharding

        def closure_factory(fn):
            @functools.wraps(fn)
            def make(*args, **kwargs):
                return self.wrap("samplers.target", fn(*args, **kwargs))
            return make

        patches = [
            (cli, "load_csv", "models.load_csv", None),
            (cli, "uniform_split", "sharding.plan", None),
            (cli, "write_plan", "sharding.plan", None),
            (cli, "read_plan", "sharding.plan", None),
            (sharding.ShardPlan, "shards", "sharding.plan", None),
            (cluster, "laplace_fit", "samplers.laplace_fit", None),
            (rjmcmc, "laplace_fit", "samplers.laplace_fit", None),
            (cluster, "rwmh_chain", "samplers.rwmh_chain", None),
            (cluster, "pg_gibbs_logistic", "samplers.pg_gibbs", None),
            (samplers, "sample_pg_vec", "samplers.sample_pg_vec", _count_draws),
            (cluster, "write_stream", "samplers.write_stream", _count_stream_bytes),
            (cluster, "read_stream", "samplers.read_stream", None),
            (cluster, "importance_log_evidence", "evidence.importance", None),
            (cluster, "chib_log_evidence", "evidence.chib", None),
            (cluster, "conditional_isub", "evidence.conditional_isub", None),
            (cluster, "approx_isub", "evidence.approx_isub", None),
            (cluster, "run_worker", "cluster.run_worker", _shard_of_task),
            (cluster, "encode_worker_result", "cluster.encode", None),
            (cluster, "write_worker_result", "cluster.write_result", _count_result_bytes),
            (cluster, "decode_worker_result", "cluster.decode", None),
            (cluster, "combine_worker_results", "cluster.combine", None),
            (cli, "rjmcmc_sample", "rjmcmc.sample", _count_rj),
            (cli, "distributed_log_bf", "rjmcmc.distributed_log_bf", None),
        ]
        saved = []
        try:
            for owner in (cluster, rjmcmc):
                saved.append((owner, "subposterior_closure", owner.subposterior_closure))
                owner.subposterior_closure = closure_factory(owner.subposterior_closure)
            for owner, attr, name, after in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _count_draws(tracer, args, result):
    tracer.counts["pg_draws"] += int(result.size)


def _count_stream_bytes(tracer, args, result):
    tracer.counts["stream_bytes"] += os.path.getsize(args[1])


def _count_result_bytes(tracer, args, result):
    tracer.counts["result_bytes"] += os.path.getsize(args[1])


def _shard_of_task(tracer, args, result):
    return int(args[0].shard.shard_id)


def _count_rj(tracer, args, result):
    tracer.counts["rj_iterations"] += result.n_iterations + result.burn_in
    tracer.counts["models_visited"] += len(result.visit_counts)


def layer_metrics(spans: List[Span], counts: Dict[str, int], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass lasting ``wall`` seconds."""
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    per_shard: Dict[int, float] = defaultdict(float)
    root = 0.0
    for name, start, end, parent, shard in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent < 0:
            root += end - start
        if shard is not None:
            per_shard[shard] += end - start

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "models.load_csv_s": busy["models.load_csv"],
        "sharding.plan_s": busy["sharding.plan"],
        "samplers.laplace_fit_s": busy["samplers.laplace_fit"],
        "samplers.laplace_fit_calls": calls["samplers.laplace_fit"],
        "samplers.rwmh_chain_s": busy["samplers.rwmh_chain"],
        "samplers.target_calls": calls["samplers.target"],
        "samplers.target_us": 1e6 * ratio(busy["samplers.target"], calls["samplers.target"]),
        "samplers.pg_gibbs_s": busy["samplers.pg_gibbs"],
        "samplers.sample_pg_vec_s": busy["samplers.sample_pg_vec"],
        "samplers.sample_pg_vec_calls": calls["samplers.sample_pg_vec"],
        "samplers.pg_draws": counts["pg_draws"],
        "samplers.pg_ns_per_draw": 1e9 * ratio(busy["samplers.sample_pg_vec"], counts["pg_draws"]),
        "samplers.pg_gibbs_other_s": busy["samplers.pg_gibbs"] - busy["samplers.sample_pg_vec"],
        "samplers.write_stream_s": busy["samplers.write_stream"],
        "samplers.read_stream_s": busy["samplers.read_stream"],
        "samplers.stream_bytes": counts["stream_bytes"],
        "evidence.importance_s": busy["evidence.importance"],
        "evidence.chib_s": busy["evidence.chib"],
        "evidence.conditional_isub_s": busy["evidence.conditional_isub"],
        "evidence.approx_isub_s": busy["evidence.approx_isub"],
        "cluster.run_worker_s": busy["cluster.run_worker"],
        "cluster.worker_max_s": max(per_shard.values(), default=0.0),
        "cluster.encode_s": busy["cluster.encode"],
        "cluster.decode_s": busy["cluster.decode"],
        "cluster.result_bytes": counts["result_bytes"],
        "cluster.combine_s": busy["cluster.combine"],
        "rjmcmc.sample_s": busy["rjmcmc.sample"],
        "rjmcmc.iters_per_s": ratio(counts["rj_iterations"], busy["rjmcmc.sample"]),
        "rjmcmc.models_visited": counts["models_visited"],
        "rjmcmc.distributed_log_bf_s": busy["rjmcmc.distributed_log_bf"],
        "cli.other_s": wall - root,
    }


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Time in each layer minus the time of the spans nested directly in it."""
    own: Dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        own[name] += end - start
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return dict(own)


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
