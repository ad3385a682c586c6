"""One round of a closed-loop batch workload, driven in-process.

The engine is built exactly as the batch CLI builds it — generator,
``Scuba(ScubaConfig())``, ``StreamEngine``, ``CountingSink`` — except that
the source and the sink are wrapped in proxies that stamp the two moments
answer lag is measured between, and (traced rounds only) record spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from repro.core import Scuba, ScubaConfig
from repro.generator import GeneratorConfig, NetworkBasedGenerator
from repro.network import grid_city
from repro.streams import CountingSink, EngineConfig, ResultSink, StreamEngine

import yardstick
from reference import check_interval, pack_pairs
from tracing import SpanRecorder, StageSpanHook
from workloads import CITY, GRID_SIZE, WARMUP_INTERVALS, Workload, is_sampled

__all__ = ["Round", "make_generator", "run_round", "run_sharded_pass"]


@dataclass
class Round:
    """What one round measured; batch and serve rounds share the shape."""

    setup_s: float
    #: Wall of the timed intervals (batch) or of the answered feed (serve).
    wall_s: float
    updates: int
    #: Answer lag per interval, seconds.
    lags_s: List[float]
    #: The engine's match count per interval.
    counts: List[int]
    #: Intervals that raised or produced no answer.
    failed: int
    #: One line per sampled interval whose answer disagreed with the
    #: reference.
    mismatches: List[str]
    #: Setup plus timed part, for the run loop's deadline.
    duration_s: float
    #: Median yardstick reading (seconds per pass, see yardstick.py) of
    #: those taken between the timed intervals.
    yard_s: float = 0.0
    #: Raw per-layer readings of a traced round (and of every serve round).
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Raw seconds of the timed part × this = reference-box seconds."""
        return yardstick.speed(self.yard_s)


def make_generator(workload: Workload, seed: int) -> NetworkBasedGenerator:
    half = workload.entities // 2
    return NetworkBasedGenerator(
        grid_city(CITY, CITY),
        GeneratorConfig(
            num_objects=half,
            num_queries=workload.entities - half,
            skew=workload.skew,
            seed=seed,
            mixed_groups=workload.mixed_groups,
            query_range=(workload.query_range, workload.query_range),
            update_fraction=workload.update_fraction,
        ),
    )


class _SourceProxy:
    """Looks like the generator to the pipeline; remembers when the
    latest tick came into existence and what it was."""

    def __init__(self, inner, recorder: Optional[SpanRecorder]) -> None:
        self.inner = inner
        self.recorder = recorder
        self.tick_returned = 0.0
        self.last_tick = None
        self.updates = 0

    @property
    def time(self) -> float:
        return self.inner.time

    def tick(self, dt: float):
        start = perf_counter()
        batch = self.inner.tick(dt)
        self.tick_returned = perf_counter()
        self.last_tick = batch
        self.updates += len(batch)
        if self.recorder is not None:
            self.recorder.leaf("generator.tick", start, self.tick_returned)
        return batch


class _SinkProxy(ResultSink):
    """Delivers to the batch CLI's ``CountingSink``; remembers when the
    answers were out and keeps a reference to them."""

    def __init__(self, recorder: Optional[SpanRecorder]) -> None:
        self.inner = CountingSink()
        self.recorder = recorder
        self.accept_returned = 0.0
        self.last_matches = None

    def accept(self, matches, t: float) -> None:
        start = perf_counter()
        self.inner.accept(matches, t)
        self.accept_returned = perf_counter()
        self.last_matches = matches
        if self.recorder is not None:
            self.recorder.leaf("sink.accept", start, self.accept_returned)


def _operator_counters(operator: Scuba) -> Dict[str, float]:
    """Cumulative work counters, read from public attributes only."""
    clusterer = operator.clusterer
    return {
        "processed": clusterer.processed,
        "fast_path_hits": clusterer.fast_path_hits,
        "grid_refresh_skips": operator.world.grid.refresh_skips,
        "between_tests": operator.between_tests,
        "between_hits": operator.between_hits,
        "within_tests": operator.within_tests,
        "view_cache_hits": operator.view_cache_hits,
        "view_cache_misses": operator.view_cache_misses,
        "between_cache_hits": operator.between_cache_hits,
        "between_cache_misses": operator.between_cache_misses,
        "evicted_stale": operator.evicted_stale,
    }


def run_round(
    workload: Workload, seed: int, recorder: Optional[SpanRecorder] = None
) -> Round:
    """Set up a fresh engine, warm it up, time ``round_intervals`` intervals."""
    round_start = perf_counter()
    if recorder is not None:
        recorder.begin("setup")
    source = _SourceProxy(make_generator(workload, seed), recorder)
    sink = _SinkProxy(recorder)
    operator = Scuba(ScubaConfig(grid_size=GRID_SIZE, delta=float(workload.delta)))
    engine = StreamEngine(
        source,
        operator,
        sink,
        EngineConfig(delta=float(workload.delta), tick=1.0),
        hooks=[StageSpanHook(recorder)] if recorder is not None else (),
    )
    for _ in range(WARMUP_INTERVALS):
        engine.run_interval()
    if recorder is not None:
        recorder.end()
    setup_s = perf_counter() - round_start
    yard = [yardstick.run()]

    updates_before = source.updates
    counters_before = _operator_counters(operator) if recorder is not None else {}
    lags: List[float] = []
    counts: List[int] = []
    mismatches: List[str] = []
    failed = 0
    wall = 0.0
    for interval in range(workload.round_intervals):
        if recorder is not None:
            recorder.interval = interval
            recorder.begin("interval")
        start = perf_counter()
        try:
            engine.run_interval()
        except Exception as exc:  # a broken engine cannot run the rest
            print(f"interval {interval} raised: {exc!r}")
            failed += workload.round_intervals - interval
            if recorder is not None:
                recorder.end()
            break
        wall += perf_counter() - start
        if recorder is not None:
            recorder.end()
            recorder.sample(
                {
                    "clustering.clusters": operator.world.cluster_count,
                    "clustering.stay_ratio": operator.clusterer.fast_path_hits
                    / max(operator.clusterer.processed, 1),
                }
            )
        yard.append(yardstick.run())
        if sink.accept_returned < start:
            failed += 1
            continue
        lags.append(sink.accept_returned - source.tick_returned)
        counts.append(sink.inner.per_interval[-1])
        if is_sampled(interval):
            # Checked here, between timed intervals, so that no answer is
            # kept alive: retained answers would sit in peak_rss_mb.
            answer = sink.last_matches
            verdict = check_interval(
                source.last_tick,
                pack_pairs(((m.qid, m.oid) for m in answer), len(answer)),
            )
            if not verdict.ok:
                mismatches.append(
                    f"interval {interval}: reference {verdict.expected} "
                    f"pairs, engine {verdict.got}"
                )
    layers: Dict[str, float] = {}
    if recorder is not None:
        recorder.interval = -1
        after = _operator_counters(operator)
        layers = {key: after[key] - counters_before[key] for key in after}
        layers["clusters"] = operator.world.cluster_count
        layers["members"] = len(operator.objects_table) + len(
            operator.queries_table
        )
    return Round(
        setup_s=setup_s,
        wall_s=wall,
        updates=source.updates - updates_before,
        lags_s=lags,
        counts=counts,
        failed=failed,
        mismatches=mismatches,
        duration_s=perf_counter() - round_start,
        yard_s=median(yard),
        layers=layers,
    )


def run_sharded_pass(workload: Workload, seed: int, intervals: int) -> Dict[str, float]:
    """Counts from a two-shard serial-executor pass over ``workload``.

    Two cores cannot show wall-clock scaling, so only the counts that
    describe the partitioning are kept: how many shard copies a tuple
    costs, how uneven the shards' join load is, and what share of the
    pass went to routing and merging.
    """
    from repro.parallel import ScubaShardFactory, ShardedEngine

    engine = ShardedEngine(
        make_generator(workload, seed),
        ScubaShardFactory(
            ScubaConfig(grid_size=GRID_SIZE, delta=float(workload.delta)),
            max_query_extent=(workload.query_range, workload.query_range),
        ),
        shards=2,
        sink=CountingSink(),
        config=EngineConfig(delta=float(workload.delta), tick=1.0),
        executor="serial",
    )
    try:
        start = perf_counter()
        stats = engine.run(intervals)
        wall = perf_counter() - start
    finally:
        engine.close()
    return {
        "parallel.replication_factor": stats.replication_factor,
        "parallel.load_imbalance": stats.load_imbalance,
        "parallel.route_share": stats.total_route_seconds / wall,
        "parallel.merge_share": stats.total_merge_seconds / wall,
    }
