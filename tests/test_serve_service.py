"""The async service loop: equivalence, backpressure, overload recovery.

These tests run :class:`EvaluationService` in-process (no subprocesses;
the kill-and-resume smoke lives in ``test_serve_smoke.py``) and pin the
service-mode contracts: answers equal to the batch engine, the ladder
escalating under pressure and relaxing when it clears, heartbeat
filtering at the top level, visible counters for every decision.
"""

from __future__ import annotations

import asyncio
import math
import threading

import pytest

from repro.core import Scuba, ScubaConfig
from repro.generator import GeneratorConfig, NetworkBasedGenerator
from repro.network import grid_city
from repro.serve import (
    BackpressureConfig,
    BackpressureController,
    CallbackEmitter,
    EvaluationService,
    IntervalBufferSink,
    QueuedTickSource,
    ServeConfig,
    TickBatch,
    TickSource,
    build_source,
    generator_spec,
    state_digest,
)
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)


def workload_config(seed: int = 7) -> GeneratorConfig:
    # 200/200 at skew 20: convoys converge enough that matches appear
    # from the 4th interval on — enough signal for equivalence checks.
    return GeneratorConfig(
        num_objects=200,
        num_queries=200,
        skew=20,
        seed=seed,
        query_range=QUERY_RANGE,
    )


def make_service(
    *,
    scuba_config=None,
    queue_depth=4,
    policy="block",
    max_intervals=5,
    source=None,
    events=None,
):
    spec = generator_spec(
        city_rows=11, city_cols=11, generator_config=workload_config()
    )
    source = source if source is not None else build_source(spec)
    bridge = QueuedTickSource()
    sink = IntervalBufferSink()
    engine = StreamEngine(
        bridge, Scuba(scuba_config or ScubaConfig()), sink, EngineConfig()
    )
    emitters = [CallbackEmitter(events.append)] if events is not None else []
    service = EvaluationService(
        engine,
        bridge,
        source,
        sink,
        emitters=emitters,
        config=ServeConfig(
            engine=EngineConfig(),
            backpressure=BackpressureConfig(
                queue_depth=queue_depth, policy=policy
            ),
            max_intervals=max_intervals,
            emit_matches=True,
        ),
        engine_manifest={"kind": "serial"},
    )
    return service, engine


class TestServiceEquivalence:
    def test_matches_batch_engine_exactly(self):
        """Service answers and final state equal the batch engine's."""
        ref_sink = CollectingSink()
        ref = StreamEngine(
            NetworkBasedGenerator(grid_city(), workload_config()),
            Scuba(),
            ref_sink,
            EngineConfig(),
        )
        ref.run(5)
        ref_answers = sorted((m.qid, m.oid, m.t) for m in ref_sink.all_matches)
        assert ref_answers

        events = []
        service, engine = make_service(events=events)
        summary = service.run_forever()
        got = sorted(
            (m["qid"], m["oid"], m["t"])
            for e in events
            if e["event"] == "results"
            for m in e["matches"]
        )
        assert got == ref_answers
        assert state_digest(engine.operator) == state_digest(ref.operator)
        assert summary["intervals"] == 5
        # Deterministic accounting only: whether the undersized queue
        # visibly fills depends on how far the producer coroutine runs
        # ahead of evaluation, which OS scheduling decides (under heavy
        # host contention it can stay exactly in step).  Overload
        # visibility is pinned where it is forced by construction:
        # TestOverload's phased burst source and the socket-fed
        # subprocess smoke in test_serve_smoke.py.
        # >= consumed: the producer admits ahead of evaluation, so the
        # admitted count exceeds the 10 consumed ticks by up to the
        # queue depth plus the one batch in flight.
        assert 10 <= summary["counters"]["bp_ticks_admitted"] <= 10 + 4 + 1
        assert summary["counters"]["bp_ticks_dropped"] == 0
        assert summary["counters"]["bp_level"] == 0
        # The summary carries ingest's row outcomes; the service fed
        # column batches, so these came from the whole-tick pass.
        assert sum(
            summary["counters"][key]
            for key in ("ingest_heartbeats", "ingest_refreshes",
                        "ingest_reclustered", "ingest_new")
        ) == engine.operator.clusterer.processed > 0
        assert "grid_reregistrations" in summary["counters"]

    def test_event_stream_shape(self):
        events = []
        service, _ = make_service(events=events, max_intervals=2)
        service.run_forever()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "summary"
        assert kinds.count("results") == 2
        started = events[0]
        assert started["source"] == "generator"
        assert started["policy"] == "block"


class _PhasedSource(TickSource):
    """Fast burst, then a slow trickle — drives the ladder both ways."""

    def __init__(self, fast_ticks: int, slow_ticks: int, delay: float) -> None:
        self.generator = NetworkBasedGenerator(grid_city(), workload_config())
        self.fast_ticks = fast_ticks
        self.slow_ticks = slow_ticks
        self.delay = delay
        self.produced = 0

    async def next_batch(self):
        if self.produced >= self.fast_ticks + self.slow_ticks:
            return None
        if self.produced >= self.fast_ticks:
            await asyncio.sleep(self.delay)
        else:
            await asyncio.sleep(0)
        self.produced += 1
        return TickBatch(self.generator.time + 1.0, self.generator.tick(1.0))

    def spec(self):
        return {"kind": "phased"}


class TestOverload:
    def test_shed_policy_escalates_and_recovers(self):
        """Under pressure the ladder walks up (forcing the adaptive
        shedder), the service stays up, and when pressure clears the
        ladder walks back down — all of it emitted and counted."""
        events = []
        source = _PhasedSource(fast_ticks=16, slow_ticks=8, delay=0.05)
        service, engine = make_service(
            scuba_config=ScubaConfig(adaptive_shedding=True, shed_budget=50),
            queue_depth=4,
            policy="shed",
            max_intervals=12,
            source=source,
            events=events,
        )
        summary = service.run_forever()
        counters = summary["counters"]
        assert counters["bp_escalations"] > 0, "queue pressure must escalate"
        assert counters["bp_relaxations"] > 0, "drained queue must relax"
        sheds = [e for e in events if e["event"] == "shedding"]
        directions = {e["direction"] for e in sheds}
        assert {"escalate", "relax"} <= directions
        # Escalation reached the operator's adaptive shedder: its floor
        # was pinned at some point (level 1+) and the service finished.
        assert summary["intervals"] == 12
        assert engine.operator.shedder is not None

    def test_drop_policy_discards_whole_ticks(self):
        """At a full queue the drop policy discards ticks, counts them,
        and the service still completes."""

        class OverrunSource(_PhasedSource):
            """An endless burst (a tick budget can be spent entirely on
            drops when the box is busy) that signals once it has produced
            more than the evaluator and the queue can hold."""

            def __init__(self, overrun_at: int) -> None:
                super().__init__(fast_ticks=math.inf, slow_ticks=0, delay=0.0)
                self.overrun_at = overrun_at
                self.overrun = threading.Event()

            async def next_batch(self):
                batch = await super().next_batch()
                if self.produced >= self.overrun_at:
                    self.overrun.set()
                return batch

        events = []
        queue_depth = 2
        # One interval's ticks in the evaluator, a full queue, one more.
        source = OverrunSource(EngineConfig().ticks_per_interval + queue_depth + 1)
        service, engine = make_service(
            queue_depth=queue_depth,
            policy="drop",
            max_intervals=3,
            source=source,
            events=events,
        )
        run_interval = engine.run_interval

        def run_interval_after_overrun():
            # The drop is forced by construction, not by how far the
            # producer happens to get while an interval evaluates.
            assert source.overrun.wait(timeout=60)
            return run_interval()

        engine.run_interval = run_interval_after_overrun
        summary = service.run_forever()
        assert summary["intervals"] == 3
        counters = summary["counters"]
        assert counters["bp_ticks_dropped"] > 0
        assert any(e["event"] == "overload" for e in events)


class TestBackpressureController:
    def test_heartbeat_filter_drops_unchanged_reports(self):
        controller = BackpressureController(BackpressureConfig(policy="shed"))
        generator = NetworkBasedGenerator(grid_city(), workload_config())
        updates = generator.tick(1.0)
        # Level 0: everything admitted, history recorded.
        batch = controller.admit(TickBatch(1.0, updates))
        assert len(batch.updates) == len(updates)
        controller.level = 2
        # Same positions re-reported: heartbeat-only, dropped.
        repeat = controller.admit(TickBatch(2.0, updates))
        assert repeat.updates == []
        assert controller.counters()["bp_heartbeats_dropped"] == len(updates)
        # Moved entities pass through again.
        moved = generator.tick(1.0)
        fresh = controller.admit(TickBatch(3.0, moved))
        assert fresh.updates, "moved entities must not be heartbeat-filtered"

    def test_block_policy_never_walks_ladder(self):
        controller = BackpressureController(
            BackpressureConfig(queue_depth=4, policy="block")
        )
        assert controller.observe_depth(4) is None
        assert controller.level == 0
        assert controller.counters()["bp_queue_peak"] == 4

    def test_ladder_hysteresis(self):
        controller = BackpressureController(
            BackpressureConfig(queue_depth=4, policy="shed")
        )
        assert controller.observe_depth(3) == "escalate"
        assert controller.level == 1
        # Mid-band: no transition either way.
        assert controller.observe_depth(2) is None
        assert controller.observe_depth(3) == "escalate"
        assert controller.level == 2
        # Top of the ladder: stays put.
        assert controller.observe_depth(4) is None
        assert controller.observe_depth(1) == "relax"
        assert controller.observe_depth(0) == "relax"
        assert controller.level == 0

    def test_snapshot_roundtrip(self):
        controller = BackpressureController(
            BackpressureConfig(queue_depth=4, policy="shed")
        )
        controller.observe_depth(3)
        controller.note_overload()
        state = controller.snapshot_state()
        restored = BackpressureController(
            BackpressureConfig(queue_depth=4, policy="shed")
        )
        restored.restore_state(state)
        assert restored.level == 1
        assert restored.counters()["bp_overload_events"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="queue_depth"):
            BackpressureConfig(queue_depth=0)
        with pytest.raises(ValueError, match="policy"):
            BackpressureConfig(policy="panic")
        with pytest.raises(ValueError, match="watermarks"):
            BackpressureConfig(high_water=0.2, low_water=0.5)


class TestServeConfig:
    def test_checkpoint_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            ServeConfig(checkpoint_every=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ServeConfig(checkpoint_every=-1)


class TestEofHandling:
    def test_trailing_partial_interval_is_discarded_visibly(self):
        """5 ticks with Δ=2 ticks → 2 intervals + 1 tick dropped at EOF."""
        spec = generator_spec(
            city_rows=11,
            city_cols=11,
            generator_config=workload_config(),
            max_ticks=5,
        )
        events = []
        service, _ = make_service(
            source=build_source(spec), max_intervals=0, events=events
        )
        summary = service.run_forever()
        assert summary["intervals"] == 2
        assert summary["counters"]["ticks_discarded_at_eof"] == 1
        assert summary["cursor"] == 4


class TestBoundedSinkCounter:
    def test_dropped_matches_surface_in_run_stats(self):
        """A bounded CollectingSink's evictions land in RunStats counters
        (and therefore in to_dict()), not just on the sink object."""
        sink = CollectingSink(max_retained=5)
        engine = StreamEngine(
            NetworkBasedGenerator(grid_city(), workload_config()),
            Scuba(),
            sink,
            EngineConfig(),
        )
        engine.run(5)
        assert sink.dropped_matches > 0
        assert engine.stats.counters["sink_dropped_matches"] == sink.dropped_matches
        assert (
            engine.stats.to_dict()["counters"]["sink_dropped_matches"]
            == sink.dropped_matches
        )
