"""Checkpoint/restore determinism.

The contract under test: a run that snapshots at an interval barrier,
dies, and resumes from the snapshot produces (a) the same answer
multiset and (b) bit-identical final operator state (canonical digest)
as a run that was never interrupted — for the serial and the sharded
engine.  The sources feed column ``TickBatch``es, so every run here goes
through the whole-tick ingest pass.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import Scuba, ScubaConfig
from repro.generator import GeneratorConfig
from repro.parallel import ReshardConfig, ScubaShardFactory, ShardedEngine
from repro.serve import (
    SNAPSHOT_VERSION,
    QueuedTickSource,
    SnapshotError,
    TickBatch,
    build_source,
    engine_state_digest,
    generator_spec,
    load_snapshot,
    save_snapshot,
    state_digest,
)
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)

def workload_spec(seed: int = 11) -> dict:
    return generator_spec(
        city_rows=11,
        city_cols=11,
        generator_config=GeneratorConfig(
            num_objects=120,
            num_queries=120,
            skew=15,
            seed=seed,
            query_range=QUERY_RANGE,
        ),
    )


def drive(engine, source, intervals: int, bridge: QueuedTickSource) -> None:
    """Synchronously pump ``intervals`` Δ intervals from source to engine."""
    import asyncio

    async def pump():
        per = engine.config.ticks_per_interval
        for _ in range(intervals):
            for _ in range(per):
                batch = await source.next_batch()
                assert batch is not None
                bridge.feed(batch)
            engine.run_interval()

    asyncio.run(pump())


def build_serial(bridge):
    return StreamEngine(bridge, Scuba(ScubaConfig()), CollectingSink(), EngineConfig())


def build_sharded(bridge):
    return ShardedEngine(
        bridge,
        ScubaShardFactory(ScubaConfig(), max_query_extent=QUERY_RANGE),
        shards=4,
        sink=CollectingSink(),
        config=EngineConfig(),
    )


def hotspot_spec(seed: int = 7) -> dict:
    """A downtown-skewed workload that provokes a reshard within a few
    intervals under an aggressive controller config."""
    return generator_spec(
        city_rows=9,
        city_cols=9,
        generator_config=GeneratorConfig(
            num_objects=160,
            num_queries=80,
            skew=15,
            seed=seed,
            query_range=QUERY_RANGE,
            hotspot=0.85,
        ),
    )


def build_adaptive(bridge):
    return ShardedEngine(
        bridge,
        ScubaShardFactory(ScubaConfig(), max_query_extent=QUERY_RANGE),
        shards=4,
        sink=CollectingSink(),
        config=EngineConfig(),
        adaptive=True,
        reshard_config=ReshardConfig(
            interval=2, cooldown=2, imbalance_threshold=1.05, min_entities=32
        ),
    )


def answers(engine):
    return sorted(engine.sink.all_matches)


@pytest.mark.parametrize("build", [build_serial, build_sharded],
                         ids=["serial", "sharded"])
def test_resume_matches_uninterrupted(tmp_path, build):
    # Reference: 6 uninterrupted intervals.
    ref_bridge = QueuedTickSource()
    ref_engine = build(ref_bridge)
    drive(ref_engine, build_source(workload_spec()), 6, ref_bridge)
    ref_answers = answers(ref_engine)
    ref_digest = engine_state_digest(ref_engine)
    assert ref_answers, "workload must produce matches for the test to bite"

    # Interrupted run: 3 intervals, snapshot, die.
    bridge_a = QueuedTickSource()
    engine_a = build(bridge_a)
    drive(engine_a, build_source(workload_spec()), 3, bridge_a)
    first_half = answers(engine_a)
    path = save_snapshot(
        tmp_path / "snap.pkl",
        {
            "engine_state": engine_a.snapshot_state(),
            "cursor": bridge_a.ticks_consumed,
            "source_spec": workload_spec(),
        },
    )
    if hasattr(engine_a, "close"):
        engine_a.close()

    # Resume in a fresh engine and finish the run.
    envelope = load_snapshot(path)
    cursor = envelope["cursor"]
    bridge_b = QueuedTickSource(ticks_consumed=cursor)
    engine_b = build(bridge_b)
    engine_b.restore_state(envelope["engine_state"])
    source = build_source(envelope["source_spec"], skip_ticks=cursor)
    drive(engine_b, source, 3, bridge_b)
    second_half = answers(engine_b)

    assert sorted(first_half + second_half) == ref_answers
    assert engine_state_digest(engine_b) == ref_digest
    if hasattr(engine_b, "close"):
        engine_b.close()


def test_adaptive_resume_matches_uninterrupted(tmp_path):
    """Kill-and-resume with adaptive sharding: the snapshot is taken
    *after* at least one reshard, the resumed engine must restore the
    adapted plan (same epoch, not the epoch-0 tiling) and the stitched
    answers plus final digest must match an uninterrupted run."""
    ref_bridge = QueuedTickSource()
    ref_engine = build_adaptive(ref_bridge)
    drive(ref_engine, build_source(hotspot_spec()), 6, ref_bridge)
    ref_answers = answers(ref_engine)
    ref_digest = engine_state_digest(ref_engine)
    ref_epoch = ref_engine.plan_epoch
    assert ref_answers, "workload must produce matches for the test to bite"

    bridge_a = QueuedTickSource()
    engine_a = build_adaptive(bridge_a)
    drive(engine_a, build_source(hotspot_spec()), 3, bridge_a)
    assert engine_a.plan_epoch > 0, (
        "the hotspot workload must trigger a reshard before the snapshot, "
        "or this test is not exercising adapted-plan restore"
    )
    snap_epoch = engine_a.plan_epoch
    first_half = answers(engine_a)
    path = save_snapshot(
        tmp_path / "snap.pkl",
        {
            "engine_state": engine_a.snapshot_state(),
            "cursor": bridge_a.ticks_consumed,
            "source_spec": hotspot_spec(),
        },
    )
    engine_a.close()

    envelope = load_snapshot(path)
    cursor = envelope["cursor"]
    bridge_b = QueuedTickSource(ticks_consumed=cursor)
    engine_b = build_adaptive(bridge_b)
    engine_b.restore_state(envelope["engine_state"])
    # The adapted plan came back, not a fresh epoch-0 tiling.
    assert engine_b.plan_epoch == snap_epoch
    drive(engine_b, build_source(envelope["source_spec"], skip_ticks=cursor),
          3, bridge_b)
    second_half = answers(engine_b)

    assert sorted(first_half + second_half) == ref_answers
    assert engine_state_digest(engine_b) == ref_digest
    # Count-keyed decisions: the resumed run replays the reference's
    # reshard schedule exactly.
    assert engine_b.plan_epoch == ref_epoch
    engine_b.close()


def test_restored_run_stats_continue(tmp_path):
    """Interval accounting carries across the restore, not just answers."""
    bridge = QueuedTickSource()
    engine = build_serial(bridge)
    drive(engine, build_source(workload_spec()), 2, bridge)
    state = engine.snapshot_state()
    cursor = bridge.ticks_consumed

    bridge2 = QueuedTickSource(ticks_consumed=cursor)
    engine2 = build_serial(bridge2)
    engine2.restore_state(state)
    assert engine2.stats.interval_count == 2
    drive(engine2, build_source(workload_spec(), skip_ticks=cursor), 1, bridge2)
    assert engine2.stats.interval_count == 3
    assert engine2.pipeline.context.interval_index == 3


def test_snapshot_envelope_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.pkl"
    path.write_bytes(pickle.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError):
        load_snapshot(path)
    path.write_bytes(b"not a pickle at all")
    with pytest.raises(SnapshotError):
        load_snapshot(path)
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "missing.pkl")


@pytest.mark.parametrize("version", [1, 2, 3, SNAPSHOT_VERSION + 1])
def test_snapshot_envelope_rejects_other_versions(tmp_path, version):
    """Version 1 envelopes could carry columnar clusters, version 2 ones a
    ``ScubaConfig`` with the since-removed batched-ingest switch, version
    3 ones a footprint-registered cluster grid; they are refused like
    future ones, by the version line, before anything is restored."""
    path = save_snapshot(tmp_path / "snap.pkl", {"cursor": 0})
    envelope = pickle.loads(path.read_bytes())
    envelope["version"] = version
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SnapshotError, match=f"snapshot version {version}, this build"):
        load_snapshot(path)


def test_snapshot_naming_a_removed_class_is_refused_cleanly(tmp_path):
    """A version-1 file written with ``--columnar`` cannot even be
    unpickled (its classes are gone): still a SnapshotError, not an
    ImportError traceback."""
    path = tmp_path / "columnar.pkl"
    path.write_bytes(b"crepro.columnar.cluster\nColumnarMovingCluster\n.")
    with pytest.raises(SnapshotError, match="cannot read snapshot"):
        load_snapshot(path)


@pytest.mark.parametrize("version", [1, 2])
def test_resume_from_an_older_version_exits_with_one_line(tmp_path, version):
    from repro.serve.__main__ import main

    path = save_snapshot(tmp_path / "snap.pkl", {"cursor": 0})
    envelope = pickle.loads(path.read_bytes())
    envelope["version"] = version
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SystemExit) as exit_info:
        main(["--resume", str(path)])
    message = str(exit_info.value)
    assert (
        f"snapshot version {version}, this build reads version "
        f"{SNAPSHOT_VERSION}" in message
    )
    assert "\n" not in message


def test_state_digest_tracks_operator_state():
    """Identically driven operators digest equal; divergent ones do not."""
    bridge_a, bridge_b = QueuedTickSource(), QueuedTickSource()
    a = build_serial(bridge_a)
    b = build_serial(bridge_b)
    drive(a, build_source(workload_spec()), 2, bridge_a)
    drive(b, build_source(workload_spec()), 2, bridge_b)
    assert state_digest(a.operator) == state_digest(b.operator)
    drive(b, build_source(workload_spec(), skip_ticks=4), 1, bridge_b)
    assert state_digest(a.operator) != state_digest(b.operator)


def test_generator_fast_forward_is_exact():
    """A fast-forwarded generator continues the exact update stream."""
    from repro.generator.trace import update_to_dict

    def canon(ticks):
        return [[update_to_dict(u) for u in tick] for tick in ticks]

    src_full = build_source(workload_spec())
    full = [src_full.generator.tick(1.0) for _ in range(8)]

    src_resumed = build_source(workload_spec(), skip_ticks=5)
    assert src_resumed.generator.ticks_elapsed == 5
    resumed = [src_resumed.generator.tick(1.0) for _ in range(3)]
    assert canon(full[5:]) == canon(resumed)


def test_trace_source_resumes_mid_stream(tmp_path):
    """Trace sources seek to the cursor and replay the identical suffix."""
    import asyncio

    from repro.generator import TraceRecorder
    from repro.network import grid_city

    trace = tmp_path / "run.jsonl"
    spec = workload_spec()
    src = build_source(spec)
    recorder = TraceRecorder(src.generator, str(trace))
    for _ in range(6):
        recorder.tick(1.0)
    recorder.close()

    async def collect(source, n):
        out = []
        for _ in range(n):
            batch = await source.next_batch()
            out.append(batch)
        return out

    from repro.generator.trace import update_to_dict

    def canon(batches):
        return [(b.t, [update_to_dict(u) for u in b.updates]) for b in batches]

    full = asyncio.run(collect(build_source({"kind": "trace", "path": str(trace)}), 6))
    tail = asyncio.run(
        collect(build_source({"kind": "trace", "path": str(trace)}, skip_ticks=4), 2)
    )
    assert canon(full[4:]) == canon(tail)


def test_queued_source_raises_when_starved():
    bridge = QueuedTickSource()
    with pytest.raises(RuntimeError, match="has not fed"):
        bridge.tick(1.0)
    bridge.feed(TickBatch(1.0, []))
    assert bridge.tick(1.0) == []
    assert bridge.ticks_consumed == 1
    assert bridge.time == 1.0
