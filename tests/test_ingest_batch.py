"""Batched columnar ingest: equivalence and mechanics.

The load-bearing guarantee of ``ScubaConfig(batched_ingest=True)`` is that
the batched fast path is invisible in the results: every interval's match
multiset — and the full cluster state (memberships, centroids, versions,
member fields) — is identical to the scalar per-update loop, for any
composition of shedding, parked traffic and sharded execution.  The
mechanics tested alongside: the UpdateBatch columns, heartbeat bulk commits, grid-refresh dedupe and the
version early-out, the pre-absorb hook's flush/re-route protocol, the
commit version guard, classification cooldown, lazy heartbeat flags,
mixed-timestamp batches and pickling.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scuba, ScubaConfig
from repro.generator import (
    EntityKind,
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
)
from repro.geometry import Point
from repro.ingest import NumpyIngestKernel, UpdateBatch
from repro.network import grid_city
from repro.parallel import ScubaShardFactory, ShardedEngine
from repro.shedding import policy_for_eta
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)


def obj_update(oid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry_update(qid, x, y, t=0.0, speed=0.0, cn=1, cn_loc=Point(1000, 0)):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, 50.0, 50.0)


def make_generator(city, seed, update_fraction=1.0, stopped_fraction=0.0):
    return NetworkBasedGenerator(
        city,
        GeneratorConfig(
            num_objects=80,
            num_queries=80,
            skew=20,
            seed=seed,
            mixed_groups=True,
            query_range=QUERY_RANGE,
            update_fraction=update_fraction,
            stopped_fraction=stopped_fraction,
        ),
    )


def make_config(batched, eta=0.0):
    return ScubaConfig(
        delta=2.0,
        shedding=policy_for_eta(eta, 100.0),
        batched_ingest=batched,
    )


def serial_run(city, config, seed, intervals=4, operator=None, **gen_kwargs):
    sink = CollectingSink()
    operator = operator if operator is not None else Scuba(config)
    StreamEngine(
        make_generator(city, seed, **gen_kwargs),
        operator,
        sink,
        EngineConfig(delta=2.0),
    ).run(intervals)
    return sink, operator


def interval_multisets(sink):
    return {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
    }


def full_state(op):
    """Everything the batched path could possibly disturb, exact."""
    clusters = {}
    for c in op.world.storage.clusters():
        members = tuple(
            (bit, eid, m.abs_x, m.abs_y, m.tr_x, m.tr_y, m.speed,
             m.last_t, m.cn_node, m.position_shed)
            for bit, table in ((1, c.objects), (0, c.queries))
            for eid, m in sorted(table.items())
        )
        clusters[c.cid] = (
            c.cx, c.cy, c.radius, c.avespeed, c.cn_node,
            c.version, c.shed_count, members,
        )
    return clusters, dict(op.world.home.key_map())


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=9, cols=9)


def parked_operator(ticks=1):
    """A batched operator warmed with one parked 2-object cluster, then
    ``ticks`` heartbeat batches (t = 1, 2, ...)."""
    op = Scuba(make_config(batched=True))
    op.ingest_batch([obj_update(1, 500, 500), obj_update(2, 505, 500)])
    for k in range(1, ticks + 1):
        op.ingest_batch(
            [obj_update(1, 500, 500, t=float(k)),
             obj_update(2, 505, 500, t=float(k))]
        )
    return op


class TestUpdateBatch:
    def test_columns_mirror_updates(self):
        updates = [
            obj_update(3, 10.0, 20.0, t=1.0, speed=5.0, cn=7),
            qry_update(3, 30.0, 40.0, t=1.0, speed=6.0, cn=8),
        ]
        batch = UpdateBatch(updates)
        assert len(batch) == 2
        # Home-table packing: entity_id * 2 + is_object.
        assert batch.keys == [7, 6]
        assert batch.kinds == [True, False]
        assert batch.xs == [10.0, 30.0]
        assert batch.ys == [20.0, 40.0]
        assert batch.speeds == [5.0, 6.0]
        assert batch.cns == [7, 8]
        assert batch.ts == [1.0, 1.0]

    def test_uniform_t(self):
        assert UpdateBatch([]).uniform_t is None
        assert UpdateBatch([obj_update(1, 0, 0, t=2.0)]).uniform_t == 2.0
        mixed = UpdateBatch(
            [obj_update(1, 0, 0, t=1.0), obj_update(2, 0, 0, t=2.0)]
        )
        assert mixed.uniform_t is None

    def test_numpy_columns_cached(self):
        import numpy as np

        batch = UpdateBatch([obj_update(1, 1.0, 2.0, speed=3.0, cn=4)])
        keys, xs, ys, speeds, cns = batch.numpy_columns(np)
        assert keys.tolist() == [3]
        assert xs.tolist() == [1.0]
        assert speeds.tolist() == [3.0]
        assert batch.numpy_columns(np)[0] is keys  # built once


class TestHeartbeatBulkCommit:
    def test_parked_group_commits_batched(self):
        op = parked_operator(ticks=1)
        kernel = op.ingest_kernel
        assert kernel.fast_path_batched == 2
        assert kernel.bulk_absorbs == 0  # pure heartbeats
        assert kernel.grid_refresh_deduped == 1  # group of 2, one refresh
        [cluster] = op.world.storage.clusters()
        for member in cluster.members():
            assert member.last_t == 1.0

    def test_heartbeats_keep_version_stable(self):
        op = parked_operator(ticks=0)
        [cluster] = op.world.storage.clusters()
        version = cluster.version
        op.ingest_batch(
            [obj_update(1, 500, 500, t=1.0), obj_update(2, 505, 500, t=1.0)]
        )
        assert cluster.version == version

    def test_lazy_hb_ok_and_direct_classify(self):
        # Tick 1 classifies directly off live members (no cached view yet)
        # and caches a view from the pure-heartbeat success; the flags stay
        # unbuilt until tick 2's column path actually hits a heartbeat.
        op = parked_operator(ticks=1)
        kernel = op.ingest_kernel
        [cluster] = op.world.storage.clusters()
        view = kernel._views[cluster.cid]
        assert kernel.fast_path_batched == 2  # direct path still batched
        assert view.hb_ok is None
        op.ingest_batch(
            [obj_update(1, 500, 500, t=2.0), obj_update(2, 505, 500, t=2.0)]
        )
        assert kernel._views[cluster.cid] is view  # version never moved
        assert view.hb_ok == [True, True]
        assert kernel.fast_path_batched == 4

    def test_grid_refresh_version_early_out(self):
        op = parked_operator(ticks=2)
        assert op.world.grid.refresh_skips > 0
        assert op.join_counters()["grid_refresh_skips"] > 0


class TestSlowPathInterleaving:
    def test_hook_flush_matches_scalar(self):
        """A new entity absorbed mid-group cancels the plan; flushed and
        re-routed rows must reproduce the scalar mutation order."""
        warm = [obj_update(1, 500, 500), obj_update(2, 505, 500)]
        tick = [
            obj_update(1, 500, 500, t=1.0),
            obj_update(3, 502, 500, t=1.0),  # homeless: joins mid-group
            obj_update(2, 505, 500, t=1.0),
        ]
        batched = Scuba(make_config(batched=True))
        scalar = Scuba(make_config(batched=False))
        for op in (batched, scalar):
            op.ingest_batch(warm)
            op.ingest_batch(tick)
        assert batched.ingest_kernel.batch_fallbacks >= 1
        assert full_state(batched) == full_state(scalar)
        assert batched.world.pre_absorb_hook is None  # uninstalled

    def test_commit_version_guard_falls_back(self):
        op = parked_operator(ticks=0)
        kernel = op.ingest_kernel
        [cluster] = op.world.storage.clusters()
        tick = [obj_update(1, 500, 500, t=1.0), obj_update(2, 505, 500, t=1.0)]
        # A plan whose version snapshot no longer matches: the commit must
        # re-derive every row through the scalar path.
        kernel._active[cluster.cid] = (
            cluster, [0, 1], [], 0, cluster.version - 1
        )
        kernel._commit(op, tick, 1.0, cluster.cid)
        assert kernel.batch_fallbacks == 2
        assert kernel.fast_path_batched == 0
        for member in cluster.members():
            assert member.last_t == 1.0  # scalar path still ingested them


class TestCooldown:
    def test_failed_group_sits_out(self):
        op = parked_operator(ticks=0)
        kernel = op.ingest_kernel
        [cluster] = op.world.storage.clusters()

        def failing_tick(t):
            # In-band speed change: classification rejects the group
            # (order-dependent speed sums), scalar path absorbs it.
            return [
                obj_update(1, 500, 500, t=t, speed=5.0),
                obj_update(2, 505, 500, t=t, speed=5.0),
            ]

        op.ingest_batch(failing_tick(1.0))
        assert kernel._cooldown[cluster.cid] == kernel.cooldown_ticks
        op.ingest_batch(failing_tick(2.0))
        # Cooled-down tick: no classification attempt, counter ticks down.
        assert kernel._cooldown[cluster.cid] == kernel.cooldown_ticks - 1
        assert kernel.fast_path_batched == 0


class TestMixedTimestamps:
    def test_batch_splits_into_uniform_runs(self):
        tick = [
            obj_update(1, 500, 500, t=0.0),
            obj_update(2, 505, 500, t=0.0),
            obj_update(1, 500, 500, t=1.0),
            obj_update(2, 505, 500, t=1.0),
        ]
        batched = Scuba(make_config(batched=True))
        scalar = Scuba(make_config(batched=False))
        batched.ingest_batch(tick)
        for update in tick:
            scalar.on_update(update)
        assert full_state(batched) == full_state(scalar)
        assert batched.clusterer.processed == 4


class TestCounters:
    def test_join_counters_expose_ingest(self, city):
        _, op = serial_run(
            city, make_config(batched=True), seed=3,
            stopped_fraction=1.0, intervals=3,
        )
        counters = op.join_counters()
        assert counters["batched_ingest"] is True
        assert counters["fast_path_batched"] > 0
        assert counters["grid_refresh_deduped"] > 0

    def test_counters_zero_when_disabled(self, city):
        _, op = serial_run(city, make_config(batched=False), seed=3, intervals=2)
        counters = op.join_counters()
        assert counters["batched_ingest"] is False
        assert counters["fast_path_batched"] == 0

    def test_pickling_rebuilds_fresh_kernel(self):
        op = parked_operator(ticks=1)
        assert op.ingest_kernel.fast_path_batched > 0
        clone = pickle.loads(pickle.dumps(op))
        assert isinstance(clone.ingest_kernel, NumpyIngestKernel)
        assert clone.ingest_kernel is not op.ingest_kernel
        assert clone.ingest_kernel.fast_path_batched == 0  # transient state
        assert full_state(clone) == full_state(op)


class TestEquivalence:
    """Batched vs scalar: identical answers AND identical cluster state."""

    @pytest.mark.parametrize("stopped", [0.0, 0.5, 1.0])
    def test_serial_answers_and_state(self, city, stopped):
        seed = 11
        ref_sink, ref_op = serial_run(
            city, make_config(batched=False), seed, stopped_fraction=stopped
        )
        sink, op = serial_run(
            city, make_config(batched=True), seed, stopped_fraction=stopped
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    def test_composes_with_shedding(self, city):
        seed = 5
        ref_sink, ref_op = serial_run(
            city, make_config(batched=False, eta=0.3),
            seed, stopped_fraction=0.5,
        )
        sink, op = serial_run(
            city, make_config(batched=True, eta=0.3),
            seed, stopped_fraction=0.5,
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_batched_matches_serial_scalar(self, city, shards):
        seed = 7
        reference, _ = serial_run(
            city, make_config(batched=False), seed, stopped_fraction=0.5
        )
        sink = CollectingSink()
        factory = ScubaShardFactory(
            make_config(batched=True), max_query_extent=QUERY_RANGE
        )
        with ShardedEngine(
            make_generator(city, seed, stopped_fraction=0.5),
            factory,
            shards=shards,
            sink=sink,
            config=EngineConfig(delta=2.0),
        ) as engine:
            engine.run(4)
            counters = engine.stats.counters
        assert interval_multisets(sink) == interval_multisets(reference)
        assert counters["batched_ingest"] is True

    def test_array_classification_matches_scalar(self, city):
        seed = 13
        ref_sink, ref_op = serial_run(
            city, make_config(batched=False), seed, stopped_fraction=1.0
        )
        op = Scuba(make_config(batched=True))
        # Force the array path at test-sized groups (the production
        # threshold only engages it on large ones).
        op.ingest_kernel.numpy_min_group = 2
        sink, _ = serial_run(
            city, None, seed, operator=op, stopped_fraction=1.0
        )
        assert op.ingest_kernel.fast_path_batched > 0
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        stopped=st.sampled_from([0.0, 0.5, 1.0]),
        eta=st.sampled_from([0.0, 0.3]),
    )
    def test_randomized_sweep(self, seed, stopped, eta):
        city = grid_city(rows=9, cols=9)
        ref_sink, ref_op = serial_run(
            city, make_config(batched=False, eta=eta),
            seed, intervals=3, stopped_fraction=stopped,
        )
        sink, op = serial_run(
            city, make_config(batched=True, eta=eta),
            seed, intervals=3, stopped_fraction=stopped,
        )
        assert interval_multisets(sink) == interval_multisets(ref_sink)
        assert full_state(op) == full_state(ref_op)
