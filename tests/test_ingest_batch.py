"""Whole-tick ingest: the column pass against its ``on_update`` reference.

``Scuba.ingest_batch`` runs a :class:`TickBatch` straight off its columns
(``IncrementalClusterer.ingest_tick``); ``Scuba.on_update`` is the
per-update API and the reference.  The contract is exact equality: after
every tick the pass leaves every cluster / member field, the home table,
the grid registrations, both attribute tables and the ingest counters as a
loop of ``on_update`` over the same rows would — under every shedding
policy, for list and ndarray columns, serial and sharded — and therefore
the same answers.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterMember, MovingCluster
from repro.core import NaiveJoin, Scuba, ScubaConfig
from repro.generator import (
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
    TickBatch,
)
from repro.geometry import Point
from repro.network import grid_city
from repro.parallel import ScubaShardFactory, ShardedEngine
from repro.shedding import FullShedding, NoShedding, PartialShedding, RandomShedding
from repro.streams import CollectingSink, EngineConfig, StreamEngine

QUERY_RANGE = (120.0, 120.0)
CITY = grid_city(rows=9, cols=9)
EAST = Point(1000.0, 500.0)
NORTH = Point(500.0, 1000.0)

#: name -> factory; each operator needs its own instance (RandomShedding
#: carries an RNG whose draws must stay in arrival order).
POLICIES = {
    "none": NoShedding,
    "partial": lambda: PartialShedding(0.3, 100.0),
    "full": lambda: FullShedding(100.0),
    "random": lambda: RandomShedding(0.4, 100.0, seed=5),
}


def obj(oid, x, y, t, speed=5.0, cn=1, cn_loc=EAST, attrs=None):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc, attrs)


def qry(qid, x, y, t, speed=5.0, cn=1, cn_loc=EAST, window=50.0, attrs=None):
    w, h = window if isinstance(window, tuple) else (window, window)
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, w, h, attrs)


def ndarray_columns(batch):
    """The same tick with float columns as the generator emits them."""
    return TickBatch(
        batch.t, batch.ids, batch.kinds,
        np.asarray(batch.xs), np.asarray(batch.ys), np.asarray(batch.speeds),
        batch.cns, np.asarray(batch.cn_xs), np.asarray(batch.cn_ys),
        np.asarray(batch.ws), np.asarray(batch.hs),
        attrs_list=batch.attrs_list,
    )


def slots(obj_, skip=()):
    return {n: getattr(obj_, n) for n in type(obj_).__slots__ if n not in skip}


def full_state(op):
    """Everything ingest can touch, exact, dict orders included."""
    world = op.world
    grid = world.grid
    clusters = {
        c.cid: (
            slots(c, skip=("objects", "queries")),
            [(eid, slots(m)) for eid, m in c.objects.items()],
            [(eid, slots(m)) for eid, m in c.queries.items()],
        )
        for c in world.storage
    }
    return {
        "clusters": clusters,
        "next_cid": world.storage._next_cid,
        "home": list(world.home.key_map().items()),
        "registered": grid.cover_maps()[0],
        "verified": grid.cover_maps()[1],
        "cells": {cell: set(m) for cell, m in grid._cells.items() if m},
        "grid_counts": (grid.refresh_skips, grid.reregistrations),
        "tables": [
            (list(t._attrs.items()), list(t._last_seen.items()))
            for t in (op.objects_table, op.queries_table)
        ],
        "outcomes": outcome_counts(op.clusterer),
    }


def outcome_counts(clusterer):
    return (
        clusterer.heartbeats, clusterer.refreshes, clusterer.reclustered,
        clusterer.new_entities, clusterer.split_joins,
    )


def test_full_state_names_every_field():
    # The equality below is only as strong as the field lists it walks.
    for name in ("version", "_speed_sum", "avespeed", "radius", "trans_x",
                 "trans_y", "exptime", "max_query_half_diag", "shed_count",
                 "grid_cells", "nucleus_radius", "last_moved", "successors"):
        assert name in MovingCluster.__slots__
    for name in ("range_width", "range_height", "half_diag", "position_shed"):
        assert name in ClusterMember.__slots__


def make_ops(policy="none", **config):
    """(reference fed row by row, pass on list columns, pass on ndarrays)."""
    return tuple(
        Scuba(ScubaConfig(delta=2.0, shedding=POLICIES[policy](), **config))
        for _ in range(3)
    )


def feed(ops, t, updates):
    """One tick through the three entry forms; states must agree."""
    reference, listed, arrayed = ops
    batch = updates if isinstance(updates, TickBatch) else (
        TickBatch.from_updates(t, updates)
    )
    for update in batch.materialize():
        reference.on_update(update)
    listed.ingest_batch(batch)
    arrayed.ingest_batch(ndarray_columns(batch))
    expected = full_state(reference)
    assert full_state(listed) == expected
    assert full_state(arrayed) == expected


def evaluate(ops, now):
    answers = [Counter((m.qid, m.oid) for m in op.evaluate(now)) for op in ops]
    assert answers[1] == answers[0] and answers[2] == answers[0]
    expected = full_state(ops[0])
    assert full_state(ops[1]) == expected and full_state(ops[2]) == expected
    return answers[0]


def convoy(t, ids=(1, 2, 3, 4), speed=5.0, **kw):
    """Objects 5 apart heading east at ``speed``, fanning out sideways so
    every re-report is a refresh (a rigid convoy would only heartbeat)."""
    return [obj(i, 500 + 5 * k + speed * t, 500 + 0.5 * (k + 1) * t, t, speed, **kw)
            for k, i in enumerate(ids)]


class TestHostileTicks:
    """Hand-built ticks aimed at the pass's sequential hazards."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_same_entity_twice_in_one_tick(self, policy):
        ops = make_ops(policy)
        feed(ops, 0.0, convoy(0.0))
        feed(ops, 1.0, convoy(1.0) + [obj(2, 530, 501, 1.0), obj(2, 531, 502, 1.0)])
        assert ops[1].clusterer.processed == 10

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_one_id_as_object_and_query(self, policy):
        ops = make_ops(policy)
        for t in (0.0, 1.0, 2.0):
            feed(ops, t, convoy(t) + [qry(1, 502 + 5 * t, 503, t),
                                      qry(3, 508 + 5 * t, 497, t)])
        [cluster] = ops[1].world.storage.clusters()
        assert set(cluster.objects) & set(cluster.queries) == {1, 3}
        assert evaluate(ops, 2.0)

    def test_new_entity_rereports_in_the_tick_it_was_created(self):
        ops = make_ops()
        feed(ops, 0.0, convoy(0.0))
        # 9 is new (absorbed into the convoy mid-tick), then a stay row.
        feed(ops, 1.0, [obj(9, 512, 500, 1.0)] + convoy(1.0)[:2]
             + [obj(9, 513, 500, 1.0)] + convoy(1.0)[2:])
        c = ops[1].clusterer
        assert (c.new_entities, c.refreshes) == (5, 5)
        [cluster] = ops[1].world.storage.clusters()
        assert 9 in cluster.objects

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_singleton_follows_its_entity(self, policy):
        ops = make_ops(policy)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            # Moves, stops (a refresh), then re-reports parked (a heartbeat
            # unless its position was shed).
            x = 200 + 7 * min(t, 2.0)
            speed = 7.0 if t < 3.0 else 0.0
            feed(ops, t, [qry(5, x, 300 + x, t, speed=speed, cn=2, cn_loc=NORTH)])
        [cluster] = ops[1].world.storage.clusters()
        assert (cluster.cx, cluster.cy, cluster.radius) == (214.0, 514.0, 0.0)
        if policy == "none":
            assert ops[1].clusterer.heartbeats == 1

    @pytest.mark.parametrize("split", [False, True])
    def test_node_crossing_in_the_middle_of_a_convoy(self, split):
        ops = make_ops(split_at_destination=split)
        feed(ops, 0.0, convoy(0.0, ids=range(1, 9)))
        rows = convoy(1.0, ids=range(1, 9))
        for k in (2, 5, 6):  # cross the node: next destination is north
            rows[k] = obj(rows[k].oid, rows[k].loc.x, rows[k].loc.y, 1.0,
                          cn=2, cn_loc=NORTH)
        feed(ops, 1.0, rows)
        c = ops[1].clusterer
        assert c.reclustered == 3 and c.refreshes == 5
        assert c.split_joins == (2 if split else 0)
        assert len(ops[1].world.storage) == 2

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_slow_rows_between_two_stay_rows_of_one_cluster(self, policy):
        ops = make_ops(policy)
        feed(ops, 0.0, convoy(0.0) + [qry(1, 560, 540, 0.0, speed=9.0)])
        stay = convoy(1.0)
        feed(ops, 1.0, [
            stay[0],
            obj(30, 570, 520, 1.0, speed=12.0),   # new: pulls centroid + avespeed
            stay[1],
            obj(3, 900, 900, 1.0),                # leaves: centroid re-balanced
            stay[3],
            qry(1, 565, 545, 1.0, speed=9.0),
        ])
        c = ops[1].clusterer
        assert (c.new_entities, c.reclustered, c.refreshes) == (6, 1, 4)
        assert len(ops[1].world.storage) == 2

    def test_attrs_rows_reach_the_tables(self):
        ops = make_ops()
        first = convoy(0.0)
        first[1] = obj(2, 505, 500, 0.0, attrs={"colour": "red"})
        feed(ops, 0.0, first + [qry(7, 503, 500, 0.0, attrs={"who": "taxi"})])
        feed(ops, 1.0, convoy(1.0) + [qry(7, 508, 500, 1.0)])  # attr-less batch
        for op in ops:
            assert op.objects_table.attrs(2) == {"colour": "red"}
            assert op.objects_table.attrs(1) == {}
            assert op.queries_table.attrs(7) == {"who": "taxi"}
            assert op.queries_table.last_seen(7) == 1.0

    def test_window_change_inside_a_convoy(self):
        ops = make_ops()
        # Grows, is overtaken, the widest shrinks, only the height moves.
        for t, (w1, w2) in enumerate(
            [(50.0, 50.0), (300.0, 50.0), (300.0, 400.0), (20.0, 50.0),
             (20.0, (50.0, 90.0))]
        ):
            t = float(t)
            feed(ops, t, convoy(t) + [
                qry(1, 503 + 5 * t, 500, t, window=w1),
                qry(2, 507 + 5 * t, 500, t, window=w2),
            ])
            [cluster] = ops[1].world.storage.clusters()
            assert cluster.max_query_half_diag == max(
                m.half_diag for m in cluster.queries.values()
            )
        assert cluster.queries[2].range_height == 90.0

    def test_eviction_slack_keeps_boundary_members(self):
        ops = make_ops()
        feed(ops, 0.0, convoy(0.0))
        rows = convoy(1.0)
        # Past Θ_S / Θ_D but inside the 1.25 eviction slack: both stay.
        rows[1] = obj(2, rows[1].loc.x, rows[1].loc.y, 1.0, speed=16.5)
        rows[3] = obj(4, rows[3].loc.x + 105, rows[3].loc.y, 1.0)
        feed(ops, 1.0, rows)
        assert ops[1].clusterer.reclustered == 0

    def test_member_destination_follows_its_reports(self):
        # Only without the same-destination predicate can a member stay
        # while bound elsewhere; the pass reads the new node's location
        # off the cn_xs / cn_ys columns.
        ops = make_ops(require_same_destination=False)
        feed(ops, 0.0, convoy(0.0))
        rows = convoy(1.0)
        rows[2] = obj(3, rows[2].loc.x, rows[2].loc.y, 1.0, cn=2, cn_loc=NORTH)
        feed(ops, 1.0, rows)
        [cluster] = ops[1].world.storage.clusters()
        member = cluster.objects[3]
        assert (member.cn_node, member.cn_x, member.cn_y) == (2, 500.0, 1000.0)

    def test_homed_cluster_missing_from_the_grid_is_registered_again(self):
        # No ingest path leaves a homed cluster unregistered; if one ever
        # is, the pass repairs it the way ClusterGrid.refresh does.
        ops = make_ops()
        feed(ops, 0.0, convoy(0.0))
        for op in ops:
            [cluster] = op.world.storage.clusters()
            op.world.grid.unregister(cluster)
        feed(ops, 1.0, convoy(1.0))
        [cluster] = ops[1].world.storage.clusters()
        assert cluster.grid_cells

    def test_row_form_sequences_take_the_reference_loop(self):
        reference, listed, _ = make_ops()
        rows = convoy(0.0) + convoy(1.0)  # mixed timestamps: not a tick
        for update in rows:
            reference.on_update(update)
        listed.ingest_batch(rows)
        assert full_state(listed) == full_state(reference)


class TestHeartbeats:
    def parked(self, t):
        return [obj(1, 500, 500, t, speed=0.0), obj(2, 505, 500, t, speed=0.0)]

    def test_heartbeats_keep_the_version(self):
        ops = make_ops()
        feed(ops, 0.0, self.parked(0.0))
        [cluster] = ops[1].world.storage.clusters()
        version = cluster.version
        feed(ops, 1.0, self.parked(1.0))
        assert cluster.version == version
        assert [m.last_t for m in cluster.members()] == [1.0, 1.0]
        assert ops[1].clusterer.heartbeats == 2

    def test_grid_refresh_version_early_out(self):
        ops = make_ops()
        for t in (0.0, 1.0, 2.0):
            feed(ops, t, self.parked(t))
        assert ops[1].world.grid.refresh_skips == 4
        assert ops[1].join_counters()["grid_refresh_skips"] == 4


def make_generator(seed, **kwargs):
    return NetworkBasedGenerator(
        CITY,
        GeneratorConfig(
            num_objects=80, num_queries=80, skew=20, seed=seed,
            mixed_groups=True, query_range=QUERY_RANGE, **kwargs,
        ),
    )


class TestGeneratedStreams:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        stopped=st.sampled_from([0.0, 0.5, 1.0]),
        update_fraction=st.sampled_from([1.0, 0.6]),
        policy=st.sampled_from(sorted(POLICIES)),
    )
    def test_pass_equals_reference(self, seed, stopped, update_fraction, policy):
        generator = make_generator(
            seed, stopped_fraction=stopped, update_fraction=update_fraction
        )
        ops = make_ops(policy)
        rows = 0
        for tick in range(6):
            batch = generator.tick(1.0)
            assert isinstance(batch, TickBatch)
            rows += len(batch)
            feed(ops, batch.t, batch)
            if tick % 2:
                evaluate(ops, generator.time)
        # Every row lands in exactly one outcome counter.
        counters = ops[1].join_counters()
        assert rows == ops[1].clusterer.processed == sum(
            counters[k] for k in ("ingest_heartbeats", "ingest_refreshes",
                                  "ingest_reclustered", "ingest_new")
        )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_pass_matches_serial_reference(self, shards):
        class ReferenceScuba(Scuba):
            def ingest_batch(self, updates):
                for update in updates:
                    self.on_update(update)

        reference = CollectingSink()
        StreamEngine(
            make_generator(7, stopped_fraction=0.5),
            ReferenceScuba(ScubaConfig(delta=2.0)),
            reference,
            EngineConfig(delta=2.0),
        ).run(4)
        sink = CollectingSink()
        with ShardedEngine(
            make_generator(7, stopped_fraction=0.5),
            ScubaShardFactory(ScubaConfig(delta=2.0), max_query_extent=QUERY_RANGE),
            shards=shards,
            sink=sink,
            config=EngineConfig(delta=2.0),
        ) as engine:
            engine.run(4)
            counters = engine.stats.counters
        assert {
            t: Counter((m.qid, m.oid) for m in ms)
            for t, ms in sink.by_interval.items()
        } == {
            t: Counter((m.qid, m.oid) for m in ms)
            for t, ms in reference.by_interval.items()
        }
        assert sum(map(len, reference.by_interval.values())) > 0
        # Summed across shards; halo replication only ever adds rows.
        assert counters["ingest_heartbeats"] + counters["ingest_refreshes"] > 0
        assert counters["ingest_new"] >= 160


class TestWindowChange:
    """A query re-reporting a different window used to keep its first one."""

    def ticks(self):
        # Both extents grow, both shrink, then only the width grows.
        for t, window in enumerate((20.0, 200.0, 20.0, (200.0, 20.0))):
            t = float(t)
            yield t, [
                obj(1, 50, 0, t, speed=0.0),
                obj(2, 55, 0, t, speed=0.0),
                qry(1, 0, 0, t, speed=0.0, window=window),
            ]

    @pytest.mark.parametrize("as_batch", [False, True], ids=["on_update", "TickBatch"])
    def test_answers_follow_the_latest_window(self, as_batch):
        scuba, naive = Scuba(), NaiveJoin()
        answers = []
        for t, updates in self.ticks():
            naive.ingest_batch(updates)
            scuba.ingest_batch(
                TickBatch.from_updates(t, updates) if as_batch else updates
            )
            expected = sorted((m.qid, m.oid) for m in naive.evaluate(t))
            assert sorted((m.qid, m.oid) for m in scuba.evaluate(t)) == expected
            answers.append(expected)
        assert answers == [[], [(1, 1), (1, 2)], [], [(1, 1), (1, 2)]]
