"""Unit tests for the SCUBA operator's three-phase execution."""

import pytest

from repro.core import Scuba, ScubaConfig
from repro.generator import EntityKind, LocationUpdate, QueryUpdate
from repro.geometry import Point
from repro.streams import match_set


def obj(oid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry(qid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 0), w=50.0, h=50.0):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, w, h)


class TestConfig:
    def test_defaults_match_paper(self):
        config = ScubaConfig()
        assert config.grid_size == 100
        assert config.theta_d == 100.0
        assert config.theta_s == 10.0
        assert config.delta == 2.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ScubaConfig(grid_size=0)
        with pytest.raises(ValueError):
            ScubaConfig(delta=0)


class TestPreJoinPhase:
    def test_updates_populate_tables(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100, attrs_dummy := None) if False else obj(1, 100, 100))
        op.on_update(qry(1, 200, 200))
        assert 1 in op.objects_table
        assert 1 in op.queries_table

    def test_updates_form_clusters(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100))
        op.on_update(obj(2, 120, 100))
        assert op.cluster_count == 1

    def test_dissimilar_updates_form_separate_clusters(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100))
        op.on_update(obj(2, 5000, 5000))
        assert op.cluster_count == 2


class TestJoiningPhase:
    def test_self_join_of_mixed_cluster(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100, t=1.0))
        op.on_update(qry(1, 110, 100, t=1.0))
        matches = op.evaluate(2.0)
        assert match_set(matches) == {(1, 1)}

    def test_cross_cluster_join(self):
        op = Scuba()
        # Two clusters with different destinations, spatially adjacent.
        op.on_update(obj(1, 100, 100, cn=1))
        op.on_update(qry(1, 120, 100, cn=2, cn_loc=Point(0, 0)))
        assert op.cluster_count == 2
        matches = op.evaluate(2.0)
        assert match_set(matches) == {(1, 1)}

    def test_no_duplicate_matches_across_shared_cells(self):
        op = Scuba(ScubaConfig(grid_size=200))  # small cells: clusters span several
        op.on_update(obj(1, 100, 100, cn=1))
        op.on_update(obj(2, 180, 100, cn=1))
        op.on_update(qry(1, 140, 100, cn=2, cn_loc=Point(0, 0), w=200.0, h=200.0))
        matches = op.evaluate(2.0)
        assert len(matches) == len(match_set(matches))

    def test_between_filter_counts(self):
        op = Scuba()
        # 30 units apart: within the 35.36-unit query-window reach.
        op.on_update(obj(1, 100, 100, cn=1))
        op.on_update(qry(1, 130, 100, cn=2, cn_loc=Point(0, 0)))
        op.evaluate(2.0)
        assert op.between_tests >= 1
        assert op.between_hits >= 1

    def test_between_filter_prunes_near_miss(self):
        op = Scuba()
        # 50 units apart: beyond the query reach, pruned by join-between.
        op.on_update(obj(1, 100, 100, cn=1))
        op.on_update(qry(1, 150, 100, cn=2, cn_loc=Point(0, 0)))
        op.evaluate(2.0)
        assert op.between_tests >= 1
        assert op.between_hits == 0
        assert op.within_tests == 0

    def test_filter_disabled_still_correct(self):
        results = {}
        for use_filter in (True, False):
            op = Scuba(ScubaConfig(use_between_filter=use_filter))
            op.on_update(obj(1, 100, 100, cn=1))
            op.on_update(qry(1, 120, 100, cn=2, cn_loc=Point(0, 0)))
            results[use_filter] = match_set(op.evaluate(2.0))
        assert results[True] == results[False]

    def test_empty_operator_evaluates_to_nothing(self):
        op = Scuba()
        assert op.evaluate(2.0) == []


class TestPostJoinMaintenance:
    def test_cluster_dissolved_at_destination(self):
        op = Scuba()
        # Fast cluster 10 units from its destination: passes it within delta.
        op.on_update(obj(1, 8990, 0, speed=100.0, cn=1, cn_loc=Point(9000, 0)))
        assert op.cluster_count == 1
        op.evaluate(2.0)
        assert op.cluster_count == 0

    def test_cluster_advanced_toward_destination(self):
        op = Scuba()
        op.on_update(obj(1, 100, 0, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 0)))
        cluster = next(iter(op.world.storage))
        op.evaluate(2.0)
        # advance_to(2.0) moved the cluster 2 time units at speed 50.
        assert cluster.cx == pytest.approx(200.0)

    def test_expiry_disabled_by_ablation(self):
        op = Scuba(ScubaConfig(expire_clusters=False))
        op.on_update(obj(1, 8990, 0, speed=100.0, cn=1, cn_loc=Point(9000, 0)))
        op.evaluate(2.0)
        assert op.cluster_count == 1

    def test_dissolved_members_recluster_on_next_update(self):
        op = Scuba()
        op.on_update(obj(1, 8990, 0, t=1.0, speed=100.0, cn=1, cn_loc=Point(9000, 0)))
        op.evaluate(2.0)
        op.on_update(obj(1, 8800, 100, t=3.0, speed=100.0, cn=2, cn_loc=Point(0, 0)))
        assert op.cluster_count == 1

    def test_radius_recomputed_each_interval(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100, t=1.0))
        op.on_update(obj(2, 180, 100, t=1.0))
        # Both members report again, close together: after maintenance the
        # radius must have shrunk to the tight bound (5 units around the
        # member mean), not kept the absorb-time 40-unit footprint.
        op.on_update(obj(1, 100, 100, t=2.0))
        op.on_update(obj(2, 110, 100, t=2.0))
        op.evaluate(2.0)
        cluster = next(iter(op.world.storage))
        assert cluster.radius == pytest.approx(5.0, abs=1e-6)


    def test_stale_after_evicts_silent_entities_and_counts_them(self):
        op = Scuba(ScubaConfig(stale_after=3.0))
        op.on_update(obj(1, 100, 100, t=0.0))
        op.on_update(qry(1, 110, 100, t=0.0))
        op.on_update(obj(2, 120, 100, t=4.0))
        op.evaluate(4.0)
        # Entities last heard at t=0 are older than now - stale_after = 1.
        assert op.evicted_stale == 2
        assert op.join_counters()["evicted_stale"] == 2
        assert len(op.objects_table) == 1 and len(op.queries_table) == 0


class TestOperatorProtocol:
    def test_state_roots_are_the_five_structures(self):
        op = Scuba()
        roots = op.state_roots()
        assert op.objects_table in roots
        assert op.queries_table in roots
        assert op.world.home in roots
        assert op.world.storage in roots
        assert op.world.grid in roots

    def test_reset_clears_state(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100))
        op.reset()
        assert op.cluster_count == 0
        assert len(op.objects_table) == 0

    def test_repr_mentions_counts(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100))
        assert "1 clusters" in repr(op)
