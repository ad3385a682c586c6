"""Unit tests for the incremental (Leader-Follower) clusterer."""

import pytest

from repro.clustering import ClusteringSpec, ClusterWorld, IncrementalClusterer
from repro.generator import EntityKind, LocationUpdate, QueryUpdate
from repro.geometry import Point, Rect

BOUNDS = Rect(0, 0, 10_000, 10_000)


def obj(oid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 9000)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry(qid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 9000)):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, 50.0, 50.0)


@pytest.fixture
def clusterer():
    world = ClusterWorld(BOUNDS, 100)
    return IncrementalClusterer(world, ClusteringSpec(theta_d=100.0, theta_s=10.0))


class TestStepByStep:
    """The five clustering steps of paper §3.2."""

    def test_step2_first_update_forms_own_cluster(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        assert cluster.n == 1
        assert cluster.radius == 0.0
        assert cluster.centroid.is_close(Point(500, 500))
        assert clusterer.world.cluster_count == 1

    def test_step4_nearby_similar_update_joins(self, clusterer):
        first = clusterer.ingest(obj(1, 500, 500))
        second = clusterer.ingest(obj(2, 550, 500))
        assert second.cid == first.cid
        assert second.n == 2

    def test_step3_distance_threshold_respected(self, clusterer):
        clusterer.ingest(obj(1, 500, 500))
        other = clusterer.ingest(obj(2, 700, 500))  # 200 > theta_d
        assert clusterer.world.cluster_count == 2
        assert other.n == 1

    def test_step3_speed_threshold_respected(self, clusterer):
        clusterer.ingest(obj(1, 500, 500, speed=50.0))
        other = clusterer.ingest(obj(2, 510, 500, speed=80.0))  # diff 30 > 10
        assert clusterer.world.cluster_count == 2

    def test_step3_direction_respected(self, clusterer):
        clusterer.ingest(obj(1, 500, 500, cn=1))
        other = clusterer.ingest(obj(2, 510, 500, cn=2, cn_loc=Point(0, 0)))
        assert clusterer.world.cluster_count == 2

    def test_direction_predicate_can_be_disabled(self):
        world = ClusterWorld(BOUNDS, 100)
        spec = ClusteringSpec(require_same_destination=False)
        clusterer = IncrementalClusterer(world, spec)
        clusterer.ingest(obj(1, 500, 500, cn=1))
        merged = clusterer.ingest(obj(2, 510, 500, cn=2, cn_loc=Point(0, 0)))
        assert merged.n == 2

    def test_nearest_qualifying_cluster_wins(self, clusterer):
        a = clusterer.ingest(obj(1, 500, 500))
        b = clusterer.ingest(obj(2, 700, 500))
        joined = clusterer.ingest(obj(3, 660, 500))  # 160 from a, 40 from b
        assert joined.cid == b.cid

    def test_queries_cluster_with_objects(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        joined = clusterer.ingest(qry(1, 520, 500))
        assert joined.cid == cluster.cid
        assert joined.is_mixed

    def test_object_and_query_ids_independent(self, clusterer):
        clusterer.ingest(obj(7, 500, 500))
        clusterer.ingest(qry(7, 520, 500))
        world = clusterer.world
        assert world.home.cluster_of(7, EntityKind.OBJECT) is not None
        assert world.home.cluster_of(7, EntityKind.QUERY) is not None


class TestMembershipDynamics:
    def test_fast_path_for_stable_member(self, clusterer):
        clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(1, 510, 500, t=1.0))
        assert clusterer.fast_path_hits == 1
        assert clusterer.world.cluster_count == 1

    def test_entity_leaves_cluster_on_destination_change(self, clusterer):
        a = clusterer.ingest(obj(1, 500, 500, cn=1))
        b = clusterer.ingest(obj(2, 510, 500, cn=1))
        moved = clusterer.ingest(obj(2, 515, 500, t=1.0, cn=2, cn_loc=Point(0, 0)))
        assert moved.cid != a.cid
        assert a.n == 1

    def test_entity_leaves_cluster_on_divergence(self, clusterer):
        a = clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(2, 510, 500))
        # Entity 2 reappears far away: must leave and form its own cluster.
        moved = clusterer.ingest(obj(2, 900, 900, t=1.0))
        assert moved.cid != a.cid
        assert clusterer.world.cluster_count == 2

    def test_solo_cluster_follows_its_entity(self, clusterer):
        solo = clusterer.ingest(obj(1, 500, 500))
        solo_cid = solo.cid
        moved = clusterer.ingest(obj(1, 3000, 3000, t=1.0))
        # A single-member cluster is never dissolved by movement — it
        # relocates with its entity and keeps a point footprint.
        assert moved.cid == solo_cid
        assert moved.centroid.is_close(Point(3000, 3000))
        assert moved.radius == 0.0

    def test_empty_cluster_dissolved_after_departure(self, clusterer):
        a = clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(2, 510, 500))
        a_cid = a.cid
        # Both members diverge (destination change): the old cluster empties
        # member by member and is dissolved with the second eviction.
        clusterer.ingest(obj(1, 515, 500, t=1.0, cn=2, cn_loc=Point(0, 0)))
        clusterer.ingest(obj(2, 520, 500, t=1.0, cn=2, cn_loc=Point(0, 0)))
        assert a_cid not in clusterer.world.storage

    def test_single_member_keeps_its_cluster_while_direction_holds(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500, speed=50.0))
        # Same entity, big speed change: single-member cluster retains it.
        again = clusterer.ingest(obj(1, 560, 500, t=1.0, speed=90.0))
        assert again.cid == cluster.cid

    def test_home_tracks_membership(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        assert clusterer.world.home.cluster_of(1, EntityKind.OBJECT) == cluster.cid

    def test_processed_counter(self, clusterer):
        clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(2, 5000, 5000))
        assert clusterer.processed == 2


class TestGridConsistency:
    def test_cluster_registered_in_grid(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        cell = clusterer.world.grid.cell_of(500, 500)
        assert cluster.cid in clusterer.world.grid.members(cell)

    def test_growing_cluster_covers_new_cells(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        for i in range(2, 8):
            clusterer.ingest(obj(i, 500 + i * 12, 500))
        grid = clusterer.world.grid
        # One entry, in the cell of the current centroid ...
        assert grid.entries() == {
            cluster.cid: grid.cell_of(cluster.cx, cluster.cy)
        }
        # ... and a probe from any member's position finds the cluster.
        for member in cluster.members():
            loc = cluster.member_location(member)
            assert cluster.cid in grid.probe(loc.x, loc.y, 100.0)

    def test_dissolved_cluster_removed_from_grid(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(2, 510, 500))
        grid = clusterer.world.grid
        cell = grid.entries()[cluster.cid]
        clusterer.ingest(obj(1, 515, 500, t=1.0, cn=2, cn_loc=Point(0, 0)))
        clusterer.ingest(obj(2, 520, 500, t=1.0, cn=2, cn_loc=Point(0, 0)))
        assert cluster.cid not in grid.entries()
        assert cluster.cid not in grid.members(cell)

    def test_relocated_solo_cluster_moves_in_grid(self, clusterer):
        cluster = clusterer.ingest(obj(1, 500, 500))
        clusterer.ingest(obj(1, 5000, 5000, t=1.0))
        cell = clusterer.world.grid.cell_of(5000, 5000)
        assert cluster.cid in clusterer.world.grid.members(cell)
