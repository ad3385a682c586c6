"""Unit tests for ClusterStorage, ClusterHome, ClusterGrid, ClusterWorld."""

import pytest

from repro.clustering import ClusterWorld, MovingCluster
from repro.clustering.registry import ClusterHome, ClusterStorage
from repro.generator import EntityKind, LocationUpdate
from repro.geometry import Point, Rect

BOUNDS = Rect(0, 0, 10_000, 10_000)


def obj(oid, x, y, t=0.0, speed=50.0):
    return LocationUpdate(oid, Point(x, y), t, speed, 1, Point(9000, 9000))


class TestClusterStorage:
    def test_allocate_monotonic_ids(self):
        storage = ClusterStorage()
        assert storage.allocate_cid() == 0
        assert storage.allocate_cid() == 1

    def test_duplicate_cid_rejected(self):
        storage = ClusterStorage()
        c = MovingCluster(0, Point(0, 0), 1, Point(1, 1), 0.0)
        storage.add(c)
        with pytest.raises(ValueError):
            storage.add(c)

    def test_clusters_sorted_by_cid(self):
        storage = ClusterStorage()
        for cid in (2, 0, 1):
            storage.add(MovingCluster(cid, Point(0, 0), 1, Point(1, 1), 0.0))
        assert [c.cid for c in storage.clusters()] == [0, 1, 2]

    def test_contains_and_len(self):
        storage = ClusterStorage()
        storage.add(MovingCluster(5, Point(0, 0), 1, Point(1, 1), 0.0))
        assert 5 in storage
        assert 6 not in storage
        assert len(storage) == 1


class TestClusterHome:
    def test_assign_and_release(self):
        home = ClusterHome()
        home.assign(1, EntityKind.OBJECT, 10)
        assert home.cluster_of(1, EntityKind.OBJECT) == 10
        home.release(1, EntityKind.OBJECT)
        assert home.cluster_of(1, EntityKind.OBJECT) is None

    def test_kinds_do_not_collide(self):
        home = ClusterHome()
        home.assign(1, EntityKind.OBJECT, 10)
        home.assign(1, EntityKind.QUERY, 20)
        assert home.cluster_of(1, EntityKind.OBJECT) == 10
        assert home.cluster_of(1, EntityKind.QUERY) == 20
        assert len(home) == 2

    def test_release_missing_is_noop(self):
        home = ClusterHome()
        home.release(99, EntityKind.OBJECT)  # must not raise


class TestClusterWorld:
    def test_create_registers_everywhere(self):
        world = ClusterWorld(BOUNDS, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(900, 900), 0.0)
        assert cluster.cid in world.storage
        assert world.grid.entries() == {cluster.cid: world.grid.cell_of(500, 500)}
        assert world.cluster_count == 1

    def test_absorb_assigns_home(self):
        world = ClusterWorld(BOUNDS, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(900, 900), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        assert world.home.cluster_of(1, EntityKind.OBJECT) == cluster.cid

    def test_evict_dissolves_empty_cluster(self):
        world = ClusterWorld(BOUNDS, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(900, 900), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        world.evict(cluster, 1, EntityKind.OBJECT)
        assert cluster.cid not in world.storage
        assert world.home.cluster_of(1, EntityKind.OBJECT) is None

    def test_evict_keeps_nonempty_cluster(self):
        world = ClusterWorld(BOUNDS, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(900, 900), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        world.absorb(cluster, obj(2, 510, 500))
        world.evict(cluster, 1, EntityKind.OBJECT)
        assert cluster.cid in world.storage
        assert cluster.n == 1

    def test_dissolve_clears_all_members(self):
        world = ClusterWorld(BOUNDS, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(900, 900), 0.0)
        for i in range(3):
            world.absorb(cluster, obj(i, 500 + i, 500))
        world.dissolve(cluster)
        assert world.cluster_count == 0
        for i in range(3):
            assert world.home.cluster_of(i, EntityKind.OBJECT) is None


class TestCentroidIndex:
    """One entry per cluster, at its centroid's cell; moved only when the
    cell changes, dropped on dissolve."""

    def test_write_within_the_cell_keeps_the_entry(self):
        world = ClusterWorld(BOUNDS, 100)
        grid = world.grid
        cluster = world.create_cluster(Point(500, 500), 1, Point(9000, 500), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        cell = grid.entries()[cluster.cid]
        moves, skips = grid.reregistrations, grid.refresh_skips
        world.absorb(cluster, obj(2, 520, 500))
        assert grid.entries()[cluster.cid] == cell
        assert grid.reregistrations == moves
        assert grid.refresh_skips == skips + 1

    def test_cell_change_moves_the_entry(self):
        world = ClusterWorld(BOUNDS, 100)
        grid = world.grid
        cluster = world.create_cluster(Point(500, 500), 1, Point(9000, 500), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        old = grid.entries()[cluster.cid]
        moves = grid.reregistrations
        cluster.cx += 500.0
        grid.place(cluster)
        new = grid.cell_of(cluster.cx, cluster.cy)
        assert new != old
        assert grid.entries()[cluster.cid] == new
        assert grid.members(new) == {cluster.cid}
        assert grid.members(old) == set()
        assert grid.reregistrations == moves + 1

    def test_dissolve_drops_the_entry(self):
        world = ClusterWorld(BOUNDS, 100)
        grid = world.grid
        cluster = world.create_cluster(Point(500, 500), 1, Point(9000, 500), 0.0)
        world.absorb(cluster, obj(1, 500, 500))
        cell = grid.entries()[cluster.cid]
        world.evict(cluster, 1, EntityKind.OBJECT)
        assert grid.entries() == {}
        assert grid.members(cell) == set()

    def test_probe_reaches_lazily_advanced_centroids(self):
        # A cluster placed at t=0 and advanced later (no write) is still
        # handed out by a probe around where it has moved to.
        world = ClusterWorld(BOUNDS, 100)
        grid = world.grid
        cluster = world.create_cluster(Point(500, 500), 1, Point(9000, 500), 0.0)
        world.absorb(cluster, obj(1, 500, 500, speed=100.0))
        grid.note_time(5.0)
        cluster.advance_to(5.0)
        assert cluster.cx == 1000.0
        assert grid.entries()[cluster.cid] == grid.cell_of(500, 500)
        assert cluster.cid in grid.probe(1000.0, 500.0, 1.0)

    def test_zero_theta_d_keeps_the_join_grid_resolution(self):
        world = ClusterWorld(BOUNDS, 0.0, 100)
        assert (world.grid.nx, world.grid.ny) == (100, 100)
        cluster = world.create_cluster(Point(500, 500), 1, Point(9000, 500), 0.0)
        assert list(world.grid.probe(500.0, 500.0, 0.0)) == [cluster.cid]
