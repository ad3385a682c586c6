"""Unit and property tests for MovingCluster."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import MovingCluster
from repro.generator import EntityKind, LocationUpdate, QueryUpdate
from repro.geometry import Point


def obj_update(oid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(1000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry_update(qid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(1000, 0), w=50.0, h=50.0):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, w, h)


def make_cluster(cid=0, at=Point(0, 0), cn=1, cn_loc=Point(1000, 0), now=0.0):
    return MovingCluster(cid, at, cn, cn_loc, now)


class TestAbsorbNewMembers:
    def test_first_member_becomes_centroid(self):
        c = make_cluster(at=Point(10, 10))
        c.absorb(obj_update(1, 10, 10))
        assert c.n == 1
        assert c.centroid.is_close(Point(10, 10))
        assert c.radius == 0.0

    def test_two_members_centroid_midway(self):
        c = make_cluster(at=Point(0, 0))
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 10, 0))
        assert c.centroid.is_close(Point(5, 0))

    def test_radius_covers_all_members(self):
        c = make_cluster(at=Point(0, 0))
        for i, x in enumerate([0, 10, 20, 35]):
            c.absorb(obj_update(i, x, 0))
        for member in c.members():
            loc = c.member_location(member)
            assert loc.distance_to(c.centroid) <= c.radius + 1e-9

    def test_avespeed_is_mean(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0, speed=40.0))
        c.absorb(obj_update(2, 1, 0, speed=60.0))
        assert c.avespeed == pytest.approx(50.0)

    def test_mixed_flag(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        assert not c.is_mixed
        c.absorb(qry_update(1, 1, 1))
        assert c.is_mixed
        assert c.object_count == 1 and c.query_count == 1

    def test_query_updates_reach(self):
        c = make_cluster()
        c.absorb(qry_update(1, 0, 0, w=60.0, h=80.0))
        assert c.max_query_half_diag == pytest.approx(50.0)

    def test_expiry_is_eta_at_destination(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0))
        c.absorb(obj_update(1, 0, 0, t=5.0, speed=100.0))
        # 1000 units at 100 per time unit -> arrives at t = 15.
        assert c.exptime == pytest.approx(15.0)
        assert not c.has_expired(14.9)
        assert c.has_expired(15.0)


class TestRefresh:
    def test_member_location_is_bit_exact_after_report(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0.1 + 0.2, 0))  # deliberately awkward float
        member = c.get_member(1, EntityKind.OBJECT)
        assert c.member_location(member).x == 0.1 + 0.2

    def test_refresh_overwrites_position_and_speed(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0, speed=40.0))
        c.absorb(obj_update(1, 7, 3, t=1.0, speed=45.0))
        assert c.n == 1
        member = c.get_member(1, EntityKind.OBJECT)
        assert c.member_location(member) == Point(7, 3)
        assert member.speed == 45.0
        assert c.avespeed == pytest.approx(45.0)

    def test_heartbeat_refresh_keeps_version(self):
        # Same position, speed and destination: a pure heartbeat must not
        # invalidate views or cached verdicts, or parked-but-reporting
        # traffic never hits the caches.
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        version = c.version
        c.absorb(obj_update(1, 0, 0, t=1.0))
        assert c.version == version
        assert c.objects[1].last_t == 1.0
        c.absorb(obj_update(1, 5, 0, t=2.0))
        assert c.version > version

    def test_refresh_outside_radius_grows_radius(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 4, 0))
        c.absorb(obj_update(2, 40, 0, t=1.0))
        member = c.get_member(2, EntityKind.OBJECT)
        dist = c.member_location(member).distance_to(c.centroid)
        assert c.radius >= dist - 1e-9


class TestRemove:
    def test_remove_rebalances_centroid(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 10, 0))
        c.remove(2, EntityKind.OBJECT)
        assert c.n == 1
        assert c.centroid.is_close(Point(0, 0), tol=1e-9)

    def test_remove_last_member_empties(self):
        c = make_cluster()
        c.absorb(obj_update(1, 5, 5))
        c.remove(1, EntityKind.OBJECT)
        assert c.is_empty
        assert c.avespeed == 0.0

    def test_remove_query_recomputes_reach(self):
        c = make_cluster()
        c.absorb(qry_update(1, 0, 0, w=100.0, h=100.0))
        c.absorb(qry_update(2, 1, 0, w=10.0, h=10.0))
        c.remove(1, EntityKind.QUERY)
        assert c.max_query_half_diag == pytest.approx(math.hypot(5, 5))

    def test_remove_missing_raises(self):
        c = make_cluster()
        with pytest.raises(KeyError):
            c.remove(99, EntityKind.OBJECT)


class TestMotion:
    def test_velocity_points_at_destination(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(100, 0))
        c.absorb(obj_update(1, 0, 0, speed=30.0))
        v = c.velocity()
        assert v.x == pytest.approx(30.0)
        assert v.y == pytest.approx(0.0)

    def test_advance_moves_centroid_and_members(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0))
        c.absorb(obj_update(1, 0, 0, speed=50.0))
        c.advance(2.0)
        assert c.centroid.is_close(Point(100, 0))
        member = c.get_member(1, EntityKind.OBJECT)
        assert c.member_location(member).is_close(Point(100, 0))

    def test_advance_never_overshoots_destination(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(50, 0))
        c.absorb(obj_update(1, 0, 0, speed=100.0))
        c.advance(5.0)  # would travel 500 unconstrained
        assert c.centroid.is_close(Point(50, 0))

    def test_advance_to_is_idempotent_per_time(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0), now=0.0)
        c.absorb(obj_update(1, 0, 0, speed=50.0))
        c.advance_to(1.0)
        x_after = c.cx
        c.advance_to(1.0)
        assert c.cx == x_after

    def test_will_pass_destination(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(100, 0))
        c.absorb(obj_update(1, 0, 0, speed=60.0))
        assert not c.will_pass_destination(1.0)
        assert c.will_pass_destination(2.0)

    def test_flush_transform_preserves_locations(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0))
        c.absorb(obj_update(1, 3, 4, speed=50.0))
        c.absorb(obj_update(2, 13, 4, speed=50.0))
        c.advance(1.0)
        before = [c.member_location(m) for m in c.members()]
        c.flush_transform()
        after = [c.member_location(m) for m in c.members()]
        for a, b in zip(before, after):
            assert a.is_close(b, tol=1e-9)
        assert c.trans_x == 0.0 and c.trans_y == 0.0

    def test_recentre_restores_member_mean(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0))
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 10, 20))
        # Perturb the centroid, then recentre.
        c.cx += 55.0
        c.recentre()
        assert c.centroid.is_close(Point(5, 10), tol=1e-9)

    def test_recompute_radius_tightens(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 30, 0))
        c.absorb(obj_update(2, 1, 0, t=1.0))  # member moved close
        c.flush_transform()
        c.recentre()
        c.recompute_radius()
        assert c.radius <= 1.0


class TestPolarView:
    def test_polar_roundtrip_through_member(self):
        c = make_cluster(at=Point(0, 0), cn_loc=Point(1000, 0))
        c.absorb(obj_update(1, 0, 0))
        c.absorb(obj_update(2, 10, 10))
        member = c.get_member(2, EntityKind.OBJECT)
        polar = c.member_polar(member)
        reconstructed = polar.to_point(c.centroid)
        assert reconstructed.is_close(c.member_location(member), tol=1e-9)

    def test_shed_member_has_no_polar(self):
        c = make_cluster()
        c.absorb(obj_update(1, 0, 0))
        member = c.get_member(1, EntityKind.OBJECT)
        member.position_shed = True
        c.shed_count += 1
        assert c.member_polar(member) is None
        assert c.member_location(member) is None


coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


class TestClusterProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=20))
    def test_radius_always_covers_members(self, points):
        c = make_cluster(at=Point(*points[0]))
        for i, (x, y) in enumerate(points):
            c.absorb(obj_update(i, x, y))
        for member in c.members():
            loc = c.member_location(member)
            assert loc.distance_to(c.centroid) <= c.radius + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=20))
    def test_recentre_gives_exact_mean(self, points):
        c = make_cluster(at=Point(*points[0]))
        for i, (x, y) in enumerate(points):
            c.absorb(obj_update(i, x, y))
        c.flush_transform()
        c.recentre()
        mean_x = sum(x for x, _ in points) / len(points)
        mean_y = sum(y for _, y in points) / len(points)
        assert c.centroid.is_close(Point(mean_x, mean_y), tol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords), min_size=2, max_size=15),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_advance_preserves_relative_geometry(self, points, dt):
        c = make_cluster(at=Point(*points[0]), cn_loc=Point(5000, 5000))
        for i, (x, y) in enumerate(points):
            c.absorb(obj_update(i, x, y, speed=50.0))
        members = list(c.members())
        before = [c.member_location(m) for m in members]
        c.advance(dt)
        after = [c.member_location(m) for m in members]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                d_before = before[i].distance_to(before[j])
                d_after = after[i].distance_to(after[j])
                assert d_before == pytest.approx(d_after, abs=1e-6)
