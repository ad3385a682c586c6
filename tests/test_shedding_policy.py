"""Unit tests for load-shedding policies (paper §5)."""

import pytest

from repro.clustering import MovingCluster
from repro.generator import EntityKind, LocationUpdate
from repro.geometry import Point
from repro.shedding import (
    FullShedding,
    NoShedding,
    PartialShedding,
    RandomShedding,
    policy_for_eta,
)


def obj(oid, x, y, t=0.0, speed=50.0):
    return LocationUpdate(oid, Point(x, y), t, speed, 1, Point(9000, 0))


def cluster_with(updates):
    c = MovingCluster(0, updates[0].loc, 1, Point(9000, 0), 0.0)
    for u in updates:
        c.absorb(u)
    return c


def apply_policy(policy, cluster, update):
    import math

    dist = math.hypot(update.loc.x - cluster.cx, update.loc.y - cluster.cy)
    policy.apply(cluster, update.entity_id, update.kind, dist)


class TestNoShedding:
    def test_nothing_shed(self):
        policy = NoShedding()
        c = cluster_with([obj(1, 0, 0), obj(2, 10, 0)])
        for u in (obj(1, 0, 0, t=1.0), obj(2, 10, 0, t=1.0)):
            c.absorb(u)
            apply_policy(policy, c, u)
        assert c.shed_count == 0
        assert c.nucleus_radius == 0.0


class TestPartialShedding:
    def test_eta_validation(self):
        with pytest.raises(ValueError):
            PartialShedding(eta=1.5, theta_d=100.0)
        with pytest.raises(ValueError):
            PartialShedding(eta=0.5, theta_d=-1.0)

    def test_nucleus_radius_is_eta_theta_d(self):
        policy = PartialShedding(eta=0.45, theta_d=100.0)
        assert policy.theta_n == pytest.approx(45.0)

    def test_members_inside_nucleus_shed(self):
        policy = PartialShedding(eta=0.5, theta_d=100.0)
        c = cluster_with([obj(1, 0, 0), obj(2, 100, 0)])  # centroid (50, 0)
        near = obj(1, 45, 0, t=1.0)  # 5 from centroid: inside nucleus (50)
        c.absorb(near)
        apply_policy(policy, c, near)
        far = obj(2, 105, 0, t=1.0)  # ~55 from centroid: outside
        c.absorb(far)
        apply_policy(policy, c, far)
        assert c.get_member(1, EntityKind.OBJECT).position_shed
        assert not c.get_member(2, EntityKind.OBJECT).position_shed
        assert c.shed_count == 1

    def test_reupdate_resheds(self):
        policy = PartialShedding(eta=1.0, theta_d=100.0)
        c = cluster_with([obj(1, 0, 0), obj(2, 10, 0)])
        u = obj(1, 2, 0, t=1.0)
        c.absorb(u)
        apply_policy(policy, c, u)
        assert c.shed_count == 1
        # The member reports again: absorb un-sheds, policy re-sheds.
        u2 = obj(1, 3, 0, t=2.0)
        c.absorb(u2)
        assert c.shed_count == 0
        apply_policy(policy, c, u2)
        assert c.shed_count == 1


class TestFullShedding:
    def test_everything_shed(self):
        policy = FullShedding(theta_d=100.0)
        c = cluster_with([obj(1, 0, 0), obj(2, 90, 0)])
        for u in (obj(1, 0, 0, t=1.0), obj(2, 90, 0, t=1.0)):
            c.absorb(u)
            apply_policy(policy, c, u)
        assert c.shed_count == 2
        assert all(m.position_shed for m in c.members())


class TestRandomShedding:
    def test_drop_fraction_validated(self):
        with pytest.raises(ValueError):
            RandomShedding(drop_fraction=1.2, theta_d=100.0)

    def test_fraction_roughly_respected(self):
        policy = RandomShedding(drop_fraction=0.5, theta_d=100.0, seed=3)
        c = cluster_with([obj(i, i * 0.5, 0) for i in range(200)])
        for i in range(200):
            u = obj(i, i * 0.5, 0, t=1.0)
            c.absorb(u)
            apply_policy(policy, c, u)
        assert 60 <= c.shed_count <= 140

    def test_nucleus_is_theta_d(self):
        policy = RandomShedding(drop_fraction=0.5, theta_d=100.0)
        c = cluster_with([obj(1, 0, 0)])
        assert policy.nucleus_radius_for(c) == 100.0


class TestPolicyForEta:
    def test_zero_is_none(self):
        assert isinstance(policy_for_eta(0.0, 100.0), NoShedding)

    def test_one_is_full(self):
        assert isinstance(policy_for_eta(1.0, 100.0), FullShedding)

    def test_middle_is_partial(self):
        policy = policy_for_eta(0.5, 100.0)
        assert isinstance(policy, PartialShedding)
        assert policy.theta_n == pytest.approx(50.0)
