"""Unit and property tests for the network-based workload generator."""

import math

import pytest

from repro.generator import EntityKind, GeneratorConfig, NetworkBasedGenerator
from repro.network import grid_city


class TestConfigValidation:
    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(num_objects=-1)

    def test_zero_skew_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(skew=0)

    def test_bad_update_fraction_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(update_fraction=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(update_fraction=1.5)

    def test_bad_speed_factor_range_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(speed_factor_range=(0.9, 0.5))

    def test_bad_stopped_fraction_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(stopped_fraction=1.5)


class TestStoppedTraffic:
    def test_stopped_fraction_parks_every_group(self):
        city = grid_city(rows=5, cols=5)
        gen = NetworkBasedGenerator(
            city,
            GeneratorConfig(
                num_objects=20, num_queries=20, skew=5, seed=1,
                stopped_fraction=1.0,
            ),
        )
        before = [e.location(city) for e in gen.entities]
        gen.tick(1.0)
        after = [e.location(city) for e in gen.entities]
        assert all(a == b for a, b in zip(before, after))
        assert all(e.speed == 0.0 for e in gen.entities)

    def test_zero_stopped_fraction_keeps_streams_identical(self):
        city = grid_city(rows=5, cols=5)

        def stream(**kwargs):
            gen = NetworkBasedGenerator(
                city,
                GeneratorConfig(
                    num_objects=20, num_queries=20, skew=5, seed=1, **kwargs
                ),
            )
            return [
                (u.entity_id, u.kind, u.loc.x, u.loc.y, u.t, u.speed)
                for _ in range(3)
                for u in gen.tick(1.0)
            ]

        # The knob draws no randomness when off, so pre-knob streams are
        # reproduced bit for bit.
        assert stream() == stream(stopped_fraction=0.0)


class TestPopulation:
    def test_population_sizes(self, make_generator):
        gen = make_generator(num_objects=30, num_queries=20)
        assert len(gen.objects) == 30
        assert len(gen.queries) == 20

    def test_entity_ids_unique_per_kind(self, make_generator):
        gen = make_generator(num_objects=25, num_queries=25)
        oids = [e.entity_id for e in gen.objects]
        qids = [e.entity_id for e in gen.queries]
        assert sorted(oids) == list(range(25))
        assert sorted(qids) == list(range(25))

    def test_kind_pure_groups_by_default(self, make_generator):
        # With unmixed groups, entities sharing a plan share a kind.
        gen = make_generator(num_objects=20, num_queries=20, skew=10)
        by_plan = {}
        for entity in gen.entities:
            by_plan.setdefault(entity.plan.plan_seed, set()).add(entity.kind)
        assert all(len(kinds) == 1 for kinds in by_plan.values())

    def test_mixed_groups_mix_kinds(self, city):
        config = GeneratorConfig(
            num_objects=50, num_queries=50, skew=20, seed=3, mixed_groups=True
        )
        gen = NetworkBasedGenerator(city, config)
        by_plan = {}
        for entity in gen.entities:
            by_plan.setdefault(entity.plan.plan_seed, set()).add(entity.kind)
        assert any(len(kinds) == 2 for kinds in by_plan.values())

    def test_group_members_share_route_corridor(self, make_generator):
        gen = make_generator(num_objects=20, num_queries=0, skew=20)
        entities = gen.objects
        plans = {e.plan.plan_seed for e in entities}
        assert len(plans) == 1
        # Group speeds sit within a narrow band around the base factor.
        factors = [e.speed_factor for e in entities]
        assert max(factors) - min(factors) <= 2 * 0.04 * max(factors) + 1e-9

    def test_deterministic_for_seed(self, city):
        a = NetworkBasedGenerator(city, GeneratorConfig(seed=5, num_objects=40, num_queries=0))
        b = NetworkBasedGenerator(city, GeneratorConfig(seed=5, num_objects=40, num_queries=0))
        for ea, eb in zip(a.entities, b.entities):
            assert ea.location(city) == eb.location(city)
            assert ea.speed == eb.speed


class TestTicks:
    def test_full_update_fraction_reports_everyone(self, make_generator):
        gen = make_generator(num_objects=15, num_queries=15)
        updates = gen.tick(1.0)
        assert len(updates) == 30

    def test_partial_update_fraction_reports_fewer(self, city):
        config = GeneratorConfig(
            num_objects=200, num_queries=200, update_fraction=0.5, seed=1
        )
        gen = NetworkBasedGenerator(city, config)
        updates = gen.tick(1.0)
        assert 100 < len(updates) < 300  # ~200 expected

    def test_time_advances(self, make_generator):
        gen = make_generator()
        gen.tick(1.0)
        gen.tick(0.5)
        assert gen.time == 1.5

    def test_updates_carry_current_time(self, make_generator):
        gen = make_generator(num_objects=5, num_queries=0)
        gen.tick(1.0)
        updates = gen.tick(1.0)
        assert all(u.t == 2.0 for u in updates)

    def test_all_locations_in_bounds(self, make_generator, city):
        gen = make_generator(num_objects=50, num_queries=50, skew=25)
        for _ in range(30):
            for update in gen.tick(1.0):
                assert city.bounds.contains_point(update.loc)

    def test_speeds_positive_and_bounded(self, make_generator):
        gen = make_generator(num_objects=40, num_queries=0)
        for _ in range(10):
            for update in gen.tick(1.0):
                assert 0 < update.speed <= 100.0  # highway speed limit

    def test_snapshot_covers_everyone(self, make_generator):
        gen = make_generator(num_objects=10, num_queries=10)
        gen.tick(1.0)
        snap = gen.snapshot()
        assert len(snap) == 20

    def test_cn_loc_matches_network_node(self, make_generator, city):
        gen = make_generator(num_objects=10, num_queries=0)
        for update in gen.tick(1.0):
            assert update.cn_loc == city.node_location(update.cn_node)

    def test_query_updates_carry_range(self, make_generator):
        gen = make_generator(num_objects=0, num_queries=10)
        for update in gen.tick(1.0):
            assert update.range_width == 50.0
            assert update.range_height == 50.0


class TestMotionModelContract:
    """The paper's §2 guarantees, checked over a long run."""

    def test_cnloc_changes_only_at_nodes(self, make_generator, city):
        gen = make_generator(num_objects=10, num_queries=0, skew=1)
        previous = {e.entity_id: (e.cn_node, e.position.remaining) for e in gen.objects}
        for _ in range(50):
            gen.tick(1.0)
            for entity in gen.objects:
                old_cn, old_remaining = previous[entity.entity_id]
                if entity.cn_node != old_cn:
                    # A cn change must be explained by having covered the
                    # remaining distance to the old node during the tick.
                    assert entity.speed * 1.0 >= old_remaining - 1e-6 or (
                        entity.distance_travelled > 0
                    )
                previous[entity.entity_id] = (
                    entity.cn_node,
                    entity.position.remaining,
                )

    def test_piecewise_linear_displacement_bounded_by_speed(
        self, make_generator, city
    ):
        gen = make_generator(num_objects=20, num_queries=0, skew=1)
        locations = {e.entity_id: e.location(city) for e in gen.objects}
        for _ in range(20):
            gen.tick(1.0)
            for entity in gen.objects:
                old = locations[entity.entity_id]
                new = entity.location(city)
                # Straight-line displacement can't exceed distance travelled
                # at the fastest road's limit (speed may change mid-tick).
                assert old.distance_to(new) <= 100.0 + 1e-6
                locations[entity.entity_id] = new
