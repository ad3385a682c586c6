"""Cross-evaluation caching, counters, reset and pickling of operators."""

import pickle

from repro.core import RegularConfig, RegularGridJoin, Scuba, ScubaConfig
from repro.generator import LocationUpdate, QueryUpdate
from repro.geometry import Point
from repro.streams import match_set, merge_counters


def obj(oid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 0)):
    return LocationUpdate(oid, Point(x, y), t, speed, cn, cn_loc)


def qry(qid, x, y, t=0.0, speed=50.0, cn=1, cn_loc=Point(9000, 0), w=50.0, h=50.0):
    return QueryUpdate(qid, Point(x, y), t, speed, cn, cn_loc, w, h)


def crowded_scene(op, speed=50.0):
    """Three adjacent clusters (distinct destinations) that all pairwise join."""
    op.on_update(obj(1, 100, 100, speed=speed, cn=1))
    op.on_update(obj(2, 130, 100, speed=speed, cn=2, cn_loc=Point(0, 9000)))
    op.on_update(qry(1, 115, 100, speed=speed, cn=3, cn_loc=Point(0, 0)))
    return op


class TestViewCache:
    def test_view_reused_across_pairs_in_one_cycle(self):
        # The query cluster joins with both object clusters in the same
        # sweep: its second use must come from the cache.
        op = crowded_scene(Scuba())
        op.evaluate(2.0)
        assert op.view_cache_hits > 0

    def test_counters_exposed(self):
        op = crowded_scene(Scuba())
        op.evaluate(2.0)
        counters = op.join_counters()
        assert counters["kernel_backend"] == op.kernels.name
        for key in (
            "view_cache_hits",
            "view_cache_misses",
            "between_cache_hits",
            "between_cache_misses",
        ):
            assert counters[key] >= 0
        assert counters["view_cache_misses"] > 0

    def test_between_memo_skips_unchanged_pairs_not_the_count(self):
        # Parked, so the pairs still overlap at the second evaluation.
        op = crowded_scene(Scuba(ScubaConfig(expire_clusters=False)), speed=0.0)
        op.evaluate(2.0)
        tests_first = op.between_tests
        misses_first = op.between_cache_misses
        op.evaluate(4.0)
        # The logical filter count (the paper's metric) keeps growing...
        assert op.between_tests > tests_first
        # ...while unchanged pairs hit the memo instead of recomputing.
        if op.between_cache_misses == misses_first:
            assert op.between_cache_hits > 0

    def test_update_invalidates_view(self):
        op = Scuba()
        op.on_update(obj(1, 100, 100))
        op.on_update(qry(1, 110, 100, cn=2, cn_loc=Point(0, 0)))
        assert match_set(op.evaluate(2.0)) == {(1, 1)}
        # Move the object out of the window; the refreshed view must see it.
        op.on_update(obj(1, 500, 500, t=2.0))
        assert match_set(op.evaluate(4.0)) == set()


class TestCounterMerging:
    def test_numeric_sum_and_string_union(self):
        merged = merge_counters(
            [
                {"view_cache_hits": 2, "kernel_backend": "numpy"},
                {"view_cache_hits": 3, "kernel_backend": "numpy"},
            ]
        )
        assert merged == {"view_cache_hits": 5, "kernel_backend": "numpy"}

    def test_disagreeing_backends_both_reported(self):
        merged = merge_counters(
            [{"kernel_backend": "scalar"}, {"kernel_backend": "numpy"}]
        )
        assert set(merged["kernel_backend"].split("+")) == {"numpy", "scalar"}


class TestReset:
    def test_scuba_reset_clears_state_keeps_config(self):
        config = ScubaConfig(grid_size=200, kernel_backend="scalar")
        op = crowded_scene(Scuba(config))
        op.evaluate(2.0)
        op.reset()
        assert op.cluster_count == 0
        assert len(op.objects_table) == 0
        assert op.view_cache_hits == 0
        assert op.config is config
        assert op.kernels.name == "scalar"
        # Still usable after reset.
        op.on_update(obj(5, 100, 100))
        op.on_update(qry(5, 110, 100))
        assert match_set(op.evaluate(2.0)) == {(5, 5)}

    def test_regular_reset(self):
        op = RegularGridJoin(RegularConfig(kernel_backend="scalar"))
        op.on_update(obj(1, 100, 100))
        op.on_update(qry(1, 110, 100))
        op.evaluate(2.0)
        op.reset()
        assert len(op.objects) == 0
        assert op.kernels.name == "scalar"
        op.on_update(obj(2, 100, 100))
        op.on_update(qry(2, 110, 100))
        assert match_set(op.evaluate(2.0)) == {(2, 2)}


class TestPickling:
    def test_scuba_roundtrip_same_answers(self):
        op = crowded_scene(Scuba())
        clone = pickle.loads(pickle.dumps(op))
        assert clone.kernels.name == op.kernels.name
        assert match_set(clone.evaluate(2.0)) == match_set(op.evaluate(2.0))

    def test_scuba_pickle_drops_caches(self):
        op = crowded_scene(Scuba())
        op.evaluate(2.0)
        clone = pickle.loads(pickle.dumps(op))
        assert len(op._view_cache) > 0 and len(op._batch_state.cache) > 0
        assert clone._view_cache == {}
        assert len(clone._batch_state.cache) == 0

    def test_regular_roundtrip_same_answers(self):
        op = RegularGridJoin()
        op.on_update(obj(1, 100, 100))
        op.on_update(qry(1, 110, 100))
        clone = pickle.loads(pickle.dumps(op))
        assert clone.kernels.name == op.kernels.name
        assert match_set(clone.evaluate(2.0)) == match_set(op.evaluate(2.0))
