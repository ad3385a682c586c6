"""The two structures that replaced the footprint-registered ClusterGrid.

* The clusterer's probe reads the **centroid index**
  (``ClusterWorld.grid``): it must pick what a scan over every live
  cluster would pick.
* The join builds its **footprint cells** once per interval
  (``SpatialGrid.cells_for_circles``): its rows must be
  ``cells_for_circle``'s, and its candidate pairs must contain every pair
  that passes join-between.

Each is checked against a brute-force oracle, plus the snapshot range
probe and a hand-built stream in which a probe's lazy advance carries a
cluster away from where it was last written.
"""

import copy
import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterMember, MovingCluster
from repro.core import NaiveJoin, Scuba, ScubaConfig
from repro.core.joins import join_between
from repro.core.pairsweep import BatchJoinState
from repro.generator import (
    EntityKind,
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
)
from repro.geometry import Circle, Point, Rect
from repro.index import SpatialGrid
from repro.network import grid_city
from repro.queries import evaluate_range
from repro.shedding import PartialShedding
from repro.streams import CountingSink, EngineConfig, StreamEngine

CITY = grid_city(rows=5, cols=5)


def make_engine(operator, seed, stopped, updated, entities=60, window=150.0):
    generator = NetworkBasedGenerator(
        CITY,
        GeneratorConfig(
            num_objects=entities // 2,
            num_queries=entities - entities // 2,
            skew=4,
            seed=seed,
            query_range=(window, window),
            stopped_fraction=stopped,
            update_fraction=updated,
        ),
    )
    return StreamEngine(generator, operator, CountingSink(), EngineConfig(delta=2.0))


def brute_force_choice(world, spec, update):
    """Nearest qualifying centroid after ``advance_to``, lowest cid on ties,
    over a deep copy of every live cluster."""
    best = None
    for cluster in copy.deepcopy(world.storage.clusters()):
        if spec.require_same_destination and update.cn_node != cluster.cn_node:
            continue
        cluster.advance_to(update.t)
        dist = math.hypot(update.loc.x - cluster.cx, update.loc.y - cluster.cy)
        if dist > spec.theta_d or abs(update.speed - cluster.avespeed) > spec.theta_s:
            continue
        if best is None or (dist, cluster.cid) < best:
            best = (dist, cluster.cid)
    return None if best is None else best[1]


class TestProbeOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stopped=st.sampled_from([0.0, 0.4]),
        updated=st.sampled_from([1.0, 0.5, 0.1]),
    )
    def test_find_cluster_is_the_brute_force_scan(self, seed, stopped, updated):
        operator = Scuba(ScubaConfig(delta=2.0))
        clusterer = operator.clusterer
        probe = clusterer._find_cluster
        checked = []

        def find_cluster(update):
            expected = brute_force_choice(operator.world, clusterer.spec, update)
            chosen = probe(update)
            assert (None if chosen is None else chosen.cid) == expected
            checked.append(expected)
            return chosen

        clusterer._find_cluster = find_cluster
        make_engine(operator, seed, stopped, updated).run(4)
        assert checked
        # Some probes must have had a choice to make.
        assert any(cid is not None for cid in checked)


# -- footprint build ------------------------------------------------------------

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)
#: Coordinates on and around cell edges of every grid below, and beyond
#: the world border on both sides.
EDGE_COORD = st.one_of(
    st.sampled_from([-40.0, 0.0, 100.0, 125.0, 250.0, 500.0, 1000.0, 1040.0]),
    st.integers(min_value=-20, max_value=52).map(lambda k: 20.0 * k),
    st.floats(min_value=-60.0, max_value=1060.0, allow_nan=False),
)
RADIUS = st.one_of(
    st.sampled_from([0.0, 20.0, 25.0, 50.0, 100.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)
DISCS = st.lists(st.tuples(EDGE_COORD, EDGE_COORD, RADIUS), min_size=1, max_size=25)
GRID_N = st.sampled_from([1, 3, 4, 8, 10, 50])


class TestFootprintBuild:
    @settings(max_examples=200, deadline=None)
    @given(nx=GRID_N, discs=DISCS)
    def test_rows_are_cells_for_circle_per_disc(self, nx, discs):
        grid = SpatialGrid(WORLD, nx)
        cx, cy, r = (np.asarray(col, dtype=np.float64) for col in zip(*discs))
        owners, cells = grid.cells_for_circles(cx, cy, r)
        got = {i: [] for i in range(len(discs))}
        for owner, cell in sorted(zip(owners.tolist(), cells.tolist())):
            got[owner].append(cell)
        for i, (x, y, radius) in enumerate(discs):
            assert got[i] == grid.cells_for_circle(x, y, radius)


def fake_cluster(cid, x, y, radius, reach, kind):
    """A cluster holding only what the join's columns read."""
    cluster = MovingCluster(cid, Point(x, y), 1, Point(0.0, 0.0), 0.0)
    cluster.radius = radius
    member = ClusterMember(cid, kind, x, y, 0.0, 0.0, 0.0, 0.0)
    (cluster.objects if kind is EntityKind.OBJECT else cluster.queries)[cid] = member
    if kind is EntityKind.QUERY:
        cluster.max_query_half_diag = reach
    return cluster


def candidate_pairs(clusters, grid):
    state = BatchJoinState()
    state.soa.sync(clusters)
    (lcids, rcids), _mixed, _hits, _misses = state.sweep(grid, use_filter=False)
    return set(zip(np.asarray(lcids).tolist(), np.asarray(rcids).tolist()))


def assert_candidates_cover_join_between(clusters, grid):
    candidates = candidate_pairs(clusters, grid)
    for i, left in enumerate(clusters):
        for right in clusters[i + 1:]:
            mixed = (left.objects and right.queries) or (
                left.queries and right.objects
            )
            if mixed and join_between(left, right):
                assert (left.cid, right.cid) in candidates


class TestFootprintCandidates:
    @settings(max_examples=200, deadline=None)
    @given(
        nx=GRID_N,
        discs=st.lists(
            st.tuples(EDGE_COORD, EDGE_COORD, RADIUS, RADIUS, st.booleans()),
            min_size=2,
            max_size=20,
        ),
    )
    def test_every_join_between_pair_is_a_candidate(self, nx, discs):
        clusters = [
            fake_cluster(
                cid, x, y, radius, reach,
                EntityKind.OBJECT if is_obj else EntityKind.QUERY,
            )
            for cid, (x, y, radius, reach, is_obj) in enumerate(discs)
        ]
        assert_candidates_cover_join_between(clusters, SpatialGrid(WORLD, nx))

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        updated=st.sampled_from([1.0, 0.3]),
    )
    def test_candidates_cover_join_between_mid_stream(self, seed, updated):
        operator = Scuba(ScubaConfig(delta=2.0))
        generator = make_engine(
            operator, seed, 0.2, updated, entities=300, window=400.0
        ).generator
        for _ in range(4):
            operator.ingest_batch(generator.tick(1.0))
            # Mid-interval state: lazily advanced clusters included.
            assert_candidates_cover_join_between(
                operator.world.storage.clusters(), operator.footprint_grid
            )
            operator.ingest_batch(generator.tick(1.0))
            operator.evaluate(generator.time)


# -- snapshot range probe -----------------------------------------------------


class TestRangeOracle:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        x=st.floats(min_value=0.0, max_value=4000.0),
        y=st.floats(min_value=0.0, max_value=4000.0),
        w=st.floats(min_value=1.0, max_value=1500.0),
        kind=st.sampled_from([EntityKind.OBJECT, EntityKind.QUERY]),
    )
    def test_range_is_the_brute_force_footprint_scan(self, seed, x, y, w, kind):
        operator = Scuba(
            ScubaConfig(delta=2.0, shedding=PartialShedding(0.5, 100.0))
        )
        make_engine(operator, seed, 0.2, 0.5, entities=120).run(3)
        region = Rect.centered(Point(x, y), w, w)
        exact, possible = set(), set()
        for cluster in operator.world.storage.clusters():
            nucleus = Circle(
                cluster.centroid, min(cluster.nucleus_radius, cluster.radius)
            )
            table = cluster.objects if kind is EntityKind.OBJECT else cluster.queries
            for entity_id, member in table.items():
                loc = cluster.member_location(member)
                if loc is None:
                    if cluster.shed_count and region.intersects_circle(nucleus):
                        possible.add(entity_id)
                elif region.contains_xy(loc.x, loc.y):
                    exact.add(entity_id)
        answer = evaluate_range(operator.world, region, kind)
        assert (answer.exact_ids, answer.possible_ids) == (exact, possible)


# -- the hole the maintained registration had ---------------------------------


def test_probe_advanced_cluster_still_meets_its_query():
    """A new entity's probe advances an untouched object cluster 300 units
    — six times the old registration's half-cell slack — and nothing
    re-registers it before the join.  A query placed beyond the old
    registration overlaps its advanced footprint: the pair must reach
    join-between, and the answers must stay the oracle's."""
    east = Point(9000.0, 1000.0)
    north = Point(1300.0, 9000.0)
    stream_t0 = [LocationUpdate(1, Point(1000.0, 1000.0), 0.0, 100.0, 1, east)]
    stream_t3 = [
        # Probes around (1100, 1000): advances cluster of object 1 to
        # (1300, 1000), 200 units away, so the entity stays on its own.
        LocationUpdate(2, Point(1100.0, 1000.0), 3.0, 100.0, 1, east),
        # Object 3 sits inside the query window below: one true match.
        LocationUpdate(3, Point(1290.0, 1050.0), 3.0, 40.0, 3, north),
        # Window 60x60 around (1300, 1035): its reach (42.4) overlaps the
        # advanced footprint of object 1 (35 away), but object 1 itself
        # is outside the window (35 > 30) — before and after advancing.
        QueryUpdate(1, Point(1300.0, 1035.0), 3.0, 40.0, 2, north, 60.0, 60.0),
    ]
    scuba = Scuba(ScubaConfig(delta=4.0))
    naive = NaiveJoin()
    for operator in (scuba, naive):
        for update in stream_t0 + stream_t3:
            operator.on_update(update)
    home = scuba.world.home
    cid_o = home.cluster_of(1, EntityKind.OBJECT)
    cid_q = home.cluster_of(1, EntityKind.QUERY)
    cluster_o = scuba.world.storage.get(cid_o)
    assert (cluster_o.cx, cluster_o.cy) == (1300.0, 1000.0)
    assert join_between(cluster_o, scuba.world.storage.get(cid_q))

    got = Counter(m.pair for m in scuba.join_phase(3.0))
    # Every pair the join enumerated went through the between cache.
    key = (min(cid_o, cid_q) << 32) | max(cid_o, cid_q)
    assert key in scuba._batch_state.cache.keys.tolist()
    assert got == Counter(m.pair for m in naive.join_phase(3.0))
    assert got == Counter({(1, 3): 1})
