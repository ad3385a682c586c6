"""Cross-backend equivalence: the kernel contract, property-tested.

Every backend in :mod:`repro.kernels` must produce the
identical :class:`~repro.streams.QueryMatch` *multiset* (order may
differ) and the identical logical test count for the same inputs.  The
cases deliberately straddle the backends' adaptive fallback thresholds
(``_MIN_SLAB_PAIRS``, ``_MIN_VECTOR_PAIRS``, ``_SORT_THRESHOLD``), so
both the batched fast paths and the small-input scalar fallbacks are
exercised against each other.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import MovingCluster
from repro.core import ClusterJoinView, join_within_pair, join_within_self
from repro.generator import LocationUpdate, QueryUpdate
from repro.geometry import Point
from repro.kernels import PointBatch, PythonBatchBackend, resolve_backend

#: The two selectable backends plus the numpy backend's small-input
#: path, which is not selectable but must obey the same contract.
BACKENDS = (resolve_backend("numpy"), PythonBatchBackend(), resolve_backend("scalar"))

COORD = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
#: Few distinct extents so shed query groups collect several queries.
EXTENT = st.sampled_from([20.0, 80.0, 200.0])

object_specs = st.lists(st.tuples(COORD, COORD), max_size=12)
query_specs = st.lists(st.tuples(COORD, COORD, EXTENT, EXTENT), max_size=12)


def build_cluster(cid, objects, queries, shed_every=0, cn=1):
    anchor = (
        objects[0][:2]
        if objects
        else (queries[0][:2] if queries else (0.0, 0.0))
    )
    cluster = MovingCluster(cid, Point(*anchor), cn, Point(5000, 5000), 0.0)
    for i, (x, y) in enumerate(objects):
        cluster.absorb(
            LocationUpdate(i, Point(x, y), 0.0, 50.0, cn, Point(5000, 5000))
        )
    for i, (x, y, w, h) in enumerate(queries):
        cluster.absorb(
            QueryUpdate(i, Point(x, y), 0.0, 50.0, cn, Point(5000, 5000), w, h)
        )
    if shed_every:
        members = list(cluster.objects.values()) + list(cluster.queries.values())
        for i, member in enumerate(members):
            if i % shed_every == 0:
                member.position_shed = True
    return cluster


def pair_outcome(backend, left, right):
    """(match multiset, test count) of one pair join under one backend.

    Views are rebuilt per backend so each pays for its own scratch
    derivations and none can read another backend's cached arrays.
    """
    out = []
    tests = join_within_pair(
        ClusterJoinView(left), ClusterJoinView(right), 1.0, out, backend=backend
    )
    return Counter(out), tests


def assert_backends_agree(left, right):
    reference = pair_outcome(BACKENDS[0], left, right)
    for backend in BACKENDS[1:]:
        assert pair_outcome(backend, left, right) == reference


class TestPairJoinEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        left_objects=object_specs,
        left_queries=query_specs,
        right_objects=object_specs,
        right_queries=query_specs,
        shed_every=st.sampled_from([0, 2, 3]),
    )
    def test_random_small_clusters(
        self, left_objects, left_queries, right_objects, right_queries, shed_every
    ):
        left = build_cluster(0, left_objects, left_queries, shed_every, cn=1)
        right = build_cluster(1, right_objects, right_queries, shed_every, cn=2)
        assert_backends_agree(left, right)

    def test_dense_clusters_above_fallback_thresholds(self):
        # 40×40 exact pairs = 1600: past both the python slab gate (256)
        # and the numpy vectorisation gate (1024).
        rng = random.Random(7)
        for shed_every in (0, 3):
            objects = [
                (rng.uniform(400, 600), rng.uniform(400, 600)) for _ in range(40)
            ]
            queries = [
                (
                    rng.uniform(400, 600),
                    rng.uniform(400, 600),
                    rng.choice([30.0, 90.0]),
                    rng.choice([30.0, 90.0]),
                )
                for _ in range(40)
            ]
            left = build_cluster(0, objects, queries, shed_every, cn=1)
            right = build_cluster(1, objects, queries, shed_every, cn=2)
            assert_backends_agree(left, right)

    def test_mid_size_between_python_and_numpy_gates(self):
        # 24×24 = 576 pairs: python takes its slab path, numpy falls back.
        rng = random.Random(11)
        objects = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(24)]
        queries = [
            (rng.uniform(0, 300), rng.uniform(0, 300), 60.0, 60.0)
            for _ in range(24)
        ]
        left = build_cluster(0, objects, [], cn=1)
        right = build_cluster(1, [], queries, cn=2)
        assert_backends_agree(left, right)

    def test_disjoint_clusters_emit_nothing_everywhere(self):
        left = build_cluster(0, [(10.0, 10.0)] * 3, [], cn=1)
        right = build_cluster(1, [], [(900.0, 900.0, 20.0, 20.0)] * 3, cn=2)
        for backend in BACKENDS:
            matches, _ = pair_outcome(backend, left, right)
            assert not matches


class TestSelfJoinEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        objects=object_specs,
        queries=query_specs,
        shed_every=st.sampled_from([0, 2]),
    )
    def test_mixed_cluster_self_join(self, objects, queries, shed_every):
        reference = None
        for backend in BACKENDS:
            cluster = build_cluster(0, objects, queries, shed_every)
            out = []
            tests = join_within_self(
                ClusterJoinView(cluster), 1.0, out, backend=backend
            )
            outcome = (Counter(out), tests)
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference


class TestPointsInRectEquivalence:
    def run_queries(self, backend, points, queries):
        ids = list(range(len(points)))
        batch = PointBatch(
            ids, [p[0] for p in points], [p[1] for p in points]
        )
        out = []
        tests = 0
        # Several queries over one batch: the second touch flips the
        # python backend onto its sorted-column path.
        for qid, (qx, qy, hw, hh) in enumerate(queries):
            tests += backend.points_in_rect(batch, qid, qx, qy, hw, hh, 1.0, out)
        return Counter(out), tests

    def test_batch_sizes_straddling_thresholds(self):
        rng = random.Random(3)
        for n in (0, 3, 12, 100):
            points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
            queries = [
                (rng.uniform(0, 100), rng.uniform(0, 100), 15.0, 25.0)
                for _ in range(5)
            ]
            reference = self.run_queries(BACKENDS[0], points, queries)
            for backend in BACKENDS[1:]:
                assert self.run_queries(backend, points, queries) == reference
