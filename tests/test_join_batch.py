"""The batched join sweep against the brute-force oracle.

``Scuba.join_phase`` is one whole-tick vectorized sweep
(``repro.core.pairsweep`` feeding segmented join-within kernels).  Its
contract: per interval, the ``QueryMatch`` multiset equals
:class:`~repro.core.NaiveJoin`'s for every exact configuration — default,
between filter off, scalar kernels, sharded — and the logical counters
(``between_tests``, ``within_tests``, cache hits and misses) do not
depend on which kernel backend (and therefore which segment-assembly
branch of the driver) evaluated the survivors.

Also covered here: the vectorized join-between against the scalar
``join_between`` reference, the columnar match transport
(:class:`MatchList` / :class:`MatchBlock`) the driver answers with, and
the boundedness of the pair-keyed between cache across cluster churn.
"""

import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.clustering import MovingCluster
from repro.core import NaiveJoin, Scuba, ScubaConfig, join_between
from repro.core.pairsweep import pairs_between
from repro.generator import (
    GeneratorConfig,
    LocationUpdate,
    NetworkBasedGenerator,
    QueryUpdate,
)
from repro.geometry import Point
from repro.network import grid_city
from repro.parallel import ScubaShardFactory, ShardedEngine
from repro.shedding import policy_for_eta
from repro.streams import (
    CollectingSink,
    EngineConfig,
    MatchBlock,
    MatchList,
    QueryMatch,
    StreamEngine,
)

INTERVALS = 3
QUERY_RANGE = (80.0, 80.0)

#: Logical counters that must not depend on the kernel backend.
PARITY_COUNTERS = (
    "between_tests",
    "between_hits",
    "within_tests",
    "between_cache_hits",
    "between_cache_misses",
    "view_cache_hits",
    "view_cache_misses",
)


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=11, cols=11)


def make_generator(city, seed):
    return NetworkBasedGenerator(
        city,
        GeneratorConfig(
            num_objects=150,
            num_queries=150,
            skew=30,
            seed=seed,
            mixed_groups=True,
            query_range=QUERY_RANGE,
        ),
    )


def run_engine(city, seed, intervals=INTERVALS, operator=None, **config_kwargs):
    if operator is None:
        operator = Scuba(ScubaConfig(delta=2.0, **config_kwargs))
    sink = CollectingSink()
    engine = StreamEngine(
        make_generator(city, seed), operator, sink, EngineConfig(delta=2.0)
    )
    engine.run(intervals)
    return sink, operator


def interval_multisets(sink):
    return {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
    }


def naive_multisets(city, seed):
    sink, _ = run_engine(city, seed, operator=NaiveJoin())
    reference = interval_multisets(sink)
    assert sum(sum(c.values()) for c in reference.values()) > 0, (
        "workload produced no matches — the equivalence check is vacuous"
    )
    return reference


def assert_matches_naive(city, seed, **config_kwargs):
    sink, operator = run_engine(city, seed, **config_kwargs)
    assert interval_multisets(sink) == naive_multisets(city, seed)
    return operator


def assert_counter_parity(op_a, op_b):
    for attr in PARITY_COUNTERS:
        assert getattr(op_a, attr) == getattr(op_b, attr), attr


class TestNaiveEquivalence:
    """Multiset identity with the oracle, across the config matrix."""

    @pytest.mark.parametrize("seed", [7, 13, 42])
    def test_default_config(self, city, seed):
        assert_matches_naive(city, seed)

    @pytest.mark.parametrize("use_between_filter", [True, False])
    def test_filter_and_kernel_matrix(self, city, use_between_filter):
        """The numpy kernels take the vectorised segment assembly, the
        scalar reference the generic per-survivor loop: same answers, and
        the same logical counters out of both branches."""
        ops = [
            assert_matches_naive(
                city,
                seed=7,
                kernel_backend=kernel_backend,
                use_between_filter=use_between_filter,
            )
            for kernel_backend in ("numpy", "scalar")
        ]
        assert_counter_parity(*ops)
        assert (ops[0].between_tests > 0) == use_between_filter

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_with_shedding(self, city, eta):
        """Shed members are answered from their nucleus, so the oracle
        bounds the answer instead of equalling it: almost nothing exact
        is missed, and both kernel backends produce the same
        approximation with the same logical counters (shed clusters flush
        the pending segment run at the canonical boundary)."""
        runs = [
            run_engine(
                city,
                seed=7,
                shedding=policy_for_eta(eta, 100.0),
                kernel_backend=kernel_backend,
            )
            for kernel_backend in ("numpy", "scalar")
        ]
        (np_sink, np_op), (sc_sink, sc_op) = runs
        produced = interval_multisets(np_sink)
        assert produced == interval_multisets(sc_sink)
        assert_counter_parity(np_op, sc_op)
        exact = naive_multisets(city, seed=7)
        missed = sum(sum((exact[t] - produced[t]).values()) for t in exact)
        assert missed <= 0.05 * sum(sum(c.values()) for c in exact.values())

    @staticmethod
    def _tie_answers(operator, flank):
        """Feed every searched tie triple and join once.

        Distinct destination nodes make each triple's objects one cluster
        and its query another; with ``flank`` the tie object travels
        between two others 30 units either side.
        """
        cn_loc = Point(9000.0, 9000.0)
        oid = 0
        for qid, (qx, hw, ox) in enumerate(BOUNDARY_TIES):
            xs = [ox - 30.0, ox, ox + 30.0] if flank else [ox]
            for x in xs:
                operator.on_update(
                    LocationUpdate(oid, Point(x, 0.0), 0.0, 5.0, 10 + qid, cn_loc)
                )
                oid += 1
            operator.on_update(
                QueryUpdate(
                    qid, Point(qx, 0.0), 0.0, 5.0, 20 + qid, cn_loc, 2.0 * hw, 50.0
                )
            )
        return Counter(m.pair for m in operator.join_phase(0.0))

    @pytest.mark.parametrize("kernel_backend", ["numpy", "scalar"])
    def test_window_edge_ties_through_the_engine(self, kernel_backend):
        """Objects sitting exactly on a window edge (the searched triples
        below) get the oracle's verdict under either kernel backend."""
        expected = self._tie_answers(NaiveJoin(), flank=True)
        assert len(expected) >= len(BOUNDARY_TIES)
        scuba = Scuba(ScubaConfig(kernel_backend=kernel_backend))
        assert self._tie_answers(scuba, flank=True) == expected

    @pytest.mark.xfail(
        strict=True,
        reason="the kernels' per-query bounding-box pre-filter uses the "
        "interval form (qx - hw <= o_max_x), which rounds differently from "
        "the canonical abs form: an edge-tie object that is its cluster's "
        "whole bounding box is pruned before the exact test (ROADMAP item 4)",
    )
    def test_window_edge_tie_that_is_the_whole_bounding_box(self):
        expected = self._tie_answers(NaiveJoin(), flank=False)
        assert self._tie_answers(Scuba(), flank=False) == expected


class TestShardedEquivalence:
    """Sharding composes with the batched driver (MatchList answers are
    merged, and — under the process executor — pickled across workers)."""

    def _sharded(self, city, executor):
        sink = CollectingSink()
        with ShardedEngine(
            make_generator(city, seed=7),
            ScubaShardFactory(ScubaConfig(delta=2.0), max_query_extent=QUERY_RANGE),
            shards=2,
            sink=sink,
            config=EngineConfig(delta=2.0),
            executor=executor,
        ) as engine:
            engine.run(INTERVALS)
        return sink

    def test_sharded_matches_naive(self, city):
        sharded = self._sharded(city, executor="serial")
        assert interval_multisets(sharded) == naive_multisets(city, seed=7)

    def test_process_executor_round_trips_match_blocks(self, city):
        """Worker answers cross a pickle boundary; blocks must survive it."""
        process = self._sharded(city, executor="process")
        serial = self._sharded(city, executor="serial")
        assert process.by_interval == serial.by_interval


class TestPairsBetween:
    """The sweep's vectorized join-between is the scalar reference,
    verdict for verdict — including circles that exactly touch."""

    def test_matches_join_between(self):
        rng = random.Random(5)
        clusters = []
        for cid in range(60):
            cluster = MovingCluster(
                cid,
                Point(rng.choice([0.0, 30.0, 60.0, 100.0]), rng.uniform(0, 40)),
                1,
                Point(500.0, 500.0),
                0.0,
            )
            cluster.radius = rng.choice([0.0, 10.0, 15.0, 25.0])
            cluster.max_query_half_diag = rng.choice([0.0, 5.0, 20.0])
            clusters.append(cluster)
        pairs = [(a, b) for a in clusters for b in clusters if a.cid < b.cid]
        columns = [
            np.asarray([getattr(c, attr) for c in side], dtype=np.float64)
            for side in zip(*pairs)
            for attr in ("cx", "cy", "radius", "max_query_half_diag")
        ]
        verdicts = pairs_between(*columns).tolist()
        assert verdicts == [join_between(a, b) for a, b in pairs]
        assert True in verdicts and False in verdicts


class TestMatchTransport:
    """MatchList/MatchBlock: the flattened-row illusion must be airtight."""

    def test_block_len_iter_and_row_types(self):
        block = MatchBlock([3, 4], [30, 40], 2.0)
        assert len(block) == 2
        rows = list(block)
        assert rows == [QueryMatch(3, 30, 2.0), QueryMatch(4, 40, 2.0)]
        assert all(type(r.qid) is int and type(r.oid) is int for r in rows)

    def test_block_from_numpy_columns_yields_builtin_ints(self):
        block = MatchBlock(
            np.array([1, 2], dtype=np.int64),
            np.array([10, 20], dtype=np.int64),
            4.0,
        )
        rows = list(block)
        assert rows == [QueryMatch(1, 10, 4.0), QueryMatch(2, 20, 4.0)]
        # tolist() materialisation: ids are never np.int64 downstream.
        assert all(type(r.qid) is int and type(r.oid) is int for r in rows)

    def test_matchlist_interleaves_rows_and_blocks(self):
        out = MatchList()
        out.append(QueryMatch(1, 10, 2.0))
        out.append_block([2, 3], [20, 30], 2.0)
        out.append(QueryMatch(4, 40, 2.0))
        out.append_block([], [], 2.0)  # empty runs are dropped
        assert len(out) == 4
        assert list(out) == [
            QueryMatch(1, 10, 2.0),
            QueryMatch(2, 20, 2.0),
            QueryMatch(3, 30, 2.0),
            QueryMatch(4, 40, 2.0),
        ]
        assert out.materialize() == list(out)

    def test_matchlist_compares_flattened(self):
        out = MatchList()
        out.append_block([1, 2], [10, 20], 3.0)
        assert out == [QueryMatch(1, 10, 3.0), QueryMatch(2, 20, 3.0)]
        assert out != [QueryMatch(1, 10, 3.0)]
        empty = MatchList()
        assert empty == []

    def test_matchlist_pickle_round_trip(self):
        out = MatchList()
        out.append(QueryMatch(1, 10, 2.0))
        out.append_block(
            np.array([2, 3], dtype=np.int64),
            np.array([20, 30], dtype=np.int64),
            2.0,
        )
        clone = pickle.loads(pickle.dumps(out))
        assert isinstance(clone, MatchList)
        assert len(clone) == 3
        assert list(clone) == list(out)
        # __reduce__ materialises columns to plain lists.
        blocks = [r for r in list.__iter__(clone) if type(r) is MatchBlock]
        assert blocks and all(type(b.qids) is list for b in blocks)


#: (qx, hw, ox) triples where the interval form ``qx - hw <= ox <= qx + hw``
#: and the canonical abs form ``abs(ox - qx) <= hw`` disagree — the object
#: sits exactly on a window edge and the two expressions round differently.
#: Found by randomized search; IEEE-754 doubles, so platform-stable.  At
#: 100k population a real workload hits one of these about once per run.
BOUNDARY_TIES = [
    (
        float.fromhex("0x1.2793a3c21454cp+9"),
        float.fromhex("0x1.63db0b04f71bep+3"),
        float.fromhex("0x1.2204379600785p+9"),
    ),
    (
        float.fromhex("0x1.59b34e60dbbabp+8"),
        float.fromhex("0x1.100832945464ap+6"),
        float.fromhex("0x1.15b141bbc6a18p+8"),
    ),
    (
        float.fromhex("0x1.621287000a43dp+6"),
        float.fromhex("0x1.410926bacc1b8p+6"),
        float.fromhex("0x1.084b0229f1427p+3"),
    ),
    (
        float.fromhex("0x1.537c91abe2e23p+5"),
        float.fromhex("0x1.5ba3f7a3d21eep+6"),
        float.fromhex("-0x1.63cb5d9bc15bap+5"),
    ),
]


class _FakeView:
    """The duck-typed column surface the join kernels consume."""

    def __init__(self, **columns):
        self.scratch = {}
        self.__dict__.update(columns)


def _tie_views():
    """A 32x32 member grid seeded with every boundary-tie triple.

    Big enough to clear every kernel's vectorisation threshold (slab at
    256 pairs, ndarray at 1024), so each backend runs its fast path, not
    the scalar fallback.
    """
    obj_xs, obj_ys, obj_ids = [], [], []
    q_xs, q_ys, q_hws, q_hhs, q_ids = [], [], [], [], []
    for qx, hw, ox in BOUNDARY_TIES:
        obj_xs.append(ox)
        q_xs.append(qx)
        q_hws.append(hw)
    while len(obj_xs) < 32:
        obj_xs.append(float(len(obj_xs)) * 37.5 - 400.0)
    while len(q_xs) < 32:
        q_xs.append(float(len(q_xs)) * 29.0 - 350.0)
        q_hws.append(25.0)
    obj_ys = [0.0] * len(obj_xs)
    obj_ids = list(range(100, 100 + len(obj_xs)))
    q_ys = [0.0] * len(q_xs)
    q_hhs = [1e9] * len(q_xs)
    q_ids = list(range(900, 900 + len(q_xs)))
    objects = _FakeView(
        obj_ids=obj_ids,
        obj_xs=obj_xs,
        obj_ys=obj_ys,
        obj_min_x=min(obj_xs),
        obj_max_x=max(obj_xs),
        obj_min_y=0.0,
        obj_max_y=0.0,
    )
    queries = _FakeView(
        query_ids=q_ids,
        query_xs=q_xs,
        query_ys=q_ys,
        query_hws=q_hws,
        query_hhs=q_hhs,
    )
    return objects, queries


class TestBoundaryTies:
    """Every kernel must apply the same float expression the scalar
    oracle uses (``abs(ox - qx) <= hw``), including on exact edge ties —
    the slab prune must never become the inclusion test."""

    def _scalar_reference(self):
        from repro.kernels.scalar import ScalarBackend

        out = []
        objects, queries = _tie_views()
        ScalarBackend().exact_exact(objects, queries, 1.0, out)
        return Counter((m.qid, m.oid) for m in out)

    def test_constants_are_real_ties(self):
        disagreements = sum(
            ((qx - hw) <= ox <= (qx + hw)) != (abs(ox - qx) <= hw)
            for qx, hw, ox in BOUNDARY_TIES
        )
        assert disagreements == len(BOUNDARY_TIES)

    def test_slab_path_matches_scalar_oracle(self):
        from repro.kernels.batched import PythonBatchBackend

        reference = self._scalar_reference()
        out = []
        objects, queries = _tie_views()
        PythonBatchBackend().exact_exact(objects, queries, 1.0, out)
        assert Counter((m.qid, m.oid) for m in out) == reference

    def test_numpy_paths_match_scalar_oracle(self):
        from repro.kernels.numpy_backend import NumpyBackend

        reference = self._scalar_reference()
        backend = NumpyBackend()
        out = []
        objects, queries = _tie_views()
        backend.exact_exact(objects, queries, 1.0, out)
        assert Counter((m.qid, m.oid) for m in out) == reference
        # The macro-segmented kernel (batched driver), emitting into the
        # columnar transport: two segments clear the whole-flush threshold.
        segments = [_tie_views(), _tie_views()]
        block_out = MatchList()
        backend.join_segments(segments, 1.0, block_out)
        assert Counter((m.qid, m.oid) for m in block_out) == (
            reference + reference
        )


class TestCacheBoundedness:
    """The pair-keyed between cache stays within 2x the live pair
    population under cluster churn (cids are monotonic, so dead entries
    only cost memory)."""

    def test_between_cache_bounded_across_churn(self, city):
        _sink, op = run_engine(city, seed=7, intervals=10)
        live_cids = [c.cid for c in op.world.storage.clusters()]
        assert live_cids, "workload collapsed to zero clusters"
        # The workload genuinely churns: allocated cids outrun survivors.
        assert max(live_cids) + 1 > len(live_cids)
        live_pairs = len(live_cids) * len(live_cids)
        state = op._batch_state
        assert 0 < len(state.cache) <= state.watermark
        assert state.watermark <= max(64, 2 * live_pairs)
