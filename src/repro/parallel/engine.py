"""The sharded execution engine.

:class:`ShardedEngine` mirrors :class:`~repro.streams.engine.StreamEngine`'s
API (``run_interval`` / ``run`` / ``stats`` / a sink) but evaluates the
workload over K spatial shards, each running its own operator instance
over the shard's halo-expanded bounds:

1. every tick, the generator's updates are routed by the
   :class:`~repro.parallel.partition.SpatialPartitioner` — each update is
   delivered to every shard whose halo contains it, and shards the entity
   left receive a :class:`~repro.parallel.partition.Retract`;
2. the executor ingests each shard's operation list (concurrently with
   routing, for the process executor);
3. every Δ, the executor evaluates all shards and the
   :class:`~repro.parallel.merge.ResultMerger` owner-filters the per-shard
   answers into one deduplicated result list for the sink.

With the **serial** executor the result stream is bit-identical to the
process executor's, and — for exact operators without load shedding — to
the single-process ``StreamEngine``'s answer set, which is how the whole
subsystem is pinned by tests.

Both engines share one interval loop: :class:`ShardedEngine` is a thin
driver over :class:`~repro.pipeline.EvaluationPipeline` with a
:class:`ShardedStagePlan` supplying the stage bodies — routing/dispatch in
``ingest``, the scatter/gather in ``join``, the owner-filtered merge in
``post_join_maintenance``.  (Per-shard load shedding runs *inside* the
workers' evaluation, so the driver's ``shed`` stage is an empty, hookable
boundary.)

Engine-level interval phases are redefined for sharded execution (the
per-shard truth is kept in :attr:`ShardedIntervalStats.shard_stats`):
``ingest_seconds`` is routing + dispatch in the driver, ``join_seconds``
is the wall-clock of the parallel evaluate scatter/gather (the critical
path), and ``maintenance_seconds`` is the result merge.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import sqrt
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core import (
    IncrementalGridConfig,
    IncrementalGridJoin,
    NaiveJoin,
    RegularConfig,
    RegularGridJoin,
    Scuba,
    ScubaConfig,
)
from ..generator import EntityKind, NetworkBasedGenerator, TickBatch
from ..geometry import Rect
from ..network import DEFAULT_BOUNDS
from ..pipeline.context import EvaluationContext
from ..pipeline.hooks import PipelineHook
from ..pipeline.pipeline import EvaluationPipeline
from ..pipeline.plan import StagePlan
from ..streams import (
    EngineConfig,
    IntervalStats,
    ResultSink,
    RunStats,
    Timer,
    merge_counters,
)
from .executor import BatchShardOps, ShardExecutor, make_executor
from .merge import ResultMerger
from .partition import (
    AdaptiveShardPlan,
    Retract,
    ShardPlan,
    SpatialPartitioner,
    derive_halo_margin,
)
from .reshard import ReshardConfig, ReshardController

__all__ = [
    "IncrementalGridShardFactory",
    "NaiveShardFactory",
    "RegularShardFactory",
    "ScubaShardFactory",
    "ShardedEngine",
    "ShardedIntervalStats",
    "ShardedRunStats",
    "ShardedStagePlan",
]


# -- operator factories ------------------------------------------------------
#
# Top-level classes (not closures) so the process executor can pickle them
# into worker processes.  Each deep-copies its config per shard: shards must
# never share mutable state (e.g. a stateful shedding policy's RNG), or the
# serial and process executors would diverge.


def _scaled_grid_size(
    world: Rect, grid_size: int, bounds: Rect, scale_grid: bool
) -> int:
    """Shard grid resolution scaled with √(shard area / world area).

    Keeps cell size (relative to Θ_D / the query extent) matched to the
    single-process configuration; never scales *up* past the configured
    resolution.
    """
    if not scale_grid:
        return grid_size
    scale = sqrt(bounds.area / world.area) if world.area > 0 else 1.0
    return max(1, round(grid_size * min(scale, 1.0)))


@dataclass
class ScubaShardFactory:
    """Builds one SCUBA operator per shard.

    ``max_query_extent`` must be at least the largest range window the
    workload produces — it feeds the halo-margin derivation.  The shard's
    ClusterGrid resolution is scaled down with the shard's area so cell
    size (relative to ``Θ_D``) matches the single-process configuration.
    """

    config: ScubaConfig = field(default_factory=ScubaConfig)
    max_query_extent: Tuple[float, float] = (50.0, 50.0)
    scale_grid: bool = True

    @property
    def halo_margin(self) -> float:
        return derive_halo_margin(self.config.theta_d, self.max_query_extent)

    def __call__(self, bounds: Rect) -> Scuba:
        config = copy.deepcopy(self.config)
        config.bounds = bounds
        config.grid_size = _scaled_grid_size(
            self.config.bounds, self.config.grid_size, bounds, self.scale_grid
        )
        return Scuba(config)


@dataclass
class RegularShardFactory:
    """Builds one regular-grid operator per shard."""

    config: RegularConfig = field(default_factory=RegularConfig)
    max_query_extent: Tuple[float, float] = (50.0, 50.0)
    scale_grid: bool = True

    @property
    def halo_margin(self) -> float:
        # No clusters to replicate context for: the query half-diagonal
        # alone makes the merged grid join exact.
        return derive_halo_margin(0.0, self.max_query_extent)

    def __call__(self, bounds: Rect) -> RegularGridJoin:
        config = copy.deepcopy(self.config)
        config.bounds = bounds
        config.grid_size = _scaled_grid_size(
            self.config.bounds, self.config.grid_size, bounds, self.scale_grid
        )
        return RegularGridJoin(config)


@dataclass
class IncrementalGridShardFactory:
    """Builds one incremental (answer-maintaining) grid operator per shard.

    Like the regular baseline, exactness after the owner-filtered merge
    needs only the query half-diagonal as halo; the per-query answer sets
    stay consistent under halo hand-offs because
    :meth:`~repro.core.IncrementalGridJoin.retract` removes an entity's
    answer contributions along with its index entries.
    """

    config: IncrementalGridConfig = field(default_factory=IncrementalGridConfig)
    max_query_extent: Tuple[float, float] = (50.0, 50.0)
    scale_grid: bool = True

    @property
    def halo_margin(self) -> float:
        return derive_halo_margin(0.0, self.max_query_extent)

    def __call__(self, bounds: Rect) -> IncrementalGridJoin:
        config = copy.deepcopy(self.config)
        config.bounds = bounds
        config.grid_size = _scaled_grid_size(
            self.config.bounds, self.config.grid_size, bounds, self.scale_grid
        )
        return IncrementalGridJoin(config)


@dataclass
class NaiveShardFactory:
    """Builds one naive nested-loop operator per shard (tests/oracles)."""

    max_query_extent: Tuple[float, float] = (50.0, 50.0)

    @property
    def halo_margin(self) -> float:
        return derive_halo_margin(0.0, self.max_query_extent)

    def __call__(self, bounds: Rect) -> NaiveJoin:
        return NaiveJoin()


# -- stats -------------------------------------------------------------------


@dataclass
class ShardedIntervalStats(IntervalStats):
    """One Δ interval of sharded execution, with per-shard detail."""

    #: Shard-local stats (ingest/join/maintenance as measured in the shard).
    shard_stats: Tuple[IntervalStats, ...] = ()
    #: Seconds the driver spent routing updates to shards.
    route_seconds: float = 0.0
    #: Seconds the driver spent merging/deduplicating shard answers.
    merge_seconds: float = 0.0
    #: Matches dropped by the merger as halo duplicates.
    duplicates_dropped: int = 0
    #: Tuples delivered to shards (>= tuple_count; excess = halo copies).
    deliveries: int = 0
    #: Retract hand-offs issued this interval.
    retractions: int = 0
    #: Shard-plan version the interval was dispatched under (adaptive
    #: sharding increments it per executed reshard; 0 = initial plan).
    plan_epoch: int = 0

    @property
    def max_shard_join_seconds(self) -> float:
        return max((s.join_seconds for s in self.shard_stats), default=0.0)

    @property
    def mean_shard_join_seconds(self) -> float:
        if not self.shard_stats:
            return 0.0
        return sum(s.join_seconds for s in self.shard_stats) / len(self.shard_stats)

    def extra_fields(self) -> Dict[str, Any]:
        return {
            "route_seconds": self.route_seconds,
            "merge_seconds": self.merge_seconds,
            "duplicates_dropped": self.duplicates_dropped,
            "deliveries": self.deliveries,
            "retractions": self.retractions,
            "plan_epoch": self.plan_epoch,
            "shard_join_seconds": [s.join_seconds for s in self.shard_stats],
            "shard_result_counts": [s.result_count for s in self.shard_stats],
        }


@dataclass
class ShardedRunStats(RunStats):
    """Aggregate sharded-run statistics with load-imbalance metrics."""

    num_shards: int = 1

    # -- per-shard aggregation ----------------------------------------------

    def shard_join_seconds(self) -> List[float]:
        """Total join seconds per shard across the run."""
        totals = [0.0] * self.num_shards
        for interval in self.intervals:
            for shard, s in enumerate(getattr(interval, "shard_stats", ())):
                totals[shard] += s.join_seconds
        return totals

    @property
    def max_shard_join_seconds(self) -> float:
        return max(self.shard_join_seconds(), default=0.0)

    @property
    def mean_shard_join_seconds(self) -> float:
        totals = self.shard_join_seconds()
        return sum(totals) / len(totals) if totals else 0.0

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-shard total join time (1.0 = perfectly balanced).

        The paper-shaped cost model makes this the quantity that caps
        parallel speedup: the interval's join finishes when the slowest
        shard does.
        """
        mean = self.mean_shard_join_seconds
        if mean <= 0.0:
            return 1.0
        return self.max_shard_join_seconds / mean

    @property
    def total_deliveries(self) -> int:
        return sum(getattr(s, "deliveries", s.tuple_count) for s in self.intervals)

    @property
    def replication_factor(self) -> float:
        """Mean shard copies per generated tuple (halo overhead)."""
        tuples = self.total_tuple_count
        if tuples == 0:
            return 1.0
        return self.total_deliveries / tuples

    @property
    def total_duplicates_dropped(self) -> int:
        return int(self.interval_total("duplicates_dropped", default=0))

    @property
    def total_route_seconds(self) -> float:
        return self.interval_total("route_seconds")

    @property
    def total_merge_seconds(self) -> float:
        return self.interval_total("merge_seconds")

    def extra_sections(self) -> Dict[str, Any]:
        return {
            "parallel": {
                "num_shards": self.num_shards,
                "shard_join_seconds": self.shard_join_seconds(),
                "max_shard_join_seconds": self.max_shard_join_seconds,
                "mean_shard_join_seconds": self.mean_shard_join_seconds,
                "load_imbalance": self.load_imbalance,
                "replication_factor": self.replication_factor,
                "duplicates_dropped": self.total_duplicates_dropped,
                "route_seconds": self.total_route_seconds,
                "merge_seconds": self.total_merge_seconds,
            }
        }

    def summary(self) -> str:
        return (
            super().summary()
            + f" | {self.num_shards} shards | "
            f"imbalance {self.load_imbalance:.2f} | "
            f"replication {self.replication_factor:.2f}"
        )


# -- the stage plan ----------------------------------------------------------


class ShardedStagePlan(StagePlan):
    """Routing + scatter/gather over K shards as pipeline stage bodies.

    Owns the plan-private per-interval accounting that the generic
    pipeline has no business knowing about: the routing-only sub-timer
    (routing and dispatch share the ``ingest`` stage), the
    delivery/retraction baselines, and the gathered per-shard results
    between the ``join`` and ``post_join_maintenance`` (merge) stages.
    """

    def __init__(
        self,
        partitioner: SpatialPartitioner,
        executor: ShardExecutor,
        merger: ResultMerger,
    ) -> None:
        self.partitioner = partitioner
        self.executor = executor
        self.merger = merger
        self._route_timer = Timer()
        self._deliveries_before = 0
        self._retractions_before = 0
        self._shard_results: Sequence[Any] = ()
        self._outcome = None
        #: Plan epoch captured at dispatch (adaptive sharding; asserted at
        #: merge time — the plan must not transition mid-interval).
        self._dispatch_epoch = 0
        #: Run-cumulative driver-side counters (reshard accounting) folded
        #: into every interval's operator counters.
        self.extra_counters: Dict[str, Any] = {}

    def begin_interval(self, ctx: EvaluationContext) -> None:
        self._route_timer = Timer()
        self._deliveries_before = self.partitioner.deliveries
        self._retractions_before = self.partitioner.retractions
        self._shard_results = ()
        self._outcome = None
        self._dispatch_epoch = getattr(self.partitioner.plan, "epoch", 0)

    def ingest(self, ctx: EvaluationContext, updates: Sequence[Any]) -> None:
        k = self.partitioner.plan.num_shards
        if isinstance(updates, TickBatch):
            with self._route_timer:
                shard_ops = self._route_batch(updates, k)
            self.executor.ingest(shard_ops)
            return
        with self._route_timer:
            shard_ops: List[List[object]] = [[] for _ in range(k)]
            for update in updates:
                decision = self.partitioner.route(update)
                for shard in decision.targets:
                    shard_ops[shard].append(update)
                if decision.leavers:
                    retract = Retract(update.entity_id, update.kind)
                    for shard in decision.leavers:
                        shard_ops[shard].append(retract)
        self.executor.ingest(shard_ops)

    def _route_batch(self, batch: TickBatch, k: int) -> List[Any]:
        """Route a tick batch by its key/x/y columns into per-shard
        :class:`BatchShardOps` (row selections + positioned Retracts).

        Decisions, bookkeeping, and per-shard op order are identical to
        the object loop — only the materialisation of update rows is
        skipped.  Coordinates come from the batch's scalar (Python-float)
        columns, so the partitioner's pickled placement state stays free
        of numpy scalars.
        """
        route_xy = self.partitioner.route_xy
        keys = batch.keys
        ids = batch.ids
        kinds = batch.kinds
        xs, ys = batch._scalar_columns()[:2]
        rows: List[List[int]] = [[] for _ in range(k)]
        retracts: List[List[Tuple[int, Retract]]] = [[] for _ in range(k)]
        obj, qry = EntityKind.OBJECT, EntityKind.QUERY
        for i in range(len(keys)):
            decision = route_xy(keys[i], xs[i], ys[i])
            for shard in decision.targets:
                rows[shard].append(i)
            if decision.leavers:
                retract = Retract(ids[i], obj if kinds[i] else qry)
                for shard in decision.leavers:
                    retracts[shard].append((len(rows[shard]), retract))
        n = len(keys)
        return [
            # A shard receiving every row (row lists are strictly
            # increasing, so full length means the identity selection)
            # adopts the batch itself — no column copy.
            BatchShardOps(batch if len(r) == n else batch.select(r), rt)
            if (r or rt)
            else []
            for r, rt in zip(rows, retracts)
        ]

    def join(self, ctx: EvaluationContext) -> None:
        self._shard_results = self.executor.evaluate(ctx.now)

    def post_join_maintenance(self, ctx: EvaluationContext) -> None:
        self._outcome = self.merger.merge(
            [r.matches for r in self._shard_results],
            epoch=self._dispatch_epoch,
        )
        ctx.matches = self._outcome.matches

    def interval_stats(self, ctx: EvaluationContext) -> ShardedIntervalStats:
        outcome = self._outcome
        merge_seconds = ctx.stage_timers["post_join_maintenance"].seconds
        return ShardedIntervalStats(
            t=ctx.now,
            generate_seconds=ctx.generate_timer.seconds,
            ingest_seconds=ctx.seconds("ingest", "pre_join_maintenance"),
            join_seconds=ctx.stage_timers["join"].seconds,
            maintenance_seconds=merge_seconds,
            result_count=len(ctx.matches),
            tuple_count=ctx.tuple_count,
            stage_seconds=ctx.stage_seconds(),
            shard_stats=tuple(r.stats for r in self._shard_results),
            route_seconds=self._route_timer.seconds,
            merge_seconds=merge_seconds,
            duplicates_dropped=outcome.duplicates_dropped if outcome else 0,
            deliveries=self.partitioner.deliveries - self._deliveries_before,
            retractions=self.partitioner.retractions - self._retractions_before,
            plan_epoch=self._dispatch_epoch,
        )

    def counters(self, ctx: EvaluationContext) -> Dict[str, Any]:
        counters = merge_counters(r.counters for r in self._shard_results)
        if self.extra_counters:
            counters.update(self.extra_counters)
        return counters


# -- the engine --------------------------------------------------------------


class _ReshardHook(PipelineHook):
    """Feeds load telemetry to the engine's reshard controller.

    Runs after the interval's stats are recorded, so a plan transition
    executed here lands cleanly *between* intervals — the next dispatch
    sees the new epoch, the just-merged results were wholly produced
    under the old one.
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self.engine = engine

    def on_interval_end(self, ctx, stats) -> None:
        self.engine._maybe_reshard(stats)


class ShardedEngine:
    """Drives generator → partitioner → K shard operators → merger → sink.

    With ``adaptive=True`` (or an :class:`AdaptiveShardPlan` passed as
    ``shards``) the engine additionally runs a
    :class:`~repro.parallel.reshard.ReshardController`: at interval
    boundaries it may rebalance the plan and live-migrate the affected
    entities between shards over the existing update/Retract protocol
    (see :meth:`_execute_reshard`).  Adaptive workers are built over the
    halo-expanded *world* bounds rather than their tile — tiles move under
    them, and the operators' grids clamp out-of-bounds coordinates, so a
    full-resolution world grid stays correct across any plan transition.
    """

    def __init__(
        self,
        generator: NetworkBasedGenerator,
        operator_factory,
        *,
        shards: Union[int, ShardPlan, AdaptiveShardPlan] = 2,
        sink: Optional[ResultSink] = None,
        config: Optional[EngineConfig] = None,
        executor: Union[str, ShardExecutor] = "serial",
        bounds: Optional[Rect] = None,
        halo_margin: Optional[float] = None,
        hooks: Iterable = (),
        adaptive: bool = False,
        reshard_interval: int = 4,
        reshard_config: Optional[ReshardConfig] = None,
    ) -> None:
        self.generator = generator
        self.operator_factory = operator_factory
        self.sink = sink if sink is not None else ResultSink()
        self.config = config if config is not None else EngineConfig()
        if isinstance(shards, AdaptiveShardPlan):
            self.plan = shards
            adaptive = True
        elif isinstance(shards, ShardPlan):
            if adaptive:
                raise ValueError(
                    "adaptive=True needs an AdaptiveShardPlan or a shard "
                    "count, not a static ShardPlan"
                )
            self.plan = shards
        else:
            if halo_margin is None:
                halo_margin = getattr(operator_factory, "halo_margin", None)
                if halo_margin is None:
                    raise ValueError(
                        "halo_margin is required when the operator factory "
                        "exposes none"
                    )
            world = bounds if bounds is not None else DEFAULT_BOUNDS
            plan_cls = AdaptiveShardPlan if adaptive else ShardPlan
            self.plan = plan_cls.split(world, shards, halo_margin)
        self.adaptive = adaptive
        self.partitioner = SpatialPartitioner(self.plan)
        self.merger = ResultMerger(self.partitioner)
        self.executor = (
            make_executor(executor) if isinstance(executor, str) else executor
        )
        k = self.plan.num_shards
        if adaptive:
            # Tiles move under adaptive workers; give every shard the full
            # halo-expanded world so its index never needs rebuilding.
            world_rect = self.plan.bounds.expanded(self.plan.halo_margin)
            worker_bounds = [world_rect] * k
        else:
            worker_bounds = [self.plan.halo_rect(shard) for shard in range(k)]
        self.executor.start([operator_factory] * k, worker_bounds)
        if adaptive:
            if reshard_config is None:
                reshard_config = ReshardConfig(interval=reshard_interval)
            self.reshard_controller: Optional[ReshardController] = (
                ReshardController(reshard_config)
            )
        else:
            self.reshard_controller = None
        self.stage_plan = ShardedStagePlan(
            self.partitioner, self.executor, self.merger
        )
        if adaptive:
            self.stage_plan.extra_counters.update(
                reshard_splits=0,
                reshard_merges=0,
                clusters_migrated=0,
                migration_seconds=0.0,
            )
            hooks = list(hooks) + [_ReshardHook(self)]
        self.pipeline = EvaluationPipeline(
            generator,
            self.stage_plan,
            sink=self.sink,
            config=self.config,
            hooks=hooks,
            stats=ShardedRunStats(num_shards=k),
        )
        self._closed = False

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def stats(self) -> ShardedRunStats:
        return self.pipeline.stats

    def run_interval(self) -> ShardedIntervalStats:
        """Advance one full Δ interval: route ticks, then evaluate+merge."""
        return self.pipeline.run_interval()

    def run(self, intervals: int) -> ShardedRunStats:
        """Run ``intervals`` consecutive Δ intervals and return the stats."""
        return self.pipeline.run(intervals)

    # -- adaptive re-sharding ------------------------------------------------

    @property
    def plan_epoch(self) -> int:
        """Current shard-plan version (0 for static plans)."""
        return getattr(self.plan, "epoch", 0)

    def _maybe_reshard(self, interval_stats) -> None:
        """Interval-boundary reshard step (called by the pipeline hook)."""
        controller = self.reshard_controller
        if controller is None:
            return
        controller.observe(
            s.join_seconds for s in getattr(interval_stats, "shard_stats", ())
        )
        action = controller.propose(self.plan, self.partitioner)
        if action is None:
            return
        timer = Timer()
        with timer:
            clusters = self._execute_reshard(action.plan)
        extra = self.stage_plan.extra_counters
        extra["reshard_splits"] += action.splits
        extra["reshard_merges"] += action.merges
        extra["clusters_migrated"] += clusters
        extra["migration_seconds"] += timer.seconds
        # The interval's counter snapshot was recorded before this hook
        # fired; refresh it so the reshard is visible in the interval it
        # was decided in, not one interval late.
        self.pipeline.stats.counters.update(extra)

    def _execute_reshard(self, new_plan: AdaptiveShardPlan) -> int:
        """Install ``new_plan`` and live-migrate the affected entities.

        The migration rides the existing routing protocol: for every
        entity whose placement changed, its state is exported from the
        *old owner* shard as a replayable update (``export_entity_updates``
        on the operator), delivered to every shard that gained the entity, and
        a :class:`Retract` is sent to every shard that lost it.  Stale
        report times are safe to replay: cluster ``advance_to`` is guarded
        against moving backwards, and grid operators re-hash positions
        idempotently.  Returns the number of distinct source clusters the
        migration touched.
        """
        moves = self.partitioner.rebind(new_plan)
        self.plan = new_plan
        if not moves:
            return 0
        k = new_plan.num_shards
        export_keys: List[List[Tuple[int, Any]]] = [[] for _ in range(k)]
        for move in moves:
            if move.source is not None:
                export_keys[move.source].append((move.entity_id, move.kind))
        exports = self.executor.apply_each("export_entity_updates", export_keys)
        updates: Dict[Tuple[int, Any], Any] = {}
        clusters = 0
        for shard, result in enumerate(exports):
            if result is None:
                if export_keys[shard]:
                    raise RuntimeError(
                        "operator does not implement export_entity_updates; "
                        "adaptive sharding needs migratable operators"
                    )
                continue
            clusters += result["clusters"]
            for update in result["updates"]:
                updates[(update.entity_id, update.kind)] = update
        shard_ops: List[List[object]] = [[] for _ in range(k)]
        for move in moves:
            update = updates.get((move.entity_id, move.kind))
            if update is not None:
                for shard in move.gains:
                    shard_ops[shard].append(update)
            for shard in move.losses:
                shard_ops[shard].append(Retract(move.entity_id, move.kind))
        self.executor.ingest(shard_ops)
        return clusters

    # -- checkpoint/restore --------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable engine state at an interval barrier.

        The sharded snapshot is a manifest: one operator blob per shard
        (gathered from the executor — off-process workers pickle and ship
        their state), the partitioner's routing memory, the plan geometry
        for validation, and the pipeline clock/accounting.
        """
        plan = self.plan
        state = {
            "kind": "sharded",
            "manifest": {
                "num_shards": plan.num_shards,
                "kx": getattr(plan, "kx", None),
                "ky": getattr(plan, "ky", None),
                "halo_margin": plan.halo_margin,
                "bounds": plan.bounds,
                "adaptive": self.adaptive,
                # Adaptive layouts drift from their construction
                # parameters, so the snapshot carries the whole plan: a
                # resumed engine adopts it (plus its epoch) wholesale.
                "plan": plan if self.adaptive else None,
                "epoch": self.plan_epoch,
            },
            "operators": self.executor.snapshot_operators(),
            "partitioner": self.partitioner.snapshot_state(),
            "pipeline": self.pipeline.snapshot_state(),
        }
        if self.reshard_controller is not None:
            state["reshard"] = {
                "controller": self.reshard_controller.snapshot_state(),
                "counters": dict(self.stage_plan.extra_counters),
            }
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state` on a freshly built engine.

        The engine must have been constructed with the same shard plan the
        snapshot was taken under — per-shard state is only meaningful over
        identical tile geometry.
        """
        if state.get("kind") != "sharded":
            raise ValueError(
                f"snapshot is for a {state.get('kind')!r} engine, not sharded"
            )
        manifest = state["manifest"]
        plan = self.plan
        if manifest.get("adaptive"):
            if not self.adaptive:
                raise ValueError(
                    "snapshot was taken with adaptive sharding; build the "
                    "engine with adaptive=True (or pass the snapshot plan)"
                )
            recorded_plan = manifest["plan"]
            current = (plan.num_shards, plan.halo_margin, plan.bounds)
            recorded = (
                recorded_plan.num_shards,
                recorded_plan.halo_margin,
                recorded_plan.bounds,
            )
            if current != recorded:
                raise ValueError(
                    f"snapshot shard plan {recorded} does not match engine "
                    f"plan {current}"
                )
            # Adopt the adapted layout wholesale — the operators being
            # restored hold state partitioned under *it*, not under
            # whatever initial split this engine was built with.
            self.plan = recorded_plan
            self.partitioner.plan = recorded_plan
        else:
            current = (
                plan.num_shards,
                getattr(plan, "kx", None),
                getattr(plan, "ky", None),
                plan.halo_margin,
            )
            recorded = (
                manifest["num_shards"],
                manifest.get("kx"),
                manifest.get("ky"),
                manifest["halo_margin"],
            )
            if current != recorded:
                raise ValueError(
                    f"snapshot shard plan {recorded} does not match engine "
                    f"plan {current}"
                )
        self.executor.restore_operators(state["operators"])
        self.partitioner.restore_state(state["partitioner"])
        self.pipeline.restore_state(state["pipeline"])
        reshard = state.get("reshard")
        if reshard is not None and self.reshard_controller is not None:
            self.reshard_controller.restore_state(reshard["controller"])
            self.stage_plan.extra_counters.update(reshard["counters"])

    def broadcast(self, method: str, *args) -> List[Any]:
        """Invoke an operator method on every shard (see executor.apply)."""
        return self.executor.apply(method, *args)

    def close(self) -> None:
        """Shut down the executor (worker processes, if any)."""
        if not self._closed:
            self.executor.close()
            self._closed = True

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
