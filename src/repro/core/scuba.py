"""The SCUBA continuous operator (paper §4.2, Algorithm 1).

Execution cycles through three phases:

1. **Cluster pre-join maintenance** — runs continuously between
   evaluations: every incoming location update is clustered incrementally
   (:meth:`Scuba.on_update`), and the configured load-shedding policy may
   immediately discard the member's relative position.
2. **Cluster-based joining** — fires every Δ time units
   (:meth:`Scuba.join_phase`): a sweep over the occupied ClusterGrid cells
   joins co-located cluster pairs with the lossless join-between filter,
   descending into join-within only for surviving pairs; mixed clusters
   additionally self-join.
3. **Cluster post-join maintenance** — :meth:`Scuba.post_join_phase`:
   clusters that have reached (or will pass) their destination connection
   node are dissolved, survivors are advanced along their velocity vectors
   to their expected position at the next evaluation and re-registered in
   the grid.

Between joining and post-join maintenance sits the **shed** boundary
(:meth:`Scuba.shed_phase`): with ``ScubaConfig.adaptive_shedding`` the
§5 feedback controller observes memory pressure there and walks η along
its ladder.  The phases run either individually under the staged
:class:`~repro.pipeline.EvaluationPipeline` or back-to-back through the
inherited :meth:`evaluate` facade (used by off-process shard workers).

Instrumentation counters (`between_tests`, `within_tests`, ...) are part of
the public surface: the paper's figures report exactly these costs.

The joining phase is one whole-tick batched sweep (DESIGN.md §8): the
candidate cluster pairs of every grid cell are enumerated, deduplicated
and pre-filtered in a handful of array operations
(:mod:`repro.core.pairsweep`), and shed-free surviving pairs are evaluated
as fused join-within segments.  Join views and join-between verdicts are
cached across Δ-cycles, keyed on cluster version counters (see
:class:`~repro.core.joins.ClusterJoinView`), so clusters that did not
change between evaluations are snapshotted and pre-filtered exactly once.
The caches are pure memoisation — logical test counters and emitted
matches are identical with and without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import hypot
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..clustering import (
    ClusteringSpec,
    ClusterWorld,
    IncrementalClusterer,
    split_cluster,
)
from ..generator import EntityKind, LocationUpdate, QueryUpdate, TickBatch, Update
from ..geometry import Point, Rect
from ..index import SpatialGrid
from ..kernels import BACKEND_CHOICES, resolve_backend
from ..network import DEFAULT_BOUNDS
from ..shedding import AdaptiveShedder, NoShedding, SheddingPolicy
from ..streams import MatchList, QueryMatch, StagedJoinOperator
from .joins import ClusterJoinView, join_within_pair, join_within_self
from .pairsweep import BatchJoinState
from .tables import ObjectsTable, QueriesTable

__all__ = ["ScubaConfig", "Scuba"]


@dataclass
class ScubaConfig:
    """Tuning knobs of the SCUBA operator.

    Defaults reproduce the paper's experimental settings (§6.1): a 100×100
    ClusterGrid, ``Θ_D = 100`` spatial units, ``Θ_S = 10`` units/time-unit,
    Δ = 2 time units, no load shedding.
    """

    bounds: Rect = field(default_factory=lambda: DEFAULT_BOUNDS)
    grid_size: int = 100
    theta_d: float = 100.0
    theta_s: float = 10.0
    #: Δ — the evaluation period, used by post-join maintenance to advance
    #: clusters to their expected next-evaluation position.
    delta: float = 2.0
    #: Load-shedding policy (η knob of §5/Fig. 13).  Under adaptive
    #: shedding this is the *live* policy, re-pointed by the controller at
    #: every shed phase.
    shedding: SheddingPolicy = field(default_factory=NoShedding)
    #: Enable the §5 feedback loop: an
    #: :class:`~repro.shedding.AdaptiveShedder` observes retained member
    #: positions at the shed stage of every interval and walks η up or
    #: down ``shed_ladder`` against ``shed_budget``.
    adaptive_shedding: bool = False
    #: Retained-position budget the adaptive controller defends.
    shed_budget: int = 10_000
    #: Escalation ladder for η; ``None`` uses the controller's default
    #: ``(0.0, 0.25, 0.5, 0.75, 1.0)``.
    shed_ladder: Optional[Sequence[float]] = None
    #: Require identical destination connection node for cluster admission.
    #: Disabled only by the direction-predicate ablation.
    require_same_destination: bool = True
    #: Tighten cluster radii during post-join maintenance.  The paper's
    #: pseudocode only ever grows radii; recomputation keeps long-lived
    #: clusters compact.  Disabled by the deterioration ablation.
    recompute_radius: bool = True
    #: Dissolve clusters at their destination (paper behaviour).  Disabled
    #: by the deterioration ablation.
    expire_clusters: bool = True
    #: Apply the join-between pre-filter.  Disabled by the two-step-join
    #: ablation, which joins-within every co-located cluster pair.
    use_between_filter: bool = True
    #: Split clusters at their destination node instead of dissolving them
    #: outright — the paper's §3.1 future-work option.  Members that have
    #: already reported their next destination are regrouped into
    #: successor clusters without re-clustering churn.
    split_at_destination: bool = False
    #: Join-within kernel backend: ``"numpy"`` (vectorised, default) or
    #: ``"scalar"``, the tuple-at-a-time reference the kernel property
    #: tests compare against.
    kernel_backend: str = "numpy"
    #: Evict table rows for entities silent for longer than this many time
    #: units, checked once per post-join maintenance pass.  ``None``
    #: (default) keeps rows forever (seed behaviour).
    stale_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.adaptive_shedding and self.shed_budget < 1:
            raise ValueError(
                f"shed_budget must be >= 1, got {self.shed_budget}"
            )
        if self.kernel_backend not in BACKEND_CHOICES:
            raise ValueError(
                f"kernel_backend must be one of {BACKEND_CHOICES}, "
                f"got {self.kernel_backend!r}"
            )
        if self.stale_after is not None and self.stale_after <= 0:
            raise ValueError(
                f"stale_after must be positive, got {self.stale_after}"
            )

    def clustering_spec(self) -> ClusteringSpec:
        return ClusteringSpec(
            theta_d=self.theta_d,
            theta_s=self.theta_s,
            require_same_destination=self.require_same_destination,
            enable_splitting=self.split_at_destination,
        )


class Scuba(StagedJoinOperator):
    """Shared cluster-based execution of continuous spatio-temporal queries."""

    def __init__(self, config: Optional[ScubaConfig] = None) -> None:
        self.config = config if config is not None else ScubaConfig()
        self._init_state()

    def _init_state(self) -> None:
        """(Re)build all mutable state from ``self.config``.

        Shared by :meth:`__init__` and :meth:`reset` so resetting cannot
        drift from construction (the seed re-called ``__init__``, which
        breaks under subclassing and re-validates config needlessly).
        """
        cfg = self.config
        self.world = ClusterWorld(cfg.bounds, cfg.theta_d, cfg.grid_size)
        # The join's N×N grid: geometry only, cells rebuilt every join.
        self.footprint_grid = SpatialGrid(cfg.bounds, cfg.grid_size)
        self.objects_table = ObjectsTable()
        self.queries_table = QueriesTable()
        self.clusterer = IncrementalClusterer(self.world, cfg.clustering_spec())
        #: Table rows dropped by ``stale_after`` garbage collection.
        self.evicted_stale = 0
        self._shed_is_noop = isinstance(self.config.shedding, NoShedding)
        # Sticky never-shed marker: flips the moment a real shedding policy
        # goes live and never flips back — shed members can outlive a later
        # policy switch, so the vectorised segment assembly (which assumes
        # exact member columns) keys off the whole run's history, not the
        # current policy.
        self._ever_shed = not self._shed_is_noop
        if cfg.adaptive_shedding:
            ladder = cfg.shed_ladder
            self.shedder: Optional[AdaptiveShedder] = (
                AdaptiveShedder(cfg.theta_d, cfg.shed_budget)
                if ladder is None
                else AdaptiveShedder(cfg.theta_d, cfg.shed_budget, ladder)
            )
            # Start from the controller's current rung so config and
            # controller never disagree about the live policy.
            self.set_shedding_policy(self.shedder.policy)
        else:
            self.shedder = None
        self.kernels = resolve_backend(self.config.kernel_backend)
        # Cross-evaluation caches, keyed on cluster version counters (cids
        # are never reused, so a stale cid can only miss or be pruned,
        # never alias).  Dropped on pickling and rebuilt lazily.
        self._view_cache: Dict[int, ClusterJoinView] = {}
        # Sweep state: cluster SoA registry, array between-cache, pair
        # templates.
        self._batch_state = BatchJoinState()
        # Phase timings of the most recent evaluate().
        self.last_join_seconds = 0.0
        self.last_maintenance_seconds = 0.0
        # Cumulative instrumentation.
        self.between_tests = 0
        self.between_hits = 0
        self.within_tests = 0
        self.evaluations = 0
        self.view_cache_hits = 0
        self.view_cache_misses = 0
        self.between_cache_hits = 0
        self.between_cache_misses = 0
        # Sweep instrumentation: candidate mixed pairs that went through
        # the whole-tick between filter, and shed-free join units fused
        # into join_segments kernel calls.
        self.join_pairs_batched = 0
        self.join_segments = 0

    # -- phase 1: pre-join maintenance ------------------------------------------

    def on_update(self, update: Update) -> None:
        """Cluster one incoming update (and maybe shed its position).

        The per-update API — and the reference that the column pass of
        :meth:`ingest_batch` must equal bit for bit.
        """
        if update.kind is EntityKind.OBJECT:
            self.objects_table.record(update.entity_id, update.attrs, update.t)
        else:
            self.queries_table.record(update.entity_id, update.attrs, update.t)
        cluster = self.clusterer.ingest(update)
        if not self._shed_is_noop:
            dist = hypot(update.loc.x - cluster.cx, update.loc.y - cluster.cy)
            self.config.shedding.apply(
                cluster, update.entity_id, update.kind, dist
            )

    def ingest_batch(self, updates: Sequence[Update]) -> None:
        """Ingest one tick.  A :class:`TickBatch` is processed straight off
        its columns (tables in bulk, then
        :meth:`IncrementalClusterer.ingest_tick`); any other sequence takes
        the :meth:`on_update` loop."""
        if not isinstance(updates, TickBatch):
            on_update = self.on_update
            for update in updates:
                on_update(update)
            return
        # Nothing reads the tables mid-tick, so recording every row up
        # front leaves them exactly as the interleaved per-update records.
        ids, kinds, t = updates.ids, updates.kinds, updates.t
        if updates.attrs_list is None:
            self.objects_table.record_ids(list(compress(ids, kinds)), t)
            self.queries_table.record_ids(
                [eid for eid, is_obj in zip(ids, kinds) if not is_obj], t
            )
        else:
            obj_record = self.objects_table.record
            qry_record = self.queries_table.record
            for eid, is_obj, attrs in zip(ids, kinds, updates.attrs_list):
                (obj_record if is_obj else qry_record)(eid, attrs, t)
        self.clusterer.ingest_tick(
            updates, None if self._shed_is_noop else self.config.shedding
        )

    def retract(self, entity_id: int, kind: EntityKind) -> None:
        """Forget one entity: evict it from its cluster and its table.

        Used by sharded execution when an entity's reported position leaves
        this operator's halo region.  Eviction reuses the clusterer's
        membership pathway, so cluster invariants (home/grid consistency,
        dissolution of emptied clusters) hold exactly as for re-clustering.
        """
        cid = self.world.home.cluster_of(entity_id, kind)
        if cid is not None:
            self.world.evict(self.world.storage.get(cid), entity_id, kind)
        table = (
            self.objects_table if kind is EntityKind.OBJECT else self.queries_table
        )
        table.evict(entity_id)

    def export_entity_updates(self, keys: Sequence[Tuple[int, EntityKind]]) -> Dict[str, Any]:
        """Serialize entity state as replayable updates (shard migration).

        For each ``(entity_id, kind)`` key this shard holds, synthesize the
        update that reconstructs the entity in another shard: best-known
        absolute position (the reported position carried by any rigid
        translation since — bit-identical to what this shard would join
        with), the member's speed/heading, the query window, the table
        attributes, stamped with the member's last report time so table
        bookkeeping (``last_seen``, staleness) transfers unchanged.
        Members whose position was load shed fall back to the cluster
        centroid — the same nucleus approximation their join uses here.

        Entities this shard no longer holds are skipped.  Returns
        ``{"updates": [...], "clusters": N}`` with ``N`` the distinct
        source clusters touched.
        """
        updates: List[Update] = []
        touched: Set[int] = set()
        cluster_of = self.world.home.cluster_of
        storage = self.world.storage
        for entity_id, kind in keys:
            cid = cluster_of(entity_id, kind)
            if cid is None:
                continue
            cluster = storage.get(cid)
            member = cluster.get_member(entity_id, kind)
            if member is None:
                continue
            loc = cluster.member_location(member)
            if loc is None:
                loc = cluster.centroid
            table = (
                self.objects_table
                if kind is EntityKind.OBJECT
                else self.queries_table
            )
            attrs = table.attrs(entity_id) if entity_id in table else None
            cn_loc = Point(member.cn_x, member.cn_y)
            if kind is EntityKind.OBJECT:
                updates.append(
                    LocationUpdate(
                        entity_id,
                        loc,
                        member.last_t,
                        member.speed,
                        member.cn_node,
                        cn_loc,
                        attrs,
                    )
                )
            else:
                updates.append(
                    QueryUpdate(
                        entity_id,
                        loc,
                        member.last_t,
                        member.speed,
                        member.cn_node,
                        cn_loc,
                        member.range_width,
                        member.range_height,
                        attrs,
                    )
                )
            touched.add(cid)
        return {"updates": updates, "clusters": len(touched)}

    # -- phases 2 + 3: joining, shedding control, post-join maintenance -----------

    def join_phase(self, now: float) -> List[QueryMatch]:
        """The Δ-triggered cluster join; returns the current query answers.

        Answers come back in a :class:`MatchList` so the segmented kernel
        can splice whole columnar match runs in at their canonical
        positions.
        """
        self.evaluations += 1
        results = MatchList()
        self._joining_phase_batched(now, results)
        return results

    def shed_phase(self, now: float) -> None:
        """Adaptive shedding control boundary (§5's feedback reaction).

        With ``adaptive_shedding`` enabled, the controller inspects the
        retained-position count and may step η along its ladder; the
        resulting policy becomes the live one for the next interval's
        pre-join maintenance.  A fixed policy makes this a no-op.
        """
        if self.shedder is not None:
            self.set_shedding_policy(self.shedder.observe(self.world.storage, now))

    def post_join_phase(self, now: float) -> None:
        """Dissolve arrivals, advance survivors, re-index them."""
        self._post_join_maintenance(now)

    def set_shedding_policy(self, policy: SheddingPolicy) -> None:
        """Swap the live shedding policy (keeps the no-op fast path honest)."""
        self.config.shedding = policy
        self._shed_is_noop = isinstance(policy, NoShedding)
        if not self._shed_is_noop:
            self._ever_shed = True

    def escalate_shedding(self, now: float) -> bool:
        """External overload signal: force η one rung up the ladder.

        The service front-end calls this when ingest outruns evaluation
        (queue pressure), independent of the retained-position feedback.
        No-op (False) without ``adaptive_shedding``.
        """
        if self.shedder is None or not self.shedder.escalate(now):
            return False
        self.set_shedding_policy(self.shedder.policy)
        return True

    def relax_shedding(self, now: float) -> bool:
        """Release one rung of forced shedding escalation (pressure gone)."""
        if self.shedder is None or not self.shedder.relax(now):
            return False
        self.set_shedding_policy(self.shedder.policy)
        return True

    def _joining_phase_batched(self, now: float, results: List[QueryMatch]) -> None:
        """Algorithm 1, lines 8-21, as three whole-tick batch operations.

        Self join-within for every mixed cluster (line 15), then the cell
        sweep: vectorised pair enumeration over the grid cells
        (:class:`BatchJoinState`; a pair sharing several cells joins
        exactly once, and only pairs that can mix types are kept — line
        18), one batched join-between over the candidates, and fused
        ``join_segments`` runs over consecutive shed-free surviving pairs.
        Shed clusters flush the pending segment run and take the per-case
        kernels (:func:`join_within_self` / :func:`join_within_pair`), so
        emission stays grouped in the canonical per-unit order.
        """
        storage = self.world.storage
        backend = self.kernels
        state = self._batch_state
        clusters = storage.clusters()
        state.soa.sync(clusters)

        pending: List[Tuple[ClusterJoinView, ClusterJoinView]] = []
        pending_append = pending.append
        # The view cache probe is inlined in every loop below: at tens of
        # thousands of probes per tick a method-call frame is measurable.
        # Hit/miss tallies accumulate in locals and fold into the counters
        # once per phase.
        view_cache = self._view_cache
        view_get = view_cache.get
        view_hits = 0
        view_misses = 0

        def flush() -> None:
            if pending:
                self.join_segments += len(pending)
                self.within_tests += backend.join_segments(pending, now, results)
                pending.clear()

        # Self join-within (Algorithm 1, line 15): a shed-free mixed
        # cluster queues an exact×exact segment; shed members force the
        # per-case kernel sequencing, so those clusters flush and run
        # join_within_self in place.
        for cluster in clusters:
            if not (cluster.objects and cluster.queries):  # is_mixed
                continue
            cid = cluster.cid
            view = view_get(cid)
            if view is not None and view.version == cluster.version:
                view_hits += 1
            else:
                view_misses += 1
                view = ClusterJoinView(cluster)
                view_cache[cid] = view
            if cluster.shed_count:
                flush()
                self.within_tests += join_within_self(view, now, results, backend)
            else:
                # Shed-free and mixed: both member columns are non-empty.
                pending_append((view, view))

        use_filter = self.config.use_between_filter
        (survivor_l, survivor_r), mixed, cache_hits, cache_misses = state.sweep(
            self.footprint_grid, use_filter
        )
        self.join_pairs_batched += mixed
        if use_filter:
            self.between_tests += mixed
            self.between_cache_hits += cache_hits
            self.between_cache_misses += cache_misses
            self.between_hits += len(survivor_l)
        get = storage.get
        join_indexed = getattr(backend, "join_segments_indexed", None)
        if (
            join_indexed is not None
            and not self._ever_shed
            and not isinstance(survivor_l, list)
        ):
            # Vectorised segment assembly (never-shed run, numpy kernels;
            # the scalar reference takes the generic loop below).
            # Views resolve once per unique survivor cid; the logical
            # count is one cache probe per *occurrence*, and every repeat
            # occurrence would hit (the version cannot move mid-phase),
            # so the repeats fold into one synthetic tally.
            n_pairs = int(survivor_l.size)
            uniq = np.unique(np.concatenate((survivor_l, survivor_r)))
            for cid in uniq.tolist():
                cl = get(cid)
                view = view_get(cid)
                if view is not None and view.version == cl.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    view_cache[cid] = ClusterJoinView(cl)
            view_hits += 2 * n_pairs - int(uniq.size)
            # Never-shed makes the registry's member-table truthiness
            # columns exact-column truthiness, so direction validity
            # (objects on one side, queries on the other) is two masked
            # gathers.  Interleaved even/odd slots keep the canonical
            # emission order: per pair L→R then R→L, pairs in first-seen
            # sweep order.
            has_obj, has_qry = state.soa.arrays()[5:]
            il = survivor_l - state.soa.base
            ir = survivor_r - state.soa.base
            slot_o = np.empty(2 * n_pairs, dtype=np.int64)
            slot_q = np.empty(2 * n_pairs, dtype=np.int64)
            valid = np.empty(2 * n_pairs, dtype=bool)
            slot_o[0::2] = survivor_l
            slot_q[0::2] = survivor_r
            valid[0::2] = has_obj[il] & has_qry[ir]
            slot_o[1::2] = survivor_r
            slot_q[1::2] = survivor_l
            valid[1::2] = has_obj[ir] & has_qry[il]
            o_cids = slot_o[valid]
            q_cids = slot_q[valid]
            # Never-shed also means the self loop above never flushed:
            # ``pending`` holds exactly the self segments, in cluster
            # order, ahead of the pair segments — the canonical per-unit
            # order.  All referenced views are fresh in the cache (self
            # loop + uniq loop), so the segment table indexes it directly.
            nseg = len(pending) + int(o_cids.size)
            if nseg:
                scids = np.asarray(
                    [seg[0].cid for seg in pending], dtype=np.int64
                )
                all_cids = np.unique(np.concatenate((scids, uniq)))
                view_table = [view_cache[cid] for cid in all_cids.tolist()]
                self_pos = np.searchsorted(all_cids, scids)
                o_pos = np.concatenate(
                    (self_pos, np.searchsorted(all_cids, o_cids))
                )
                q_pos = np.concatenate(
                    (self_pos, np.searchsorted(all_cids, q_cids))
                )
                pending.clear()
                self.join_segments += nseg
                self.within_tests += join_indexed(
                    view_table, o_pos, q_pos, now, results
                )
            self.view_cache_hits += view_hits
            self.view_cache_misses += view_misses
            return
        # Per-tick cid resolution: a survivor cluster recurs across many
        # pairs, so the (view, shed, column-presence) lookup resolves once
        # per cid and later occurrences are one dict probe.  A repeat
        # occurrence tallies a view-cache hit — after the first probe the
        # view is cached and the version cannot move mid-phase.
        resolved: Dict[int, Tuple[ClusterJoinView, bool, bool, bool]] = {}
        res_get = resolved.get
        for cid_l, cid_r in zip(survivor_l, survivor_r):
            info = res_get(cid_l)
            if info is None:
                cl = get(cid_l)
                left = view_get(cid_l)
                if left is not None and left.version == cl.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    left = ClusterJoinView(cl)
                    view_cache[cid_l] = left
                info = resolved[cid_l] = (
                    left,
                    bool(cl.shed_count),
                    bool(left.obj_ids),
                    bool(left.query_ids),
                )
            else:
                view_hits += 1
            left, shed_l, obj_l, qry_l = info
            info = res_get(cid_r)
            if info is None:
                cr = get(cid_r)
                right = view_get(cid_r)
                if right is not None and right.version == cr.version:
                    view_hits += 1
                else:
                    view_misses += 1
                    right = ClusterJoinView(cr)
                    view_cache[cid_r] = right
                info = resolved[cid_r] = (
                    right,
                    bool(cr.shed_count),
                    bool(right.obj_ids),
                    bool(right.query_ids),
                )
            else:
                view_hits += 1
            right, shed_r, obj_r, qry_r = info
            if shed_l or shed_r:
                flush()
                self.within_tests += join_within_pair(
                    left, right, now, results, backend
                )
            else:
                if obj_l and qry_r:
                    pending_append((left, right))
                if obj_r and qry_l:
                    pending_append((right, left))
        flush()
        self.view_cache_hits += view_hits
        self.view_cache_misses += view_misses

    def _post_join_maintenance(self, now: float) -> None:
        """Dissolve arrivals, advance survivors, re-index them."""
        cfg = self.config
        grid = self.world.grid
        if cfg.stale_after is not None:
            cutoff = now - cfg.stale_after
            self.evicted_stale += self.objects_table.evict_stale(cutoff)
            self.evicted_stale += self.queries_table.evict_stale(cutoff)
        for cluster in list(self.world.storage):
            if cfg.expire_clusters and (
                cluster.has_expired(now) or cluster.will_pass_destination(cfg.delta)
            ):
                if cfg.split_at_destination:
                    # Regroup any members whose reported next destination
                    # already diverged (stragglers under partial update
                    # fractions); the common case — members peeling off one
                    # by one as they cross — is handled at eviction time by
                    # the clusterer's successor links.
                    split_cluster(self.world, cluster, now)
                else:
                    self.world.dissolve(cluster)
                continue
            # Clusters untouched since their last update (shed members,
            # partial update fractions) still move by their velocity.
            cluster.advance_to(now)
            if cfg.recompute_radius:
                # Per-interval compaction: bake the transformation vector,
                # re-centre on the true member mean (per-tuple refreshes do
                # not touch the centroid), and tighten the radius.
                cluster.flush_transform()
                cluster.recentre()
                cluster.recompute_radius()
            cluster.update_expiry(now)
            grid.place(cluster)
        # Every survivor now sits at its ``now`` centroid in the index.
        grid.rebase(now)
        self._prune_caches()

    def _prune_caches(self) -> None:
        """Drop cache entries for clusters that no longer exist.

        cids are allocated monotonically and never reused, so dead entries
        can never produce stale hits — pruning is purely to bound memory
        across long runs with cluster churn.
        """
        storage = self.world.storage
        view_cache = self._view_cache
        if len(view_cache) > len(storage):
            dead = [cid for cid in view_cache if cid not in storage]
            for cid in dead:
                del view_cache[cid]
        self._batch_state.prune(storage)

    # -- introspection ---------------------------------------------------------------

    @property
    def cluster_count(self) -> int:
        return self.world.cluster_count

    @property
    def footprint_entries(self) -> int:
        """(cell, cluster) rows of the last join's N×N footprint build —
        the paper's ClusterGrid directory size."""
        return self._batch_state.footprint_entries

    @property
    def split_joins(self) -> int:
        """Node crossings resolved through successor links (splitting on)."""
        return self.clusterer.split_joins

    def join_counters(self) -> Dict[str, Any]:
        """Kernel/cache instrumentation folded into run statistics."""
        clusterer = self.clusterer
        grid = self.world.grid
        return {
            "kernel_backend": self.kernels.name,
            "join_pairs_batched": self.join_pairs_batched,
            "join_segments": self.join_segments,
            "evicted_stale": self.evicted_stale,
            # What ingest did, one count per row outcome (they sum to
            # ``clusterer.processed``).
            "ingest_heartbeats": clusterer.heartbeats,
            "ingest_refreshes": clusterer.refreshes,
            "ingest_reclustered": clusterer.reclustered,
            "ingest_new": clusterer.new_entities,
            "grid_reregistrations": grid.reregistrations,
            "grid_refresh_skips": grid.refresh_skips,
            "view_cache_hits": self.view_cache_hits,
            "view_cache_misses": self.view_cache_misses,
            "between_cache_hits": self.between_cache_hits,
            "between_cache_misses": self.between_cache_misses,
        }

    def state_roots(self) -> List[object]:
        """The five in-memory structures of §4.1 (for memory accounting)."""
        return [
            self.objects_table,
            self.queries_table,
            self.world.home,
            self.world.storage,
            self.world.grid,
        ]

    def reset(self) -> None:
        """Drop all clusters and tables, keeping configuration."""
        self._init_state()

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without caches or the backend instance.

        Views hold backend scratch data (ndarray mirrors, sort
        permutations) that must not cross process boundaries; the backend
        is rebuilt from config on the other side.
        """
        state = self.__dict__.copy()
        for transient in ("kernels", "_view_cache", "_batch_state"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.kernels = resolve_backend(self.config.kernel_backend)
        self._view_cache = {}
        self._batch_state = BatchJoinState()

    def __repr__(self) -> str:
        return (
            f"Scuba({self.cluster_count} clusters, "
            f"{len(self.objects_table)} objects, "
            f"{len(self.queries_table)} queries, "
            f"shedding={self.config.shedding!r})"
        )
