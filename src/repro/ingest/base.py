"""Ingest kernels: batched cluster-maintenance for the pre-join phase.

After the join side was sharded and kernelized, the
per-update scalar ingest chain (``IncrementalClusterer.ingest`` →
``advance_to`` → ``_qualifies`` → ``absorb`` → ``grid.refresh``; five
Python calls plus dict traffic per location update) dominates interval
cost in update-heavy regimes — the "cluster maintenance" overhead of
paper §5.  The batched kernels restructure one tick's updates into an
:class:`~repro.ingest.batch.UpdateBatch` and process the steady-state
fast path per *cluster group* instead of per update:

1. group the tick's updates by each entity's current home cluster;
2. advance each touched cluster to the tick time once (``advance_to`` is
   an idempotent per-tick no-op after the first touch, but the scalar
   path still pays the call per update);
3. test the Θ_D/Θ_S admission conditions for the whole member group in
   one pass against a cached member snapshot (:class:`IngestView`);
4. bulk-commit qualifying groups: heartbeat members get their ``last_t``
   stamped, refreshed members get their position/translation fields
   rewritten, and the cluster takes a *single* aggregated version bump;
5. dedupe ``ClusterGrid.refresh`` to one call per group per tick.

**Exactness contract.**  The batched path must leave cluster state,
assignments and answers *identical* to the scalar loop.  Three devices
make that hold without approximation:

* *Fast-group admission is conservative.*  A group bulk-commits only when
  every update is from an existing member of a multi-member cluster,
  re-qualifies under the eviction slack, reports an **unchanged speed**
  (so the running speed sum and average are untouched — the scalar
  refresh recomputes ``avespeed = _speed_sum / n`` to the bit-identical
  value) and does **not grow the radius** (its distance to the
  post-advance centroid stays within the current radius; heartbeats are
  exempt, as the scalar path never radius-checks them).  Under those
  conditions every scalar absorb in the group mutates only its own
  member's fields plus the version counters, so the group's admission
  verdicts are order-independent and the aggregate commit is bitwise
  equal to the sequential one.  Anything else — new entities, evictions,
  node crossings, speed changes, radius growth, singleton clusters —
  routes the *whole group* through the scalar slow path at the original
  arrival positions.

* *Grid refreshes collapse losslessly.*  With the radius pinned and the
  centroid advanced once up front, every per-update ``grid.refresh`` the
  scalar loop would issue for the group sees the same inputs, so they are
  one re-registration (at the group's first row, exactly where the
  scalar path would first run it) followed by no-ops — the kernel issues
  that single call and counts the rest as ``grid_refresh_deduped``.

* *Interleaved slow rows keep scalar order.*  A slow-path row (say a new
  entity) may join a cluster that has uncommitted fast rows before it.
  The kernel registers a ``pre_absorb_hook`` with the
  :class:`~repro.clustering.ClusterWorld` for the duration of the walk:
  the moment any slow-path absorb (or evict) targets a planned cluster,
  the cluster's already-walked fast rows are flushed through the scalar
  path *first* — in batch order, before the foreign mutation — and the
  remaining rows are re-routed to the scalar path at their own
  positions.  The sequence of state mutations is then exactly the scalar
  loop's.  A version snapshot taken at classification guards the commit
  as a defensive backstop (``batch_fallbacks`` counts both).

Shedding composes: the configured policy is applied once per committed
update against the (unchanged) centroid, exactly as ``Scuba.on_update``
does.  The one knowingly order-sensitive policy is ``RandomShedding``,
whose RNG draws follow commit order rather than global arrival order.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..generator import EntityKind, TickBatch, Update
from .batch import UpdateBatch

_OBJECT = EntityKind.OBJECT

__all__ = [
    "IngestKernel",
    "PythonBatchIngestKernel",
    "IngestView",
]


class IngestView:
    """Cached per-cluster member snapshot for group admission tests.

    Columns are keyed by the home-table entity key and hold each member's
    speed, *reconstructed* absolute position (``abs + (trans − tr)`` — the
    value the heartbeat test in ``MovingCluster.absorb`` compares
    against), destination node and shed flag, plus the member object
    itself for the commit.  The snapshot is valid while
    ``cluster.version`` is unchanged: every mutation that can alter any
    column bumps the version, while ``flush_transform`` (which rebases
    stored coordinates without moving anyone) leaves the reconstructed
    positions — and hence this view — intact.  Parked convoys never bump,
    so their views persist across ticks and classification becomes pure
    column compares.
    """

    __slots__ = ("version", "rows", "members", "speeds", "recon_x",
                 "recon_y", "cns", "sheds", "hb_ok", "_np_tables")

    def __init__(self, cluster: Any, spec: Any) -> None:
        self.version: int = cluster.version
        rows: Dict[int, int] = {}
        members: List[Any] = []
        speeds: List[float] = []
        recon_x: List[float] = []
        recon_y: List[float] = []
        cns: List[int] = []
        sheds: List[bool] = []
        tx = cluster.trans_x
        ty = cluster.trans_y
        row = 0
        for bit, table in ((1, cluster.objects), (0, cluster.queries)):
            for entity_id, member in table.items():
                rows[entity_id * 2 + bit] = row
                members.append(member)
                speeds.append(member.speed)
                recon_x.append(member.abs_x + (tx - member.tr_x))
                recon_y.append(member.abs_y + (ty - member.tr_y))
                cns.append(member.cn_node)
                sheds.append(member.position_shed)
                row += 1
        self.rows = rows
        self.members = members
        self.speeds = speeds
        self.recon_x = recon_x
        self.recon_y = recon_y
        self.cns = cns
        self.sheds = sheds
        self.hb_ok: Optional[List[bool]] = None
        self._np_tables: Optional[tuple] = None

    def ensure_hb_ok(self, cluster: Any, spec: Any) -> List[bool]:
        """Per-row precomputed heartbeat admission verdicts, built on the
        first heartbeat hit against this view.

        Would an update byte-identical to this snapshot row pass the
        group admission tests?  Pure function of columns frozen with the
        view, so heartbeat classification reduces to an equality compare
        plus this flag.  Built lazily because moving clusters rebuild
        their view every tick (``advance`` bumps the version) and their
        members rarely heartbeat — only the parked steady state, where
        the view persists across ticks, ever reads these flags.
        """
        hb_ok = self.hb_ok
        if hb_ok is None:
            cx = cluster.cx
            cy = cluster.cy
            avespeed = cluster.avespeed
            cluster_cn = cluster.cn_node
            require_dest = spec.require_same_destination
            slack = spec.eviction_slack
            max_d = spec.theta_d * slack
            max_d_sq = max_d * max_d
            max_ds = spec.theta_s * slack
            hb_ok = []
            for speed, rx, ry, cn in zip(
                self.speeds, self.recon_x, self.recon_y, self.cns
            ):
                dx = rx - cx
                dy = ry - cy
                hb_ok.append(
                    (not require_dest or cn == cluster_cn)
                    and dx * dx + dy * dy <= max_d_sq
                    and abs(speed - avespeed) <= max_ds
                )
            self.hb_ok = hb_ok
        return hb_ok

    def numpy_tables(self, np: Any) -> tuple:
        """``(sorted_keys, sorted_rows, speeds, rx, ry, cns, sheds, hb_ok)``.

        The first two arrays are the key→row join table sorted by key for
        ``searchsorted``; the column arrays stay in row order.  Callers
        must run :meth:`ensure_hb_ok` first — the flag column is lazy.
        """
        tables = self._np_tables
        if tables is None:
            n = len(self.speeds)
            keys = np.fromiter(self.rows.keys(), dtype=np.int64, count=n)
            rows = np.fromiter(self.rows.values(), dtype=np.int64, count=n)
            order = np.argsort(keys, kind="stable")
            tables = (
                keys[order],
                rows[order],
                np.asarray(self.speeds, dtype=np.float64),
                np.asarray(self.recon_x, dtype=np.float64),
                np.asarray(self.recon_y, dtype=np.float64),
                np.asarray(self.cns, dtype=np.int64),
                np.asarray(self.sheds, dtype=bool),
                np.fromiter(self.hb_ok, dtype=bool, count=n),
            )
            self._np_tables = tables
        return tables


class IngestKernel:
    """Delivers one tick's updates to a SCUBA operator.

    Instances are stateful (per-operator counters and view caches), so
    every operator owns a fresh kernel — unlike the shared join-kernel
    backend instances.
    """

    def __init__(self) -> None:
        #: Updates committed through the batched fast path.
        self.fast_path_batched = 0
        #: Non-heartbeat members bulk-absorbed (aggregated refreshes).
        self.bulk_absorbs = 0
        #: ``ClusterGrid.refresh`` calls avoided by per-group dedupe.
        self.grid_refresh_deduped = 0
        #: Fast rows rerouted to the scalar path after their cluster was
        #: touched by an interleaved slow-path row (hook flushes) or a
        #: failed commit guard.
        self.batch_fallbacks = 0

    def run(self, operator: Any, updates: Sequence[Update]) -> None:
        """Ingest ``updates`` (one tick, arrival order) into ``operator``."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        return {
            "fast_path_batched": self.fast_path_batched,
            "bulk_absorbs": self.bulk_absorbs,
            "grid_refresh_deduped": self.grid_refresh_deduped,
            "batch_fallbacks": self.batch_fallbacks,
        }


class PythonBatchIngestKernel(IngestKernel):
    """Stdlib-only batched ingest (group admission in plain Python)."""

    #: Home groups below this size take the scalar path — a one-member
    #: "group" dedupes nothing and the plan bookkeeping would be pure
    #: overhead.
    min_group = 2

    #: Ticks a cluster sits out of classification after its group fails
    #: it (see the planning loop) — bounds the per-tick view-rebuild and
    #: classify cost to ``1 / (cooldown_ticks + 1)`` of the updates for
    #: clusters that never qualify, at the price of re-batching that many
    #: ticks late when one starts qualifying again.
    cooldown_ticks = 2

    def __init__(self) -> None:
        super().__init__()
        self._views: Dict[int, IngestView] = {}
        self._cooldown: Dict[int, int] = {}
        # Walk state, live only inside run() (the pre-absorb hook reads
        # it); never pickled — the kernel is a transient of its operator.
        self._active: Dict[int, tuple] = {}
        self._commit_cid: Dict[int, int] = {}
        self._updates: Sequence[Update] = ()
        self._keys: List[int] = []
        self._cols: Optional[tuple] = None
        self._batch: Optional[UpdateBatch] = None
        self._operator: Any = None
        self._extras: List[int] = []
        self._pos = 0

    # -- view cache ---------------------------------------------------------

    def _view_of(self, cluster: Any, spec: Any) -> IngestView:
        view = self._views.get(cluster.cid)
        if view is None or view.version != cluster.version:
            view = IngestView(cluster, spec)
            self._views[cluster.cid] = view
        return view

    def _prune_views(self, storage: Any) -> None:
        views = self._views
        if len(views) > 2 * len(storage) + 64:
            for cid in [cid for cid in views if cid not in storage]:
                del views[cid]
        cooldown = self._cooldown
        if len(cooldown) > 2 * len(storage) + 64:
            for cid in [cid for cid in cooldown if cid not in storage]:
                del cooldown[cid]

    # -- batch driver -------------------------------------------------------

    def run(self, operator: Any, updates: Sequence[Update]) -> None:
        n = len(updates)
        if n < self.min_group:
            on_update = operator.on_update
            for update in updates:
                on_update(update)
            return
        if isinstance(updates, TickBatch):
            # A tick batch is uniform-t by construction and carries its
            # columns; the grouping/classify/commit passes read those
            # directly and only materialize the rows that take a scalar
            # visit.
            self._run_tick(operator, updates, updates.t)
            return
        # The pipeline delivers one tick per call, so a uniform timestamp
        # is the overwhelmingly common case; the grouping pass verifies it
        # inline and backs out (before touching any state) if a hand-built
        # mixed-t stream shows up, which is then split into maximal
        # same-t runs to keep the per-tick advance-once logic sound.
        if self._run_tick(operator, updates, updates[0].t):
            return
        start = 0
        for i in range(1, n + 1):
            if i == n or updates[i].t != updates[start].t:
                self._run_tick(operator, updates[start:i], updates[start].t)
                start = i

    def _run_tick(
        self, operator: Any, updates: Sequence[Update], t: float
    ) -> bool:
        """Ingest one uniform-``t`` tick; False if ``updates`` turned out
        to mix timestamps (nothing has been mutated in that case)."""
        world = operator.world
        storage = world.storage
        home_get = world.home.key_map().get
        spec = operator.clusterer.spec
        # Seen by _classify overrides that want tick-wide columns (the
        # numpy kernel builds an UpdateBatch lazily, first large group).
        self._updates = updates
        self._batch = None

        # Group rows by home cluster, arrival order preserved.  Keys use
        # the home-table packing (entity_id * 2 + is_object); the list is
        # reused by classification for the view join.
        groups: Dict[int, List[int]] = {}
        get_group = groups.get
        # Homeless rows (entities with no cluster yet) are scalar visits.
        slow: List[int] = []
        append_slow = slow.append
        if isinstance(updates, TickBatch):
            # Column path: the batch's cached key column replaces the
            # per-row attribute reads, and classification/commit read the
            # scalar column views instead of materialized rows.
            keys = updates.keys
            xs, ys, speeds, cn_xs, cn_ys, _, _ = updates._scalar_columns()
            self._cols = (xs, ys, speeds, updates.cns, cn_xs, cn_ys)
            for i, key in enumerate(keys):
                cid = home_get(key)
                if cid is not None:
                    rows = get_group(cid)
                    if rows is None:
                        groups[cid] = [i]
                    else:
                        rows.append(i)
                else:
                    append_slow(i)
        else:
            self._cols = None
            keys = []
            append_key = keys.append
            obj = _OBJECT
            for i, update in enumerate(updates):
                if update.t != t:
                    self._cols = None
                    return False
                key = update.entity_id * 2 + (update.kind is obj)
                append_key(key)
                cid = home_get(key)
                if cid is not None:
                    rows = get_group(cid)
                    if rows is None:
                        groups[cid] = [i]
                    else:
                        rows.append(i)
                else:
                    append_slow(i)
        self._keys = keys

        # Classify each group.  Rows outside a fast group — entities with
        # no home yet, small groups, failed groups — become the walk's
        # scalar visits.
        plans = self._active
        plans.clear()
        min_group = self.min_group
        commit_cid = self._commit_cid
        commit_cid.clear()
        first_refresh: Dict[int, Any] = {}
        cooldown = self._cooldown
        for cid, rows in groups.items():
            if len(rows) < min_group:
                slow.extend(rows)
                continue
            left = cooldown.get(cid)
            if left:
                # This cluster's group just failed classification; its
                # updates are overwhelmingly likely to fail again (moving
                # convoys re-speed every tick), so skip the attempt — the
                # scalar path is always exact, this only decides where
                # the work runs.  Deterministic: same stream, same skips.
                if left == 1:
                    del cooldown[cid]
                else:
                    cooldown[cid] = left - 1
                slow.extend(rows)
                continue
            cluster = storage.get(cid)
            cluster.advance_to(t)
            if cluster.n > 1:
                classified = self._classify(updates, rows, cluster, spec)
            else:
                # Singletons trivially re-qualify but follow their member
                # (a centroid write per update): scalar path.
                classified = None
            if classified is None:
                cooldown[cid] = self.cooldown_ticks
                slow.extend(rows)
                continue
            assignments, refreshes = classified
            first_refresh[rows[0]] = cluster
            commit_cid[rows[-1]] = cid
            plans[cid] = (
                cluster, rows, assignments, refreshes, cluster.version
            )

        if not plans:
            on_update = operator.on_update
            for update in updates:
                on_update(update)
            return True

        # Commit walk.  Every table row is recorded up front in arrival
        # order (records are keyed per entity and nothing reads the
        # tables mid-tick, so the final table state — and its insertion
        # order — matches the scalar loop's); the walk then visits only
        # the positions where cluster state changes: scalar rows, each
        # group's first row (its single grid refresh) and its last row
        # (the group commit), in batch-arrival order.  Scalar visits go
        # through ``ingest_clustered`` — their table half is already
        # done.  The pre-absorb hook keeps interleaved slow rows
        # scalar-ordered (see module docstring); rows it re-routes are
        # merged back into the walk through the ``_extras`` heap.
        slow.extend(first_refresh)
        slow.extend(commit_cid)
        slow.sort()
        events = slow
        operator.record_updates(updates)
        self._updates = updates
        self._operator = operator
        extras = self._extras
        del extras[:]
        grid_refresh = world.grid.refresh
        ingest_clustered = operator.ingest_clustered
        previous_hook = world.pre_absorb_hook
        world.pre_absorb_hook = self._flush_plan
        try:
            num_events = len(events)
            ei = 0
            while ei < num_events or extras:
                if extras and (ei >= num_events or extras[0] < events[ei]):
                    i = heappop(extras)
                else:
                    i = events[ei]
                    ei += 1
                    cluster = first_refresh.get(i)
                    if cluster is not None:
                        # The one grid refresh the scalar loop would not
                        # collapse to a no-op: post-advance drift may
                        # force a re-registration, exactly here.  Skipped
                        # if the hook already cancelled the plan.
                        if cluster.cid in plans:
                            grid_refresh(cluster)
                        continue
                    cid = commit_cid.get(i)
                    if cid is not None:
                        if cid in plans:
                            self._commit(operator, updates, t, cid)
                        continue
                self._pos = i
                ingest_clustered(updates[i])
        finally:
            world.pre_absorb_hook = previous_hook
            plans.clear()
            commit_cid.clear()
            del extras[:]
            self._updates = ()
            self._cols = None
            self._operator = None
        self._prune_views(storage)
        return True

    # -- slow-path interleaving --------------------------------------------

    def _flush_plan(self, cluster: Any) -> None:
        """Pre-absorb/evict hook: a slow-path row is about to mutate
        ``cluster``.  Flush its already-walked fast rows through the
        scalar path (their admission state is still untouched, so the
        verdicts are re-derived identically) and re-route the rest —
        the not-yet-reached rows join the walk via the extras heap, and
        the group's now-stale refresh/commit events turn into no-ops
        because the plan is gone."""
        plan = self._active.pop(cluster.cid, None)
        if plan is None:
            return
        rows = plan[1]
        pos = self._pos
        extras = self._extras
        pending = []
        for i in rows:
            if i < pos:
                pending.append(i)
            else:
                heappush(extras, i)
        if pending:
            self.batch_fallbacks += len(pending)
            ingest_clustered = self._operator.ingest_clustered
            updates = self._updates
            for i in pending:
                ingest_clustered(updates[i])

    # -- group classification ----------------------------------------------

    def _classify(
        self, updates: Sequence[Update], rows: List[int], cluster: Any,
        spec: Any
    ) -> Optional[Tuple[List[Tuple[Any, bool]], int]]:
        """Per-member ``(member, heartbeat)`` pairs plus the non-heartbeat
        count when the whole group is fast-eligible, else ``None`` (whole
        group scalar — a single failing member mutates state its group
        mates' verdicts depend on, so the verdicts are only valid
        together).

        The hot branch is the heartbeat: an update byte-identical to its
        member's snapshot row, whose admission verdict is the view's
        (lazily built) precomputed ``hb_ok`` flag — equality compares
        only, no float math.  Everything else (a moved or re-speeding
        member, a shed member reporting back) takes the full refresh
        checks.

        When no current view is cached (the cluster's version changed —
        typically a moving cluster, whose ``advance`` bumps it every
        tick) the group is classified straight off the live member
        fields instead: same verdicts, but no O(members) snapshot build
        wasted on a group that is about to fail.  A view is (re)built
        only from a pure-heartbeat success, the one outcome whose commit
        keeps the version — and therefore the snapshot — stable.
        """
        view = self._views.get(cluster.cid)
        if view is None or view.version != cluster.version:
            return self._classify_direct(updates, rows, cluster, spec)
        view_rows = view.rows
        members = view.members
        v_speeds = view.speeds
        v_rx = view.recon_x
        v_ry = view.recon_y
        v_cns = view.cns
        v_sheds = view.sheds
        v_hb = view.hb_ok
        keys = self._keys
        refreshes = 0
        cx = cluster.cx
        cy = cluster.cy
        avespeed = cluster.avespeed
        cluster_cn = cluster.cn_node
        require_dest = spec.require_same_destination
        slack = spec.eviction_slack
        max_d = spec.theta_d * slack
        max_d_sq = max_d * max_d
        max_ds = spec.theta_s * slack
        radius_sq = cluster.radius * cluster.radius
        assignments: List[Tuple[Any, bool]] = []
        seen: set = set()
        seen_add = seen.add
        cols = self._cols
        if cols is not None:
            u_xs, u_ys, u_speeds, u_cns = cols[0], cols[1], cols[2], cols[3]
        for i in rows:
            row = view_rows.get(keys[i])
            if row is None:
                return None
            seen_add(row)
            if cols is not None:
                x = u_xs[i]
                y = u_ys[i]
                speed = u_speeds[i]
                cn = u_cns[i]
            else:
                update = updates[i]
                loc = update.loc
                x = loc.x
                y = loc.y
                speed = update.speed
                cn = update.cn_node
            if (
                x == v_rx[row]
                and y == v_ry[row]
                and speed == v_speeds[row]
                and cn == v_cns[row]
                and not v_sheds[row]
            ):
                # Heartbeat: the update repeats the snapshot row, so its
                # admission verdict is the precomputed one (the update's
                # destination check coincides with the member's, folded
                # into the flag).
                if v_hb is None:
                    v_hb = view.ensure_hb_ok(cluster, spec)
                if not v_hb[row]:
                    return None
                assignments.append((members[row], True))
                continue
            if require_dest and cn != cluster_cn:
                return None
            dx = x - cx
            dy = y - cy
            d_sq = dx * dx + dy * dy
            if d_sq > max_d_sq:
                return None
            if abs(speed - avespeed) > max_ds:
                return None
            if speed != v_speeds[row]:
                # A speed change mutates the running speed sum between
                # sequential absorbs — order-dependent, scalar territory.
                return None
            if d_sq > radius_sq:
                # Radius growth re-registers the grid mid-group in the
                # scalar loop; keeping the radius pinned is what lets the
                # deferred refresh collapse losslessly.  (Heartbeats are
                # exempt: the scalar absorb early-returns before its
                # radius math.)
                return None
            assignments.append((members[row], False))
            refreshes += 1
        if len(seen) != len(rows):
            # A duplicate entity in the tick: verdicts are only valid for
            # one update per member (cheaper as one final check than a
            # membership test per row).
            return None
        return assignments, refreshes

    def _classify_direct(
        self, updates: Sequence[Update], rows: List[int], cluster: Any,
        spec: Any
    ) -> Optional[Tuple[List[Tuple[Any, bool]], int]]:
        """View-less classification against live member fields (same
        verdicts as the column path — the view is a verbatim snapshot of
        exactly these fields)."""
        objects = cluster.objects
        queries = cluster.queries
        keys = self._keys
        tx = cluster.trans_x
        ty = cluster.trans_y
        cx = cluster.cx
        cy = cluster.cy
        avespeed = cluster.avespeed
        cluster_cn = cluster.cn_node
        require_dest = spec.require_same_destination
        slack = spec.eviction_slack
        max_d = spec.theta_d * slack
        max_d_sq = max_d * max_d
        max_ds = spec.theta_s * slack
        radius_sq = cluster.radius * cluster.radius
        assignments: List[Tuple[Any, bool]] = []
        refreshes = 0
        seen: set = set()
        seen_add = seen.add
        cols = self._cols
        if cols is not None:
            u_xs, u_ys, u_speeds, u_cns = cols[0], cols[1], cols[2], cols[3]
        for i in rows:
            key = keys[i]
            member = (objects if key & 1 else queries).get(key >> 1)
            if member is None:
                return None
            seen_add(key)
            if cols is not None:
                x = u_xs[i]
                y = u_ys[i]
                speed = u_speeds[i]
                cn = u_cns[i]
            else:
                update = updates[i]
                loc = update.loc
                x = loc.x
                y = loc.y
                speed = update.speed
                cn = update.cn_node
            m_speed = member.speed
            rx = member.abs_x + (tx - member.tr_x)
            ry = member.abs_y + (ty - member.tr_y)
            if (
                x == rx
                and y == ry
                and speed == m_speed
                and cn == member.cn_node
                and not member.position_shed
            ):
                # Heartbeat: admission against the unchanged snapshot
                # values, radius exempt (the scalar absorb early-returns
                # before its radius math).
                dx = rx - cx
                dy = ry - cy
                if require_dest and cn != cluster_cn:
                    return None
                if dx * dx + dy * dy > max_d_sq:
                    return None
                if abs(speed - avespeed) > max_ds:
                    return None
                assignments.append((member, True))
                continue
            if require_dest and cn != cluster_cn:
                return None
            dx = x - cx
            dy = y - cy
            d_sq = dx * dx + dy * dy
            if d_sq > max_d_sq:
                return None
            if abs(speed - avespeed) > max_ds:
                return None
            if speed != m_speed:
                return None
            if d_sq > radius_sq:
                return None
            assignments.append((member, False))
            refreshes += 1
        if len(seen) != len(rows):
            # Duplicate entity in the tick — same bail-out as the column
            # path's final dedupe check.
            return None
        if not refreshes:
            # Pure heartbeats: the commit will leave the version — and so
            # this snapshot — intact, so cache a view and classify the
            # next tick through the cheaper column compares.
            self._views[cluster.cid] = IngestView(cluster, spec)
        return assignments, refreshes

    # -- group commit -------------------------------------------------------

    def _commit(
        self, operator: Any, updates: Sequence[Update], t: float, cid: int
    ) -> None:
        # Guarded by the caller (``cid in plans``), so the plan is active.
        cluster, rows, assignments, refreshed, version0 = (
            self._active.pop(cid)
        )
        if cluster.version != version0:
            # Defensive backstop: the hook should have cancelled the plan
            # for any foreign mutation.  Re-derive scalar verdicts.
            self.batch_fallbacks += len(rows)
            ingest_clustered = operator.ingest_clustered
            for i in rows:
                ingest_clustered(updates[i])
            return
        if not refreshed:
            # Pure heartbeats (the parked steady state): last-seen stamps
            # only, nothing else moves.
            for member, _ in assignments:
                member.last_t = t
        else:
            tx = cluster.trans_x
            ty = cluster.trans_y
            cols = self._cols
            if cols is not None:
                u_xs, u_ys, _, u_cns, u_cn_xs, u_cn_ys = cols
            for i, (member, heartbeat) in zip(rows, assignments):
                if heartbeat:
                    member.last_t = t
                    continue
                if cols is not None:
                    x = u_xs[i]
                    y = u_ys[i]
                    cn = u_cns[i]
                else:
                    update = updates[i]
                    loc = update.loc
                    x = loc.x
                    y = loc.y
                    cn = update.cn_node
                if member.position_shed:
                    member.position_shed = False
                    cluster.shed_count -= 1
                member.abs_x = x
                member.abs_y = y
                member.tr_x = tx
                member.tr_y = ty
                member.last_t = t
                if member.cn_node != cn:
                    member.cn_node = cn
                    if cols is not None:
                        member.cn_x = u_cn_xs[i]
                        member.cn_y = u_cn_ys[i]
                    else:
                        member.cn_x = update.cn_loc.x
                        member.cn_y = update.cn_loc.y
            # One aggregated bump in place of ``refreshed`` sequential
            # ones: same final counter values, same cache invalidation.
            cluster.version += refreshed
        group = len(rows)
        self.fast_path_batched += group
        self.bulk_absorbs += refreshed
        self.grid_refresh_deduped += group - 1
        clusterer = operator.clusterer
        clusterer.processed += group
        clusterer.fast_path_hits += group
        if not operator._shed_is_noop:
            policy = operator.config.shedding
            cx = cluster.cx
            cy = cluster.cy
            hypot = math.hypot
            for i in rows:
                update = updates[i]
                loc = update.loc
                policy.apply(
                    cluster, update, hypot(loc.x - cx, loc.y - cy)
                )
