"""Incremental (Leader-Follower) moving-cluster formation — paper §3.2.

Every incoming location update is assigned to a moving cluster immediately,
in one pass, using only the clusters already formed — no buffering of the
data set, no re-clustering when the evaluation interval expires.  The
algorithm is the paper's five-step adaptation of Leader-Follower
clustering:

1. probe the ClusterGrid around the update's position for candidate
   clusters;
2. no candidates → the entity forms its own single-member cluster;
3. otherwise test each candidate's three admission conditions — same
   destination connection node, centroid distance within ``Θ_D``, speed
   within ``Θ_S`` of the cluster average;
4. a qualifying cluster absorbs the entity (we pick the *nearest*
   qualifying cluster, a deterministic tie-break the paper leaves open);
5. no qualifying cluster → the entity forms its own cluster.

An entity that was already clustered is first re-validated against its
current cluster: if it still qualifies, the cluster simply refreshes its
state; if not (it diverged, or the cluster's destination changed), it is
evicted and re-clustered from step 1 — "objects and queries can enter or
leave a moving cluster at any time" (§3.1).
"""

from __future__ import annotations

import math
from itertools import count
from typing import Optional

from ..generator import EntityKind, TickBatch, Update
from .cluster import MovingCluster
from .registry import ClusterWorld
from .thresholds import ClusteringSpec

__all__ = ["IncrementalClusterer"]


class IncrementalClusterer:
    """One-pass run-time clustering of moving objects and queries."""

    def __init__(self, world: ClusterWorld, spec: ClusteringSpec) -> None:
        self.world = world
        self.spec = spec
        # One counter per row outcome; every update lands in exactly one.
        #: Stayed in its cluster, re-reporting exactly what the cluster
        #: already holds (no version bump).
        self.heartbeats = 0
        #: Stayed in its cluster with a new position / speed / window.
        self.refreshes = 0
        #: Left its cluster (diverged or crossed a node) and re-clustered.
        self.reclustered = 0
        #: Had no cluster yet.
        self.new_entities = 0
        #: How many node-crossing updates joined a successor cluster via a
        #: split link, skipping the grid probe (splitting enabled only).
        self.split_joins = 0

    @property
    def processed(self) -> int:
        """Updates processed since construction (for throughput reporting)."""
        return (
            self.heartbeats + self.refreshes + self.reclustered + self.new_entities
        )

    @property
    def fast_path_hits(self) -> int:
        """How many updates re-used their previous cluster without probing."""
        return self.heartbeats + self.refreshes

    # -- public API -------------------------------------------------------------

    def ingest(self, update: Update) -> MovingCluster:
        """Assign ``update`` to a moving cluster; returns that cluster."""
        world = self.world
        current_cid = world.home.cluster_of(update.entity_id, update.kind)
        if current_cid is None:
            return self._recluster(update, None)
        current = world.storage.get(current_cid)
        # Track the moving members: advance the cluster to the update's
        # time before re-validating against its centroid.
        current.advance_to(update.t)
        if not self._qualifies(update, current, ignore_self=True):
            return self._recluster(update, current)
        # Fast path: the entity stays in its cluster.  Its home entry is
        # already correct, so absorb + grid refresh is all that is needed
        # — this is the per-update steady state.
        version = current.version
        current.absorb(update)
        if current.version == version:
            self.heartbeats += 1
        else:
            self.refreshes += 1
        world.grid.refresh(current)
        return current

    def ingest_tick(self, batch: TickBatch, shedding=None) -> None:
        """Cluster one whole tick straight off its columns.

        Leaves every cluster, member, home and grid field exactly as a
        loop of :meth:`ingest` over ``batch``'s rows would (each followed
        by ``shedding.apply`` when a policy is given — the second half of
        ``Scuba.on_update``), without building an ``Update`` for the rows
        that stay in their cluster.  For those, the admission test of
        :meth:`_qualifies`, the refresh branch of
        :meth:`MovingCluster.absorb` and the containment branch of
        :meth:`ClusterGrid.refresh` are repeated here in place, on
        purpose: the stay decision is taken for ~95 % of convoy traffic
        and its call chain cost more than its work.  Rows run strictly in
        arrival order against the live cluster fields, so a leave / new
        row that moves a centroid or an average speed is seen by every
        later row of that cluster, and containment is checked on every
        row that bumps the version — the rows where the reference could
        re-register.  Leave / new / node-crossing rows materialise their
        ``Update`` and take :meth:`_recluster`.
        """
        world = self.world
        spec = self.spec
        t = batch.t
        home_get = world.home.key_map().get
        clusters = world.storage.cid_map()
        grid = world.grid
        grid_refresh = grid.refresh
        # The containment check below is ClusterGrid.refresh with the
        # version early-out resolved; cover_maps() states the layouts.
        registered, verified = grid.cover_maps()
        registered_get = registered.get
        verified_get = verified.get
        recluster = self._recluster
        require_dest = spec.require_same_destination
        max_d = spec.theta_d * spec.eviction_slack
        max_d_sq = max_d * max_d
        max_ds = spec.theta_s * spec.eviction_slack
        xs, ys, speeds, cn_xs, cn_ys, ws, hs = batch._scalar_columns()
        sqrt = math.sqrt
        heartbeats = refreshes = skips = 0
        for i, key, eid, is_obj, x, y, speed, cn in zip(
            count(), batch.keys, batch.ids, batch.kinds, xs, ys, speeds, batch.cns
        ):
            cid = home_get(key)
            if cid is None:
                cluster = recluster(batch[i], None)
            else:
                cluster = clusters[cid]
                if t > cluster.last_moved:
                    cluster.advance(t - cluster.last_moved)
                    cluster.last_moved = t
                objects = cluster.objects
                queries = cluster.queries
                n = len(objects) + len(queries)
                cx = cluster.cx
                cy = cluster.cy
                dx = x - cx
                dy = y - cy
                d_sq = dx * dx + dy * dy
                if (require_dest and cn != cluster.cn_node) or (
                    # A single-member cluster is its own average.
                    n > 1
                    and (
                        d_sq > max_d_sq
                        or abs(speed - cluster.avespeed) > max_ds
                    )
                ):
                    cluster = recluster(batch[i], cluster)
                else:
                    member = (objects if is_obj else queries)[eid]
                    m_speed = member.speed
                    if (
                        speed == m_speed
                        and x == member.abs_x + (cluster.trans_x - member.tr_x)
                        and y == member.abs_y + (cluster.trans_y - member.tr_y)
                        and cn == member.cn_node
                        and not member.position_shed
                        and (
                            is_obj
                            or (
                                ws[i] == member.range_width
                                and hs[i] == member.range_height
                            )
                        )
                    ):
                        heartbeats += 1
                        member.last_t = t
                        if verified_get(cid) == (
                            cluster.version, cx, cy, cluster.radius
                        ):
                            skips += 1
                        else:
                            grid_refresh(cluster)
                    else:
                        refreshes += 1
                        version = cluster.version = cluster.version + 1
                        if member.position_shed:
                            member.position_shed = False
                            cluster.shed_count -= 1
                        speed_sum = cluster._speed_sum = cluster._speed_sum + (
                            speed - m_speed
                        )
                        cluster.avespeed = speed_sum / n
                        member.speed = speed
                        member.abs_x = x
                        member.abs_y = y
                        member.tr_x = cluster.trans_x
                        member.tr_y = cluster.trans_y
                        member.last_t = t
                        if member.cn_node != cn:
                            member.cn_node = cn
                            member.cn_x = cn_xs[i]
                            member.cn_y = cn_ys[i]
                        if not is_obj and (
                            ws[i] != member.range_width
                            or hs[i] != member.range_height
                        ):
                            cluster.resize_window(member, ws[i], hs[i])
                        if n == 1:
                            # A single-member cluster follows its entity.
                            cx = cluster.cx = x
                            cy = cluster.cy = y
                            radius = cluster.radius = 0.0
                            cluster.update_expiry(t)
                        else:
                            radius = cluster.radius
                            if d_sq > radius * radius:
                                radius = cluster.radius = sqrt(d_sq)
                        # The version moved, so the early-out cannot fire.
                        reg = registered_get(cid)
                        if reg is None:
                            # Not registered: refresh registers it.
                            grid_refresh(cluster)
                        else:
                            gx = cx - reg[0]
                            gy = cy - reg[1]
                            if (gx * gx + gy * gy) ** 0.5 + (
                                radius + cluster.max_query_half_diag
                            ) <= reg[2]:
                                verified[cid] = (version, cx, cy, radius)
                            else:
                                grid_refresh(cluster)
            if shedding is not None:
                shedding.apply(
                    cluster,
                    eid,
                    EntityKind.OBJECT if is_obj else EntityKind.QUERY,
                    math.hypot(x - cluster.cx, y - cluster.cy),
                )
        self.heartbeats += heartbeats
        self.refreshes += refreshes
        grid.refresh_skips += skips

    def _recluster(
        self, update: Update, current: Optional[MovingCluster]
    ) -> MovingCluster:
        """Steps 1–5 for an entity that is new (``current`` is None) or no
        longer fits ``current``, which was advanced to ``update.t``."""
        world = self.world
        previous: Optional[MovingCluster] = None
        crossed_node = False
        if current is None:
            self.new_entities += 1
        else:
            self.reclustered += 1
            crossed_node = update.cn_node != current.cn_node
            if crossed_node and self.spec.enable_splitting:
                successor = self._follow_successor(update, current)
                if successor is not None:
                    world.evict(current, update.entity_id, update.kind)
                    world.absorb(successor, update)
                    self.split_joins += 1
                    return successor
            world.evict(current, update.entity_id, update.kind)
            previous = current

        chosen = self._find_cluster(update)
        if chosen is None:
            chosen = world.create_cluster(
                centroid=update.loc,
                cn_node=update.cn_node,
                cn_loc=update.cn_loc,
                now=update.t,
            )
        world.absorb(chosen, update)
        if crossed_node and self.spec.enable_splitting and previous is not None:
            # Record the split: platoon mates crossing toward the same next
            # hop will join `chosen` directly.
            if previous.successors is None:
                previous.successors = {}
            previous.successors[update.cn_node] = chosen.cid
        return chosen

    # -- admission ---------------------------------------------------------------

    def _qualifies(
        self, update: Update, cluster: MovingCluster, ignore_self: bool = False
    ) -> bool:
        """The three conditions of §3.2 Step 3.

        ``ignore_self`` marks re-validation of an entity against its *own*
        cluster: a single-member cluster trivially keeps its entity (it is
        its own average), and multi-member clusters apply the spec's
        eviction slack so boundary members don't thrash in and out.
        """
        spec = self.spec
        if spec.require_same_destination and update.cn_node != cluster.cn_node:
            return False
        slack = 1.0
        if ignore_self:
            if len(cluster.objects) + len(cluster.queries) == 1:
                # Single-member cluster: the entity is its own average, so
                # the distance/speed tests compare it against itself.
                return True
            slack = spec.eviction_slack
        loc = update.loc
        dx = loc.x - cluster.cx
        dy = loc.y - cluster.cy
        max_d = spec.theta_d * slack
        if dx * dx + dy * dy > max_d * max_d:
            return False
        return abs(update.speed - cluster.avespeed) <= spec.theta_s * slack

    def _follow_successor(
        self, update: Update, current: MovingCluster
    ) -> Optional[MovingCluster]:
        """A still-valid successor cluster for this node crossing, if any."""
        if current.successors is None:
            return None
        succ_cid = current.successors.get(update.cn_node)
        if succ_cid is None or succ_cid not in self.world.storage:
            return None
        successor = self.world.storage.get(succ_cid)
        if successor.cn_node != update.cn_node:
            return None
        successor.advance_to(update.t)
        if self._qualifies(update, successor):
            return successor
        return None

    def _find_cluster(self, update: Update) -> Optional[MovingCluster]:
        """Steps 1 and 3: grid probe, then nearest qualifying candidate.

        Candidates are scanned in one pass straight off the grid cells with
        a ``(dist, cid)`` min-key — equivalent to the sort-by-cid +
        strictly-closer scan it replaces (ascending-cid iteration with a
        strict ``<`` keeps the lowest cid among distance ties, i.e. the
        lexicographic minimum) without materialising and sorting the
        candidate set per probe.
        """
        world = self.world
        spec = self.spec
        storage = world.storage
        grid = world.grid
        loc = update.loc
        best: Optional[MovingCluster] = None
        best_key: Optional[tuple] = None
        seen: set = set()
        for cell in grid.cells_for_circle(loc.x, loc.y, spec.theta_d):
            for cid in grid.members(cell):
                if cid in seen:
                    continue
                seen.add(cid)
                cluster = storage.get(cid)
                if spec.require_same_destination and (
                    update.cn_node != cluster.cn_node
                ):
                    continue
                cluster.advance_to(update.t)
                dist = math.hypot(loc.x - cluster.cx, loc.y - cluster.cy)
                if dist > spec.theta_d:
                    continue
                if abs(update.speed - cluster.avespeed) > spec.theta_s:
                    continue
                key = (dist, cid)
                if best_key is None or key < best_key:
                    best = cluster
                    best_key = key
        return best
