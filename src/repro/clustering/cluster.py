"""Moving clusters (paper §3).

A :class:`MovingCluster` abstracts a set of moving objects *and* moving
queries that travel closely together: it carries the paper's full state
tuple ``(m.cid, m.loc_t, m.n, m.oids, m.qids, m.avespeed, m.cnloc, m.r,
m.exptime)``.

Member positions are stored **relative to the cluster's motion** (§3.1).
The paper keeps polar coordinates with a *transformation vector* recording
centroid shifts between periodic executions, fixed up lazily when a
join-within actually needs member positions.  We implement the same lazy
scheme with an exactness twist that matters in floating point:

* each member stores the **absolute coordinates of its last report** plus a
  snapshot of the cluster's cumulative **rigid-translation vector** at that
  moment;
* post-join relocation (the whole cluster advancing along its velocity
  vector) only bumps the translation vector — members ride along for free
  and are reconstructed as ``reported + (translation now − translation at
  report)``;
* centroid *re-definitions* (absorbing a member pulls the centroid toward
  it) do not move any member, so they touch nothing;
* :meth:`flush_transform` rebases all members onto the current translation
  — the paper's lazy transformation-vector application.

Because a member that reported since the last relocation has a zero pending
translation, its reconstructed position is **bit-identical** to what it
reported — SCUBA's join-within then agrees exactly with an individual
evaluation, boundary cases included.

The polar view of a member's centroid-relative position is available via
:meth:`member_polar` for API faithfulness.

Load shedding (§5) is expressed here as members whose position is dropped
(``position_shed``): the cluster (or its nucleus) is then the sole
approximation of their whereabouts.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional

from ..generator import EntityKind, Update
from ..geometry import Circle, Point, PolarCoord, to_polar
from ..network import NodeId

__all__ = ["ClusterMember", "MovingCluster"]


class ClusterMember:
    """Per-member state kept inside a moving cluster."""

    __slots__ = (
        "entity_id",
        "kind",
        "abs_x",
        "abs_y",
        "tr_x",
        "tr_y",
        "speed",
        "range_width",
        "range_height",
        "half_diag",
        "last_t",
        "position_shed",
        "cn_node",
        "cn_x",
        "cn_y",
    )

    def __init__(
        self,
        entity_id: int,
        kind: EntityKind,
        abs_x: float,
        abs_y: float,
        tr_x: float,
        tr_y: float,
        speed: float,
        last_t: float,
        range_width: float = 0.0,
        range_height: float = 0.0,
        cn_node: NodeId = -1,
        cn_x: float = 0.0,
        cn_y: float = 0.0,
    ) -> None:
        self.entity_id = entity_id
        self.kind = kind
        # Absolute position at last report ...
        self.abs_x = abs_x
        self.abs_y = abs_y
        # ... and the cluster's rigid-translation vector at that moment
        # (see MovingCluster docstring).
        self.tr_x = tr_x
        self.tr_y = tr_y
        self.speed = speed
        self.range_width = range_width
        self.range_height = range_height
        self.half_diag = 0.5 * math.hypot(range_width, range_height)
        self.last_t = last_t
        #: True once load shedding discarded this member's position.
        self.position_shed = False
        # The member's own current destination, as last reported.  Usually
        # equals the cluster's cnloc (the admission predicate requires it);
        # it diverges briefly after the member crosses the node, which is
        # exactly the signal cluster *splitting* keys on.
        self.cn_node = cn_node
        self.cn_x = cn_x
        self.cn_y = cn_y

    def __repr__(self) -> str:
        shed = ", shed" if self.position_shed else ""
        return (
            f"ClusterMember({self.kind.value} {self.entity_id}, "
            f"abs=({self.abs_x:g}, {self.abs_y:g}){shed})"
        )


class MovingCluster:
    """A group of moving objects and queries sharing motion properties."""

    __slots__ = (
        "cid",
        "version",
        "cx",
        "cy",
        "radius",
        "avespeed",
        "cn_node",
        "cn_loc",
        "exptime",
        "created_at",
        "objects",
        "queries",
        "trans_x",
        "trans_y",
        "_speed_sum",
        "max_query_half_diag",
        "nucleus_radius",
        "shed_count",
        "last_moved",
        "successors",
    )

    def __init__(
        self,
        cid: int,
        centroid: Point,
        cn_node: NodeId,
        cn_loc: Point,
        now: float,
    ) -> None:
        self.cid = cid
        #: Monotonic change counter: bumped by every mutation that can
        #: alter join behaviour (membership, member positions, centroid,
        #: radius, shed state).  Consumers snapshot it to know whether
        #: derived state — a ClusterJoinView, a memoized join-between
        #: verdict — is still valid.  Rigid-translation *flushes* do not
        #: bump it: they rebase member storage without changing any
        #: reconstructed position.
        self.version = 0
        self.cx = centroid.x
        self.cy = centroid.y
        self.radius = 0.0
        self.avespeed = 0.0
        self.cn_node = cn_node
        self.cn_loc = cn_loc
        self.exptime = math.inf
        self.created_at = now
        self.objects: Dict[int, ClusterMember] = {}
        self.queries: Dict[int, ClusterMember] = {}
        # Cumulative rigid-translation vector (the transformation vector):
        # total centroid displacement due to advance() since the last flush.
        self.trans_x = 0.0
        self.trans_y = 0.0
        self._speed_sum = 0.0
        # Largest query-window half diagonal among members; the join-between
        # filter inflates the cluster circle by this to stay lossless.
        self.max_query_half_diag = 0.0
        #: Radius of the load-shedding nucleus (0 = no nucleus).
        self.nucleus_radius = 0.0
        #: Number of members whose positions have been load shed.
        self.shed_count = 0
        #: Simulation time up to which the cluster has been advanced along
        #: its velocity vector (see :meth:`advance_to`).
        self.last_moved = now
        #: Successor-cluster links for splitting (new destination node →
        #: cluster id).  Lazily allocated; None when splitting is off or no
        #: member has peeled off yet.
        self.successors: Optional[Dict[NodeId, int]] = None

    # -- basic accessors -------------------------------------------------------

    @property
    def centroid(self) -> Point:
        return Point(self.cx, self.cy)

    @property
    def n(self) -> int:
        """Total member count (paper's ``m.n``)."""
        return len(self.objects) + len(self.queries)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def is_empty(self) -> bool:
        return not self.objects and not self.queries

    @property
    def is_mixed(self) -> bool:
        """True when the cluster holds both objects and queries.

        Only mixed clusters can produce results from a self join-within
        (paper Algorithm 1, line 14).
        """
        return bool(self.objects) and bool(self.queries)

    def circle(self) -> Circle:
        """The cluster's circular footprint."""
        return Circle(self.centroid, self.radius)

    def members(self) -> Iterator[ClusterMember]:
        """All members, objects first (deterministic order)."""
        yield from self.objects.values()
        yield from self.queries.values()

    def get_member(self, entity_id: int, kind: EntityKind) -> Optional[ClusterMember]:
        table = self.objects if kind is EntityKind.OBJECT else self.queries
        return table.get(entity_id)

    # -- member positions -------------------------------------------------------

    def member_location(self, member: ClusterMember) -> Optional[Point]:
        """Best-known absolute position of ``member``.

        The last reported position carried along by any rigid translation
        applied since.  ``None`` when the member's position was load shed —
        callers must then fall back to the nucleus/cluster approximation.
        """
        if member.position_shed:
            return None
        return Point(
            member.abs_x + (self.trans_x - member.tr_x),
            member.abs_y + (self.trans_y - member.tr_y),
        )

    def member_polar(self, member: ClusterMember) -> Optional[PolarCoord]:
        """The member's centroid-relative position in the paper's polar form."""
        loc = self.member_location(member)
        if loc is None:
            return None
        return to_polar(loc, self.centroid)

    def flush_transform(self) -> None:
        """Apply the pending transformation vector to all members.

        After this, every member's stored position is current (zero pending
        translation).  Run lazily before a join-within touches member
        positions (§3.1: "we refrain from constantly updating the relative
        positions ... as this info is not needed, unless a join-within is
        to be performed").
        """
        tx, ty = self.trans_x, self.trans_y
        if tx == 0.0 and ty == 0.0:
            for member in self.members():
                member.tr_x = 0.0
                member.tr_y = 0.0
            return
        if not self.shed_count:
            # Shed-free (the steady-state common case): no per-member
            # position_shed branch and no members() generator chaining.
            for table in (self.objects, self.queries):
                for member in table.values():
                    member.abs_x += tx - member.tr_x
                    member.abs_y += ty - member.tr_y
                    member.tr_x = 0.0
                    member.tr_y = 0.0
            self.trans_x = 0.0
            self.trans_y = 0.0
            return
        for member in self.members():
            if not member.position_shed:
                member.abs_x += tx - member.tr_x
                member.abs_y += ty - member.tr_y
            member.tr_x = 0.0
            member.tr_y = 0.0
        self.trans_x = 0.0
        self.trans_y = 0.0

    # -- membership maintenance ---------------------------------------------------

    def absorb(self, update: Update) -> None:
        """Add a new member or refresh an existing one (paper §3.2 Step 4).

        The centroid is adjusted toward the reported position, the average
        speed recomputed, and the radius enlarged when the member lies
        outside the current footprint.
        """
        kind = update.kind
        is_object = kind is EntityKind.OBJECT
        table = self.objects if is_object else self.queries
        member = table.get(update.entity_id)
        loc = update.loc
        x, y = loc.x, loc.y
        if member is not None:
            if (
                not member.position_shed
                and update.speed == member.speed
                and update.cn_node == member.cn_node
                and x == member.abs_x + (self.trans_x - member.tr_x)
                and y == member.abs_y + (self.trans_y - member.tr_y)
                and (
                    is_object
                    or (
                        update.range_width == member.range_width
                        and update.range_height == member.range_height
                    )
                )
            ):
                # Heartbeat: the member re-reported exactly where the
                # cluster already places it, at the same speed, bound for
                # the same node, with the same window.  Nothing
                # join-relevant changed, so no version bump — parked
                # traffic stays cacheable while reporting.
                member.last_t = update.t
                return
            self.version += 1
            # Refresh — the per-tuple steady state, kept deliberately lean.
            # The paper "refrains from constantly updating" cluster-relative
            # state: a re-reporting member just overwrites its position and
            # speed.  The centroid is NOT re-balanced here (the cluster
            # tracks its members through advance(); maintenance recentres
            # once per interval), so no covering-radius inflation is needed
            # — only the absorbed member itself can extend the footprint.
            if member.position_shed:
                member.position_shed = False
                self.shed_count -= 1
            self._speed_sum += update.speed - member.speed
            self.avespeed = self._speed_sum / (
                len(self.objects) + len(self.queries)
            )
            member.speed = update.speed
            member.abs_x = x
            member.abs_y = y
            member.tr_x = self.trans_x
            member.tr_y = self.trans_y
            member.last_t = update.t
            if member.cn_node != update.cn_node:
                member.cn_node = update.cn_node
                member.cn_x = update.cn_loc.x
                member.cn_y = update.cn_loc.y
            if not is_object and (
                update.range_width != member.range_width
                or update.range_height != member.range_height
            ):
                self.resize_window(
                    member, update.range_width, update.range_height
                )
            if len(self.objects) + len(self.queries) == 1:
                # A single-member cluster simply follows its entity: the
                # member *is* the centroid, and the footprint is a point.
                self.cx = x
                self.cy = y
                self.radius = 0.0
                self._update_expiry(update.t)
                return
            dx = x - self.cx
            dy = y - self.cy
            dist_sq = dx * dx + dy * dy
            if dist_sq > self.radius * self.radius:
                self.radius = math.sqrt(dist_sq)
            return
        self.version += 1
        # Absorption of a new member (paper §3.2 Step 4): the centroid is
        # adjusted toward the member by 1/n of the gap.  That adjustment
        # moves every *other* member relatively outward by the shift
        # length, so the radius absorbs it too (recompute_radius later
        # re-tightens) — otherwise a drifted member could escape the
        # footprint and join-between would prune a true match.
        count = len(self.objects) + len(self.queries) + 1
        shift_x = (x - self.cx) / count
        shift_y = (y - self.cy) / count
        self.cx += shift_x
        self.cy += shift_y
        member = ClusterMember(
            entity_id=update.entity_id,
            kind=kind,
            abs_x=x,
            abs_y=y,
            tr_x=self.trans_x,
            tr_y=self.trans_y,
            speed=update.speed,
            last_t=update.t,
            range_width=0.0 if is_object else update.range_width,
            range_height=0.0 if is_object else update.range_height,
            cn_node=update.cn_node,
            cn_x=update.cn_loc.x,
            cn_y=update.cn_loc.y,
        )
        table[update.entity_id] = member
        self._speed_sum += update.speed
        self.avespeed = self._speed_sum / count
        if not is_object and member.half_diag > self.max_query_half_diag:
            self.max_query_half_diag = member.half_diag
        covering = self.radius
        if count > 1:
            covering += math.hypot(shift_x, shift_y)
        dist = math.hypot(x - self.cx, y - self.cy)
        self.radius = covering if covering > dist else dist
        self._update_expiry(update.t)

    def remove(self, entity_id: int, kind: EntityKind) -> ClusterMember:
        """Remove a member (it re-clustered elsewhere or its stream ended)."""
        table = self.objects if kind is EntityKind.OBJECT else self.queries
        member = table.pop(entity_id)
        self.version += 1
        self._speed_sum -= member.speed
        if member.position_shed:
            self.shed_count -= 1
        remaining = self.n
        if remaining:
            loc = self.member_location(member)
            if loc is not None:
                # Centroid was the mean including this member; re-balance.
                shift_x = (self.cx - loc.x) / remaining
                shift_y = (self.cy - loc.y) / remaining
                self.cx += shift_x
                self.cy += shift_y
                # Remaining members drifted outward by the shift length;
                # cover them (recompute_radius re-tightens later).
                self.radius += math.hypot(shift_x, shift_y)
            self.avespeed = self._speed_sum / remaining
            if kind is EntityKind.QUERY:
                self._recompute_query_reach()
        else:
            self.avespeed = 0.0
            self._speed_sum = 0.0
            self.max_query_half_diag = 0.0
        return member

    def adopt(self, member: ClusterMember) -> None:
        """Take a member wholesale during a split — no re-absorption.

        The caller (``split_cluster``) owns the derived-state rebuild via
        ``_finalise``; this only files the member and folds it into the
        running sums.  The adopting cluster starts with a zero translation
        vector and the member was flushed by the split, so its snapshot is
        reset to zero.
        """
        table = self.objects if member.kind is EntityKind.OBJECT else self.queries
        table[member.entity_id] = member
        member.tr_x = 0.0
        member.tr_y = 0.0
        if member.position_shed:
            self.shed_count += 1
        self._speed_sum += member.speed
        if member.kind is EntityKind.QUERY and member.half_diag > self.max_query_half_diag:
            self.max_query_half_diag = member.half_diag

    def discard(self, entity_id: int, kind: EntityKind) -> None:
        """Drop a member with *no* derived-state rebalance (split hand-off).

        Unlike :meth:`remove`, the member was already adopted elsewhere and
        this cluster is about to dissolve — nothing to keep consistent.
        """
        table = self.objects if kind is EntityKind.OBJECT else self.queries
        table.pop(entity_id, None)

    def resize_window(
        self, member: ClusterMember, width: float, height: float
    ) -> None:
        """A query member re-reported with a different window.

        The cluster's reach grows with a wider window and is recomputed
        when the widest member shrank; callers bump ``version``, which is
        all the join's per-interval footprint build needs.
        """
        old = member.half_diag
        member.range_width = width
        member.range_height = height
        member.half_diag = new = 0.5 * math.hypot(width, height)
        if new > self.max_query_half_diag:
            self.max_query_half_diag = new
        elif new < old == self.max_query_half_diag:
            self._recompute_query_reach()

    def _recompute_query_reach(self) -> None:
        self.max_query_half_diag = max(
            (q.half_diag for q in self.queries.values()), default=0.0
        )

    def recentre(self) -> None:
        """Move the centroid to the mean of current member positions.

        Per-tuple refreshes deliberately leave the centroid alone (see
        :meth:`absorb`), so between evaluations it drifts from the true
        member mean.  Post-join maintenance calls this once per interval —
        O(members), amortised over the whole interval's tuples.  Shed
        members have no position and are ignored; a fully-shed cluster
        keeps its velocity-advanced centroid, which is then its members'
        only approximation.
        """
        sum_x = 0.0
        sum_y = 0.0
        known = 0
        for member in self.members():
            if member.position_shed:
                continue
            sum_x += member.abs_x + (self.trans_x - member.tr_x)
            sum_y += member.abs_y + (self.trans_y - member.tr_y)
            known += 1
        if known:
            cx = sum_x / known
            cy = sum_y / known
            if cx != self.cx or cy != self.cy:
                self.version += 1
                self.cx = cx
                self.cy = cy

    def update_expiry(self, now: float) -> None:
        """Public per-interval expiry refresh (see :meth:`_update_expiry`)."""
        self._update_expiry(now)

    def recompute_radius(self) -> None:
        """Shrink the radius to the tightest bound on current members.

        The paper only ever grows the radius (Step 4); unchecked growth is
        the cluster "deterioration" it counters with expiry.  Maintenance
        calls this after joins so long-lived clusters stay compact.  Shed
        members have no position, so the nucleus radius is kept as their
        lower bound.
        """
        radius = min(self.nucleus_radius, self.radius) if self.shed_count else 0.0
        for member in self.members():
            loc = self.member_location(member)
            if loc is None:
                continue
            dist = math.hypot(loc.x - self.cx, loc.y - self.cy)
            if dist > radius:
                radius = dist
        if radius != self.radius:
            self.version += 1
            self.radius = radius

    # -- motion -----------------------------------------------------------------

    def velocity(self) -> Point:
        """Velocity vector: ``avespeed`` toward the destination node."""
        dx = self.cn_loc.x - self.cx
        dy = self.cn_loc.y - self.cy
        dist = math.hypot(dx, dy)
        if dist == 0.0 or self.avespeed == 0.0:
            return Point(0.0, 0.0)
        scale = self.avespeed / dist
        return Point(dx * scale, dy * scale)

    def advance(self, dt: float) -> None:
        """Translate the whole cluster ``dt`` time units along its velocity.

        Rigid translation: the displacement is added to the transformation
        vector, so members ride along without being touched.  Movement
        never overshoots the destination node — a cluster that would pass
        it is dissolved by maintenance instead (§4.2).
        """
        dx = self.cn_loc.x - self.cx
        dy = self.cn_loc.y - self.cy
        dist = math.hypot(dx, dy)
        step = self.avespeed * dt
        if dist == 0.0 or step <= 0.0:
            return
        frac = min(step / dist, 1.0)
        self.version += 1
        self.cx += dx * frac
        self.cy += dy * frac
        self.trans_x += dx * frac
        self.trans_y += dy * frac

    def advance_to(self, t: float) -> None:
        """Lazily advance the cluster along its velocity vector to time ``t``.

        Called on first touch each tick (and by maintenance for untouched
        clusters), so a cluster's centroid tracks its moving members at the
        cost of one :meth:`advance` per cluster per time unit — amortised
        over all of its members' updates, unlike per-update centroid
        re-balancing.
        """
        if t > self.last_moved:
            self.advance(t - self.last_moved)
            self.last_moved = t

    def distance_to_destination(self) -> float:
        return math.hypot(self.cn_loc.x - self.cx, self.cn_loc.y - self.cy)

    def _update_expiry(self, now: float) -> None:
        """Expiration = ETA at the destination connection node (§3.1)."""
        if self.avespeed > 0.0:
            self.exptime = now + self.distance_to_destination() / self.avespeed
        else:
            self.exptime = math.inf

    def has_expired(self, now: float) -> bool:
        return now >= self.exptime

    def will_pass_destination(self, dt: float) -> bool:
        """True when advancing ``dt`` would carry the cluster past cnloc."""
        return self.avespeed * dt >= self.distance_to_destination()

    def __repr__(self) -> str:
        return (
            f"MovingCluster(cid={self.cid}, centroid=({self.cx:.1f}, "
            f"{self.cy:.1f}), r={self.radius:.1f}, n={self.n} "
            f"[{len(self.objects)}o/{len(self.queries)}q], "
            f"v={self.avespeed:.1f}->cn{self.cn_node})"
        )
