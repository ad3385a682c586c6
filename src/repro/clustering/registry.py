"""SCUBA's cluster bookkeeping structures (paper §4.1).

Three of the five in-memory data structures the paper lists live here,
because the incremental clusterer is their primary writer:

* **ClusterStorage** — "stores the information (e.g., centroid, radius,
  member count, etc.) about moving clusters";
* **ClusterHome** — "a hash table that keeps track of the current
  relationships between objects, queries and their corresponding clusters"
  (a moving entity belongs to exactly one cluster at a time);
* **ClusterGrid** — "a spatial grid table dividing the data space into N×N
  grid cells [holding] for each grid cell a list of cluster ids of moving
  clusters that overlap with that cell" — split by reader: the join
  rebuilds those cells every interval (DESIGN.md §8) and the clusterer's
  probe keeps a centroid index here (one cell per cluster, §9).

:class:`ClusterWorld` is a thin facade bundling the three with the
operations that must touch them together (create, absorb, evict,
dissolve), so the clusterer and SCUBA's post-join maintenance cannot get
them out of sync.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

from ..generator import EntityKind
from ..geometry import Point, Rect
from ..index import SpatialGrid
from ..network import NodeId
from .cluster import MovingCluster

__all__ = ["ClusterStorage", "ClusterHome", "ClusterGrid", "ClusterWorld"]


class ClusterStorage:
    """All live moving clusters, by cluster id."""

    def __init__(self) -> None:
        self._clusters: Dict[int, MovingCluster] = {}
        self._next_cid = 0

    def allocate_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def add(self, cluster: MovingCluster) -> None:
        if cluster.cid in self._clusters:
            raise ValueError(f"duplicate cluster id {cluster.cid}")
        self._clusters[cluster.cid] = cluster

    def get(self, cid: int) -> MovingCluster:
        return self._clusters[cid]

    def pop(self, cid: int) -> MovingCluster:
        return self._clusters.pop(cid)

    def __contains__(self, cid: int) -> bool:
        return cid in self._clusters

    def cid_map(self) -> Dict[int, MovingCluster]:
        """The cid → cluster table itself (treat as read-only); the
        whole-tick ingest pass binds its lookup once per tick."""
        return self._clusters

    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self) -> Iterator[MovingCluster]:
        return iter(self._clusters.values())

    def clusters(self) -> List[MovingCluster]:
        """Live clusters in cid order (deterministic iteration for tests)."""
        return [self._clusters[cid] for cid in sorted(self._clusters)]


class ClusterHome:
    """entity → cluster membership map.

    Keys are ``(entity_id, kind)`` pairs: the paper's table stores
    ``(ID, type, CID)`` rows precisely because object ids and query ids are
    independent sequences that may collide numerically.
    """

    def __init__(self) -> None:
        # Keyed by entity_id * 2 + is_object: a single small int per row
        # keeps the hot per-update lookups off the enum hashing path and
        # the table at one machine word per key.
        self._home: Dict[int, int] = {}

    def cluster_of(self, entity_id: int, kind: EntityKind) -> Optional[int]:
        return self._home.get(entity_id * 2 + (kind is EntityKind.OBJECT))

    def key_map(self) -> Dict[int, int]:
        """The key → cid table itself (treat as read-only).

        The whole-tick ingest pass binds this dict's ``.get`` once per
        tick and probes it with the batch's pre-packed key column.
        """
        return self._home

    def assign(self, entity_id: int, kind: EntityKind, cid: int) -> None:
        self._home[entity_id * 2 + (kind is EntityKind.OBJECT)] = cid

    def release(self, entity_id: int, kind: EntityKind) -> None:
        self._home.pop(entity_id * 2 + (kind is EntityKind.OBJECT), None)

    def __len__(self) -> int:
        return len(self._home)


class ClusterGrid(SpatialGrid):
    """The clusterer's probe index: each cluster id in its centroid's cell.

    Every centroid *write* (absorb, evict, recentre, split, a singleton
    following its entity) calls :meth:`place`, which moves the entry only
    when the cell changed.  The lazy :meth:`MovingCluster.advance_to` does
    not write: a cluster placed at time ``w`` has since drifted at most
    ``avespeed × (horizon − w)``, ``horizon`` being the latest time any
    cluster may have been advanced to (:meth:`note_time`).  :meth:`probe`
    widens its cell range by that bound over all entries — ``max_speed``
    (callers that change a speed without a write raise it) times
    ``horizon − floor``, ``floor`` the oldest write, reset by
    :meth:`rebase` once maintenance has re-placed every cluster — so it
    returns a superset of the clusters within reach by construction.
    """

    def __init__(self, bounds: Rect, cell_edge: float) -> None:
        super().__init__(
            bounds,
            max(1, math.ceil(bounds.width / cell_edge)),
            max(1, math.ceil(bounds.height / cell_edge)),
        )
        #: cid -> its cell.
        self._cell_of: Dict[int, int] = {}
        #: Largest ``avespeed`` any cluster has had.
        self.max_speed = 0.0
        #: No entry was written before this time (None: nothing placed).
        self.floor: Optional[float] = None
        #: No cluster has been advanced past this time.
        self.horizon = -math.inf
        #: Centroid writes that stayed in their cell.
        self.refresh_skips = 0
        #: Centroid writes that moved the entry to another cell.
        self.reregistrations = 0

    def place(self, cluster: MovingCluster) -> None:
        """Record ``cluster``'s current centroid, speed and time."""
        cid = cluster.cid
        cell = self.cell_of(cluster.cx, cluster.cy)
        old = self._cell_of.get(cid)
        if old == cell:
            self.refresh_skips += 1
        else:
            if old is not None:
                self.remove(cid, (old,))
                self.reregistrations += 1
            self.insert(cid, (cell,))
            self._cell_of[cid] = cell
        if cluster.avespeed > self.max_speed:
            self.max_speed = cluster.avespeed
        if self.floor is None or cluster.last_moved < self.floor:
            self.floor = cluster.last_moved

    def drop(self, cid: int) -> None:
        """Forget a dissolved cluster (no-op when absent)."""
        cell = self._cell_of.pop(cid, None)
        if cell is not None:
            self.remove(cid, (cell,))

    def note_time(self, t: float) -> None:
        """Clusters may be advanced to ``t`` from now on."""
        if t > self.horizon:
            self.horizon = t

    def rebase(self, now: float) -> None:
        """Every live cluster was just advanced to ``now`` and placed."""
        self.floor = now
        self.note_time(now)

    def probe(self, x: float, y: float, reach: float) -> Iterator[int]:
        """Ids of every cluster whose centroid, advanced up to the horizon,
        may lie within ``reach`` of ``(x, y)`` — a superset; the caller
        advances and tests each candidate exactly."""
        if self.floor is not None and self.horizon > self.floor:
            reach += self.max_speed * (self.horizon - self.floor)
        # Rounding margin: advance() and this arithmetic are exact to a
        # few ulps of the coordinates in play.
        reach += 1e-9 * (1.0 + reach + abs(x) + abs(y))
        cells = self._cells
        col_lo = self._col(x - reach)
        col_hi = self._col(x + reach) + 1
        for row in range(self._row(y - reach), self._row(y + reach) + 1):
            base = row * self.nx
            for cell in range(base + col_lo, base + col_hi):
                bucket = cells.get(cell)
                if bucket is not None:
                    yield from bucket

    def entries(self) -> Dict[int, int]:
        """The cid → cell table itself (treat as read-only)."""
        return self._cell_of


class ClusterWorld:
    """Facade keeping storage, home and the centroid index consistent.

    Index cells have edge 2·Θ_D (a probe drifting at most Θ_D spans 3×3),
    never finer than the N×N join grid (a tiny Θ_D walks no more cells).
    """

    def __init__(self, bounds: Rect, theta_d: float = 100.0, grid_size: int = 100) -> None:
        self.storage = ClusterStorage()
        self.home = ClusterHome()
        edge = max(bounds.width, bounds.height) / grid_size
        self.grid = ClusterGrid(bounds, max(2.0 * theta_d, edge))

    # -- lifecycle -----------------------------------------------------------

    def create_cluster(
        self, centroid: Point, cn_node: NodeId, cn_loc: Point, now: float
    ) -> MovingCluster:
        """A fresh single-member-to-be cluster centred at ``centroid``."""
        cluster = MovingCluster(
            cid=self.storage.allocate_cid(),
            centroid=centroid,
            cn_node=cn_node,
            cn_loc=cn_loc,
            now=now,
        )
        self.add(cluster)
        return cluster

    def add(self, cluster: MovingCluster) -> None:
        """File a cluster built outside the clusterer (the k-means baseline)."""
        self.storage.add(cluster)
        self.grid.place(cluster)

    def dissolve(self, cluster: MovingCluster) -> None:
        """Remove a cluster and every trace of its membership."""
        for member in list(cluster.members()):
            self.home.release(member.entity_id, member.kind)
        cluster.objects.clear()
        cluster.queries.clear()
        self.grid.drop(cluster.cid)
        self.storage.pop(cluster.cid)

    # -- membership ----------------------------------------------------------

    def absorb(self, cluster: MovingCluster, update) -> None:
        """Absorb ``update`` into ``cluster`` and keep home/index in sync."""
        cluster.absorb(update)
        self.home.assign(update.entity_id, update.kind, cluster.cid)
        self.grid.place(cluster)

    def evict(self, cluster: MovingCluster, entity_id: int, kind: EntityKind) -> None:
        """Remove one member; dissolve the cluster if it becomes empty."""
        cluster.remove(entity_id, kind)
        self.home.release(entity_id, kind)
        if cluster.is_empty:
            self.grid.drop(cluster.cid)
            self.storage.pop(cluster.cid)
        else:
            self.grid.place(cluster)

    @property
    def cluster_count(self) -> int:
        return len(self.storage)

    def __repr__(self) -> str:
        return (
            f"ClusterWorld({self.cluster_count} clusters, "
            f"{len(self.home)} homed entities)"
        )
