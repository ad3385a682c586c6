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
  clusters that overlap with that cell".

:class:`ClusterWorld` is a thin facade bundling the three with the
operations that must touch them together (create, register, relocate,
dissolve), so the clusterer and SCUBA's post-join maintenance cannot get
them out of sync.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

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
    """A :class:`SpatialGrid` whose members are cluster ids.

    Clusters are registered in every cell a *slack-inflated* version of
    their footprint (:meth:`MovingCluster.filter_circle`) overlaps, so that
    any two clusters whose filter circles intersect are guaranteed to share
    at least one grid cell — the property the cell-by-cell join-between
    sweep relies on.

    The slack (half a cell) means a cluster that grows or drifts slightly
    stays covered by its existing registration; :meth:`refresh` then
    becomes a single containment check on the hot ingest path instead of a
    cell recomputation per location update.  Registration is therefore a
    *superset* of the exact footprint — harmless, because every candidate
    pair still passes through the exact join-between test.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (center_x, center_y, inflated_radius) registered per cluster id.
        self._registered: Dict[int, Tuple[float, float, float]] = {}
        # (version, cx, cy, radius) at the last refresh that verified
        # containment: while those are unchanged the containment verdict
        # cannot have changed, so refresh is a guaranteed no-op.  Parked
        # convoys from ``--stopped-fraction`` heartbeat without moving,
        # turning their per-update refresh into a dict probe plus three
        # equality compares — no sqrt, no re-registration arithmetic.
        self._verified: Dict[int, Tuple[int, float, float, float]] = {}
        #: Refresh calls answered by the version early-out (diagnostics).
        self.refresh_skips = 0
        #: Refresh calls whose footprint escaped the cover and forced a
        #: new cell registration.
        self.reregistrations = 0
        self._slack = 0.5 * min(
            self.bounds.width / self.nx, self.bounds.height / self.ny
        )

    def register(self, cluster: MovingCluster) -> None:
        cx, cy = cluster.cx, cluster.cy
        radius = cluster.radius + cluster.max_query_half_diag + self._slack
        cells = tuple(self.cells_for_circle(cx, cy, radius))
        self.insert(cluster.cid, cells)
        cluster.grid_cells = cells
        self._registered[cluster.cid] = (cx, cy, radius)
        self._verified[cluster.cid] = (
            cluster.version, cx, cy, cluster.radius
        )

    def cover_maps(
        self,
    ) -> Tuple[
        Dict[int, Tuple[float, float, float]],
        Dict[int, Tuple[int, float, float, float]],
    ]:
        """The ``(registered, verified)`` tables themselves.

        Contract, shared with the one outside reader
        (``IncrementalClusterer.ingest_tick``, which repeats
        :meth:`refresh`'s containment branch in place): ``registered[cid]``
        is ``(center_x, center_y, inflated_radius)`` of the circle whose
        cells the cluster occupies, slack already included;
        ``verified[cid]`` is ``(version, cx, cy, radius)`` at the last
        check that found the footprint inside that circle.  A reader may
        store a new ``verified`` row after making that same check; only
        :meth:`register` / :meth:`unregister` write ``registered``.
        """
        return self._registered, self._verified

    def refresh(self, cluster: MovingCluster) -> None:
        """Re-register if the footprint escaped its slack-inflated cover.

        ``IncrementalClusterer.ingest_tick`` carries a copy of the early-out
        and of the containment test below (through :meth:`cover_maps`):
        change the arithmetic or a tuple layout here and there together.
        """
        cid = cluster.cid
        if self._verified.get(cid) == (
            cluster.version, cluster.cx, cluster.cy, cluster.radius
        ):
            # Verified unchanged since the last containment check: the
            # covering cells are still a superset of the footprint.
            self.refresh_skips += 1
            return
        reg = self._registered.get(cid)
        if reg is not None:
            # Still inside the registered circle? Then the registered cells
            # cover every cell the exact footprint touches.  Runs for every
            # location update — plain float math, no temporaries.
            dx = cluster.cx - reg[0]
            dy = cluster.cy - reg[1]
            needed_r = cluster.radius + cluster.max_query_half_diag
            if (dx * dx + dy * dy) ** 0.5 + needed_r <= reg[2]:
                self._verified[cid] = (
                    cluster.version, cluster.cx, cluster.cy, cluster.radius
                )
                return
            self.remove(cid, cluster.grid_cells)
            self.reregistrations += 1
        self.register(cluster)

    def unregister(self, cluster: MovingCluster) -> None:
        self.remove(cluster.cid, cluster.grid_cells)
        cluster.grid_cells = ()
        self._registered.pop(cluster.cid, None)
        self._verified.pop(cluster.cid, None)


class ClusterWorld:
    """Facade keeping storage, home and grid mutually consistent."""

    def __init__(self, bounds: Rect, grid_size: int) -> None:
        self.storage = ClusterStorage()
        self.home = ClusterHome()
        self.grid = ClusterGrid(bounds, grid_size)

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
        self.storage.add(cluster)
        self.grid.register(cluster)
        return cluster

    def dissolve(self, cluster: MovingCluster) -> None:
        """Remove a cluster and every trace of its membership."""
        for member in list(cluster.members()):
            self.home.release(member.entity_id, member.kind)
        cluster.objects.clear()
        cluster.queries.clear()
        self.grid.unregister(cluster)
        self.storage.pop(cluster.cid)

    # -- membership ----------------------------------------------------------

    def absorb(self, cluster: MovingCluster, update) -> None:
        """Absorb ``update`` into ``cluster`` and keep home/grid in sync."""
        cluster.absorb(update)
        self.home.assign(update.entity_id, update.kind, cluster.cid)
        self.grid.refresh(cluster)

    def evict(self, cluster: MovingCluster, entity_id: int, kind: EntityKind) -> None:
        """Remove one member; dissolve the cluster if it becomes empty."""
        cluster.remove(entity_id, kind)
        self.home.release(entity_id, kind)
        if cluster.is_empty:
            self.grid.unregister(cluster)
            self.storage.pop(cluster.cid)
        else:
            self.grid.refresh(cluster)

    @property
    def cluster_count(self) -> int:
        return len(self.storage)

    def __repr__(self) -> str:
        return (
            f"ClusterWorld({self.cluster_count} clusters, "
            f"{len(self.home)} homed entities)"
        )
