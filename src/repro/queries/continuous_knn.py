"""Continuous k-nearest-neighbour queries over moving objects.

The paper claims SCUBA's cluster framework carries over to kNN queries
(§1).  This module makes that a working continuous operator:
:class:`ScubaKnn` ingests moving-object updates through the same
incremental clusterer as the range operator, maintains a registry of
continuous kNN queries (each a moving focal point plus its ``k``), and on
every Δ evaluation answers each query with the cluster-pruned best-first
search of :func:`repro.queries.knn.evaluate_knn`.

Answers are emitted as ordinary :class:`~repro.streams.QueryMatch` tuples
(rank order preserved within a query), so sinks, accuracy comparison and
the delta producer all work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..clustering import ClusteringSpec, ClusterWorld, IncrementalClusterer
from ..generator import EntityKind, Update
from ..geometry import Point, Rect
from ..network import DEFAULT_BOUNDS
from ..streams import QueryMatch, StagedJoinOperator
from .knn import evaluate_knn, knn_containing_cluster_fast_path

__all__ = ["KnnConfig", "ScubaKnn"]


@dataclass
class KnnConfig:
    """Parameters of the continuous kNN operator.

    Clustering parameters mirror :class:`~repro.core.ScubaConfig`;
    ``default_k`` applies to queries whose updates don't carry a ``k``
    attribute.
    """

    bounds: Rect = None  # type: ignore[assignment]
    theta_d: float = 100.0
    theta_s: float = 10.0
    delta: float = 2.0
    default_k: int = 5
    #: Try the paper's isolated-cluster shortcut before the full search.
    use_fast_path: bool = True

    def __post_init__(self) -> None:
        if self.bounds is None:
            self.bounds = DEFAULT_BOUNDS
        if self.default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {self.default_k}")


class _KnnQuery:
    """Registry entry for one continuous kNN query."""

    __slots__ = ("qid", "loc", "k", "last_t")

    def __init__(self, qid: int, loc: Point, k: int, last_t: float) -> None:
        self.qid = qid
        self.loc = loc
        self.k = k
        self.last_t = last_t


class ScubaKnn(StagedJoinOperator):
    """Cluster-based continuous kNN evaluation."""

    def __init__(self, config: Optional[KnnConfig] = None) -> None:
        self.config = config if config is not None else KnnConfig()
        self.world = ClusterWorld(self.config.bounds, self.config.theta_d)
        self.clusterer = IncrementalClusterer(
            self.world,
            ClusteringSpec(theta_d=self.config.theta_d, theta_s=self.config.theta_s),
        )
        self.queries: Dict[int, _KnnQuery] = {}
        self.last_join_seconds = 0.0
        self.last_maintenance_seconds = 0.0
        #: How often the isolated-cluster shortcut answered a query.
        self.fast_path_answers = 0
        self.evaluations = 0

    # -- ingest -----------------------------------------------------------------

    def on_update(self, update: Update) -> None:
        """Objects are clustered; query updates move their focal points.

        A query update's ``k`` is read from its ``attrs`` mapping
        (``{"k": 3}``), falling back to the configured default.
        """
        if update.kind is EntityKind.OBJECT:
            self.clusterer.ingest(update)
            return
        entry = self.queries.get(update.entity_id)
        k = update.attrs.get("k", self.config.default_k) if update.attrs else (
            entry.k if entry else self.config.default_k
        )
        if k < 1:
            raise ValueError(f"query {update.entity_id} carries invalid k={k}")
        if entry is None:
            self.queries[update.entity_id] = _KnnQuery(
                update.entity_id, update.loc, k, update.t
            )
        else:
            entry.loc = update.loc
            entry.k = k
            entry.last_t = update.t

    def register_query(self, qid: int, loc: Point, k: int, t: float = 0.0) -> None:
        """Programmatic registration (equivalent to a first query update)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.queries[qid] = _KnnQuery(qid, loc, k, t)

    def remove_query(self, qid: int) -> None:
        self.queries.pop(qid, None)

    def retract(self, entity_id: int, kind: EntityKind) -> None:
        """Forget one entity (sharded halo hand-off).

        Objects are evicted from their cluster through the world's
        membership pathway (emptied clusters dissolve, invariants hold);
        queries simply leave the registry.
        """
        if kind is EntityKind.OBJECT:
            cid = self.world.home.cluster_of(entity_id, kind)
            if cid is not None:
                self.world.evict(self.world.storage.get(cid), entity_id, kind)
        else:
            self.queries.pop(entity_id, None)

    # -- evaluation ---------------------------------------------------------------

    def join_phase(self, now: float) -> List[QueryMatch]:
        """Answer every registered kNN query against current cluster state.

        Matches for one query appear in ascending-distance (rank) order.
        """
        self.evaluations += 1
        results: List[QueryMatch] = []
        for qid in sorted(self.queries):
            query = self.queries[qid]
            if self.config.use_fast_path:
                cluster = knn_containing_cluster_fast_path(
                    self.world, query.loc, query.k
                )
                if cluster is not None:
                    self.fast_path_answers += 1
            neighbors = evaluate_knn(self.world, query.loc, query.k)
            for neighbor in neighbors:
                results.append(QueryMatch(qid, neighbor.entity_id, now))
        return results

    def post_join_phase(self, now: float) -> None:
        self._post_join_maintenance(now)

    def _post_join_maintenance(self, now: float) -> None:
        """Same cluster upkeep as the range operator."""
        grid = self.world.grid
        for cluster in list(self.world.storage):
            if cluster.has_expired(now) or cluster.will_pass_destination(
                self.config.delta
            ):
                self.world.dissolve(cluster)
                continue
            cluster.advance_to(now)
            cluster.flush_transform()
            cluster.recentre()
            cluster.recompute_radius()
            cluster.update_expiry(now)
            grid.place(cluster)
        grid.rebase(now)

    # -- introspection ---------------------------------------------------------------

    @property
    def cluster_count(self) -> int:
        return self.world.cluster_count

    def state_roots(self) -> List[object]:
        return [self.world.storage, self.world.home, self.world.grid, self.queries]

    def reset(self) -> None:
        self.__init__(self.config)

    def __repr__(self) -> str:
        return (
            f"ScubaKnn({len(self.queries)} queries, "
            f"{self.cluster_count} clusters)"
        )
