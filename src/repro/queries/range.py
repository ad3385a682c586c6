"""Ad-hoc range queries over live SCUBA state.

The continuous range query is SCUBA's primary workload and is evaluated by
the join pipeline itself.  This module adds the *snapshot* flavour: probe
the current cluster state with an arbitrary rectangle, without registering
a continuous query.  Useful for dashboards ("who is in this zone right
now?") and for tests that need an independent read-out of cluster state.
"""

from __future__ import annotations

from typing import Set

from ..clustering import ClusterWorld
from ..generator import EntityKind
from ..geometry import Circle, Rect

__all__ = ["evaluate_range", "RangeAnswer"]


class RangeAnswer:
    """Result of a snapshot range probe.

    ``exact_ids`` are members whose stored positions fall inside the
    rectangle.  ``possible_ids`` are load-shed members whose cluster
    nucleus intersects the rectangle — they *may* be inside, but only their
    cluster-level approximation is known.
    """

    __slots__ = ("exact_ids", "possible_ids")

    def __init__(self, exact_ids: Set[int], possible_ids: Set[int]) -> None:
        self.exact_ids = exact_ids
        self.possible_ids = possible_ids

    @property
    def all_ids(self) -> Set[int]:
        return self.exact_ids | self.possible_ids

    def __repr__(self) -> str:
        return (
            f"RangeAnswer({len(self.exact_ids)} exact, "
            f"{len(self.possible_ids)} possible)"
        )


def evaluate_range(
    world: ClusterWorld, region: Rect, kind: EntityKind = EntityKind.OBJECT
) -> RangeAnswer:
    """Entities of ``kind`` currently inside ``region``.

    Every live cluster whose circle misses the rectangle is skipped
    without looking at members — the same filter-then-refine shape as
    the continuous join.
    """
    exact: Set[int] = set()
    possible: Set[int] = set()
    for cluster in world.storage.clusters():
        if not region.intersects_circle(cluster.circle()):
            continue
        cluster.flush_transform()
        members = (
            cluster.objects if kind is EntityKind.OBJECT else cluster.queries
        )
        nucleus_hit = cluster.shed_count and region.intersects_circle(
            Circle(cluster.centroid, min(cluster.nucleus_radius, cluster.radius))
        )
        for entity_id, member in members.items():
            if member.position_shed:
                if nucleus_hit:
                    possible.add(entity_id)
            elif region.contains_xy(member.abs_x, member.abs_y):
                exact.add(entity_id)
    return RangeAnswer(exact, possible)
