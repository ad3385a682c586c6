"""Cluster splitting at connection nodes.

When a moving cluster reaches its destination connection node, the paper
dissolves it and lets members re-cluster from scratch: "once a cluster
reaches its m.cnloc ... its members may change their spatio-temporal
properties significantly.  *Alternate options are possible here (e.g.,
splitting a moving cluster).  We plan to explore this as a part of our
future work*" (§3.1).  This module implements that future-work option.

At dissolution time most members have already crossed the node and
reported their *next* destination (stored per member on refresh).  Instead
of discarding all grouping knowledge, :func:`split_cluster` partitions the
members by their newly reported destination and spawns one **successor
cluster** per group that is still worth clustering (≥ 2 members with known
positions), transferring members wholesale — no grid probe, no candidate
search, no re-absorption churn.  Members without a viable group fall back
to the paper's behaviour: they are released and re-cluster through the
ordinary incremental path on their next update.

The effect is measured in ``benchmarks/bench_ablation.py``: splitting
reduces slow-path ingest work right after clusters reach intersections.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..geometry import Point
from .cluster import ClusterMember, MovingCluster
from .registry import ClusterWorld

__all__ = ["split_cluster"]


def split_cluster(
    world: ClusterWorld, cluster: MovingCluster, now: float
) -> List[MovingCluster]:
    """Split ``cluster`` into successors grouped by members' next destination.

    The original cluster is always removed from the world.  Members whose
    group is viable move into a successor; the rest are released (their
    next update re-clusters them).  Returns the successor clusters.
    """
    cluster.flush_transform()

    groups: Dict[int, List[ClusterMember]] = {}
    for member in cluster.members():
        groups.setdefault(member.cn_node, []).append(member)

    successors: List[MovingCluster] = []
    transferred: List[Tuple[ClusterMember, MovingCluster]] = []
    for cn_node in sorted(groups):
        members = groups[cn_node]
        if cn_node < 0 or cn_node == cluster.cn_node:
            # Unknown destination, or still heading to the node the cluster
            # is dissolving at: no forward knowledge to exploit.
            continue
        positioned = [m for m in members if not m.position_shed]
        if len(positioned) < 2:
            continue
        mean_x = sum(m.abs_x for m in positioned) / len(positioned)
        mean_y = sum(m.abs_y for m in positioned) / len(positioned)
        successor = world.create_cluster(
            centroid=Point(mean_x, mean_y),
            cn_node=cn_node,
            cn_loc=Point(positioned[0].cn_x, positioned[0].cn_y),
            now=now,
        )
        for member in members:
            successor.adopt(member)
            transferred.append((member, successor))
        _finalise(successor, now)
        world.grid.refresh(successor)
        successors.append(successor)

    # Detach transferred members from the original before dissolving it, so
    # dissolution only releases the members that truly fall back to
    # re-clustering.
    for member, successor in transferred:
        cluster.discard(member.entity_id, member.kind)
        world.home.assign(member.entity_id, member.kind, successor.cid)
    world.dissolve(cluster)
    # dissolve() released every remaining home entry AND cleared the
    # original's tables; re-assert the transferred members' homes (their
    # keys were not in the original's tables any more, so they survived).
    for member, successor in transferred:
        world.home.assign(member.entity_id, member.kind, successor.cid)
    return successors


def _finalise(successor: MovingCluster, now: float) -> None:
    """Recompute derived state after bulk member transfer."""
    count = successor.n
    # Bulk transfer bypassed absorb(); invalidate any derived snapshots.
    successor.version += 1
    successor.avespeed = successor._speed_sum / count if count else 0.0
    radius = 0.0
    for member in successor.members():
        if member.position_shed:
            continue
        dist = math.hypot(member.abs_x - successor.cx, member.abs_y - successor.cy)
        if dist > radius:
            radius = dist
    successor.radius = radius
    successor.update_expiry(now)
    successor.last_moved = now
