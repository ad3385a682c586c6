"""Join-between and join-within moving clusters (paper §4, Algorithms 2-3).

**Join-between** is the cheap pre-filter: two clusters can contribute
matches only if their circular footprints come close enough.  We inflate
the test by the widest member query window (``max_query_half_diag``) so the
filter is *lossless*: a pruned pair provably cannot produce a match.  (The
paper's Algorithm 2 literally tests containment, ``dist² < (R_L − R_R)²`` —
an evident typo, since the prose, Fig. 4 and the worked example all use
overlap semantics; see :mod:`repro.geometry.circle`.)

**Join-within** is the fine-grained object × query join over the members
of one cluster or of a surviving cluster pair.  Under load shedding some
members have no stored position; they are approximated by their cluster's
nucleus.  The four predicate cases:

===================  ======================================================
object / query       test
===================  ======================================================
exact × exact        point inside the query window
shed × exact         query window intersects the object cluster's nucleus
exact × shed         object within nucleus-radius of the window placed at
                     the query cluster's centroid
shed × shed          the two nuclei within query-window reach of each other
===================  ======================================================

The member-level tests themselves live in :mod:`repro.kernels`: each case
is a batched kernel over the structure-of-arrays columns of
:class:`ClusterJoinView`, implemented by interchangeable backends (NumPy, and
the scalar reference).  This module is the driver: it
builds the views and sequences the kernels, identically for every backend.

All shed members of a cluster share one nucleus, so they are tested *as a
group* — one geometric test matches (or rejects) the whole block.  That is
precisely why shedding trades accuracy for join time (Fig. 13a): fewer
individual position tests survive.

Pairs are emitted cross-cluster only (L-objects × R-queries plus
R-objects × L-queries); a mixed cluster's internal matches come from its
own self join-within, exactly as in the worked example of Fig. 7 where
``Join-Within(M1 ∪ M2)`` reports only the cross pair ``(Q2, O3)`` and
``Join-Within(M1)`` separately reports ``(Q3, O5)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..clustering import MovingCluster
from ..geometry import circles_overlap
from ..kernels import JoinKernelBackend, resolve_backend
from ..streams import QueryMatch

__all__ = ["join_between", "ClusterJoinView", "join_within_pair", "join_within_self"]


def join_between(left: MovingCluster, right: MovingCluster) -> bool:
    """Lossless cluster-level overlap pre-filter (Algorithm 2, corrected).

    The reach adds both radii plus the larger query-window half-diagonal of
    the two clusters: any (object, query) match requires the object within
    ``half_diag`` of the query point, the object within ``left.radius`` of
    its centroid, and the query within ``right.radius`` of its centroid.
    """
    reach_bonus = max(left.max_query_half_diag, right.max_query_half_diag)
    return circles_overlap(
        left.cx,
        left.cy,
        left.radius + reach_bonus,
        right.cx,
        right.cy,
        right.radius,
    )


class ClusterJoinView:
    """Join-ready structure-of-arrays snapshot of one cluster's members.

    Exact members are flattened into parallel id/x/y (and window half
    extent) columns — the layout the batched kernels consume; shed members
    are grouped under the cluster nucleus.  ``version`` records the
    cluster's :attr:`~repro.clustering.MovingCluster.version` at build
    time: the snapshot is valid exactly while the cluster's counter has
    not moved, which is what lets :class:`~repro.core.scuba.Scuba` reuse
    views across cluster pairs *and* across Δ-cycles for clusters that did
    not change.  ``scratch`` holds backend-derived data (sorted
    permutations, ndarray mirrors) with the same lifetime as the view.
    """

    __slots__ = (
        "cid",
        "version",
        "cx",
        "cy",
        "approx_radius",
        "obj_ids",
        "obj_xs",
        "obj_ys",
        "shed_object_ids",
        "query_ids",
        "query_xs",
        "query_ys",
        "query_hws",
        "query_hhs",
        "shed_query_groups",
        "obj_min_x",
        "obj_min_y",
        "obj_max_x",
        "obj_max_y",
        "scratch",
    )

    def __init__(self, cluster: MovingCluster) -> None:
        cluster.flush_transform()
        self.cid = cluster.cid
        self.version = cluster.version
        self.cx = cluster.cx
        self.cy = cluster.cy
        # Shed members provably lie within the cluster; the nucleus cannot
        # usefully exceed the cluster's own radius.
        self.approx_radius = min(cluster.nucleus_radius, cluster.radius)
        if not cluster.shed_count:
            # Shed-free cluster (the steady-state common case): no
            # per-member position_shed branch, so the columns fall out of
            # C-speed comprehensions and the bbox out of builtin min/max.
            objs = cluster.objects
            self.obj_ids = list(objs)
            xs = [m.abs_x for m in objs.values()]
            ys = [m.abs_y for m in objs.values()]
            self.obj_xs = xs
            self.obj_ys = ys
            self.shed_object_ids = []
            if xs:
                self.obj_min_x = min(xs)
                self.obj_max_x = max(xs)
                self.obj_min_y = min(ys)
                self.obj_max_y = max(ys)
            else:
                self.obj_min_x = self.obj_min_y = math.inf
                self.obj_max_x = self.obj_max_y = -math.inf
            qs = cluster.queries
            self.query_ids = list(qs)
            self.query_xs = [m.abs_x for m in qs.values()]
            self.query_ys = [m.abs_y for m in qs.values()]
            self.query_hws = [m.range_width / 2.0 for m in qs.values()]
            self.query_hhs = [m.range_height / 2.0 for m in qs.values()]
            self.shed_query_groups = {}
            self.scratch = {}
            return
        self.obj_ids: List[int] = []
        self.obj_xs: List[float] = []
        self.obj_ys: List[float] = []
        self.shed_object_ids: List[int] = []
        # Tight bounding box of the exact object members: one rect-overlap
        # test per query prunes whole member batches for near-miss cluster
        # pairs (cluster-granularity filtering, same spirit as
        # join-between but at the query's window size).
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        for oid, member in cluster.objects.items():
            if member.position_shed:
                self.shed_object_ids.append(oid)
            else:
                # flush_transform above made abs_x/abs_y current.
                x = member.abs_x
                y = member.abs_y
                self.obj_ids.append(oid)
                self.obj_xs.append(x)
                self.obj_ys.append(y)
                if x < min_x:
                    min_x = x
                if x > max_x:
                    max_x = x
                if y < min_y:
                    min_y = y
                if y > max_y:
                    max_y = y
        self.obj_min_x = min_x
        self.obj_min_y = min_y
        self.obj_max_x = max_x
        self.obj_max_y = max_y
        self.query_ids: List[int] = []
        self.query_xs: List[float] = []
        self.query_ys: List[float] = []
        self.query_hws: List[float] = []
        self.query_hhs: List[float] = []
        self.shed_query_groups: Dict[Tuple[float, float], List[int]] = {}
        for qid, member in cluster.queries.items():
            hw = member.range_width / 2.0
            hh = member.range_height / 2.0
            if member.position_shed:
                self.shed_query_groups.setdefault((hw, hh), []).append(qid)
            else:
                self.query_ids.append(qid)
                self.query_xs.append(member.abs_x)
                self.query_ys.append(member.abs_y)
                self.query_hws.append(hw)
                self.query_hhs.append(hh)
        self.scratch: Dict[str, object] = {}

    @property
    def exact_objects(self) -> List[Tuple[int, float, float]]:
        """Row view of the exact-object columns (compatibility accessor)."""
        return list(zip(self.obj_ids, self.obj_xs, self.obj_ys))

    @property
    def exact_queries(self) -> List[Tuple[int, float, float, float, float]]:
        """Row view of the exact-query columns (compatibility accessor)."""
        return list(
            zip(
                self.query_ids,
                self.query_xs,
                self.query_ys,
                self.query_hws,
                self.query_hhs,
            )
        )

    @property
    def shed_free(self) -> bool:
        """No shed members: every predicate case but exact×exact is empty.

        The macro-batched sweep queues shed-free views as segments for one
        fused ``join_segments`` call; any shed member forces the per-pair
        kernel sequencing (the shed cases are per-group scalar tests).
        """
        return not (self.shed_object_ids or self.shed_query_groups)

    @property
    def has_objects(self) -> bool:
        return bool(self.obj_ids or self.shed_object_ids)

    @property
    def has_queries(self) -> bool:
        return bool(self.query_ids or self.shed_query_groups)


def _join_objects_to_queries(
    objects: ClusterJoinView,
    queries: ClusterJoinView,
    now: float,
    out: List[QueryMatch],
    backend: JoinKernelBackend,
) -> int:
    """Match ``objects``-side members against ``queries``-side members.

    Sequences the four kernel cases; returns the number of logical
    member-level tests (the cost metric the shedding experiment reports
    alongside wall-clock time, identical across backends).
    """
    tests = 0
    have_exact_objects = bool(objects.obj_ids)
    have_shed_objects = bool(objects.shed_object_ids)
    if queries.query_ids:
        if have_exact_objects:
            tests += backend.exact_exact(objects, queries, now, out)
        if have_shed_objects:
            tests += backend.shed_exact(objects, queries, now, out)
    if queries.shed_query_groups:
        if have_exact_objects:
            tests += backend.exact_shed(objects, queries, now, out)
        if have_shed_objects:
            tests += backend.shed_shed(objects, queries, now, out)
    return tests


def join_within_pair(
    left: ClusterJoinView,
    right: ClusterJoinView,
    now: float,
    out: List[QueryMatch],
    backend: Optional[JoinKernelBackend] = None,
) -> int:
    """Join-within for two distinct clusters (Algorithm 3, cross pairs)."""
    if backend is None:
        backend = resolve_backend()
    tests = 0
    if left.has_objects and right.has_queries:
        tests += _join_objects_to_queries(left, right, now, out, backend)
    if right.has_objects and left.has_queries:
        tests += _join_objects_to_queries(right, left, now, out, backend)
    return tests


def join_within_self(
    view: ClusterJoinView,
    now: float,
    out: List[QueryMatch],
    backend: Optional[JoinKernelBackend] = None,
) -> int:
    """Join-within of a single mixed cluster (Algorithm 1, line 15)."""
    if backend is None:
        backend = resolve_backend()
    return _join_objects_to_queries(view, view, now, out, backend)
