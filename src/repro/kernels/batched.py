"""Pure-Python batched kernels — :class:`NumpyBackend`'s small-input path.

Not selectable by configuration: the numpy backend delegates here below
its vectorisation thresholds, and this class in turn delegates to the
scalar loops below its own.

Two levers distinguish this from the scalar reference:

* **Sorted-slab pruning** — a view's exact-object columns are sorted by x
  once (cached in the view's ``scratch``, so the sort is paid per cluster
  *change*, amortised over every pair the cluster joins in and every
  Δ-cycle it stays unchanged).  Each query window then narrows to its
  x-slab with two :func:`bisect.bisect` calls and scans only the slab.
* **Comprehension-shaped inner loops** — the surviving y-filter runs as a
  single list comprehension feeding one bulk ``list.extend``, trading the
  interpreter's per-iteration bookkeeping (counter updates, attribute
  loads, repeated ``append`` lookups) for specialised comprehension
  bytecode.

Emission order within one kernel call is ascending-x (the slab order)
instead of member-insertion order; the :class:`~repro.streams.QueryMatch`
multiset — the system's correctness contract — is identical to the scalar
backend's, and so are the reported logical test counts.

The slab is a *prune*, never the inclusion test: its bisect bounds are
padded by a couple of ulps (``qx - hw`` rounds differently from the
canonical ``abs(ox - qx) <= hw``, so an unpadded slab can drop an object
sitting exactly on a window edge), and every candidate then passes
through the same float expression the scalar oracle uses.  That keeps
the answer bit-identical to :class:`ScalarBackend` — and to the numpy
kernels — even on boundary ties.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ulp
from typing import List

from ..streams import QueryMatch
from .base import PointBatch, rect_point_gap_sq
from .scalar import ScalarBackend

__all__ = ["PythonBatchBackend"]

#: Below this batch size, sorting a PointBatch costs more than it saves.
_SORT_THRESHOLD = 8

#: Below this many candidate member pairs, the x-sort + slab machinery
#: costs more than the scalar loop it prunes (measured crossover around
#: 16×16 pairs with single-use views; the margin keeps cache-miss-heavy
#: sweeps from regressing).
_MIN_SLAB_PAIRS = 256


def _sorted_columns(view):
    """x-sorted (xs, ys, ids) mirrors of a view's exact-object columns."""
    cols = view.scratch.get("sorted_x")
    if cols is None:
        order = sorted(range(len(view.obj_ids)), key=view.obj_xs.__getitem__)
        xs = view.obj_xs
        ys = view.obj_ys
        ids = view.obj_ids
        cols = (
            [xs[i] for i in order],
            [ys[i] for i in order],
            [ids[i] for i in order],
        )
        view.scratch["sorted_x"] = cols
    return cols


class PythonBatchBackend(ScalarBackend):
    """Batched stdlib kernels; group-level shed cases inherit the scalar
    implementation (they are already one test per group)."""

    name = "python"

    def exact_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        n = len(objects.obj_ids)
        if n * len(queries.query_ids) < _MIN_SLAB_PAIRS:
            return super().exact_exact(objects, queries, now, out)
        sx, sy, sid = _sorted_columns(objects)
        o_min_x, o_max_x = objects.obj_min_x, objects.obj_max_x
        o_min_y, o_max_y = objects.obj_min_y, objects.obj_max_y
        tests = 0
        extend = out.extend
        for qid, qx, qy, hw, hh in zip(
            queries.query_ids,
            queries.query_xs,
            queries.query_ys,
            queries.query_hws,
            queries.query_hhs,
        ):
            # Bounding-box prune in the subtraction form (see the scalar
            # kernel): exact for the extreme object.
            if (
                qx - o_max_x > hw
                or o_min_x - qx > hw
                or qy - o_max_y > hh
                or o_min_y - qy > hh
            ):
                continue
            tests += n
            # Padded prune: 2 ulps of the largest x-magnitude in play
            # covers the rounding gap between the slab bounds and the
            # canonical abs-form test below.
            pad = 2.0 * ulp(abs(qx) + hw)
            lo = bisect_left(sx, qx - hw - pad)
            hi = bisect_right(sx, qx + hw + pad, lo)
            if lo < hi:
                extend(
                    [
                        QueryMatch(qid, oid, now)
                        for oid, ox, oy in zip(
                            sid[lo:hi], sx[lo:hi], sy[lo:hi]
                        )
                        if abs(ox - qx) <= hw and abs(oy - qy) <= hh
                    ]
                )
        return tests

    def exact_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        n = len(objects.obj_ids)
        if n * len(queries.shed_query_groups) < _MIN_SLAB_PAIRS:
            return super().exact_shed(objects, queries, now, out)
        o_min_x, o_max_x = objects.obj_min_x, objects.obj_max_x
        o_min_y, o_max_y = objects.obj_min_y, objects.obj_max_y
        qcx, qcy = queries.cx, queries.cy
        q_slack = queries.approx_radius
        slack_sq = q_slack * q_slack
        tests = 0
        extend = out.extend
        for (hw, hh), qids in queries.shed_query_groups.items():
            reach_x = hw + q_slack
            reach_y = hh + q_slack
            if (
                qcx - reach_x > o_max_x
                or qcx + reach_x < o_min_x
                or qcy - reach_y > o_max_y
                or qcy + reach_y < o_min_y
            ):
                continue
            tests += n
            sx, sy, sid = _sorted_columns(objects)
            # Necessary x-condition for a zero-or-small gap: the object must
            # lie within the slack-inflated window horizontally (padded —
            # the gap test below is the exact inclusion criterion).
            pad = 2.0 * ulp(abs(qcx) + reach_x)
            lo = bisect_left(sx, qcx - reach_x - pad)
            hi = bisect_right(sx, qcx + reach_x + pad, lo)
            if lo < hi:
                hits = [
                    oid
                    for oid, ox, oy in zip(sid[lo:hi], sx[lo:hi], sy[lo:hi])
                    if rect_point_gap_sq(qcx, qcy, hw, hh, ox, oy) <= slack_sq
                ]
                for oid in hits:
                    extend([QueryMatch(qid, oid, now) for qid in qids])
        return tests

    def points_in_rect(
        self,
        batch: PointBatch,
        qid: int,
        qx: float,
        qy: float,
        hw: float,
        hh: float,
        now: float,
        out: List[QueryMatch],
    ) -> int:
        n = len(batch.ids)
        if n < _SORT_THRESHOLD:
            # Tiny cells (the common case on sparse grids): the plain
            # scalar loop beats any batching machinery, and at n of a
            # few even a delegating super() frame is measurable — so
            # the loop is inlined here rather than delegated.
            append = out.append
            for oid, ox, oy in zip(batch.ids, batch.xs, batch.ys):
                if abs(ox - qx) <= hw and abs(oy - qy) <= hh:
                    append(QueryMatch(qid, oid, now))
            return n
        scratch = batch.scratch
        cols = scratch.get("sorted_x")
        if cols is None:
            if scratch.get("touched"):
                # Second query over this cell: the sort now amortises.
                order = sorted(range(n), key=batch.xs.__getitem__)
                cols = (
                    [batch.xs[i] for i in order],
                    [batch.ys[i] for i in order],
                    [batch.ids[i] for i in order],
                )
                scratch["sorted_x"] = cols
            else:
                scratch["touched"] = True
                return super().points_in_rect(batch, qid, qx, qy, hw, hh, now, out)
        sx, sy, sid = cols
        pad = 2.0 * ulp(abs(qx) + hw)
        lo = bisect_left(sx, qx - hw - pad)
        hi = bisect_right(sx, qx + hw + pad, lo)
        if lo < hi:
            out.extend(
                [
                    QueryMatch(qid, oid, now)
                    for oid, ox, oy in zip(sid[lo:hi], sx[lo:hi], sy[lo:hi])
                    if abs(ox - qx) <= hw and abs(oy - qy) <= hh
                ]
            )
        return n
