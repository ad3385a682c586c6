"""The scalar reference backend — the pre-kernel join path, preserved.

A faithful port of the original tuple-at-a-time member loops: one Python
iteration per candidate pair, no derived arrays, no pruning beyond the
per-query bounding-box pre-filter.  It exists as the semantics oracle the
batched backends are property-tested against, and as the baseline
``benchmarks/bench_kernels.py`` measures their speedup over.
"""

from __future__ import annotations

from typing import List

from ..streams import QueryMatch
from .base import JoinKernelBackend, PointBatch, rect_point_gap_sq

__all__ = ["ScalarBackend"]


def _object_rows(view):
    """Per-view (id, x, y) row list — the layout the seed's loops walked.

    Cached in scratch so the zip is paid once per view, as the seed paid
    it once in its view constructor.
    """
    rows = view.scratch.get("rows")
    if rows is None:
        rows = list(zip(view.obj_ids, view.obj_xs, view.obj_ys))
        view.scratch["rows"] = rows
    return rows


class ScalarBackend(JoinKernelBackend):
    """One geometric test per loop iteration (the seed implementation)."""

    name = "scalar"

    def exact_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        tests = 0
        obj_rows = _object_rows(objects)
        o_min_x, o_max_x = objects.obj_min_x, objects.obj_max_x
        o_min_y, o_max_y = objects.obj_min_y, objects.obj_max_y
        for qid, qx, qy, hw, hh in zip(
            queries.query_ids,
            queries.query_xs,
            queries.query_ys,
            queries.query_hws,
            queries.query_hhs,
        ):
            # Window vs. object bounding box: skips the member loop for the
            # common near-miss case of barely-overlapping clusters.  The
            # subtraction form is the canonical ``abs(ox - qx) <= hw`` for
            # the extreme object and, rounding being monotone, a bound for
            # every other one — so it never prunes a match.
            if (
                qx - o_max_x <= hw
                and o_min_x - qx <= hw
                and qy - o_max_y <= hh
                and o_min_y - qy <= hh
            ):
                for oid, ox, oy in obj_rows:
                    tests += 1
                    if abs(ox - qx) <= hw and abs(oy - qy) <= hh:
                        out.append(QueryMatch(qid, oid, now))
        return tests

    def shed_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        tests = 0
        ocx, ocy = objects.cx, objects.cy
        reach_sq = objects.approx_radius * objects.approx_radius
        shed_ids = objects.shed_object_ids
        for qid, qx, qy, hw, hh in zip(
            queries.query_ids,
            queries.query_xs,
            queries.query_ys,
            queries.query_hws,
            queries.query_hhs,
        ):
            tests += 1
            if rect_point_gap_sq(qx, qy, hw, hh, ocx, ocy) <= reach_sq:
                for oid in shed_ids:
                    out.append(QueryMatch(qid, oid, now))
        return tests

    def exact_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        tests = 0
        obj_rows = _object_rows(objects)
        o_min_x, o_max_x = objects.obj_min_x, objects.obj_max_x
        o_min_y, o_max_y = objects.obj_min_y, objects.obj_max_y
        qcx, qcy = queries.cx, queries.cy
        q_slack = queries.approx_radius
        slack_sq = q_slack * q_slack
        for (hw, hh), qids in queries.shed_query_groups.items():
            reach_x = hw + q_slack
            reach_y = hh + q_slack
            if (
                qcx - reach_x <= o_max_x
                and qcx + reach_x >= o_min_x
                and qcy - reach_y <= o_max_y
                and qcy + reach_y >= o_min_y
            ):
                for oid, ox, oy in obj_rows:
                    tests += 1
                    if rect_point_gap_sq(qcx, qcy, hw, hh, ox, oy) <= slack_sq:
                        for qid in qids:
                            out.append(QueryMatch(qid, oid, now))
        return tests

    def shed_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        tests = 0
        ocx, ocy = objects.cx, objects.cy
        qcx, qcy = queries.cx, queries.cy
        shed_ids = objects.shed_object_ids
        for (hw, hh), qids in queries.shed_query_groups.items():
            tests += 1
            reach = queries.approx_radius + objects.approx_radius
            if rect_point_gap_sq(qcx, qcy, hw, hh, ocx, ocy) <= reach * reach:
                for qid in qids:
                    for oid in shed_ids:
                        out.append(QueryMatch(qid, oid, now))
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
        for oid, ox, oy in zip(batch.ids, batch.xs, batch.ys):
            if abs(ox - qx) <= hw and abs(oy - qy) <= hh:
                out.append(QueryMatch(qid, oid, now))
        return len(batch.ids)
