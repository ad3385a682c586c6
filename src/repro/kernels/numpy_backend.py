"""NumPy join kernels — the default backend.

Vectorises the two member-loop-heavy predicate cases — exact×exact and
exact×shed — into array expressions; the two shed-object cases are one
scalar test per query (or per group) and inherit the scalar code.  Array
mirrors of a view's columns are cached in the view ``scratch``, so the
list→ndarray conversion is paid once per cluster change.

Matched ids are converted back to built-in ``int`` before
:class:`~repro.streams.QueryMatch` construction: downstream code hashes,
compares and JSON-serialises match ids, and must never see a stray
``np.int64``.
"""

from __future__ import annotations

from itertools import repeat
from typing import List

import numpy as np

from ..streams import QueryMatch
from .base import PointBatch
from .batched import _SORT_THRESHOLD, PythonBatchBackend

__all__ = ["NumpyBackend"]

#: Below this many candidate pairs, ndarray dispatch overhead beats the
#: comprehension; fall back to the batched-Python code path via super().
#: Measured crossover (single-use views, bench_kernels microbench): the
#: vectorised path starts winning around 32×32 member pairs.
_MIN_VECTOR_PAIRS = 1024

#: One-dimensional kernels (per shed group, per grid-cell query) amortise
#: ndarray dispatch much sooner than the pair matrix does.
_MIN_VECTOR_ELEMS = 64

#: Candidate-pair budget per segmented-expansion chunk of the macro
#: join_segments kernel: bounds the transient index/mask arrays to a few
#: MiB regardless of how many segments one flush carries.
_SEGMENT_CHUNK = 1 << 20


def _fused_column(parts, dtype):
    """One array from per-view column ``parts``.

    View columns are plain Python lists, so the whole fuse is one C-speed
    ``extend`` sweep plus one conversion, instead of one tiny ndarray per
    view fed to ``concatenate``.
    """
    buf: list = []
    for part in parts:
        buf.extend(part)
    return np.asarray(buf, dtype=dtype)


def _object_arrays(view):
    arrays = view.scratch.get("np_obj")
    if arrays is None:
        arrays = (
            np.asarray(view.obj_xs, dtype=np.float64),
            np.asarray(view.obj_ys, dtype=np.float64),
            np.asarray(view.obj_ids, dtype=np.int64),
        )
        view.scratch["np_obj"] = arrays
    return arrays


def _query_arrays(view):
    arrays = view.scratch.get("np_query")
    if arrays is None:
        arrays = (
            np.asarray(view.query_xs, dtype=np.float64),
            np.asarray(view.query_ys, dtype=np.float64),
            np.asarray(view.query_hws, dtype=np.float64),
            np.asarray(view.query_hhs, dtype=np.float64),
        )
        view.scratch["np_query"] = arrays
    return arrays


class NumpyBackend(PythonBatchBackend):
    """Array kernels for the member-loop cases; batched-Python fallbacks
    below the vectorisation threshold, scalar group tests."""

    name = "numpy"

    def join_segments(self, segments, now: float, out: List[QueryMatch]) -> int:
        nseg = len(segments)
        if nseg < 2:
            return super().join_segments(segments, now, out)
        # Unique-view tables: one flush revisits the same view in many
        # segments (a survivor cluster pairs with every neighbour, both
        # directions), so columns are gathered and concatenated once per
        # distinct view and segments address them through index arrays.
        # The candidate-pair estimate that decides vectorised-vs-fallback
        # comes from the same tables (unique-view member counts gathered
        # per segment), so the flush is walked exactly once.
        o_index: dict = {}
        q_index: dict = {}
        o_views: list = []
        q_views: list = []
        o_idx_l: list = []
        q_idx_l: list = []
        o_idx_append = o_idx_l.append
        q_idx_append = q_idx_l.append
        for objects, queries in segments:
            key = id(objects)
            i = o_index.get(key)
            if i is None:
                i = o_index[key] = len(o_views)
                o_views.append(objects)
            o_idx_append(i)
            key = id(queries)
            i = q_index.get(key)
            if i is None:
                i = q_index[key] = len(q_views)
                q_views.append(queries)
            q_idx_append(i)
        o_idx = np.asarray(o_idx_l, dtype=np.int64)
        q_idx = np.asarray(q_idx_l, dtype=np.int64)
        n_ov = len(o_views)
        u_on = np.fromiter(
            (len(v.obj_ids) for v in o_views), dtype=np.int64, count=n_ov
        )
        u_qn = np.fromiter(
            (len(v.query_ids) for v in q_views),
            dtype=np.int64,
            count=len(q_views),
        )
        if int((u_on[o_idx] * u_qn[q_idx]).sum()) < _MIN_VECTOR_PAIRS:
            return super().join_segments(segments, now, out)
        return self._join_segments_core(
            o_views, q_views, o_idx, q_idx, u_on, u_qn, now, out
        )

    def join_segments_indexed(
        self, views, o_idx, q_idx, now: float, out: List[QueryMatch]
    ) -> int:
        """Pre-indexed variant of :meth:`join_segments`.

        The macro-batched driver already knows each segment's views by
        table position (one shared view table, two parallel int64 index
        arrays), so the per-segment identity-registry walk of
        :meth:`join_segments` is redundant — this entry point goes
        straight to the fused core.  Semantics (candidates, emission
        order, logical test counts) are identical to an equivalent
        ``join_segments([(views[o], views[q]) for o, q in ...])`` call.
        """
        nseg = int(o_idx.size)
        n_views = len(views)
        u_on = np.fromiter(
            (len(v.obj_ids) for v in views), dtype=np.int64, count=n_views
        )
        u_qn = np.fromiter(
            (len(v.query_ids) for v in views), dtype=np.int64, count=n_views
        )
        if nseg < 2 or int((u_on[o_idx] * u_qn[q_idx]).sum()) < _MIN_VECTOR_PAIRS:
            return super().join_segments(
                [
                    (views[o], views[q])
                    for o, q in zip(o_idx.tolist(), q_idx.tolist())
                ],
                now,
                out,
            )
        return self._join_segments_core(
            views, views, o_idx, q_idx, u_on, u_qn, now, out
        )

    def _join_segments_core(
        self, o_views, q_views, o_idx, q_idx, u_on, u_qn, now, out
    ) -> int:
        nseg = int(o_idx.size)
        n_ov = len(o_views)
        oxs = _fused_column((v.obj_xs for v in o_views), np.float64)
        oys = _fused_column((v.obj_ys for v in o_views), np.float64)
        oids = _fused_column((v.obj_ids for v in o_views), np.int64)
        qxs_u = _fused_column((v.query_xs for v in q_views), np.float64)
        qys_u = _fused_column((v.query_ys for v in q_views), np.float64)
        qhws_u = _fused_column((v.query_hws for v in q_views), np.float64)
        qhhs_u = _fused_column((v.query_hhs for v in q_views), np.float64)
        qids_u = _fused_column((v.query_ids for v in q_views), np.int64)
        bbox = np.empty((n_ov, 4), dtype=np.float64)
        for i, objects in enumerate(o_views):
            bbox[i, 0] = objects.obj_min_x
            bbox[i, 1] = objects.obj_max_x
            bbox[i, 2] = objects.obj_min_y
            bbox[i, 3] = objects.obj_max_y
        o_starts_u = np.cumsum(u_on) - u_on
        q_starts_u = np.cumsum(u_qn) - u_qn
        # Expand each segment's query run: per-instance global column
        # index = its view's start + position within the view.
        q_counts = u_qn[q_idx]
        o_counts = u_on[o_idx]
        qseg = np.repeat(np.arange(nseg, dtype=np.int64), q_counts)
        qcsum = np.cumsum(q_counts)
        gq = (
            q_starts_u[q_idx[qseg]]
            + np.arange(int(qcsum[-1]), dtype=np.int64)
            - np.repeat(qcsum - q_counts, q_counts)
        )
        qxs = qxs_u[gq]
        qys = qys_u[gq]
        qhws = qhws_u[gq]
        qhhs = qhhs_u[gq]
        # Per-query bounding-box pre-filter across all segments at once
        # (identical float comparisons, and identical logical test-count
        # semantics, to the per-pair scalar loop: n objects per passing
        # query of that query's segment).
        qbox = bbox[o_idx[qseg]]
        alive = (
            (qxs - qbox[:, 1] <= qhws)
            & (qbox[:, 0] - qxs <= qhws)
            & (qys - qbox[:, 3] <= qhhs)
            & (qbox[:, 2] - qys <= qhhs)
        )
        alive_idx = np.flatnonzero(alive)
        if alive_idx.size == 0:
            return 0
        reps = o_counts[qseg[alive_idx]]
        tests = int(reps.sum())
        seg_o_start = o_starts_u[o_idx]
        bound = np.cumsum(reps)
        append_block = getattr(out, "append_block", None)
        # Segmented candidate expansion (query × its segment's objects),
        # chunked so the transient arrays stay bounded; candidate rows fall
        # out grouped (segment, query, object) — the canonical per-pair
        # emission grouping.
        lo = 0
        n_alive = int(alive_idx.size)
        while lo < n_alive:
            floor = int(bound[lo]) - int(reps[lo])
            hi = int(np.searchsorted(bound, floor + _SEGMENT_CHUNK, "right"))
            if hi <= lo:
                hi = lo + 1
            r = reps[lo:hi]
            csum = np.cumsum(r)
            local = np.arange(int(csum[-1]), dtype=np.int64) - np.repeat(
                csum - r, r
            )
            qg = np.repeat(alive_idx[lo:hi], r)
            og = seg_o_start[qseg[qg]] + local
            inside = (np.abs(oxs[og] - qxs[qg]) <= qhws[qg]) & (
                np.abs(oys[og] - qys[qg]) <= qhhs[qg]
            )
            sel = np.flatnonzero(inside)
            if sel.size:
                matched_q = qids_u[gq[qg[sel]]]
                matched_o = oids[og[sel]]
                if append_block is not None:
                    # Columnar emission: the MatchList splices the run in
                    # at its canonical position, rows materialise lazily.
                    append_block(matched_q, matched_o, now)
                else:
                    out.extend(
                        map(
                            QueryMatch._make,
                            zip(
                                matched_q.tolist(),
                                matched_o.tolist(),
                                repeat(now),
                            ),
                        )
                    )
            lo = hi
        return tests

    def exact_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        n = len(objects.obj_ids)
        nq = len(queries.query_ids)
        if n * nq < _MIN_VECTOR_PAIRS:
            return super().exact_exact(objects, queries, now, out)
        oxs, oys, oids = _object_arrays(objects)
        qxs, qys, qhws, qhhs = _query_arrays(queries)
        # Bounding-box pre-filter, vectorised across queries (same logical
        # test-count semantics as the scalar path: n tests per passing query).
        alive = (
            (qxs - objects.obj_max_x <= qhws)
            & (objects.obj_min_x - qxs <= qhws)
            & (qys - objects.obj_max_y <= qhhs)
            & (objects.obj_min_y - qys <= qhhs)
        )
        alive_idx = np.flatnonzero(alive)
        if alive_idx.size == 0:
            return 0
        # (passing queries × objects) containment matrix.
        inside = (
            np.abs(oxs[None, :] - qxs[alive_idx, None]) <= qhws[alive_idx, None]
        ) & (np.abs(oys[None, :] - qys[alive_idx, None]) <= qhhs[alive_idx, None])
        qi, oi = np.nonzero(inside)
        if qi.size:
            qids = queries.query_ids
            matched_q = alive_idx[qi].tolist()
            matched_o = oids[oi].tolist()
            out.extend(
                [
                    QueryMatch(qids[q], o, now)
                    for q, o in zip(matched_q, matched_o)
                ]
            )
        return int(alive_idx.size) * n

    def exact_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        n = len(objects.obj_ids)
        if n < _MIN_VECTOR_ELEMS:
            return super().exact_shed(objects, queries, now, out)
        oxs, oys, oids = _object_arrays(objects)
        o_min_x, o_max_x = objects.obj_min_x, objects.obj_max_x
        o_min_y, o_max_y = objects.obj_min_y, objects.obj_max_y
        qcx, qcy = queries.cx, queries.cy
        q_slack = queries.approx_radius
        slack_sq = q_slack * q_slack
        tests = 0
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
            dx = np.maximum(np.abs(oxs - qcx) - hw, 0.0)
            dy = np.maximum(np.abs(oys - qcy) - hh, 0.0)
            hits = oids[dx * dx + dy * dy <= slack_sq].tolist()
            for oid in hits:
                out.extend([QueryMatch(qid, oid, now) for qid in qids])
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
        if n < _MIN_VECTOR_ELEMS:
            if n < _SORT_THRESHOLD:
                # Inlined scalar loop: sparse-grid cells hold a handful
                # of points, where even one delegation frame shows up.
                append = out.append
                for oid, ox, oy in zip(batch.ids, batch.xs, batch.ys):
                    if abs(ox - qx) <= hw and abs(oy - qy) <= hh:
                        append(QueryMatch(qid, oid, now))
                return n
            return super().points_in_rect(batch, qid, qx, qy, hw, hh, now, out)
        arrays = batch.scratch.get("np")
        if arrays is None:
            arrays = (
                np.asarray(batch.xs, dtype=np.float64),
                np.asarray(batch.ys, dtype=np.float64),
                np.asarray(batch.ids, dtype=np.int64),
            )
            batch.scratch["np"] = arrays
        xs, ys, ids = arrays
        hits = ids[(np.abs(xs - qx) <= hw) & (np.abs(ys - qy) <= hh)].tolist()
        out.extend([QueryMatch(qid, oid, now) for oid in hits])
        return n
