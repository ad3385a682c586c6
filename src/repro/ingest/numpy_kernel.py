"""NumPy-vectorised group classification for the batched ingest path.

Inherits the whole batch driver — grouping, routing, the pre-absorb hook,
the commit — from :class:`~repro.ingest.base.PythonBatchIngestKernel` and
replaces only ``_classify``: for groups of at least
:attr:`NumpyIngestKernel.numpy_min_group` members the admission tests run
as whole-column array operations against the view's sorted key table
(``searchsorted`` joins the batch's entity keys to member rows).
Heartbeat rows — updates byte-identical to their member's snapshot —
resolve through an equality mask plus the view's precomputed admission
flags; only the residual refresh rows pay the float admission math, with
``.any()`` bail-outs mirroring the python kernel's early returns.

All comparisons are performed on ``float64``/``int64`` columns with the
same IEEE operations the scalar path executes on Python floats, so the
verdicts — and therefore the committed state — are bit-identical across
backends.  Small groups fall through to the python classification, whose
per-element overhead is lower than array set-up below the threshold; the
tick's columnar :class:`~repro.ingest.batch.UpdateBatch` is built lazily,
on the first group large enough to want it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..generator import Update
from .base import PythonBatchIngestKernel
from .batch import UpdateBatch

__all__ = ["NumpyIngestKernel"]


class NumpyIngestKernel(PythonBatchIngestKernel):
    """Batched ingest with array-at-a-time group admission tests."""

    #: Groups smaller than this classify through the python kernel.
    #: Array set-up (the lazy tick-wide column build plus per-group
    #: gathers) is a fixed cost the heartbeat-heavy steady state never
    #: recoups on convoy-sized groups — the python equality branch is a
    #: handful of compares per row — so only genuinely large groups,
    #: where the refresh float math dominates, clear the bar.
    numpy_min_group = 64

    def _classify(
        self, updates: Sequence[Update], rows: List[int], cluster: Any,
        spec: Any
    ) -> Optional[Tuple[List[Tuple[Any, bool]], int]]:
        if len(rows) < self.numpy_min_group:
            return super()._classify(updates, rows, cluster, spec)
        batch = self._batch
        if batch is None:
            batch = self._batch = UpdateBatch(self._updates)
        view = self._view_of(cluster, spec)
        view.ensure_hb_ok(cluster, spec)
        skeys, srows, v_speeds, v_rx, v_ry, v_cns, v_sheds, v_hb = (
            view.numpy_tables(np)
        )
        all_keys, xs, ys, speeds, cns = batch.numpy_columns(np)
        idx = np.fromiter(rows, dtype=np.int64, count=len(rows))
        gkeys = all_keys[idx]
        # Join batch keys to member rows; a miss or a duplicate entity in
        # the tick disqualifies the group, as in the python kernel.
        pos = np.searchsorted(skeys, gkeys)
        pos[pos == skeys.size] = 0
        if not np.array_equal(skeys[pos], gkeys):
            return None
        mrows = srows[pos]
        if np.unique(mrows).size != mrows.size:
            return None
        gx = xs[idx]
        gy = ys[idx]
        gs = speeds[idx]
        gcn = cns[idx]
        heartbeat = (
            (gx == v_rx[mrows])
            & (gy == v_ry[mrows])
            & (gs == v_speeds[mrows])
            & (gcn == v_cns[mrows])
            & ~v_sheds[mrows]
        )
        if not v_hb[mrows[heartbeat]].all():
            return None
        refresh = ~heartbeat
        if refresh.any():
            rx = gx[refresh]
            ry = gy[refresh]
            rs = gs[refresh]
            rrows = mrows[refresh]
            if spec.require_same_destination and (
                gcn[refresh] != cluster.cn_node
            ).any():
                return None
            slack = spec.eviction_slack
            max_d = spec.theta_d * slack
            dx = rx - cluster.cx
            dy = ry - cluster.cy
            d_sq = dx * dx + dy * dy
            if (d_sq > max_d * max_d).any():
                return None
            if (np.abs(rs - cluster.avespeed) > spec.theta_s * slack).any():
                return None
            if (rs != v_speeds[rrows]).any():
                return None
            if (d_sq > cluster.radius * cluster.radius).any():
                return None
        members = view.members
        assignments = [
            (members[row], hb)
            for row, hb in zip(mrows.tolist(), heartbeat.tolist())
        ]
        return assignments, len(rows) - int(heartbeat.sum())
