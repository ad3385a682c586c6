"""The reference answer: a numpy brute-force range join.

Semantics are those of ``repro.core.naive`` — every (query, object) pair
tested directly as ``|ox - qx| <= w/2 and |oy - qy| <= h/2`` — evaluated
over the entities that reported in the interval's **last tick**, read
from the columns of the batch the benchmark handed to the engine.

Why only those: SCUBA is predictive.  An entity that stays silent rides
along with its cluster, so with 10 % reporting (``wide_windows``) the
engine's answer is by design not the join over last-reported positions.
For a pair whose query *and* object both reported in the tick the join
fires on, the engine holds exactly the reported positions, so its answer
restricted to those pairs must equal the brute force bit for bit.  With
every entity reporting every tick (the other workloads) the restriction
removes nothing and the whole answer is compared.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from repro.generator import TickBatch

__all__ = ["Verdict", "pack_pairs", "check_interval"]

_QUERY_CHUNK = 128


class Verdict(NamedTuple):
    ok: bool
    expected: int
    got: int


def pack_pairs(pairs: Iterable[Tuple[int, int]], count: int) -> np.ndarray:
    """(qid, oid) pairs as one int64 key each."""
    return np.fromiter(
        ((qid << 32) | oid for qid, oid in pairs), dtype=np.int64, count=count
    )


def _range_join(tick: TickBatch) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted packed pairs over the tick's reporters, plus the reporting
    object and query ids."""
    ids = np.asarray(tick.ids, dtype=np.int64)
    is_object = np.asarray(tick.kinds, dtype=bool)
    xs, ys, ws, hs = (
        np.asarray(column, dtype=np.float64)
        for column in (tick.xs, tick.ys, tick.ws, tick.hs)
    )
    is_query = ~is_object
    oids, ox, oy = ids[is_object], xs[is_object], ys[is_object]
    qids, qx, qy = ids[is_query], xs[is_query], ys[is_query]
    half_w, half_h = ws[is_query] / 2.0, hs[is_query] / 2.0
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(qids), _QUERY_CHUNK):
        hi = lo + _QUERY_CHUNK
        # Every pair is tested on x; y is then tested on the pairs that
        # passed, which is the same conjunction at half the passes.
        q_index, o_index = np.nonzero(
            np.abs(ox[None, :] - qx[lo:hi, None]) <= half_w[lo:hi, None]
        )
        q_index += lo
        inside = np.abs(oy[o_index] - qy[q_index]) <= half_h[q_index]
        found.append((qids[q_index[inside]] << 32) | oids[o_index[inside]])
    pairs = np.concatenate(found)
    pairs.sort()
    return pairs, oids, qids


def check_interval(
    tick: TickBatch,
    packed: Optional[np.ndarray] = None,
    count: Optional[int] = None,
) -> Verdict:
    """Compare one interval's answer with the brute force over ``tick``.

    ``packed`` is the engine's full answer as :func:`pack_pairs` keys; it
    is restricted to pairs whose both sides reported in ``tick`` and must
    then equal the reference exactly.  When only ``count`` is known the
    totals are compared, which is sound only if every entity reported in
    ``tick`` (``update_fraction = 1``).
    """
    expected, oids, qids = _range_join(tick)
    if packed is None:
        return Verdict(count == len(expected), len(expected), int(count or 0))
    fresh_q = np.isin(packed >> 32, qids)
    fresh_o = np.isin(packed & 0xFFFFFFFF, oids)
    got = np.sort(packed[fresh_q & fresh_o])
    return Verdict(np.array_equal(got, expected), len(expected), len(got))
