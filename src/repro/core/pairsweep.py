"""Macro-batched cell sweep: whole-tick candidate-pair join-between.

A per-pair sweep over the ClusterGrid would spend its time in per-pair
Python bookkeeping: a seen-set probe, two attribute walks for the type-mix
check, a scalar :func:`circles_overlap` and a dict probe per candidate
pair.  This module does all of that in a handful of whole-tick batch
operations (DESIGN.md §8):

* :class:`ClusterSoA` — a cluster-level structure-of-arrays registry
  (centroid, radius, widest query half-diagonal, has-objects/has-queries
  flags), synced incrementally by version stamp once per sweep, so the
  filter inputs need no per-pair attribute walks;
* the per-interval footprint build — every live cluster's N×N grid
  cells, straight from the registry columns
  (:meth:`~repro.index.SpatialGrid.cells_for_circles`), as sorted
  ``(cell, cid)`` rows: rebuilt, never maintained, so never stale;
* packed-key candidate enumeration — every multi-member cell contributes
  its ``(cid_l << 32) | cid_r`` pair keys (cids are monotonically
  allocated ``int`` well below 2³², and the row sort guarantees
  ``cid_l < cid_r``), deduplicated in **first-seen sweep order** with one
  ``np.unique`` — the canonical order: cells in flat index order, members
  ascending within a cell;
* one vectorized join-between over all candidate pairs
  (:func:`pairs_between`);
* :class:`PairVerdictCache` — the version-keyed between-verdict cache as
  sorted parallel arrays, probed with one ``searchsorted`` gather and
  folded in-place.

``between_tests`` counts the *logical* filter applications (the paper's
cost metric) — one per unique type-mixed pair; the cache only skips
recomputing the geometry for pairs whose clusters are both unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ClusterSoA",
    "PairVerdictCache",
    "BatchJoinState",
    "pairs_between",
]

#: Low 32 bits of a packed pair key (the right cid).
_CID_MASK = 0xFFFFFFFF


class ClusterSoA:
    """Cluster-level registry columns, version-synced once per sweep.

    Rows are addressed by ``cid - base`` (cids are monotonic and never
    reused, so a row belongs to one cluster forever); dissolved clusters
    simply leave stale rows behind that no live candidate pair can ever
    reference.  A row is rewritten only when the cluster's ``version``
    moved — every join-relevant mutation (membership, shed transitions,
    centroid/radius changes, rigid advance) bumps it, which is the same
    invariant the view and between caches already lean on.
    """

    __slots__ = (
        "base",
        "version",
        "cx",
        "cy",
        "radius",
        "mqhd",
        "has_obj",
        "has_qry",
        "live",
        "_arrays",
    )

    def __init__(self) -> None:
        self.base: Optional[int] = None
        self.version: List[int] = []
        self.cx: List[float] = []
        self.cy: List[float] = []
        self.radius: List[float] = []
        self.mqhd: List[float] = []
        self.has_obj: List[int] = []
        self.has_qry: List[int] = []
        #: Rows of the clusters passed to the last :meth:`sync`, in order.
        self.live = np.empty(0, dtype=np.int64)
        self._arrays: Optional[Tuple[Any, ...]] = None

    def __len__(self) -> int:
        return len(self.version)

    def sync(self, clusters) -> None:
        """Refresh the columns of every changed cluster (cid order) and
        record the live rows."""
        if not clusters:
            self.live = np.empty(0, dtype=np.int64)
            return
        base = self.base
        if base is None:
            base = self.base = clusters[0].cid
        version = self.version
        cx = self.cx
        cy = self.cy
        radius = self.radius
        mqhd = self.mqhd
        has_obj = self.has_obj
        has_qry = self.has_qry
        size = len(version)
        dirty = False
        live: List[int] = []
        append = live.append
        for cluster in clusters:
            idx = cluster.cid - base
            append(idx)
            if idx >= size:
                grow = idx + 1 - size
                version.extend([-1] * grow)
                cx.extend([0.0] * grow)
                cy.extend([0.0] * grow)
                radius.extend([0.0] * grow)
                mqhd.extend([0.0] * grow)
                has_obj.extend([0] * grow)
                has_qry.extend([0] * grow)
                size = idx + 1
            if version[idx] != cluster.version:
                version[idx] = cluster.version
                cx[idx] = cluster.cx
                cy[idx] = cluster.cy
                radius[idx] = cluster.radius
                mqhd[idx] = cluster.max_query_half_diag
                # Truthiness of the member tables, shed members included —
                # the per-pair driver's type-mix check reads the same.
                has_obj[idx] = 1 if cluster.objects else 0
                has_qry[idx] = 1 if cluster.queries else 0
                dirty = True
        self.live = np.asarray(live, dtype=np.int64)
        if dirty:
            self._arrays = None

    def arrays(self):
        """Cached ndarray mirrors of the columns (rebuilt after changes)."""
        arrays = self._arrays
        if arrays is None:
            arrays = (
                np.asarray(self.version, dtype=np.int64),
                np.asarray(self.cx, dtype=np.float64),
                np.asarray(self.cy, dtype=np.float64),
                np.asarray(self.radius, dtype=np.float64),
                np.asarray(self.mqhd, dtype=np.float64),
                np.asarray(self.has_obj, dtype=bool),
                np.asarray(self.has_qry, dtype=bool),
            )
            self._arrays = arrays
        return arrays


def _in_sorted(values, sorted_ref):
    """Boolean membership of ``values`` in the sorted array ``sorted_ref``."""
    out = np.zeros(values.shape, dtype=bool)
    if sorted_ref.size:
        pos = np.searchsorted(sorted_ref, values)
        inb = pos < sorted_ref.size
        out[inb] = sorted_ref[pos[inb]] == values[inb]
    return out


class PairVerdictCache:
    """The between-verdict cache as sorted parallel arrays.

    Keyed on the packed pair key, an entry holds both cluster versions
    plus the verdict, a probe hits iff the entry exists with both
    versions unchanged, and every probed pair's entry is (re)written.
    Because cids are never reused a stale entry can only miss, and
    because identical versions imply identical filter inputs the cached
    verdict is always bit-equal to a recompute.
    """

    __slots__ = ("keys", "lv", "rv", "verdict")

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.lv = np.empty(0, dtype=np.int64)
        self.rv = np.empty(0, dtype=np.int64)
        self.verdict = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return int(self.keys.size)

    def probe_update(self, keys, lver, rver, fresh) -> Tuple[int, Any]:
        """Gather cached verdicts for ``keys`` and fold the batch back in.

        ``keys`` must be unique; ``fresh`` holds the recomputed verdicts.
        Returns ``(hits, verdicts)`` with verdicts in the input order —
        the cached value where the entry was version-valid (the gather),
        ``fresh`` otherwise.  Entries are updated in place where present
        and merge-inserted (one vectorized ``np.insert``) where new.
        """
        order = np.argsort(keys)
        ks = keys[order]
        lv_s = lver[order]
        rv_s = rver[order]
        fresh_s = fresh[order]
        pos = np.searchsorted(self.keys, ks)
        if self.keys.size:
            inb = pos < self.keys.size
            found = np.zeros(ks.size, dtype=bool)
            found[inb] = self.keys[pos[inb]] == ks[inb]
        else:
            found = np.zeros(ks.size, dtype=bool)
        fidx = pos[found]
        valid = found.copy()
        valid[found] = (self.lv[fidx] == lv_s[found]) & (
            self.rv[fidx] == rv_s[found]
        )
        out_s = fresh_s.copy()
        out_s[valid] = self.verdict[pos[valid]]
        hits = int(np.count_nonzero(valid))
        # Fold in: overwrite present rows (version restamp), merge-insert
        # the rest.
        self.lv[fidx] = lv_s[found]
        self.rv[fidx] = rv_s[found]
        self.verdict[fidx] = fresh_s[found]
        missing = ~found
        if missing.any():
            ins = pos[missing]
            self.keys = np.insert(self.keys, ins, ks[missing])
            self.lv = np.insert(self.lv, ins, lv_s[missing])
            self.rv = np.insert(self.rv, ins, rv_s[missing])
            self.verdict = np.insert(self.verdict, ins, fresh_s[missing])
        out = np.empty_like(out_s)
        out[order] = out_s
        return hits, out

    def prune(self, live_sorted) -> None:
        """Drop entries whose left or right cluster no longer exists."""
        keys = self.keys
        if keys.size == 0:
            return
        keep = _in_sorted(keys >> 32, live_sorted) & _in_sorted(
            keys & _CID_MASK, live_sorted
        )
        if not keep.all():
            self.keys = keys[keep]
            self.lv = self.lv[keep]
            self.rv = self.rv[keep]
            self.verdict = self.verdict[keep]


class BatchJoinState:
    """Per-operator state of the macro-batched sweep.

    Holds the cluster registry, the array between-cache and the cached
    ``triu_indices`` pair templates.  Dropped on pickling by the owning
    operator, which starts over with an empty one.
    """

    __slots__ = ("soa", "cache", "watermark", "footprint_entries", "_triu")

    def __init__(self) -> None:
        self.soa = ClusterSoA()
        self.cache = PairVerdictCache()
        # Full prune scans fire only past a watermark doubled beyond the
        # surviving size, so stable runs never scan and memory stays
        # within 2x of the live pair population.
        self.watermark = 64
        #: (cell, cluster) rows of the last footprint build — the paper's
        #: ClusterGrid directory size (Fig. 9).
        self.footprint_entries = 0
        self._triu: Dict[int, Tuple[Any, Any]] = {}

    def sweep(self, grid, use_filter: bool):
        """Build this interval's footprint cells on ``grid`` (the N×N
        grid, geometry only), then enumerate, dedup and filter the
        candidate pairs.

        A cluster's footprint is its disc ``radius +
        max_query_half_diag``, so two clusters that pass join-between
        share a cell by construction.  Returns ``((lcids, rcids),
        mixed_pairs, cache_hits, cache_misses)``: the surviving pairs as
        parallel int64 cid columns in canonical first-seen sweep order
        (empty lists when no cell holds two clusters), the count of unique
        type-mixed pairs (the logical between-test count), and the
        between-cache counter deltas (both zero when ``use_filter`` is
        off — the filter never runs).
        """
        soa = self.soa
        version, cx, cy, radius, mqhd, has_obj, has_qry = soa.arrays()
        live = soa.live
        self.footprint_entries = 0
        if not live.size:
            return ([], []), 0, 0, 0
        owners, cells = grid.cells_for_circles(
            cx[live], cy[live], radius[live] + mqhd[live]
        )
        # (cell, cid) rows: cells in flat order, members ascending within
        # a cell — the canonical sweep order.
        rows = (cells << 32) | (live[owners] + soa.base)
        rows.sort()
        self.footprint_entries = int(rows.size)
        cells = rows >> 32
        flat_arr = rows & _CID_MASK
        # Cut the rows into cells; cells of two or more clusters, grouped
        # by size, scatter their pair keys from a cached triu template.
        starts = np.flatnonzero(
            np.concatenate(([True], cells[1:] != cells[:-1]))
        )
        counts = np.diff(np.append(starts, cells.size))
        multi = counts >= 2
        if not multi.any():
            return ([], []), 0, 0, 0
        starts = starts[multi]
        counts = counts[multi]
        npairs = (counts * (counts - 1)) >> 1
        pair_starts = np.cumsum(npairs) - npairs
        total = int(pair_starts[-1] + npairs[-1])
        ordered = np.empty(total, dtype=np.int64)
        order = np.argsort(counts, kind="stable")
        uniq_k, first = np.unique(counts[order], return_index=True)
        ncells = counts.size
        for g, k in enumerate(uniq_k):
            k = int(k)
            lo = int(first[g])
            hi = int(first[g + 1]) if g + 1 < uniq_k.size else ncells
            cells_k = order[lo:hi]
            iu = self._triu.get(k)
            if iu is None:
                iu = self._triu[k] = np.triu_indices(k, k=1)
            mat = flat_arr[
                starts[cells_k][:, None] + np.arange(k, dtype=np.int64)
            ]
            keys = (mat[:, iu[0]] << 32) | mat[:, iu[1]]
            p = keys.shape[1]
            seq = (
                pair_starts[cells_k][:, None]
                + np.arange(p, dtype=np.int64)[None, :]
            )
            ordered[seq.reshape(-1)] = keys.reshape(-1)
        uk, first = np.unique(ordered, return_index=True)
        if uk.size != ordered.size:
            # First-seen order — the canonical emission order.
            uk = uk[np.argsort(first, kind="stable")]
        else:
            uk = ordered
        il = (uk >> 32) - soa.base
        ir = (uk & _CID_MASK) - soa.base
        mix = (has_obj[il] & has_qry[ir]) | (has_qry[il] & has_obj[ir])
        if not mix.all():
            uk = uk[mix]
            il = il[mix]
            ir = ir[mix]
        mixed = int(uk.size)
        if not mixed:
            return ([], []), 0, 0, 0
        hits = 0
        misses = 0
        if use_filter:
            fresh = pairs_between(
                cx[il],
                cy[il],
                radius[il],
                mqhd[il],
                cx[ir],
                cy[ir],
                radius[ir],
                mqhd[ir],
            )
            hits, verdicts = self.cache.probe_update(
                uk, version[il], version[ir], fresh
            )
            misses = mixed - hits
            if not verdicts.all():
                uk = uk[verdicts]
        # ndarray survivor columns: the driver's vectorised segment
        # builder consumes them directly; the generic loop zips them
        # (np.int64 cids hash like ints, so every dict probe still works).
        return (uk >> 32, uk & _CID_MASK), mixed, hits, misses

    # -- maintenance --------------------------------------------------------

    def prune(self, storage) -> None:
        """Bound the array cache and the registry across cluster churn.

        The cache scan fires only past the watermark (doubled beyond the
        surviving size after each prune); the registry is rebuilt from
        scratch — re-based at the current lowest live cid — once stale
        rows dominate it.
        """
        cache = self.cache
        if len(cache) > self.watermark:
            live = np.asarray(
                [cluster.cid for cluster in storage.clusters()],
                dtype=np.int64,
            )
            cache.prune(live)
            self.watermark = max(64, 2 * len(cache))
        if len(self.soa) > 2 * len(storage) + 64:
            self.soa = ClusterSoA()
            self.soa.sync(storage.clusters())


def pairs_between(lxs, lys, lrads, lqs, rxs, rys, rrads, rqs):
    """Batched join-between: one lossless overlap verdict per pair.

    Columns are parallel per candidate cluster pair: left/right centroid
    x/y, radius and widest query half-diagonal.  Each verdict equals
    :func:`~repro.core.joins.join_between` on the pair's clusters, with
    the same float association: ``(radius + bonus) + right_radius``, then
    ``dx*dx + dy*dy``.
    """
    ar = lrads + np.maximum(lqs, rqs)
    dx = lxs - rxs
    dy = lys - rys
    reach = ar + rrads
    return dx * dx + dy * dy <= reach * reach


def _warm_numpy() -> None:
    """Pre-pay NumPy's first-call setup for the sweep's routine repertoire.

    Sort/set-op machinery, ufunc loop resolution and fancy-indexing paths
    all carry one-time per-process dispatch costs (milliseconds in total)
    that would otherwise land inside the first measured joining phase of
    every process — visible as a cold-start spike at small scales where a
    whole tick is sub-millisecond.  Touching each routine once on toy
    arrays moves that cost to import time, next to numpy's own.
    """
    a = np.arange(8, dtype=np.int64)
    f = a.astype(np.float64)
    np.unique((a << 32) | a, return_index=True)
    # The plain variant takes a separate hash-table path that lazily
    # imports ``numpy.ma`` on first use — by far the largest single
    # cold-start item (~20 ms).
    np.unique(a)
    np.argsort(a, kind="stable")
    np.searchsorted(a, a, "right")
    np.insert(a, 1, np.int64(5))
    np.flatnonzero(a > 3)
    np.repeat(a, np.full(8, 2, dtype=np.int64))
    np.concatenate((np.cumsum(a), a))
    np.fromiter((int(i) for i in range(4)), dtype=np.int64, count=4)
    np.asarray([1.0, 2.0], dtype=np.float64)
    np.clip(f, 0, 4).astype(np.int64)
    slots = np.empty(8, dtype=np.int64)
    slots[0::2] = a[:4]
    slots[1::2] = a[:4]
    mask = np.zeros(8, dtype=bool)
    mask[0::2] = a[:4] > 1
    slots[mask]
    f[a - 6]
    alive = (np.abs(f - 1.0) <= 2.0) & (f - 1.0 >= -2.0)
    int((a * a).sum())
    (f[:, None] <= f[None, :]) & (f[:, None] >= f[None, :])
    np.minimum(f, 4.0)
    np.maximum(f, 4.0)
    del alive


_warm_numpy()
