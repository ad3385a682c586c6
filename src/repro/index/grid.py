"""Uniform spatial grid index.

Both sides of the paper's comparison stand on the same index structure:

* **SCUBA's ClusterGrid** (§4.1) — "a spatial grid table dividing the data
  space into N×N grid cells [maintaining] for each grid cell a list of
  cluster ids of moving clusters that overlap with that cell", which the
  join rebuilds once per interval with :meth:`SpatialGrid.cells_for_circles`
  from its cluster columns; and
* the **regular grid-based operator** (§6) — objects and queries hashed by
  location into the same kind of grid, joined cell by cell.

:class:`SpatialGrid` is the shared implementation: a dict from flat cell
index to a set of member keys, with geometric helpers mapping points,
circles (one, or a whole column of them) and rectangles to the cells they
touch.  Coordinates outside the world bounds are clamped to the border
cells, so late entities that drift marginally out of bounds are still
indexed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

from ..geometry import Rect

__all__ = ["SpatialGrid", "CellKey"]

# Cells are addressed by a flattened integer index (column-major is an
# implementation detail; callers treat keys as opaque).
CellKey = int


class SpatialGrid:
    """An ``nx × ny`` uniform grid over a bounded world."""

    def __init__(self, bounds: Rect, nx: int, ny: int | None = None) -> None:
        if nx < 1 or (ny is not None and ny < 1):
            raise ValueError(f"grid dimensions must be >= 1, got {nx}x{ny}")
        self.bounds = bounds
        self.nx = nx
        self.ny = ny if ny is not None else nx
        self._cell_w = bounds.width / self.nx
        self._cell_h = bounds.height / self.ny
        self._cells: Dict[CellKey, Set[Hashable]] = {}
        # Per-cell sorted member tuples, invalidated on membership change:
        # the join sweep visits every occupied cell every Δ, but most cell
        # populations are stable between sweeps, so the sort is amortised.
        self._sorted_cache: Dict[CellKey, Tuple[Hashable, ...]] = {}

    # -- geometry → cells ---------------------------------------------------

    def _col(self, x: float) -> int:
        col = int((x - self.bounds.min_x) / self._cell_w)
        return min(max(col, 0), self.nx - 1)

    def _row(self, y: float) -> int:
        row = int((y - self.bounds.min_y) / self._cell_h)
        return min(max(row, 0), self.ny - 1)

    def cell_of(self, x: float, y: float) -> CellKey:
        """The cell containing point ``(x, y)`` (clamped to the border)."""
        # In-bounds points (nearly all) skip the two clamping calls.
        col = int((x - self.bounds.min_x) / self._cell_w)
        row = int((y - self.bounds.min_y) / self._cell_h)
        if 0 <= col < self.nx and 0 <= row < self.ny:
            return row * self.nx + col
        return self._row(y) * self.nx + self._col(x)

    def _low_col(self, x: float) -> int:
        """Leftmost column whose *closed* rectangle contains ``x``.

        Binning is half-open, but cell rectangles are closed: a coordinate
        sitting exactly on a cell's lower edge also touches the cell below.
        Range scans must start there or boundary-touching geometry loses
        its lower neighbour.
        """
        col = self._col(x)
        if col > 0 and x <= self.bounds.min_x + col * self._cell_w:
            col -= 1
        return col

    def _low_row(self, y: float) -> int:
        """Bottom row whose closed rectangle contains ``y`` (see _low_col)."""
        row = self._row(y)
        if row > 0 and y <= self.bounds.min_y + row * self._cell_h:
            row -= 1
        return row

    def cells_for_circle(self, cx: float, cy: float, radius: float) -> List[CellKey]:
        """All cells whose rectangle intersects the closed disc.

        A bounding-box sweep with a per-cell disc test.  Border cells
        extend outward without limit — the region :meth:`cell_of` clamps
        into them — so two discs that meet anywhere, inside the world or
        beyond its edge, share a cell.  The centre's own cell is always
        included, even when rounding puts a zero-radius centre a hair
        outside it.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        b = self.bounds
        r_sq = radius * radius
        keys = [
            row * self.nx + col
            for row in range(self._low_row(cy - radius), self._row(cy + radius) + 1)
            for col in range(self._low_col(cx - radius), self._col(cx + radius) + 1)
            if _gap_sq(cx, col, b.min_x, self._cell_w, self.nx)
            + _gap_sq(cy, row, b.min_y, self._cell_h, self.ny)
            <= r_sq
        ]
        return keys or [self.cell_of(cx, cy)]

    def cells_for_circles(self, cx, cy, radius):
        """:meth:`cells_for_circle` over parallel float64 columns of discs.

        Returns int64 ``(owners, cells)``, one row per (disc, cell) pair,
        ``owners`` indexing the input — exactly each disc's cells, with
        the same float arithmetic, as :meth:`cells_for_circle`.
        """
        x_axis = (self.bounds.min_x, self._cell_w, self.nx)
        y_axis = (self.bounds.min_y, self._cell_h, self.ny)
        col_lo = _bins(cx - radius, *x_axis, low=True)
        row_lo = _bins(cy - radius, *y_axis, low=True)
        ncol = _bins(cx + radius, *x_axis) - col_lo + 1
        counts = ncol * (_bins(cy + radius, *y_axis) - row_lo + 1)
        owners = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        local = np.arange(owners.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        ncol = ncol[owners]
        col = col_lo[owners] + local % ncol
        row = row_lo[owners] + local // ncol
        dx = _gaps(cx[owners], col, *x_axis)
        dy = _gaps(cy[owners], row, *y_axis)
        r = radius[owners]
        keep = dx * dx + dy * dy <= r * r
        owners = owners[keep]
        cells = (row * self.nx + col)[keep]
        hit = np.zeros(counts.size, dtype=bool)
        hit[owners] = True
        if not hit.all():
            # Rounding left a zero-radius centre a hair outside its cell.
            lone = np.flatnonzero(~hit)
            owners = np.concatenate((owners, lone))
            lone_cells = _bins(cy[lone], *y_axis) * self.nx + _bins(cx[lone], *x_axis)
            cells = np.concatenate((cells, lone_cells))
        return owners, cells

    def cells_for_rect(self, rect: Rect) -> List[CellKey]:
        """All cells intersecting ``rect``."""
        col_lo = self._low_col(rect.min_x)
        col_hi = self._col(rect.max_x)
        row_lo = self._low_row(rect.min_y)
        row_hi = self._row(rect.max_y)
        return [
            row * self.nx + col
            for row in range(row_lo, row_hi + 1)
            for col in range(col_lo, col_hi + 1)
        ]

    # -- membership ----------------------------------------------------------

    def insert(self, key: Hashable, cells: Iterable[CellKey]) -> None:
        """Register ``key`` in every cell of ``cells``."""
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket is None:
                bucket = set()
                self._cells[cell] = bucket
            elif key in bucket:
                continue
            bucket.add(key)
            self._sorted_cache.pop(cell, None)

    def remove(self, key: Hashable, cells: Iterable[CellKey]) -> None:
        """Unregister ``key`` from every cell of ``cells``.

        Cells that become empty are deleted so memory accounting reflects
        live occupancy only.
        """
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket is None or key not in bucket:
                continue
            bucket.discard(key)
            self._sorted_cache.pop(cell, None)
            if not bucket:
                del self._cells[cell]

    def relocate(
        self,
        key: Hashable,
        old_cells: Iterable[CellKey],
        new_cells: Iterable[CellKey],
    ) -> None:
        """Move ``key`` from ``old_cells`` to ``new_cells`` (set-diff based)."""
        old = set(old_cells)
        new = set(new_cells)
        self.remove(key, old - new)
        self.insert(key, new - old)

    def members(self, cell: CellKey) -> Set[Hashable]:
        """Keys registered in ``cell`` (empty set when vacant)."""
        return self._cells.get(cell, _EMPTY_SET)

    def sorted_members(self, cell: CellKey) -> Tuple[Hashable, ...]:
        """Keys of ``cell`` in sorted order, cached until the cell changes.

        Deterministic sweep order without re-sorting every occupied cell on
        every evaluation (the pre-kernel hot-path cost this replaces).
        """
        cached = self._sorted_cache.get(cell)
        if cached is None:
            bucket = self._cells.get(cell)
            if not bucket:
                return ()
            cached = tuple(sorted(bucket))
            self._sorted_cache[cell] = cached
        return cached

    def occupied_cells(self) -> Iterator[Tuple[CellKey, Set[Hashable]]]:
        """Iterate non-empty cells in deterministic (flat-index) order."""
        for cell in sorted(self._cells):
            yield cell, self._cells[cell]

    def clear(self) -> None:
        self._cells.clear()
        self._sorted_cache.clear()

    @property
    def occupied_cell_count(self) -> int:
        return len(self._cells)

    @property
    def entry_count(self) -> int:
        """Total (key, cell) registrations — the directory size."""
        return sum(len(bucket) for bucket in self._cells.values())

    def __repr__(self) -> str:
        return (
            f"SpatialGrid({self.nx}x{self.ny}, "
            f"{self.occupied_cell_count} occupied cells, "
            f"{self.entry_count} entries)"
        )


_EMPTY_SET: Set[Hashable] = frozenset()  # type: ignore[assignment]


def _bins(v, origin, size, n, low=False):
    """Vectorised :meth:`SpatialGrid._col` (``low``: ``_low_col``);
    clamping before truncating equals ``int`` then clamping."""
    idx = np.clip((v - origin) / size, 0, n - 1).astype(np.int64)
    if low:
        idx -= (idx > 0) & (v <= origin + idx * size)
    return idx


def _gaps(v, idx, origin, size, n):
    """Vectorised :func:`_gap_sq`, before squaring."""
    lo = origin + idx * size
    hi = lo + size
    return np.where(
        (v < lo) & (idx > 0), v - lo, np.where((v > hi) & (idx < n - 1), v - hi, 0.0)
    )


def _gap_sq(v: float, idx: int, origin: float, size: float, n: int) -> float:
    """Squared gap from ``v`` to cell ``idx`` of ``n`` along one axis
    (closed cells, the two border cells unbounded outward)."""
    lo = origin + idx * size
    if v < lo and idx > 0:
        gap = v - lo
    else:
        hi = lo + size
        gap = v - hi if v > hi and idx < n - 1 else 0.0
    return gap * gap
