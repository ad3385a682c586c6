"""Uniform spatial grid index.

Both sides of the paper's comparison stand on the same index structure:

* **SCUBA's ClusterGrid** (§4.1) — "a spatial grid table dividing the data
  space into N×N grid cells [maintaining] for each grid cell a list of
  cluster ids of moving clusters that overlap with that cell"; and
* the **regular grid-based operator** (§6) — objects and queries hashed by
  location into the same kind of grid, joined cell by cell.

:class:`SpatialGrid` is the shared implementation: a dict from flat cell
index to a set of member keys, with geometric helpers mapping points,
circles and rectangles to the cells they touch.  Coordinates outside the
world bounds are clamped to the border cells, so late entities that drift
marginally out of bounds are still indexed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

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

        A bounding-box sweep with a per-cell disc test: exact, and cheap
        because cluster radii are small relative to the world.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        col_lo = self._low_col(cx - radius)
        col_hi = self._col(cx + radius)
        row_lo = self._low_row(cy - radius)
        row_hi = self._row(cy + radius)
        r_sq = radius * radius
        # Squared x-gap from the centre to each column's closed extent:
        # the same for every row, so computed once per column.
        cell_w = self._cell_w
        min_x = self.bounds.min_x
        dx_sq: List[float] = []
        for col in range(col_lo, col_hi + 1):
            cell_min_x = min_x + col * cell_w
            if cx < cell_min_x:
                dx = cx - cell_min_x
            else:
                cell_max_x = cell_min_x + cell_w
                dx = cx - cell_max_x if cx > cell_max_x else 0.0
            dx_sq.append(dx * dx)
        cell_h = self._cell_h
        min_y = self.bounds.min_y
        nx = self.nx
        keys: List[CellKey] = []
        for row in range(row_lo, row_hi + 1):
            cell_min_y = min_y + row * cell_h
            if cy < cell_min_y:
                dy = cy - cell_min_y
            else:
                cell_max_y = cell_min_y + cell_h
                dy = cy - cell_max_y if cy > cell_max_y else 0.0
            dy_sq = dy * dy
            key = row * nx + col_lo
            for gap in dx_sq:
                if gap + dy_sq <= r_sq:
                    keys.append(key)
                key += 1
        # The centre's own cell is always included even for radius 0.
        if not keys:
            keys.append(self.cell_of(cx, cy))
        return keys

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

    def sweep_buckets(self) -> Iterator[Set[Hashable]]:
        """Raw member sets of every multi-member cell, in flat order.

        The pair-enumeration feed of the join sweep: the cells
        :meth:`occupied_cells` visits, minus the single-member cells no
        pair can come from.  Member order is left to the consumer (the
        pair sweep row-sorts whole cell batches in one ndarray
        operation), so there is no per-cell sort or tuple cache.  The
        yielded sets are the live buckets — do not mutate them.
        """
        cells = self._cells
        for cell in sorted(cells):
            bucket = cells[cell]
            if len(bucket) >= 2:
                yield bucket

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
