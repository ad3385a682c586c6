"""The regular grid-based operator — the paper's comparison baseline (§6).

"We compare SCUBA with a traditional grid-based spatio-temporal range
algorithm, where objects and queries are hashed based on their locations
into an index, say a grid.  Then a cell-by-cell join between moving objects
and queries is performed.  Grid-based execution approach is a common choice
for spatio-temporal query execution [SINA, SEA-CNN, ...]."

Every update is materialised individually: objects are hashed into the
single cell containing their point, queries into every cell their range
window overlaps.  The cell-by-cell join then tests each (query, object)
pair sharing a cell.  Because an object occupies exactly one cell, no pair
is ever tested twice, so no dedup pass is needed.

This is a *shared-execution* baseline (one scan evaluates all queries) —
the strongest of the paper's traditional contenders; what it lacks relative
to SCUBA is the cluster abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..generator import EntityKind, LocationUpdate, QueryUpdate, Update
from ..geometry import Point, Rect
from ..index import SpatialGrid
from ..kernels import BACKEND_CHOICES, PointBatch, resolve_backend
from ..network import DEFAULT_BOUNDS
from ..streams import QueryMatch, StagedJoinOperator

__all__ = ["RegularConfig", "RegularGridJoin"]


@dataclass
class RegularConfig:
    """Grid parameters of the baseline (paper default: 100×100)."""

    bounds: Rect = field(default_factory=lambda: DEFAULT_BOUNDS)
    grid_size: int = 100
    #: Join-kernel backend, same choices as :class:`~repro.core.ScubaConfig`.
    kernel_backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.kernel_backend not in BACKEND_CHOICES:
            raise ValueError(
                f"kernel_backend must be one of {BACKEND_CHOICES}, "
                f"got {self.kernel_backend!r}"
            )


class _ObjectEntry:
    """Latest known state of one object in the baseline's index."""

    __slots__ = ("x", "y", "cell")

    def __init__(self, x: float, y: float, cell: int) -> None:
        self.x = x
        self.y = y
        self.cell = cell


class _QueryEntry:
    """Latest known state of one query in the baseline's index."""

    __slots__ = ("x", "y", "hw", "hh", "cells")

    def __init__(
        self, x: float, y: float, hw: float, hh: float, cells: Tuple[int, ...]
    ) -> None:
        self.x = x
        self.y = y
        self.hw = hw
        self.hh = hh
        self.cells = cells


class RegularGridJoin(StagedJoinOperator):
    """Individual-update, cell-by-cell spatio-temporal range join."""

    def __init__(self, config: Optional[RegularConfig] = None) -> None:
        self.config = config if config is not None else RegularConfig()
        self._init_state()

    def _init_state(self) -> None:
        """(Re)build all mutable state from ``self.config`` (see Scuba)."""
        self.object_grid = SpatialGrid(self.config.bounds, self.config.grid_size)
        self.query_grid = SpatialGrid(self.config.bounds, self.config.grid_size)
        self.objects: Dict[int, _ObjectEntry] = {}
        self.queries: Dict[int, _QueryEntry] = {}
        self.kernels = resolve_backend(self.config.kernel_backend)
        self.last_join_seconds = 0.0
        self.last_maintenance_seconds = 0.0
        #: Cumulative count of individual (query, object) pair tests.
        self.pair_tests = 0
        self.evaluations = 0

    # -- ingest -----------------------------------------------------------------

    def on_update(self, update: Update) -> None:
        """Re-hash the entity under its new position."""
        if update.kind is EntityKind.OBJECT:
            entry = self.objects.get(update.oid)
            cell = self.object_grid.cell_of(update.loc.x, update.loc.y)
            if entry is None:
                self.objects[update.oid] = _ObjectEntry(
                    update.loc.x, update.loc.y, cell
                )
                self.object_grid.insert(update.oid, (cell,))
            else:
                if cell != entry.cell:
                    self.object_grid.relocate(update.oid, (entry.cell,), (cell,))
                    entry.cell = cell
                entry.x = update.loc.x
                entry.y = update.loc.y
        else:
            qentry = self.queries.get(update.qid)
            cells = tuple(self.query_grid.cells_for_rect(update.region()))
            if qentry is None:
                self.queries[update.qid] = _QueryEntry(
                    update.loc.x,
                    update.loc.y,
                    update.range_width / 2.0,
                    update.range_height / 2.0,
                    cells,
                )
                self.query_grid.insert(update.qid, cells)
            else:
                if cells != qentry.cells:
                    self.query_grid.relocate(update.qid, qentry.cells, cells)
                    qentry.cells = cells
                qentry.x = update.loc.x
                qentry.y = update.loc.y
                qentry.hw = update.range_width / 2.0
                qentry.hh = update.range_height / 2.0

    def retract(self, entity_id: int, kind: EntityKind) -> None:
        """Drop one entity from the index (sharded halo hand-off)."""
        if kind is EntityKind.OBJECT:
            entry = self.objects.pop(entity_id, None)
            if entry is not None:
                self.object_grid.remove(entity_id, (entry.cell,))
        else:
            qentry = self.queries.pop(entity_id, None)
            if qentry is not None:
                self.query_grid.remove(entity_id, qentry.cells)

    def export_entity_updates(
        self, keys: Sequence[Tuple[int, EntityKind]]
    ) -> Dict[str, Any]:
        """Serialize entity state as replayable updates (shard migration).

        The grid index holds only positions and windows, so the
        synthesized updates carry neutral kinematics (zero speed, no
        connection node) at t=0 — re-hashing them in the destination
        reconstructs the join-relevant state exactly.  Entities this
        shard no longer holds are skipped.
        """
        updates: List[Update] = []
        for entity_id, kind in keys:
            if kind is EntityKind.OBJECT:
                entry = self.objects.get(entity_id)
                if entry is None:
                    continue
                loc = Point(entry.x, entry.y)
                updates.append(
                    LocationUpdate(entity_id, loc, 0.0, 0.0, -1, loc, None)
                )
            else:
                qentry = self.queries.get(entity_id)
                if qentry is None:
                    continue
                loc = Point(qentry.x, qentry.y)
                updates.append(
                    QueryUpdate(
                        entity_id,
                        loc,
                        0.0,
                        0.0,
                        -1,
                        loc,
                        2.0 * qentry.hw,
                        2.0 * qentry.hh,
                        None,
                    )
                )
        return {"updates": updates, "clusters": len(updates)}

    # -- evaluation ---------------------------------------------------------------

    def join_phase(self, now: float) -> List[QueryMatch]:
        """Cell-by-cell join of all hashed queries against hashed objects."""
        self.evaluations += 1
        results: List[QueryMatch] = []
        objects = self.objects
        object_grid = self.object_grid
        query_grid = self.query_grid
        kernels = self.kernels
        tests = 0
        for cell, qids in query_grid.occupied_cells():
            oids = object_grid.sorted_members(cell)
            if not oids:
                continue
            # One SoA batch per occupied cell, shared by every query
            # hashed there — the point-in-rect kernel amortises any
            # derived structure (e.g. the x-sort) across those queries.
            batch = PointBatch(
                oids,
                [objects[oid].x for oid in oids],
                [objects[oid].y for oid in oids],
            )
            for qid in query_grid.sorted_members(cell):
                q = self.queries[qid]
                tests += kernels.points_in_rect(
                    batch, qid, q.x, q.y, q.hw, q.hh, now, results
                )
        self.pair_tests += tests
        return results

    # -- introspection -----------------------------------------------------------

    def join_counters(self) -> Dict[str, Any]:
        return {"kernel_backend": self.kernels.name}

    def state_roots(self) -> List[object]:
        return [self.objects, self.queries, self.object_grid, self.query_grid]

    def reset(self) -> None:
        self._init_state()

    # Shard factories pickle configured operators; the backend instance is
    # dropped and re-resolved from config on the other side.

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("kernels", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.kernels = resolve_backend(self.config.kernel_backend)

    def __repr__(self) -> str:
        return (
            f"RegularGridJoin({len(self.objects)} objects, "
            f"{len(self.queries)} queries, "
            f"{self.config.grid_size}x{self.config.grid_size} grid)"
        )
