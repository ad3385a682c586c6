"""TickBatch: one tick of the update stream in structure-of-arrays form.

The generator's scalar ``tick()`` emits a ``List[Update]`` that the
process executor pickles object-by-object.  :class:`TickBatch` makes the
SoA layout the *native* representation: the vectorized generator core
writes columns directly, SCUBA's whole-tick ingest pass reads them without
materializing rows, and shard transport pickles a handful of arrays instead
of thousands of objects.

Compatibility is preserved by making the batch a real ``Sequence[Update]``:
``len``/iteration/indexing lazily materialize :class:`LocationUpdate` /
:class:`QueryUpdate` rows (cached per position), so every consumer written
against ``List[Update]`` keeps working — only consumers that *know* about
columns get faster.

Column layout (all rows share the tick time ``t``):

==========  =====================================================
``ids``     entity id per row (Python ints)
``kinds``   ``True`` for objects, ``False`` for queries
``xs, ys``  reported location
``speeds``  reported speed
``cns``     connection-node id (paper's cnloc)
``cn_xs, cn_ys``  connection-node location
``ws, hs``  query-window extent (0 for objects)
==========  =====================================================

Float columns are numpy ``float64`` arrays when the producer is the
vectorized core, plain lists otherwise; consumers must accept either.
Materialized rows always carry Python scalars (JSON serialization and
state digests depend on it), via cached ``tolist()`` conversions.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from ..geometry import Point
from .records import EntityKind, LocationUpdate, QueryUpdate, Update

__all__ = ["TickBatch"]


def _tolist(column) -> list:
    """Python-scalar view of a column (numpy array or list)."""
    tolist = getattr(column, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(column)


class TickBatch(Sequence):
    """One tick's update stream as columns, readable as a ``Sequence[Update]``."""

    __slots__ = (
        "t",
        "ids",
        "kinds",
        "xs",
        "ys",
        "speeds",
        "cns",
        "cn_xs",
        "cn_ys",
        "ws",
        "hs",
        "attrs_list",
        "_cn_points",
        "_keys",
        "_rows",
        "_scalars",
    )

    def __init__(
        self,
        t: float,
        ids: Sequence[int],
        kinds: Sequence[bool],
        xs,
        ys,
        speeds,
        cns: Sequence[int],
        cn_xs,
        cn_ys,
        ws,
        hs,
        attrs_list: Optional[List[Optional[Mapping[str, Any]]]] = None,
        cn_points: Optional[List[Point]] = None,
        keys: Optional[List[int]] = None,
    ) -> None:
        self.t = t
        self.ids = ids
        self.kinds = kinds
        self.xs = xs
        self.ys = ys
        self.speeds = speeds
        self.cns = cns
        self.cn_xs = cn_xs
        self.cn_ys = cn_ys
        self.ws = ws
        self.hs = hs
        self.attrs_list = attrs_list
        self._cn_points = cn_points
        self._keys = keys
        self._rows: Optional[List[Optional[Update]]] = None
        self._scalars = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_updates(cls, t: float, updates: Sequence[Update]) -> "TickBatch":
        """Column-pack a row-form tick (trace replay, socket ingest, tests).

        Every update must carry the batch's tick time ``t``.
        """
        ids: List[int] = []
        kinds: List[bool] = []
        xs: List[float] = []
        ys: List[float] = []
        speeds: List[float] = []
        cns: List[int] = []
        cn_xs: List[float] = []
        cn_ys: List[float] = []
        ws: List[float] = []
        hs: List[float] = []
        cn_points: List[Point] = []
        attrs_list: List[Optional[Mapping[str, Any]]] = []
        any_attrs = False
        obj = EntityKind.OBJECT
        for update in updates:
            if update.t != t:
                raise ValueError(
                    f"update at t={update.t} in a tick batch for t={t}"
                )
            is_object = update.kind is obj
            ids.append(update.entity_id)
            kinds.append(is_object)
            loc = update.loc
            xs.append(loc.x)
            ys.append(loc.y)
            speeds.append(update.speed)
            cns.append(update.cn_node)
            cn_loc = update.cn_loc
            cn_xs.append(cn_loc.x)
            cn_ys.append(cn_loc.y)
            cn_points.append(cn_loc)
            if is_object:
                ws.append(0.0)
                hs.append(0.0)
            else:
                ws.append(update.range_width)
                hs.append(update.range_height)
            attrs = update.attrs
            if attrs:
                any_attrs = True
                attrs_list.append(attrs)
            else:
                attrs_list.append(None)
        return cls(
            t,
            ids,
            kinds,
            xs,
            ys,
            speeds,
            cns,
            cn_xs,
            cn_ys,
            ws,
            hs,
            attrs_list=attrs_list if any_attrs else None,
            cn_points=cn_points,
        )

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def _scalar_columns(self):
        """Python-scalar versions of the float columns, cached once."""
        scalars = self._scalars
        if scalars is None:
            scalars = (
                _tolist(self.xs),
                _tolist(self.ys),
                _tolist(self.speeds),
                _tolist(self.cn_xs),
                _tolist(self.cn_ys),
                _tolist(self.ws),
                _tolist(self.hs),
            )
            self._scalars = scalars
        return scalars

    @property
    def cn_points(self) -> List[Point]:
        """Connection-node location per row, as shared ``Point`` objects."""
        points = self._cn_points
        if points is None:
            _, _, _, cn_xs, cn_ys, _, _ = self._scalar_columns()
            points = [Point(x, y) for x, y in zip(cn_xs, cn_ys)]
            self._cn_points = points
        return points

    def _materialize(self, i: int) -> Update:
        xs, ys, speeds, _, _, ws, hs = self._scalar_columns()
        loc = Point(xs[i], ys[i])
        cn_loc = self.cn_points[i]
        attrs = self.attrs_list[i] if self.attrs_list is not None else None
        if self.kinds[i]:
            return LocationUpdate(
                oid=self.ids[i],
                loc=loc,
                t=self.t,
                speed=speeds[i],
                cn_node=self.cns[i],
                cn_loc=cn_loc,
                attrs=attrs,
            )
        return QueryUpdate(
            qid=self.ids[i],
            loc=loc,
            t=self.t,
            speed=speeds[i],
            cn_node=self.cns[i],
            cn_loc=cn_loc,
            range_width=ws[i],
            range_height=hs[i],
            attrs=attrs,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(*index.indices(len(self))))
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * n
        row = rows[index]
        if row is None:
            row = rows[index] = self._materialize(index)
        return row

    # -- column operations --------------------------------------------------

    @property
    def keys(self) -> List[int]:
        """``entity_id * 2 + is_object`` per row — the clustering/routing key."""
        keys = self._keys
        if keys is None:
            keys = [
                (eid << 1) | 1 if is_obj else eid << 1
                for eid, is_obj in zip(self.ids, self.kinds)
            ]
            self._keys = keys
        return keys

    def select(self, indices) -> "TickBatch":
        """A new batch holding the given rows (list columns, same ``t``)."""
        idx = list(indices)
        xs, ys, speeds, cn_xs, cn_ys, ws, hs = self._scalar_columns()
        ids, kinds, cns = self.ids, self.kinds, self.cns
        keys = self._keys
        cn_points = self._cn_points
        attrs_list = self.attrs_list
        return TickBatch(
            self.t,
            [ids[i] for i in idx],
            [kinds[i] for i in idx],
            [xs[i] for i in idx],
            [ys[i] for i in idx],
            [speeds[i] for i in idx],
            [cns[i] for i in idx],
            [cn_xs[i] for i in idx],
            [cn_ys[i] for i in idx],
            [ws[i] for i in idx],
            [hs[i] for i in idx],
            attrs_list=(
                [attrs_list[i] for i in idx] if attrs_list is not None else None
            ),
            cn_points=(
                [cn_points[i] for i in idx] if cn_points is not None else None
            ),
            keys=[keys[i] for i in idx] if keys is not None else None,
        )

    def _materialize_all(self) -> List[Update]:
        """Build every row in one fused pass over the columns.

        The per-row protocol (:meth:`__getitem__` → :meth:`_materialize`)
        pays bounds checks, a row-cache probe and seven column accessor
        calls per row; a whole-tick consumer iterating a fresh batch pays
        that for every row.  One zip loop over the scalar columns builds
        the same rows at roughly half the cost — this is the hot path of
        every row-at-a-time consumer (the baseline operators, the
        ``on_update`` reference loop).
        """
        xs, ys, speeds, _, _, ws, hs = self._scalar_columns()
        cn_points = self.cn_points
        attrs_list = self.attrs_list
        if attrs_list is None:
            attrs_list = (None,) * len(self)
        t = self.t
        return [
            LocationUpdate(
                oid=eid,
                loc=Point(x, y),
                t=t,
                speed=speed,
                cn_node=cn,
                cn_loc=cn_loc,
                attrs=attrs,
            )
            if is_obj
            else QueryUpdate(
                qid=eid,
                loc=Point(x, y),
                t=t,
                speed=speed,
                cn_node=cn,
                cn_loc=cn_loc,
                range_width=w,
                range_height=h,
                attrs=attrs,
            )
            for eid, is_obj, x, y, speed, cn, cn_loc, w, h, attrs in zip(
                self.ids,
                self.kinds,
                xs,
                ys,
                speeds,
                self.cns,
                cn_points,
                ws,
                hs,
                attrs_list,
            )
        ]

    def materialize(self) -> List[Update]:
        """All rows as update objects (cached)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._materialize_all()
        elif None in rows:
            # Partially materialized through __getitem__: fill the gaps
            # while keeping already-built rows (consumers may hold
            # identity references to them).
            for i, row in enumerate(rows):
                if row is None:
                    rows[i] = self._materialize(i)
        return list(rows)

    def __iter__(self):
        """Iterate materialized rows (bulk-built, not per-row protocol).

        ``Sequence`` would synthesize iteration from per-index
        ``__getitem__`` calls; on a fresh batch that per-row protocol
        costs roughly twice one fused pass.
        """
        return iter(self.materialize())

    # -- transport ----------------------------------------------------------

    def __reduce__(self):
        # Ship columns only: drop materialized rows and the shared Point
        # cache (receivers rebuild points from cn_xs/cn_ys — value-identical,
        # which is what state digests compare).  Numpy columns pickle as one
        # buffer each; that is the zero-copy transport win.
        return (
            _rebuild,
            (
                self.t,
                self.ids,
                self.kinds,
                self.xs,
                self.ys,
                self.speeds,
                self.cns,
                self.cn_xs,
                self.cn_ys,
                self.ws,
                self.hs,
                self.attrs_list,
            ),
        )

    def __repr__(self) -> str:
        return f"TickBatch(t={self.t:g}, rows={len(self)})"


def _rebuild(t, ids, kinds, xs, ys, speeds, cns, cn_xs, cn_ys, ws, hs, attrs_list):
    return TickBatch(
        t, ids, kinds, xs, ys, speeds, cns, cn_xs, cn_ys, ws, hs,
        attrs_list=attrs_list,
    )
