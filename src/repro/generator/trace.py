"""Workload traces: record update streams to disk and replay them.

Experiments gain a lot from *trace-based* execution: the exact tuple
stream that produced a result (or a bug) can be saved as a JSON-lines
file, attached to a report, diffed, and replayed through any operator —
no generator, road network, or seed bookkeeping required on the replay
side.  This mirrors how the original Brinkhoff tool was used: it emitted
trace files that systems consumed.

* :class:`TraceRecorder` wraps a live generator, forwarding ticks while
  appending every emitted update to the trace file.
* :class:`TraceReplayer` implements the generator protocol the stream
  engine uses (``tick``/``time``/``snapshot``) by reading a trace back.

The format is one JSON object per line.  Header line::

    {"format": "scuba-trace", "version": 1}

Tick lines carry the tick's time followed by its updates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from ..geometry import Point
from .batch import TickBatch
from .records import EntityKind, LocationUpdate, QueryUpdate, Update

__all__ = ["TraceRecorder", "TraceReplayer", "update_to_dict", "update_from_dict"]

_FORMAT = "scuba-trace"
_VERSION = 1


def update_to_dict(update: Update) -> Dict:
    """JSON-compatible representation of one update tuple."""
    data = {
        "kind": update.kind.value,
        "id": update.entity_id,
        "x": update.loc.x,
        "y": update.loc.y,
        "t": update.t,
        "speed": update.speed,
        "cn": update.cn_node,
        "cnx": update.cn_loc.x,
        "cny": update.cn_loc.y,
    }
    if update.kind is EntityKind.QUERY:
        data["w"] = update.range_width
        data["h"] = update.range_height
    if update.attrs:
        data["attrs"] = dict(update.attrs)
    return data


def _batch_to_dicts(batch: TickBatch) -> List[Dict]:
    """:func:`update_to_dict` for every row of a tick batch, from columns.

    Produces byte-identical JSON to the row path (same key order, Python
    scalars via the batch's cached scalar columns) without materialising
    update objects.
    """
    xs, ys, speeds, cn_xs, cn_ys, ws, hs = batch._scalar_columns()
    t = batch.t
    cns = batch.cns
    attrs_list = batch.attrs_list
    obj_kind = EntityKind.OBJECT.value
    qry_kind = EntityKind.QUERY.value
    out: List[Dict] = []
    for i, (eid, is_obj) in enumerate(zip(batch.ids, batch.kinds)):
        data = {
            "kind": obj_kind if is_obj else qry_kind,
            "id": eid,
            "x": xs[i],
            "y": ys[i],
            "t": t,
            "speed": speeds[i],
            "cn": cns[i],
            "cnx": cn_xs[i],
            "cny": cn_ys[i],
        }
        if not is_obj:
            data["w"] = ws[i]
            data["h"] = hs[i]
        if attrs_list is not None and attrs_list[i]:
            data["attrs"] = dict(attrs_list[i])
        out.append(data)
    return out


def update_from_dict(data: Dict) -> Update:
    """Inverse of :func:`update_to_dict`."""
    kind = EntityKind(data["kind"])
    common = dict(
        loc=Point(data["x"], data["y"]),
        t=data["t"],
        speed=data["speed"],
        cn_node=data["cn"],
        cn_loc=Point(data["cnx"], data["cny"]),
        attrs=data.get("attrs"),
    )
    if kind is EntityKind.OBJECT:
        return LocationUpdate(oid=data["id"], **common)
    return QueryUpdate(
        qid=data["id"], range_width=data["w"], range_height=data["h"], **common
    )


class TraceRecorder:
    """A generator wrapper that records everything it emits.

    Drop-in for the wrapped generator: the stream engine calls ``tick``
    and reads ``time`` exactly as before; each tick is appended to the
    trace file as one JSON line.  Use as a context manager or call
    :meth:`close`.
    """

    def __init__(self, generator, path: Union[str, Path]) -> None:
        self.generator = generator
        self.path = Path(path)
        self._file: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self._file.write(json.dumps({"format": _FORMAT, "version": _VERSION}) + "\n")

    @property
    def time(self) -> float:
        return self.generator.time

    def tick(self, dt: float = 1.0) -> List[Update]:
        if self._file is None:
            raise ValueError("trace recorder is closed")
        updates = self.generator.tick(dt)
        if isinstance(updates, TickBatch):
            dicts = _batch_to_dicts(updates)
        else:
            dicts = [update_to_dict(u) for u in updates]
        line = {"t": self.generator.time, "updates": dicts}
        self._file.write(json.dumps(line) + "\n")
        return updates

    def snapshot(self) -> List[Update]:
        return self.generator.snapshot()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceReplayer:
    """Replays a recorded trace through the generator protocol.

    ``tick`` returns each recorded tick's updates in order (the recorded
    times are authoritative; the ``dt`` argument is ignored beyond
    protocol compatibility).  ``snapshot`` reconstructs the latest known
    update per entity — the same approximation any operator fed by the
    trace holds.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"empty trace file: {self.path}")
        header = json.loads(lines[0])
        if header.get("format") != _FORMAT or header.get("version") != _VERSION:
            raise ValueError(f"not a scuba trace: {self.path}")
        self._ticks: List[Dict] = [json.loads(line) for line in lines[1:]]
        self._cursor = 0
        self.time = 0.0
        self._latest: Dict = {}

    @property
    def ticks_remaining(self) -> int:
        return len(self._ticks) - self._cursor

    @property
    def ticks_elapsed(self) -> int:
        """Ticks already replayed — the replayer's resumable cursor."""
        return self._cursor

    def seek(self, ticks: int) -> None:
        """Fast-forward to just after the ``ticks``-th recorded tick.

        Replays the skipped ticks' updates into the latest-known table (so
        :meth:`snapshot` stays correct) without returning them — the resume
        path of a checkpointed trace-driven run.
        """
        if not 0 <= ticks <= len(self._ticks):
            raise ValueError(
                f"cannot seek to tick {ticks} of a {len(self._ticks)}-tick trace"
            )
        if ticks < self._cursor:
            self._cursor = 0
            self.time = 0.0
            self._latest.clear()
        while self._cursor < ticks:
            self.tick()

    def tick(self, dt: float = 1.0) -> List[Update]:
        if self._cursor >= len(self._ticks):
            raise StopIteration(f"trace exhausted after {len(self._ticks)} ticks")
        record = self._ticks[self._cursor]
        self._cursor += 1
        self.time = record["t"]
        updates = [update_from_dict(d) for d in record["updates"]]
        for update in updates:
            self._latest[(update.kind, update.entity_id)] = update
        try:
            # Column-pack the tick so replay feeds the same whole-tick ingest
            # and transport paths as a live generator.
            return TickBatch.from_updates(self.time, updates)
        except ValueError:
            # Hand-authored traces may mix timestamps within one tick
            # record; those stay row-form (the engines accept both).
            return updates

    def snapshot(self) -> List[Update]:
        return list(self._latest.values())
