"""Tick sources: where a long-lived service's update stream comes from.

The batch engines pull ticks from a generator they own; a service is fed
from outside.  A :class:`TickSource` is the async front door: the service
awaits :meth:`TickSource.next_batch` and receives one :class:`TickBatch`
(the tick's simulation time plus its update tuples) per call, ``None``
when the stream ends.  Three sources cover the deployment shapes:

* :class:`GeneratorTickSource` — in-process workload generation, the
  service-mode equivalent of the batch CLI's generator loop.
* :class:`TraceTickSource` — replays a recorded ``scuba-trace`` file.
* :class:`SocketTickSource` — an asyncio line-protocol server: clients
  connect and send one JSON object per line (the trace tick format), so
  external producers stream updates in over TCP.

Every source is **resumable from a tick count**: workload generation is
deterministic, traces are files, and socket clients replay their stream
from the start — so ``build_source(spec, skip_ticks=n)`` reconstructs a
source positioned just after the ``n``-th tick.  That cursor (the number
of ticks the evaluation actually consumed) is what checkpoints store; the
source's ``spec()`` dict is the rebuild recipe stored next to it.
"""

from __future__ import annotations

import abc
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Sequence

from ..generator import NetworkBasedGenerator, Update
from ..generator.batch import TickBatch as _ColumnTickBatch
from ..generator.trace import (
    TraceReplayer,
    _batch_to_dicts,
    update_from_dict,
    update_to_dict,
)
from ..network import grid_city

__all__ = [
    "TickBatch",
    "TickSource",
    "GeneratorTickSource",
    "TraceTickSource",
    "SocketTickSource",
    "build_source",
    "generator_spec",
    "tick_to_line",
    "TICKS_FORMAT",
    "TICKS_VERSION",
]

#: Line-protocol identity, shared with the trace-file format's spirit: a
#: header line a client *may* send first; the service validates it when
#: present and ignores its absence.
TICKS_FORMAT = "scuba-ticks"
TICKS_VERSION = 1

#: StreamReader buffer limit for socket sources.  One line carries a whole
#: tick (every entity's update), which blows through asyncio's default
#: 64 KiB limit at a few hundred entities — 16 MiB covers ~50k updates
#: per tick while still bounding a malformed (newline-less) stream.
LINE_LIMIT = 1 << 24


class TickBatch(NamedTuple):
    """One tick of the stream: its simulation time and its updates.

    ``updates`` is any update sequence — a plain list, or the generator's
    columnar :class:`~repro.generator.TickBatch` when the producer runs
    the batched tick path.
    """

    t: float
    updates: Sequence[Update]


def tick_to_line(t: float, updates: Sequence[Update]) -> str:
    """Serialize one tick as a line-protocol JSON record (no newline)."""
    if isinstance(updates, _ColumnTickBatch):
        dicts = _batch_to_dicts(updates)
    else:
        dicts = [update_to_dict(u) for u in updates]
    return json.dumps({"t": t, "updates": dicts})


class TickSource(abc.ABC):
    """The async front door of the service: one awaitable tick at a time."""

    async def start(self) -> None:
        """Bind resources (sockets, files).  Idempotent."""

    @abc.abstractmethod
    async def next_batch(self) -> Optional[TickBatch]:
        """The next tick of the stream, or ``None`` when it has ended."""

    @abc.abstractmethod
    def spec(self) -> Dict[str, Any]:
        """Picklable rebuild recipe (stored in snapshots next to the
        tick cursor; see :func:`build_source`)."""

    async def close(self) -> None:
        """Release resources.  Idempotent."""


class GeneratorTickSource(TickSource):
    """In-process workload generation behind the source protocol.

    ``max_ticks`` bounds the stream (0 = unbounded — a true long-lived
    service); the bound counts from the generator's *cursor*, so a resumed
    source stops at the same absolute tick as the original would have.
    """

    def __init__(
        self,
        generator: NetworkBasedGenerator,
        dt: float = 1.0,
        max_ticks: int = 0,
        spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.generator = generator
        self.dt = dt
        self.max_ticks = max_ticks
        self._spec = spec or {"kind": "generator"}

    async def next_batch(self) -> Optional[TickBatch]:
        if self.max_ticks and self.generator.ticks_elapsed >= self.max_ticks:
            return None
        updates = self.generator.tick(self.dt)
        # Generation is synchronous; yield so the consumer side of the
        # queue keeps running between ticks.
        await asyncio.sleep(0)
        return TickBatch(self.generator.time, updates)

    def spec(self) -> Dict[str, Any]:
        return dict(self._spec)


class TraceTickSource(TickSource):
    """Replays a recorded ``scuba-trace`` file through the source protocol."""

    def __init__(self, path, skip_ticks: int = 0) -> None:
        self.path = Path(path)
        self.replayer = TraceReplayer(self.path)
        if skip_ticks:
            self.replayer.seek(skip_ticks)

    async def next_batch(self) -> Optional[TickBatch]:
        if self.replayer.ticks_remaining == 0:
            return None
        updates = self.replayer.tick()
        await asyncio.sleep(0)
        return TickBatch(self.replayer.time, updates)

    def spec(self) -> Dict[str, Any]:
        return {"kind": "trace", "path": str(self.path)}


class SocketTickSource(TickSource):
    """A TCP line-protocol ingest server.

    Clients connect and send one JSON object per line: an optional
    ``{"format": "scuba-ticks", "version": 1}`` header, then tick records
    ``{"t": <time>, "updates": [<update dicts>]}`` (exactly the trace-file
    tick format), and finally ``{"eof": true}`` to end the stream.

    Backpressure is end-to-end: parsed ticks go into a one-slot internal
    queue, so when the service's bounded ingest queue is full the reader
    coroutine stops consuming, the kernel's TCP buffers fill, and the
    *client's* writes block — overload never accumulates unbounded memory
    on the service side.

    ``skip_ticks`` is the resume cursor: a reconnecting client replays its
    stream from the start and the source discards the first ``skip_ticks``
    tick records (counted in :attr:`ticks_skipped`).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, skip_ticks: int = 0
    ) -> None:
        self.host = host
        self.port = port
        self.skip_ticks = skip_ticks
        self.ticks_skipped = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._incoming: asyncio.Queue = asyncio.Queue(maxsize=1)
        self._eof = False

    async def start(self) -> None:
        if self._server is None:
            self._server = await asyncio.start_server(
                self._serve_client, self.host, self.port, limit=LINE_LIMIT
            )

    @property
    def bound_port(self) -> int:
        """The actual listening port (resolves a requested port of 0)."""
        if self._server is None:
            raise RuntimeError("socket source is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                record = json.loads(line)
                if record.get("format"):
                    if (
                        record["format"] != TICKS_FORMAT
                        or record.get("version") != TICKS_VERSION
                    ):
                        raise ValueError(
                            f"client sent unsupported stream header: {record}"
                        )
                    continue
                if record.get("eof"):
                    await self._incoming.put(None)
                    break
                updates = [update_from_dict(d) for d in record["updates"]]
                try:
                    # Column-pack so the evaluation consumes the socket
                    # stream through the same whole-tick ingest pass as an
                    # in-process generator.
                    updates = _ColumnTickBatch.from_updates(
                        record["t"], updates
                    )
                except ValueError:
                    pass  # mixed timestamps: keep the row list
                await self._incoming.put(TickBatch(record["t"], updates))
        except asyncio.CancelledError:
            # Service shutdown while this handler was parked on the
            # internal queue — a normal way for a connection to end.
            pass
        except Exception as exc:  # malformed client stream: drop it, stay up
            print(f"socket source: dropping client: {exc}", file=sys.stderr)
        finally:
            writer.close()

    async def next_batch(self) -> Optional[TickBatch]:
        if self._eof:
            return None
        while True:
            item = await self._incoming.get()
            if item is None:
                self._eof = True
                return None
            if self.ticks_skipped < self.skip_ticks:
                self.ticks_skipped += 1
                continue
            return item

    def spec(self) -> Dict[str, Any]:
        return {"kind": "socket", "host": self.host, "port": self.port}

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def generator_spec(
    *,
    city_rows: int,
    city_cols: int,
    generator_config,
    dt: float = 1.0,
    max_ticks: int = 0,
) -> Dict[str, Any]:
    """The rebuild recipe for an in-process generator source."""
    return {
        "kind": "generator",
        "city_rows": city_rows,
        "city_cols": city_cols,
        "generator_config": generator_config,
        "dt": dt,
        "max_ticks": max_ticks,
    }


def build_source(
    spec: Dict[str, Any],
    skip_ticks: int = 0,
    **overrides: Any,
) -> TickSource:
    """Reconstruct a source from its spec, positioned after ``skip_ticks``.

    The resume path of checkpoint/restore: generator sources rebuild the
    deterministic workload and fast-forward, trace sources seek, socket
    sources are told to discard the replayed prefix.  ``overrides`` patch
    spec fields (e.g. a new listen port after a restart).
    """
    spec = {**spec, **overrides}
    kind = spec.get("kind")
    if kind == "generator":
        city = grid_city(rows=spec["city_rows"], cols=spec["city_cols"])
        generator = NetworkBasedGenerator(city, spec["generator_config"])
        if skip_ticks:
            generator.fast_forward(skip_ticks, spec.get("dt", 1.0))
        return GeneratorTickSource(
            generator,
            dt=spec.get("dt", 1.0),
            max_ticks=spec.get("max_ticks", 0),
            spec=spec,
        )
    if kind == "trace":
        return TraceTickSource(spec["path"], skip_ticks=skip_ticks)
    if kind == "socket":
        return SocketTickSource(
            host=spec.get("host", "127.0.0.1"),
            port=spec.get("port", 0),
            skip_ticks=skip_ticks,
        )
    raise ValueError(f"unknown source kind {kind!r}")
