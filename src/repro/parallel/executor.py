"""Shard executors: where the per-shard operators actually run.

The sharded engine is executor-agnostic: it hands each tick's per-shard
operation lists (updates interleaved with :class:`Retract` hand-offs, in
arrival order) to an executor, and at every Δ boundary asks for the
per-shard evaluation results.  Two executors are provided:

* :class:`SerialExecutor` — all shard operators live in-process and run
  one after another.  Zero parallelism, zero serialisation cost; its
  results are *bit-identical* to the process executor's, which makes it
  the reference for determinism and equivalence tests (and the sensible
  choice for K-way partitioning experiments on one core).
* :class:`ProcessExecutor` — one long-lived worker process per shard,
  fed over pipes.  Ingest messages are fire-and-forget, so routing of the
  next tick overlaps with ingestion in the workers; the Δ-triggered
  evaluate is a scatter/gather barrier.  Requires every update, operator
  factory, and match to be picklable.

Both return one :class:`ShardResult` per shard: the shard's matches plus a
shard-local :class:`IntervalStats` (its own ingest/join/maintenance split).
"""

from __future__ import annotations

import abc
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..geometry import Rect
from ..streams import IntervalStats, QueryMatch
from .partition import Retract

__all__ = [
    "BatchShardOps",
    "ShardOp",
    "ShardResult",
    "ShardExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
]

# One entry of a shard's per-tick operation list: a stream update to
# ingest, or a Retract hand-off to apply.
ShardOp = object

#: Builds a shard's operator given the shard's halo-expanded bounds.
OperatorFactory = Callable[[Rect], "object"]


@dataclass
class ShardResult:
    """One shard's contribution to an interval evaluation."""

    matches: List[QueryMatch]
    stats: IntervalStats
    #: The shard operator's cumulative ``join_counters()`` snapshot.
    counters: Dict[str, Any] = field(default_factory=dict)


class BatchShardOps:
    """One shard's tick operations in columnar form.

    ``batch`` is the shard's row selection of the tick's
    :class:`~repro.generator.TickBatch` (arrival order preserved);
    ``retracts`` positions each :class:`Retract` between batch rows as a
    ``(row_pos, retract)`` pair — the retract applies after ``row_pos``
    rows have been ingested, exactly where it sat in the object-path
    operation list.  Picklable as-is, so the process executor ships one
    column set per shard instead of a per-object update list.
    """

    __slots__ = ("batch", "retracts")

    def __init__(
        self, batch, retracts: Sequence[Tuple[int, Retract]] = ()
    ) -> None:
        self.batch = batch
        self.retracts = tuple(retracts)

    def __len__(self) -> int:
        return len(self.batch) + len(self.retracts)

    def __repr__(self) -> str:
        return (
            f"BatchShardOps({len(self.batch)} rows, "
            f"{len(self.retracts)} retracts)"
        )


def _apply_batch_ops(operator, ops: BatchShardOps) -> int:
    """Columnar twin of :func:`_apply_ops`: batch segments between
    retract positions go through ``ingest_batch`` as TickBatch slices, so
    the operator sees the same maximal update runs in the same order."""
    batch = ops.batch
    n = len(batch)
    ingested = 0
    ingest_batch = operator.ingest_batch
    start = 0
    for pos, retract in ops.retracts:
        if start < pos:
            segment = batch if (start == 0 and pos == n) else batch[start:pos]
            ingest_batch(segment)
            ingested += pos - start
        operator.retract(retract.entity_id, retract.kind)
        start = pos
    if start < n:
        ingest_batch(batch if start == 0 else batch[start:n])
        ingested += n - start
    return ingested


def _apply_ops(operator, ops: Sequence[ShardOp]) -> int:
    """Apply one tick's operations in order; returns updates ingested.

    Maximal runs of consecutive updates go through the operator's
    ``ingest_batch`` (Retracts are run boundaries applied in place), so a
    whole-tick ingest pass sees whole runs while the op order — and
    therefore the resulting state — matches the one-at-a-time loop.
    """
    if isinstance(ops, BatchShardOps):
        return _apply_batch_ops(operator, ops)
    ingested = 0
    ingest_batch = operator.ingest_batch
    run_start = 0
    for i, op in enumerate(ops):
        if type(op) is Retract:
            if run_start < i:
                ingest_batch(ops[run_start:i])
                ingested += i - run_start
            operator.retract(op.entity_id, op.kind)
            run_start = i + 1
    if run_start < len(ops):
        ingest_batch(ops[run_start:])
        ingested += len(ops) - run_start
    return ingested


class ShardExecutor(abc.ABC):
    """Lifecycle: ``start`` once, then per tick ``ingest``, per Δ
    ``evaluate``, and finally ``close``."""

    @abc.abstractmethod
    def start(
        self, factories: Sequence[OperatorFactory], bounds: Sequence[Rect]
    ) -> None:
        """Instantiate one operator per shard (len(factories) shards)."""

    @abc.abstractmethod
    def ingest(self, shard_ops: Sequence[Sequence[ShardOp]]) -> None:
        """Feed one tick's operation list to every shard."""

    @abc.abstractmethod
    def evaluate(self, now: float) -> List[ShardResult]:
        """Run the Δ-triggered evaluation on every shard and gather."""

    @abc.abstractmethod
    def snapshot_operators(self) -> List[bytes]:
        """Pickle every shard operator's state (checkpoint barrier).

        Call only between intervals — mid-interval operator state is not a
        resumable point.  The blobs restore through
        :meth:`restore_operators` on an executor of the same shard count.
        """

    @abc.abstractmethod
    def restore_operators(self, blobs: Sequence[bytes]) -> None:
        """Replace every shard operator with its pickled snapshot."""

    @abc.abstractmethod
    def apply(self, method: str, *args: object) -> List[object]:
        """Invoke ``operator.method(*args)`` on every shard, gather results.

        Shards whose operator lacks the method contribute ``None`` — the
        broadcast channel for cross-shard control signals (e.g. forced
        shedding escalation) that must also reach off-process workers.
        """

    @abc.abstractmethod
    def apply_each(self, method: str, args_per_shard: Sequence[object]) -> List[object]:
        """Like :meth:`apply`, but shard ``i`` gets ``args_per_shard[i]``
        as its single argument — the scatter/gather channel for per-shard
        control payloads (e.g. migration export key lists).  Shards whose
        operator lacks the method contribute ``None``."""

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """In-process, one-shard-after-another execution (the reference)."""

    name = "serial"

    def __init__(self) -> None:
        self.operators: List[object] = []
        self._ingest_seconds: List[float] = []
        self._tuples: List[int] = []

    def start(
        self, factories: Sequence[OperatorFactory], bounds: Sequence[Rect]
    ) -> None:
        self.operators = [f(b) for f, b in zip(factories, bounds)]
        self._ingest_seconds = [0.0] * len(self.operators)
        self._tuples = [0] * len(self.operators)

    def ingest(self, shard_ops: Sequence[Sequence[ShardOp]]) -> None:
        for shard, ops in enumerate(shard_ops):
            if not ops:
                continue
            started = time.perf_counter()
            self._tuples[shard] += _apply_ops(self.operators[shard], ops)
            self._ingest_seconds[shard] += time.perf_counter() - started

    def evaluate(self, now: float) -> List[ShardResult]:
        results = []
        for shard, operator in enumerate(self.operators):
            matches = operator.evaluate(now)
            results.append(
                ShardResult(
                    matches=matches,
                    stats=IntervalStats(
                        t=now,
                        ingest_seconds=self._ingest_seconds[shard],
                        join_seconds=operator.last_join_seconds,
                        maintenance_seconds=operator.last_maintenance_seconds,
                        result_count=len(matches),
                        tuple_count=self._tuples[shard],
                    ),
                    counters=operator.join_counters(),
                )
            )
            self._ingest_seconds[shard] = 0.0
            self._tuples[shard] = 0
        return results

    def snapshot_operators(self) -> List[bytes]:
        return [pickle.dumps(operator) for operator in self.operators]

    def restore_operators(self, blobs: Sequence[bytes]) -> None:
        if len(blobs) != len(self.operators):
            raise ValueError(
                f"snapshot has {len(blobs)} shards, executor has "
                f"{len(self.operators)}"
            )
        self.operators = [pickle.loads(blob) for blob in blobs]

    def apply(self, method: str, *args: object) -> List[object]:
        return [
            getattr(operator, method)(*args)
            if hasattr(operator, method)
            else None
            for operator in self.operators
        ]

    def apply_each(self, method: str, args_per_shard: Sequence[object]) -> List[object]:
        if len(args_per_shard) != len(self.operators):
            raise ValueError(
                f"got {len(args_per_shard)} per-shard args for "
                f"{len(self.operators)} shards"
            )
        return [
            getattr(operator, method)(args)
            if hasattr(operator, method)
            else None
            for operator, args in zip(self.operators, args_per_shard)
        ]


def _shard_worker(conn, factory: OperatorFactory, bounds: Rect) -> None:
    """Worker-process loop: build the operator, then serve the pipe."""
    operator = factory(bounds)
    ingest_seconds = 0.0
    tuples = 0
    while True:
        message = conn.recv()
        tag = message[0]
        if tag == "ingest":
            started = time.perf_counter()
            tuples += _apply_ops(operator, message[1])
            ingest_seconds += time.perf_counter() - started
        elif tag == "evaluate":
            now = message[1]
            matches = operator.evaluate(now)
            stats = IntervalStats(
                t=now,
                ingest_seconds=ingest_seconds,
                join_seconds=operator.last_join_seconds,
                maintenance_seconds=operator.last_maintenance_seconds,
                result_count=len(matches),
                tuple_count=tuples,
            )
            conn.send((matches, stats, operator.join_counters()))
            ingest_seconds = 0.0
            tuples = 0
        elif tag == "snapshot":
            conn.send(pickle.dumps(operator))
        elif tag == "restore":
            operator = pickle.loads(message[1])
            ingest_seconds = 0.0
            tuples = 0
        elif tag == "apply":
            method, args = message[1], message[2]
            bound = getattr(operator, method, None)
            conn.send(bound(*args) if bound is not None else None)
        elif tag == "close":
            conn.close()
            return


class ProcessExecutor(ShardExecutor):
    """One persistent worker process per shard, fed over pipes.

    Workers build their operator locally from the (picklable) factory, so
    no operator state ever crosses a process boundary — only updates in
    and (matches, stats) out.
    """

    name = "process"

    def __init__(self, mp_context: str | None = None) -> None:
        self._ctx = multiprocessing.get_context(mp_context)
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: List = []

    def start(
        self, factories: Sequence[OperatorFactory], bounds: Sequence[Rect]
    ) -> None:
        for factory, shard_bounds in zip(factories, bounds):
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_shard_worker,
                args=(child_conn, factory, shard_bounds),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)

    def ingest(self, shard_ops: Sequence[Sequence[ShardOp]]) -> None:
        # Fire-and-forget: workers ingest while the parent routes the next
        # tick.  Empty lists are skipped — no message, no wakeup.  Columnar
        # op sets ship whole (one column-set pickle per shard); object
        # lists are materialised defensively before crossing the pipe.
        for pipe, ops in zip(self._pipes, shard_ops):
            if ops:
                payload = ops if isinstance(ops, BatchShardOps) else list(ops)
                pipe.send(("ingest", payload))

    def evaluate(self, now: float) -> List[ShardResult]:
        for pipe in self._pipes:
            pipe.send(("evaluate", now))
        results = []
        for pipe in self._pipes:
            matches, stats, counters = pipe.recv()
            results.append(
                ShardResult(matches=matches, stats=stats, counters=counters)
            )
        return results

    def snapshot_operators(self) -> List[bytes]:
        for pipe in self._pipes:
            pipe.send(("snapshot",))
        return [pipe.recv() for pipe in self._pipes]

    def restore_operators(self, blobs: Sequence[bytes]) -> None:
        if len(blobs) != len(self._pipes):
            raise ValueError(
                f"snapshot has {len(blobs)} shards, executor has "
                f"{len(self._pipes)}"
            )
        for pipe, blob in zip(self._pipes, blobs):
            pipe.send(("restore", blob))

    def apply(self, method: str, *args: object) -> List[object]:
        for pipe in self._pipes:
            pipe.send(("apply", method, args))
        return [pipe.recv() for pipe in self._pipes]

    def apply_each(self, method: str, args_per_shard: Sequence[object]) -> List[object]:
        if len(args_per_shard) != len(self._pipes):
            raise ValueError(
                f"got {len(args_per_shard)} per-shard args for "
                f"{len(self._pipes)} shards"
            )
        # Reuses the "apply" worker message with a one-element args tuple;
        # pipe FIFO ordering guarantees all previously sent ingests are
        # applied before the call runs, so exports see a settled shard.
        for pipe, args in zip(self._pipes, args_per_shard):
            pipe.send(("apply", method, (args,)))
        return [pipe.recv() for pipe in self._pipes]

    def close(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("close",))
                pipe.close()
            except (OSError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._pipes = []
        self._processes = []

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def make_executor(name: str) -> ShardExecutor:
    """Executor by name: ``serial`` or ``process``."""
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor()
    raise ValueError(f"unknown executor {name!r} (choose serial or process)")
