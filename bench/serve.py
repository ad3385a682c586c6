"""One round of ``serve_socket``: the service in a child process, the load
generator here.

The load generator is open loop.  Every tick of the feed is serialized
before the clock starts, each tick has a due time on a fixed schedule, a
sender thread sleeps until that time and writes the line, and nothing on
the sending side ever waits for an answer.  Answer lag is taken from the
*due* time of the interval's last tick, so a stall anywhere — sender,
socket, queue, engine — is charged to the interval that suffered it and
to the ones queued behind it.  How late the sender itself ran is reported
beside the lag (``loadgen.late_share``, ``loadgen.max_late_ms``).
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.generator import TickBatch, update_from_dict
from repro.serve.sources import tick_to_line

import yardstick
from batch import Round, make_generator
from reference import check_interval, pack_pairs
from tracing import SpanRecorder
from workloads import GRID_SIZE, WARMUP_INTERVALS, Workload, is_sampled

__all__ = ["run_round", "run_drain", "decode_ms_per_tick"]

REPO = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

#: A tick counts as late when its send started this long after it was due.
LATE_S = 0.005
#: How long past its expected end a service may run before it is killed.
_GRACE_S = 60.0

_ENGINE_SECONDS = re.compile(
    r"ingest ([\d.]+)s \| join ([\d.]+)s \| maintenance ([\d.]+)s"
)
_ENGINE_COUNTERS = (
    "grid_refresh_skips",
    "evicted_stale",
    "view_cache_hits",
    "view_cache_misses",
    "between_cache_hits",
    "between_cache_misses",
)
_BP_EVENTS = (
    "bp_ticks_dropped",
    "bp_heartbeats_dropped",
    "bp_escalations",
    "bp_relaxations",
    "bp_overload_events",
)


class _Service:
    """``python -m repro.serve --source socket`` as a context manager."""

    def __init__(self, workload: Workload, emit_matches: bool, budget_s: float):
        OUT.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "repro.serve",
            "--source", "socket", "--port", "0", "--intervals", "0",
            "--grid", str(GRID_SIZE), "--delta", str(workload.delta),
        ]
        if emit_matches:
            command.append("--emit-matches")
        self._stderr = open(OUT / "serve_stderr.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        # A hung service must not hang the benchmark.
        self._watchdog = threading.Timer(budget_s + _GRACE_S, self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.connection: Optional[socket.socket] = None

    def __enter__(self) -> "_Service":
        return self

    def read_event(self) -> Optional[Dict[str, Any]]:
        """The next event record, or ``None`` once the service is gone."""
        line = self.process.stdout.readline()
        return json.loads(line) if line else None

    def connect(self) -> None:
        started = self.read_event()
        if started is None or started.get("event") != "started":
            raise RuntimeError(f"service did not start: {started}")
        self.connection = socket.create_connection(("127.0.0.1", started["port"]))

    def peak_rss_mb(self) -> float:
        """The live service's ``VmHWM``.

        Not ``RUSAGE_CHILDREN``: a child's ``ru_maxrss`` also covers the
        moment between fork and exec, when it still is a copy of this
        process, so it would report the benchmark's own footprint.
        """
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def finish(self) -> Optional[Dict[str, Any]]:
        """End the stream and return the service's summary event."""
        self.connection.sendall(b'{"eof": true}\n')
        while True:
            event = self.read_event()
            if event is None or event.get("event") == "summary":
                return event

    def __exit__(self, *exc_info) -> None:
        self._watchdog.cancel()
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None and exc_info[0] is not None:
            self.process.kill()
        try:
            self.process.wait(timeout=_GRACE_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def _make_feed(workload: Workload, seed: int, ticks: int):
    """``ticks`` consecutive ticks and their line-protocol encodings."""
    generator = make_generator(workload, seed)
    batches: List[TickBatch] = []
    lines: List[bytes] = []
    for _ in range(ticks):
        batch = generator.tick(1.0)
        batches.append(batch)
        lines.append((tick_to_line(batch.t, batch) + "\n").encode())
    return batches, lines


def _send_on_schedule(
    connection: socket.socket,
    lines: List[bytes],
    dues: List[float],
    sends: List[Tuple[float, float]],
    yard: List[float],
) -> None:
    """Sender thread body: write each line at its due time, never earlier,
    and take a yardstick reading in the idle time after each write."""
    try:
        for line, due in zip(lines, dues):
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            started = perf_counter()
            connection.sendall(line)
            sends.append((started, perf_counter()))
            yard.append(yardstick.run())
    except OSError as exc:  # the service went away; the reader sees EOF
        print(f"load generator: send failed: {exc!r}")


def _feed_and_collect(
    service: _Service,
    lines: List[bytes],
    dues: List[float],
    intervals: int,
):
    """Run the sender beside a reader of ``results`` events."""
    sends: List[Tuple[float, float]] = []
    yard: List[float] = []
    sender = threading.Thread(
        target=_send_on_schedule,
        args=(service.connection, lines, dues, sends, yard),
    )
    arrivals: List[float] = []
    events: List[Dict[str, Any]] = []
    # A sender waking from its sleep waits for the interpreter lock; at
    # the default 5 ms switch interval that wait alone makes ticks late.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    sender.start()
    try:
        while len(arrivals) < intervals:
            line = service.process.stdout.readline()
            arrival = perf_counter()
            if not line:
                break
            event = json.loads(line)
            if event.get("event") == "results":
                arrivals.append(arrival)
                events.append(event)
    finally:
        sender.join()
        sys.setswitchinterval(switch_interval)
    return sends, arrivals, events, yard


def _warm_up(service: _Service, lines: List[bytes]) -> None:
    for line in lines:
        service.connection.sendall(line)
    answered = 0
    while answered < WARMUP_INTERVALS:
        event = service.read_event()
        if event is None:
            raise RuntimeError("service exited during warm-up")
        answered += event.get("event") == "results"


def run_round(
    workload: Workload,
    seed: int,
    recorder: Optional[SpanRecorder] = None,
) -> Round:
    """Spawn the service, pre-serialize the feed, warm up, then feed on
    schedule and read the answers.

    A traced round asks the service for ``--emit-matches`` so full answer
    sets can be checked; that, and the client-side spans, are all that
    tracing adds here — the service itself is not instrumented.
    """
    round_start = perf_counter()
    delta = workload.delta
    warm_ticks = WARMUP_INTERVALS * delta
    timed_ticks = workload.round_intervals * delta
    feed_s = timed_ticks / workload.tick_rate
    with _Service(workload, recorder is not None, feed_s) as service:
        batches, lines = _make_feed(workload, seed, warm_ticks + timed_ticks)
        service.connect()
        _warm_up(service, lines[:warm_ticks])
        setup_s = perf_counter() - round_start

        batches, lines = batches[warm_ticks:], lines[warm_ticks:]
        first_due = perf_counter() + 0.05
        dues = [first_due + k / workload.tick_rate for k in range(timed_ticks)]
        sends, arrivals, events, yard = _feed_and_collect(
            service, lines, dues, workload.round_intervals
        )
        peak_rss_mb, summary = 0.0, None
        if len(arrivals) == workload.round_intervals:
            peak_rss_mb = service.peak_rss_mb()
            summary = service.finish()
    answered = len(arrivals)
    last_tick_of = [delta * i + delta - 1 for i in range(answered)]
    lags = [arrivals[i] - dues[k] for i, k in enumerate(last_tick_of)]
    mismatches = []
    for i, k in enumerate(last_tick_of):
        if not is_sampled(i):
            continue
        tick, answer = batches[k], events[i].get("matches")
        if answer is None:  # no --emit-matches: the event carries a count
            verdict = check_interval(tick, count=events[i]["count"])
        else:
            pairs = ((m["qid"], m["oid"]) for m in answer)
            verdict = check_interval(tick, pack_pairs(pairs, len(answer)))
        if not verdict.ok:
            mismatches.append(
                f"interval {i}: reference {verdict.expected} pairs, "
                f"service {verdict.got}"
            )
    lates = [started - due for (started, _done), due in zip(sends, dues)]
    if recorder is not None:
        recorder.leaf("setup", round_start, round_start + setup_s)
        for (started, done), due in zip(sends, dues):
            recorder.leaf("loadgen.send", due, done)
        for i, k in enumerate(last_tick_of):
            recorder.interval = i
            recorder.leaf("loadgen.answer", dues[k], arrivals[i])
        recorder.interval = -1
    layers: Dict[str, float] = {
        "peak_rss_mb": peak_rss_mb,
        "late_share": sum(late > LATE_S for late in lates) / max(len(lates), 1),
        "max_late_ms": max(lates, default=0.0) * 1e3,
    }
    if summary is not None:
        engine = _ENGINE_SECONDS.search(summary["summary"])
        counters = summary["counters"]
        layers.update(
            ingest_s=float(engine.group(1)),
            join_s=float(engine.group(2)),
            maintenance_s=float(engine.group(3)),
            service_intervals=summary["intervals"],
            bp_events=sum(counters.get(name, 0) for name in _BP_EVENTS),
            **{name: counters.get(name, 0) for name in _ENGINE_COUNTERS},
        )
    return Round(
        setup_s=setup_s,
        wall_s=(arrivals[-1] - dues[0]) if answered else 0.0,
        updates=sum(len(batch) for batch in batches[: answered * delta]),
        lags_s=lags,
        counts=[event["count"] for event in events],
        failed=workload.round_intervals - answered,
        mismatches=mismatches,
        duration_s=perf_counter() - round_start,
        yard_s=median(yard) if yard else yardstick.NOMINAL_S,
        layers=layers,
    )


def run_drain(workload: Workload, seed: int, ticks: int) -> float:
    """Capacity estimate: ``ticks`` ticks written back to back, ticks/s
    from the first send to the last answer."""
    intervals = ticks // workload.delta
    warm_ticks = WARMUP_INTERVALS * workload.delta
    with _Service(workload, False, ticks / workload.tick_rate) as service:
        _batches, lines = _make_feed(workload, seed, warm_ticks + ticks)
        service.connect()
        _warm_up(service, lines[:warm_ticks])
        start = perf_counter()
        _sends, arrivals, _events, _yard = _feed_and_collect(
            service, lines[warm_ticks:], [start] * ticks, intervals
        )
        if len(arrivals) == intervals:
            service.finish()
    if len(arrivals) < intervals:
        raise RuntimeError("service exited during the drain pass")
    return intervals * workload.delta / (arrivals[-1] - start)


def decode_ms_per_tick(workload: Workload, seed: int, ticks: int = 20) -> float:
    """The service's per-tick decode work, timed here on its own lines:
    ``json.loads`` + ``update_from_dict`` per row + ``TickBatch.from_updates``."""
    _batches, lines = _make_feed(workload, seed, ticks)
    costs = []
    for line in lines:
        start = perf_counter()
        record = json.loads(line)
        updates = [update_from_dict(d) for d in record["updates"]]
        TickBatch.from_updates(record["t"], updates)
        costs.append(perf_counter() - start)
    return median(costs) * 1e3
