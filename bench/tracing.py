"""Spans recorded from outside the program, and the per-layer sums over them.

Nothing here lives in ``src/``: the recorder is fed by a
:class:`~repro.pipeline.PipelineHook` at the stage boundaries, by proxies
around the source's ``tick()`` and the sink's ``accept()``, and by the
benchmark's own loop around ``run_interval()``.  Spans stay in memory and
are written as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.pipeline import PipelineHook

__all__ = ["Span", "LayerTotal", "SpanRecorder", "StageSpanHook"]

#: (name, start, end, parent index or -1, interval index or -1)
Span = Tuple[str, float, float, int, int]


@dataclass
class LayerTotal:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """An in-memory span list with a stack for nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Per-interval counter samples: (timestamp, {name: value}).
        self.counters: List[Tuple[float, Dict[str, float]]] = []
        self._stack: List[Tuple[int, float]] = []
        self.interval = -1

    def begin(self, name: str) -> None:
        # Reserve the slot now so children can name this span as parent.
        self.spans.append((name, 0.0, 0.0, -1, -1))
        self._stack.append((len(self.spans) - 1, perf_counter()))

    def end(self) -> None:
        end = perf_counter()
        index, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (self.spans[index][0], start, end, parent, self.interval)

    def leaf(self, name: str, start: float, end: float) -> None:
        """A childless span whose caller already took both timestamps."""
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, start, end, parent, self.interval))

    def sample(self, values: Dict[str, float]) -> None:
        self.counters.append((perf_counter(), values))

    # -- sums ---------------------------------------------------------------

    def totals(self) -> Dict[str, LayerTotal]:
        """Calls, busy and self seconds per span name, over the spans of
        timed intervals only (set-up and warm-up carry interval -1).

        Self time is the span minus what its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _interval in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, LayerTotal] = {}
        for (name, start, end, _p, interval), children in zip(self.spans, covered):
            if interval < 0:
                continue
            total = totals.setdefault(name, LayerTotal())
            total.calls += 1
            total.busy_s += end - start
            total.self_s += end - start - children
        return totals

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the spans as complete ("X") events and the counter
        samples as "C" events, microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events: List[Dict[str, Any]] = []
        for name, start, end, parent, interval in self.spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 2 if name.startswith("loadgen.") else 1,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {
                        "interval": interval,
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                    },
                }
            )
        for stamp, values in self.counters:
            for name, value in values.items():
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "pid": 1,
                        "ts": (stamp - origin) * 1e6,
                        "args": {"value": value},
                    }
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "otherData": meta}, handle)


class StageSpanHook(PipelineHook):
    """Turns the pipeline's stage boundaries into spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def before_stage(self, stage: str, ctx: Any) -> None:
        self.recorder.begin(stage)

    def after_stage(self, stage: str, ctx: Any) -> None:
        self.recorder.end()
