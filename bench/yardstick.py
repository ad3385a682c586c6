"""A fixed piece of work that tells how fast the box is right now.

The reference box is a shared two-vCPU VM whose speed moves by 10–20 % in
phases of ten to fifteen seconds (a neighbour on the sibling hyperthread,
frequency steps — nothing the guest can see or control).  A 30 s run sits
in two or three such phases, so raw wall-clock numbers of identical runs
spread by 5–10 %, which is as wide as the regressions the benchmark is
supposed to resolve.

The yardstick is a few milliseconds of interpreter work plus a few numpy
passes, the same mix the engine is made of and sharing no code with it.
Rounds run it between timed intervals (never inside one) and the
durations of the timed part — the wall under ``updates_per_s``, every lag
sample, the per-layer seconds — are scaled by ``NOMINAL_S / measured``:
the time the same work would have taken with the box in its undisturbed
state.  On identical rounds this cuts the coefficient of variation from
9 % to 3 % in a noisy stretch and changes nothing in a quiet one.  The raw
readings are kept beside the scaled ones in every run's detail line.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_S", "run", "speed"]

#: What one pass costs on the reference box in its fast phase.  A
#: constant, so that numbers taken on different days share a unit.
NOMINAL_S = 0.0029

_COLUMN = np.arange(100_000, dtype=np.float64)


def run() -> float:
    """Seconds one pass took."""
    start = perf_counter()
    table: dict = {}
    for i in range(30_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    for _ in range(4):
        (_COLUMN * 1.0001 + _COLUMN).sum()
    return perf_counter() - start


def speed(measured_s: float) -> float:
    """Factor that turns a duration measured beside a yardstick reading
    of ``measured_s`` into reference-box seconds."""
    return NOMINAL_S / measured_s
