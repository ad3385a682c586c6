"""The benchmark's workloads: what each one feeds the engine, and why.

Every workload runs on ``grid_city(11, 11)`` with objects:queries 1:1 and
``ScubaConfig(grid_size=100)`` — the default operator path.  A run is made
of *rounds*: each round builds a fresh engine (that is one ``setup_s``
sample), warms it up for :data:`WARMUP_INTERVALS` untimed intervals and
then times ``round_intervals`` intervals.  The interval count per round is
fixed here, not derived from the clock, because cluster fragmentation
drifts per-interval cost upward over a run: both sides of a comparison
must walk the same stretch of that drift.

Why each workload exists is recorded next to its name in
``BENCHMARK.json`` and at length in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

CITY = 11
GRID_SIZE = 100
WARMUP_INTERVALS = 3


def is_sampled(interval: int) -> bool:
    """Whether a round's ``interval`` is reference-checked: the first
    three (where a cold structure would go wrong) and every tenth."""
    return interval < 3 or interval % 10 == 0


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    skew: int
    mixed_groups: bool
    update_fraction: float
    query_range: float
    #: Ticks per evaluation interval (the paper's Δ, tick = 1 time unit).
    delta: int
    #: Timed intervals per round, sized for about 9 s on the 2-core
    #: reference box.
    round_intervals: int
    #: Open-loop feed rate in ticks/s; 0 marks a closed-loop batch
    #: workload driven in-process.
    tick_rate: float = 0.0
    #: Whether the traced run adds the two-shard pass that yields the
    #: ``parallel.*`` counts.
    sharded_pass: bool = False

    @property
    def is_serve(self) -> bool:
        return self.tick_rate > 0.0

    @property
    def interval_period_s(self) -> float:
        """Serve only: seconds between evaluation intervals, which is
        also the lag limit."""
        return self.delta / self.tick_rate

    def smoke(self) -> "Workload":
        """The 1/20-size variant ``--smoke`` runs: same shape, tiny cost."""
        return replace(
            self,
            entities=self.entities // 20,
            round_intervals=max(12, self.round_intervals // 4),
            tick_rate=self.tick_rate * 4,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The headline rung: big convoys, everyone reports, ingest's stay
        # path is about three quarters of wall.
        Workload(
            name="convoy_10k",
            entities=10_000,
            skew=50,
            mixed_groups=True,
            update_fraction=1.0,
            query_range=60.0,
            delta=2,
            round_intervals=36,
            sharded_pass=True,
        ),
        # The adversarial end of the paper's Fig. 10: ~2400 clusters of
        # ~2.5 members, so per-cluster work amortises over almost nothing.
        Workload(
            name="lone_movers",
            entities=6_000,
            skew=1,
            mixed_groups=False,
            update_fraction=1.0,
            query_range=60.0,
            delta=2,
            round_intervals=30,
        ),
        # Sparse reporting and wide windows: join, maintenance and the
        # answer volume carry the wall; ingest runs its leave/new path.
        Workload(
            name="wide_windows",
            entities=10_000,
            skew=200,
            mixed_groups=True,
            update_fraction=0.1,
            query_range=300.0,
            delta=1,
            round_intervals=98,
        ),
        # The service path: TCP decode, bounded queue, executor hand-off,
        # JSONL emission, at about half the measured capacity.
        Workload(
            name="serve_socket",
            entities=2_000,
            skew=50,
            mixed_groups=True,
            update_fraction=1.0,
            query_range=60.0,
            delta=2,
            round_intervals=44,
            tick_rate=12.0,
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Distinct, reproducible generator seed for each round of a run.

    Rounds of one run see different traffic, so a run's medians average
    over several draws of the workload instead of describing one.
    """
    return seed * 1009 + round_index
