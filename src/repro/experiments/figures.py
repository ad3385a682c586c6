"""Per-figure experiment harnesses (paper §6).

One function per figure/table of the paper's evaluation.  Each returns a
:class:`FigureResult` — a titled list of rows — that the benchmark suite
asserts shapes on and ``python -m repro.experiments`` pretty-prints.

The paper ran 10,000 objects + 10,000 queries on a 2.4 GHz Xeon; a pure
Python reproduction sweeps many configurations, so every harness takes a
``scale`` factor (default from ``SCUBA_BENCH_SCALE``, see
:func:`~repro.experiments.workloads.bench_scale`).  Absolute seconds differ
from the paper; the *shapes* — who wins, where the crossover falls — are
what EXPERIMENTS.md records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..clustering import KMeansClusterer
from ..core import RegularConfig, RegularGridJoin, Scuba, ScubaConfig
from ..generator import Update
from ..shedding import compare_results, policy_for_eta
from ..streams import CollectingSink
from .runner import run_experiment
from .workloads import WorkloadSpec, bench_scale, build_workload

__all__ = [
    "FigureResult",
    "fig09_grid_size",
    "fig10_skew",
    "fig11_clustering",
    "fig12_maintenance",
    "fig13_load_shedding",
    "format_table",
    "ALL_FIGURES",
]

#: Evaluation intervals per configuration.  Small by design: each interval
#: already aggregates Δ ticks of the full population.
DEFAULT_INTERVALS = 3


@dataclass
class FigureResult:
    """A reproduced figure: title, column names, data rows."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)


def format_table(result: FigureResult) -> str:
    """Fixed-width text rendering of a figure result."""
    widths = {
        col: max(len(col), *(len(_fmt(row[col])) for row in result.rows))
        if result.rows
        else len(col)
        for col in result.columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in result.columns)
    rule = "-" * len(header)
    lines = [f"{result.figure}: {result.title}", rule, header, rule]
    for row in result.rows:
        lines.append(
            "  ".join(_fmt(row[col]).ljust(widths[col]) for col in result.columns)
        )
    lines.append(rule)
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# ---------------------------------------------------------------------------
# Figure 9 — varying grid cell size (join time + memory)
# ---------------------------------------------------------------------------

GRID_SIZES: Sequence[int] = (50, 75, 100, 125, 150)


def fig09_grid_size(
    scale: Optional[float] = None,
    intervals: int = DEFAULT_INTERVALS,
    grid_sizes: Sequence[int] = GRID_SIZES,
) -> FigureResult:
    """Fig. 9a/9b: REGULAR vs SCUBA across ClusterGrid granularities.

    Join times are reported per the paper's accounting — the regular
    operator's cost of a cycle is hashing every individual update plus the
    cell-by-cell join ("most [solutions] still process and materialize
    every location update individually"), while SCUBA's clustering work is
    accounted as maintenance (Fig. 12) and its join is the cluster join.

    Memory is reported two ways: estimated resident bytes of each
    operator's state, and the *grid directory size* (entries across all
    cells) — the quantity the paper's §6.2 argument is really about: "only
    one entry per cluster (which aggregates several objects and queries)
    needs to be made in a grid cell vs. having an individual entry for
    each object and query".
    """
    scale = bench_scale() if scale is None else scale
    spec = WorkloadSpec().scaled(scale)
    result = FigureResult(
        figure="fig09",
        title="Varying grid size (join time, memory)",
        columns=[
            "grid",
            "regular_join_s",
            "scuba_join_s",
            "regular_memory_mb",
            "scuba_memory_mb",
            "regular_grid_entries",
            "scuba_grid_entries",
        ],
    )
    for grid_size in grid_sizes:
        regular_op = RegularGridJoin(RegularConfig(grid_size=grid_size))
        regular = run_experiment(
            spec, regular_op, intervals=intervals, label=f"regular-{grid_size}"
        )
        scuba_op = Scuba(ScubaConfig(grid_size=grid_size))
        scuba = run_experiment(
            spec, scuba_op, intervals=intervals, label=f"scuba-{grid_size}"
        )
        result.rows.append(
            {
                "grid": f"{grid_size}x{grid_size}",
                "regular_join_s": regular.ingest_seconds + regular.join_seconds,
                "scuba_join_s": scuba.join_seconds,
                "regular_memory_mb": regular.memory_mb,
                "scuba_memory_mb": scuba.memory_mb,
                "regular_grid_entries": regular_op.object_grid.entry_count
                + regular_op.query_grid.entry_count,
                "scuba_grid_entries": scuba_op.footprint_entries,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — varying skew (clusterability)
# ---------------------------------------------------------------------------

SKEW_FACTORS: Sequence[int] = (1, 10, 20, 50, 100, 200)


def fig10_skew(
    scale: Optional[float] = None,
    intervals: int = DEFAULT_INTERVALS,
    skews: Sequence[int] = SKEW_FACTORS,
) -> FigureResult:
    """Fig. 10: join time as entities become more/less clusterable.

    Expected shape: at skew = 1 SCUBA pays single-member-cluster overhead;
    as skew grows, entities aggregate into ever fewer clusters and SCUBA's
    join time collapses.  ``regular_join_s`` uses the paper's accounting
    (individual per-update processing + cell join, see
    :func:`fig09_grid_size`); both join-phase-only columns are included so
    the effect of the accounting is visible.
    """
    scale = bench_scale() if scale is None else scale
    result = FigureResult(
        figure="fig10",
        title="Join time with skew factor",
        columns=[
            "skew",
            "regular_join_s",
            "scuba_join_s",
            "regular_join_only_s",
            "scuba_clusters",
            "results",
        ],
    )
    for skew in skews:
        spec = replace(WorkloadSpec(), skew=skew).scaled(scale)
        regular = run_experiment(
            spec,
            RegularGridJoin(),
            intervals=intervals,
            label=f"regular-skew{skew}",
        )
        scuba = run_experiment(
            spec, Scuba(), intervals=intervals, label=f"scuba-skew{skew}"
        )
        result.rows.append(
            {
                "skew": skew,
                "regular_join_s": regular.ingest_seconds + regular.join_seconds,
                "scuba_join_s": scuba.join_seconds,
                "regular_join_only_s": regular.join_seconds,
                "scuba_clusters": scuba.cluster_count,
                "results": scuba.result_count,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — incremental vs non-incremental (k-means) clustering
# ---------------------------------------------------------------------------

KMEANS_ITERATIONS: Sequence[int] = (1, 3, 5, 10)


def fig11_clustering(
    scale: Optional[float] = None,
    intervals: int = DEFAULT_INTERVALS,
    kmeans_iterations: Sequence[int] = KMEANS_ITERATIONS,
) -> FigureResult:
    """Fig. 11: combined clustering + join cost, incremental vs k-means.

    Incremental clustering happens while tuples arrive, so its bar is join
    time alone ("the join processing starts immediately when Δ expires");
    offline k-means must cluster first, so its bar stacks clustering time
    on top of join time.  Expected shape: every k-means variant's total
    exceeds the incremental total, and from ~3 iterations the clustering
    time alone dominates its join time.
    """
    scale = bench_scale() if scale is None else scale
    spec = WorkloadSpec().scaled(scale)
    result = FigureResult(
        figure="fig11",
        title="Incremental vs non-incremental clustering",
        columns=["variant", "clustering_s", "join_s", "total_s"],
    )

    incremental = run_experiment(
        spec, Scuba(), intervals=intervals, label="incremental"
    )
    result.rows.append(
        {
            "variant": "incremental",
            "clustering_s": 0.0,
            "join_s": incremental.join_seconds,
            "total_s": incremental.join_seconds,
        }
    )

    for iterations in kmeans_iterations:
        clustering_s, join_s = _offline_kmeans_run(spec, iterations, intervals)
        result.rows.append(
            {
                "variant": f"kmeans-iter{iterations}",
                "clustering_s": clustering_s,
                "join_s": join_s,
                "total_s": clustering_s + join_s,
            }
        )
    return result


def _offline_kmeans_run(
    spec: WorkloadSpec, iterations: int, intervals: int, delta: float = 2.0
) -> tuple:
    """Clustering and join seconds for the offline (k-means) variant.

    Mirrors the paper's §6.4 protocol: tuples accumulate for Δ time units;
    when the interval expires the *entire* current data set is clustered
    from scratch by k-means, the clusters are loaded into a SCUBA operator,
    and the ordinary cluster-based joining phase runs.
    """
    _network, generator = build_workload(spec)
    kmeans = KMeansClusterer(iterations=iterations)
    clustering_seconds = 0.0
    join_seconds = 0.0
    latest: Dict[tuple, Update] = {}
    ticks = round(delta)
    for _interval in range(intervals):
        for _ in range(ticks):
            for update in generator.tick(1.0):
                latest[(update.kind, update.entity_id)] = update
        now = generator.time
        batch = list(latest.values())
        started = time.perf_counter()
        clusters = kmeans.cluster(batch)
        clustering_seconds += time.perf_counter() - started

        operator = Scuba()
        for cluster in clusters:
            operator.world.add(cluster)
        started = time.perf_counter()
        operator.join_phase(now)
        join_seconds += time.perf_counter() - started
    return clustering_seconds, join_seconds


# ---------------------------------------------------------------------------
# Figure 12 — cluster maintenance cost
# ---------------------------------------------------------------------------

MAINTENANCE_SKEWS: Sequence[int] = (40, 20, 10, 4)


def fig12_maintenance(
    scale: Optional[float] = None,
    intervals: int = DEFAULT_INTERVALS,
    skews: Sequence[int] = MAINTENANCE_SKEWS,
) -> FigureResult:
    """Fig. 12: cluster maintenance vs join time as cluster count varies.

    The paper varies the skew factor to sweep the average number of live
    clusters while the population stays fixed, and compares "cluster
    maintenance + SCUBA join" against the regular operator's cost of a
    cycle.  SCUBA maintenance here is everything cluster-related outside
    the join: ingest-side incremental clustering plus post-join upkeep
    (forming, expanding, dissolving, re-locating).  The regular bar is its
    full cycle (per-update individual processing + join), per the paper's
    accounting.
    """
    scale = bench_scale() if scale is None else scale
    result = FigureResult(
        figure="fig12",
        title="Cluster maintenance cost",
        columns=[
            "skew",
            "clusters",
            "maintenance_s",
            "scuba_join_s",
            "scuba_total_s",
            "regular_total_s",
        ],
    )
    for skew in skews:
        spec = replace(WorkloadSpec(), skew=skew).scaled(scale)
        scuba = run_experiment(
            spec, Scuba(), intervals=intervals, label=f"scuba-skew{skew}"
        )
        regular = run_experiment(
            spec, RegularGridJoin(), intervals=intervals, label=f"regular-skew{skew}"
        )
        maintenance = scuba.ingest_seconds + scuba.maintenance_seconds
        result.rows.append(
            {
                "skew": skew,
                "clusters": scuba.cluster_count,
                "maintenance_s": maintenance,
                "scuba_join_s": scuba.join_seconds,
                "scuba_total_s": maintenance + scuba.join_seconds,
                "regular_total_s": regular.ingest_seconds + regular.join_seconds,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Figure 13 — moving-cluster-driven load shedding
# ---------------------------------------------------------------------------

ETA_LEVELS: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)


def fig13_load_shedding(
    scale: Optional[float] = None,
    intervals: int = DEFAULT_INTERVALS,
    etas: Sequence[float] = ETA_LEVELS,
) -> FigureResult:
    """Fig. 13a/13b: join cost and accuracy as the nucleus grows.

    η is the nucleus-to-cluster size percentage; η = 0 is the exact
    reference.  The query window is set large relative to Θ_D (the regime
    the paper's accuracy numbers imply — a nucleus approximation can only
    be gentle when the window dwarfs the approximation error), matching
    ~79 % accuracy at η = 50 %.

    Expected shape: the number of individual geometric tests
    (``within_tests``, Fig. 13a's cost driver) falls monotonically with η;
    accuracy falls with η but degrades gracefully.
    """
    scale = bench_scale() if scale is None else scale
    spec = replace(WorkloadSpec(), query_range=(500.0, 500.0)).scaled(scale)
    theta_d = ScubaConfig().theta_d

    result = FigureResult(
        figure="fig13",
        title="Cluster-based load shedding (join cost, accuracy)",
        columns=[
            "eta_pct",
            "join_s",
            "within_tests",
            "accuracy",
            "false_pos",
            "false_neg",
        ],
    )
    reference_matches = None
    for eta in etas:
        operator = Scuba(ScubaConfig(shedding=policy_for_eta(eta, theta_d)))
        run = run_experiment(
            spec,
            operator,
            intervals=intervals,
            label=f"eta-{eta}",
            collect_matches=True,
        )
        assert isinstance(run.sink, CollectingSink)
        if reference_matches is None:
            # First row must be the η = 0 exact reference.
            assert eta == 0.0, "fig13 requires eta levels to start at 0"
            reference_matches = run.sink.all_matches
        report = compare_results(reference_matches, run.sink.all_matches)
        result.rows.append(
            {
                "eta_pct": round(eta * 100),
                "join_s": run.join_seconds,
                "within_tests": operator.within_tests,
                "accuracy": report.accuracy,
                "false_pos": report.false_positives,
                "false_neg": report.false_negatives,
            }
        )
    return result


#: Registry used by the CLI and the benchmark suite.
ALL_FIGURES = {
    "fig09": fig09_grid_size,
    "fig10": fig10_skew,
    "fig11": fig11_clustering,
    "fig12": fig12_maintenance,
    "fig13": fig13_load_shedding,
}
