"""Command-line simulator.

Runs a configurable workload through a chosen operator and prints the
per-interval cost breakdown — the quickest way to poke at the system:

    python -m repro                                # defaults
    python -m repro --objects 2000 --queries 2000 --skew 100
    python -m repro --operator regular --intervals 10
    python -m repro --eta 0.5 --query-range 300    # with load shedding
    python -m repro --adaptive-shedding --shed-budget 500   # feedback shedding
    python -m repro --split                        # cluster splitting on
    python -m repro --shards 4 --executor process  # sharded parallel run
"""

from __future__ import annotations

import argparse
import sys

from .core import NaiveJoin, RegularGridJoin, Scuba, ScubaConfig
from .generator import GeneratorConfig, NetworkBasedGenerator
from .network import grid_city
from .shedding import policy_for_eta
from .streams import CountingSink, EngineConfig, StreamEngine


def build_parser() -> argparse.ArgumentParser:
    """The simulator's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run continuous spatio-temporal queries over moving objects.",
    )
    parser.add_argument("--objects", type=int, default=1000, help="moving objects")
    parser.add_argument("--queries", type=int, default=1000, help="continuous queries")
    parser.add_argument("--skew", type=int, default=50,
                        help="entities per convoy (clusterability)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--intervals", type=int, default=5,
                        help="evaluation intervals to run")
    parser.add_argument("--delta", type=float, default=2.0,
                        help="evaluation period in time units")
    parser.add_argument("--city", type=int, default=21,
                        help="lattice size of the city (NxN nodes)")
    parser.add_argument("--query-range", type=float, default=50.0,
                        help="range-query window extent (square)")
    parser.add_argument("--update-fraction", type=float, default=1.0,
                        help="fraction of entities reporting per time unit")
    parser.add_argument("--stopped-fraction", type=float, default=0.0,
                        help="fraction of convoys parked in place (still "
                             "reporting) — the steady-state regime the "
                             "version-keyed caches serve")
    parser.add_argument("--hotspot", type=float, default=0.0,
                        help="fraction of convoys whose origins and "
                             "destinations stay inside a downtown sub-rect "
                             "(spatial skew; 0=uniform coverage)")
    parser.add_argument("--tick-batching", dest="tick_batching",
                        action="store_true", default=True,
                        help="vectorized tick path: the generator emits "
                             "columnar TickBatches (default)")
    parser.add_argument("--no-tick-batching", dest="tick_batching",
                        action="store_false",
                        help="scalar reference tick path (per-entity loop, "
                             "per-object update rows)")
    parser.add_argument("--operator",
                        choices=["scuba", "regular", "naive", "incremental"],
                        default="scuba")
    parser.add_argument("--eta", type=float, default=0.0,
                        help="load-shedding nucleus fraction (0=off, 1=full)")
    parser.add_argument("--adaptive-shedding", action="store_true",
                        help="let the §5 feedback controller walk η against "
                             "--shed-budget (scuba only; overrides --eta)")
    parser.add_argument("--shed-budget", type=int, default=10_000,
                        metavar="POSITIONS",
                        help="retained-position budget the adaptive "
                             "controller defends")
    parser.add_argument("--split", action="store_true",
                        help="enable cluster splitting at destinations")
    parser.add_argument("--stale-after", type=float, default=None,
                        metavar="T",
                        help="evict table rows for entities silent longer "
                             "than T time units (scuba only; default: keep "
                             "forever)")
    parser.add_argument("--grid", type=int, default=100,
                        help="spatial grid size (NxN cells)")
    parser.add_argument("--record", metavar="TRACE",
                        help="record the update stream to a JSONL trace file")
    parser.add_argument("--replay", metavar="TRACE",
                        help="replay a recorded trace instead of generating")
    parser.add_argument("--shards", type=int, default=1, metavar="K",
                        help="spatial shards for parallel execution (1=off)")
    parser.add_argument("--executor", choices=["serial", "process"],
                        default="serial",
                        help="where shard operators run (with --shards > 1)")
    parser.add_argument("--adaptive-sharding", action="store_true",
                        help="runtime-adaptive shard plan: split hot / merge "
                             "cold tiles at interval boundaries, live-"
                             "migrating affected clusters (with --shards > 1)")
    parser.add_argument("--reshard-interval", type=int, default=4, metavar="N",
                        help="consider a rebalance every N intervals "
                             "(with --adaptive-sharding)")
    from .kernels import BACKEND_CHOICES

    parser.add_argument("--kernel-backend", choices=list(BACKEND_CHOICES),
                        default="numpy",
                        help="join-within kernel backend (scalar = the "
                             "tuple-at-a-time reference)")
    return parser


def make_scuba_config(args: argparse.Namespace) -> ScubaConfig:
    """The SCUBA configuration selected on the command line."""
    return ScubaConfig(
        grid_size=args.grid,
        delta=args.delta,
        shedding=policy_for_eta(args.eta, 100.0),
        adaptive_shedding=args.adaptive_shedding,
        shed_budget=args.shed_budget,
        split_at_destination=args.split,
        kernel_backend=args.kernel_backend,
        stale_after=args.stale_after,
    )


def make_operator(args: argparse.Namespace):
    """Instantiate the operator selected on the command line."""
    if args.operator == "regular":
        from .core import RegularConfig

        return RegularGridJoin(
            RegularConfig(grid_size=args.grid, kernel_backend=args.kernel_backend)
        )
    if args.operator == "incremental":
        from .core import IncrementalGridConfig, IncrementalGridJoin

        return IncrementalGridJoin(IncrementalGridConfig(grid_size=args.grid))
    if args.operator == "naive":
        return NaiveJoin()
    return Scuba(make_scuba_config(args))


def make_shard_factory(args: argparse.Namespace):
    """Per-shard operator factory mirroring :func:`make_operator`."""
    from .parallel import (
        IncrementalGridShardFactory,
        NaiveShardFactory,
        RegularShardFactory,
        ScubaShardFactory,
    )

    extent = (args.query_range, args.query_range)
    if args.operator == "regular":
        from .core import RegularConfig

        return RegularShardFactory(
            RegularConfig(grid_size=args.grid, kernel_backend=args.kernel_backend),
            max_query_extent=extent,
        )
    if args.operator == "incremental":
        from .core import IncrementalGridConfig

        return IncrementalGridShardFactory(
            IncrementalGridConfig(grid_size=args.grid), max_query_extent=extent
        )
    if args.operator == "naive":
        return NaiveShardFactory(max_query_extent=extent)
    return ScubaShardFactory(make_scuba_config(args), max_query_extent=extent)


def _hit_rate(counters: dict, name: str) -> str:
    """``"87.5% (35/40)"`` for a ``<name>_hits``/``<name>_misses`` pair."""
    hits = counters.get(f"{name}_hits", 0)
    misses = counters.get(f"{name}_misses", 0)
    total = hits + misses
    if not total:
        return "n/a"
    return f"{100.0 * hits / total:.1f}% ({hits}/{total})"


def print_cache_footer(counters: dict) -> None:
    """Cache effectiveness and join/ingest work summary (join_counters names)."""
    if "view_cache_hits" not in counters:
        return
    print(
        f"caches: view {_hit_rate(counters, 'view_cache')} | "
        f"between {_hit_rate(counters, 'between_cache')}"
    )
    print(
        f"join: candidate pairs {counters.get('join_pairs_batched', 0)} | "
        f"fused segments {counters.get('join_segments', 0)}"
    )
    print(
        f"ingest: heartbeats {counters.get('ingest_heartbeats', 0)} | "
        f"refreshes {counters.get('ingest_refreshes', 0)} | "
        f"reclustered {counters.get('ingest_reclustered', 0)} | "
        f"new {counters.get('ingest_new', 0)} | "
        f"centroid index cell moves {counters.get('grid_reregistrations', 0)} "
        f"(+{counters.get('grid_refresh_skips', 0)} writes in place)"
    )


def main(argv=None) -> int:
    """Entry point: run the configured workload and print the breakdown."""
    args = build_parser().parse_args(argv)
    if args.record and args.replay:
        raise SystemExit("--record and --replay are mutually exclusive")
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.adaptive_shedding and args.operator != "scuba":
        raise SystemExit(
            f"--adaptive-shedding requires --operator scuba, "
            f"got {args.operator}"
        )
    if args.stale_after is not None and args.operator != "scuba":
        raise SystemExit(
            f"--stale-after requires --operator scuba, got {args.operator}"
        )
    city = grid_city(rows=args.city, cols=args.city)
    if args.replay:
        from .generator import TraceReplayer

        generator = TraceReplayer(args.replay)
    else:
        generator = NetworkBasedGenerator(
            city,
            GeneratorConfig(
                num_objects=args.objects,
                num_queries=args.queries,
                skew=args.skew,
                seed=args.seed,
                query_range=(args.query_range, args.query_range),
                update_fraction=args.update_fraction,
                stopped_fraction=args.stopped_fraction,
                hotspot=args.hotspot,
                tick_batching=args.tick_batching,
            ),
        )
    if args.record:
        from .generator import TraceRecorder

        generator = TraceRecorder(generator, args.record)
    sharded = args.shards > 1 or args.executor == "process"
    sink = CountingSink()
    operator = None
    if sharded:
        from .parallel import ShardedEngine

        engine = ShardedEngine(
            generator,
            make_shard_factory(args),
            shards=args.shards,
            sink=sink,
            config=EngineConfig(delta=args.delta, tick=1.0),
            executor=args.executor,
            adaptive=args.adaptive_sharding,
            reshard_interval=args.reshard_interval,
        )
    else:
        operator = make_operator(args)
        engine = StreamEngine(
            generator, operator, sink, EngineConfig(delta=args.delta, tick=1.0)
        )
    print(f"{args.operator} over {city}")
    eta_label = (
        f"adaptive (budget {args.shed_budget})"
        if args.adaptive_shedding
        else f"{args.eta}"
    )
    print(f"{args.objects} objects + {args.queries} queries, skew {args.skew}, "
          f"Δ={args.delta}, η={eta_label}")
    if args.operator != "naive":
        from .kernels import resolve_backend

        print(f"kernel backend: {resolve_backend(args.kernel_backend).name}")
    if sharded:
        print(f"{engine.num_shards} shards ({args.executor} executor), "
              f"halo margin {engine.plan.halo_margin:.1f}")
    print()
    header = f"{'t':>6}  {'ingest':>8}  {'join':>8}  {'maint':>8}  {'results':>8}"
    print(header)
    print("-" * len(header))
    interrupted = False
    try:
        for _ in range(args.intervals):
            stats = engine.run_interval()
            print(
                f"{stats.t:6.0f}  {stats.ingest_seconds * 1e3:7.1f}m  "
                f"{stats.join_seconds * 1e3:7.1f}m  "
                f"{stats.maintenance_seconds * 1e3:7.1f}m  "
                f"{stats.result_count:8d}"
            )
    except KeyboardInterrupt:
        # Ctrl-C mid-run still gets the partial accounting: completed
        # intervals are in RunStats, and the footer below prints them
        # before the conventional 130 exit.
        interrupted = True
    print("-" * len(header))
    if interrupted:
        print(f"interrupted after {engine.stats.interval_count} of "
              f"{args.intervals} intervals")
    print(engine.stats.summary())
    if sharded:
        stats = engine.stats
        line = (
            f"parallel: load imbalance {stats.load_imbalance:.2f} | "
            f"replication {stats.replication_factor:.2f}"
        )
        if args.adaptive_sharding:
            c = stats.counters
            line += (
                f" | resharding: {c.get('reshard_splits', 0)} splits, "
                f"{c.get('reshard_merges', 0)} merges, "
                f"{c.get('clusters_migrated', 0)} clusters migrated in "
                f"{c.get('migration_seconds', 0.0) * 1e3:.1f}ms "
                f"(epoch {engine.plan_epoch})"
            )
        print(line)
    print_cache_footer(engine.stats.counters)
    dropped = engine.stats.counters.get("sink_dropped_matches", 0)
    if dropped:
        print(f"sink: {dropped} matches evicted by the retention cap")
    if isinstance(operator, Scuba):
        print(f"clusters: {operator.cluster_count} | "
              f"between {operator.between_hits}/{operator.between_tests} | "
              f"within tests {operator.within_tests} | "
              f"split joins {operator.split_joins}")
        if operator.shedder is not None:
            trajectory = " ".join(
                f"t={t:.0f}→η={eta}" for t, eta in operator.shedder.history
            ) or "(no transitions)"
            print(f"adaptive shedding: final η={operator.shedder.eta} | "
                  f"{trajectory}")
    if sharded:
        engine.close()
    if args.record:
        generator.close()
        print(f"trace recorded to {args.record}")
    return 130 if interrupted else 0


if __name__ == "__main__":
    sys.exit(main())
