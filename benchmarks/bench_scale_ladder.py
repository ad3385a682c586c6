"""Scale ladder: wall / stage / peak-RSS per population rung.

The roadmap's scale ladder measures how far the operator climbs before
wall-clock or memory gives out.  This seeds the ladder with its first
rung — 10k entities (5000 objects + 5000 queries) — run twice per rung:
per-object update rows and tick-batched columns.  Each measurement
records

* **wall** — seconds for the timed steady-state intervals,
* **stages** — generate / ingest / join / maintenance seconds from the
  engine's own interval accounting,
* **peak RSS** — ``ru_maxrss`` of the measuring process.

Peak RSS is monotonic over a process lifetime, so every (rung, mode)
cell runs in a fresh child process (this script re-executes itself with
``--worker``); the parent only orchestrates and writes the JSON report.
Higher rungs are added by listing more populations in ``--rungs``.

Standalone (pytest-free):

    python benchmarks/bench_scale_ladder.py --dry-run
    python benchmarks/bench_scale_ladder.py --rungs 10000,20000
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

DELTA = 2.0


def run_worker(args) -> dict:
    """Measure one (population, tick mode) cell inside this process."""
    from repro.core import Scuba, ScubaConfig
    from repro.generator import GeneratorConfig, NetworkBasedGenerator
    from repro.network import grid_city
    from repro.streams import CountingSink, EngineConfig, StreamEngine

    population = args.worker
    generator = NetworkBasedGenerator(
        grid_city(rows=args.city, cols=args.city),
        GeneratorConfig(
            num_objects=population // 2,
            num_queries=population - population // 2,
            skew=args.skew,
            seed=args.seed,
            mixed_groups=True,
            query_range=(args.query_range, args.query_range),
            update_fraction=1.0,
            stopped_fraction=0.0,
            tick_batching=args.tick_batching,
        ),
    )
    scuba_config = ScubaConfig(grid_size=args.grid, delta=DELTA)
    operator = None
    if args.shards > 1:
        from repro.parallel import ScubaShardFactory, ShardedEngine

        engine = ShardedEngine(
            generator,
            ScubaShardFactory(
                scuba_config,
                max_query_extent=(args.query_range, args.query_range),
            ),
            shards=args.shards,
            sink=CountingSink(),
            config=EngineConfig(delta=DELTA, tick=1.0),
        )
    else:
        operator = Scuba(scuba_config)
        engine = StreamEngine(
            generator, operator, CountingSink(),
            EngineConfig(delta=DELTA, tick=1.0),
        )
    for _ in range(args.warmup):
        engine.run_interval()
    stages = {"generate": 0.0, "ingest": 0.0, "join": 0.0, "maintenance": 0.0}
    results = 0
    started = time.perf_counter()
    for _ in range(args.intervals):
        stats = engine.run_interval()
        stages["generate"] += stats.generate_seconds
        stages["ingest"] += stats.ingest_seconds
        stages["join"] += stats.join_seconds
        stages["maintenance"] += stats.maintenance_seconds
        results += stats.result_count
    wall = time.perf_counter() - started
    run_stats = engine.stats
    return {
        "population": population,
        "tick_batching": args.tick_batching,
        "shards": args.shards,
        "wall_seconds": wall,
        "stages": stages,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "result_count": results,
        "cluster_count": (
            operator.world.cluster_count if operator is not None else None
        ),
        "counters": (
            operator.join_counters()
            if operator is not None
            else dict(run_stats.counters)
        ),
        # Sharded-run balance metrics; identity values for serial cells so
        # every JSON row has the same shape.
        "load_imbalance": getattr(run_stats, "load_imbalance", 1.0),
        "replication_factor": getattr(run_stats, "replication_factor", 1.0),
    }


def measure_cell(args, population: int, tick_batching: bool) -> dict:
    """Run one (rung, mode) cell in a fresh child process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", str(population),
        "--skew", str(args.skew),
        "--seed", str(args.seed),
        "--city", str(args.city),
        "--grid", str(args.grid),
        "--query-range", str(args.query_range),
        "--warmup", str(args.warmup),
        "--intervals", str(args.intervals),
        "--shards", str(args.shards),
    ]
    if tick_batching:
        cmd.append("--tick-batching")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"ladder worker failed (population {population}, "
            f"tick_batching={tick_batching}):\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", default="10000",
                        help="comma-separated total populations "
                             "(objects + queries split evenly)")
    parser.add_argument("--skew", type=int, default=50,
                        help="entities per convoy")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--city", type=int, default=11)
    parser.add_argument("--grid", type=int, default=100)
    parser.add_argument("--query-range", type=float, default=60.0)
    parser.add_argument("--shards", type=int, default=1, metavar="K",
                        help="spatial shards per cell (1 = serial engine); "
                             "sharded cells report load_imbalance and "
                             "replication_factor")
    parser.add_argument("--warmup", type=int, default=2,
                        help="warm-up intervals (untimed)")
    parser.add_argument("--intervals", type=int, default=5,
                        help="timed steady-state intervals")
    parser.add_argument("--out", metavar="FILE",
                        default="BENCH_scale_ladder.json")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny smoke rung (CI): 400 entities")
    parser.add_argument("--worker", type=int, metavar="POPULATION",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tick-batching", dest="tick_batching",
                        action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.worker is not None:
        print(json.dumps(run_worker(args)))
        return 0
    if args.dry_run:
        # Two rungs so CI exercises the per-rung loop (and the report's
        # generate-stage accounting) at more than one population.
        rungs = [400, 800]
        args.warmup, args.intervals = 1, 2
    else:
        rungs = [int(r) for r in args.rungs.split(",") if r.strip()]
    print(f"scale ladder: rungs {rungs}, skew {args.skew}, "
          f"{args.warmup} warm-up + {args.intervals} timed intervals")
    cells = []
    for population in rungs:
        for tick_batching in (False, True):
            cell = measure_cell(args, population, tick_batching)
            cells.append(cell)
            mode = "batch" if tick_batching else "rows "
            stages = cell["stages"]
            line = (f"  {population:>8} {mode}: wall {cell['wall_seconds']:.3f}s  "
                    f"generate {stages['generate']:.3f}s  "
                    f"ingest {stages['ingest']:.3f}s  "
                    f"join {stages['join']:.3f}s  "
                    f"maintenance {stages['maintenance']:.3f}s  "
                    f"peak RSS {cell['peak_rss_kb'] / 1024:.1f} MiB  "
                    f"matches {cell['result_count']}")
            if args.shards > 1:
                line += (f"  imbalance {cell['load_imbalance']:.2f}  "
                         f"replication {cell['replication_factor']:.2f}")
            print(line)
    report = {
        "workload": {
            "rungs": rungs,
            "skew": args.skew,
            "seed": args.seed,
            "city": [args.city, args.city],
            "grid_size": args.grid,
            "query_range": args.query_range,
            "shards": args.shards,
            "delta": DELTA,
            "warmup_intervals": args.warmup,
            "timed_intervals": args.intervals,
            "dry_run": args.dry_run,
        },
        "cells": cells,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
