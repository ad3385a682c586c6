"""Adaptive re-sharding benchmark — skewed-hotspot workload, K=4.

A hotspot workload concentrates most convoys in a downtown sub-rect, so a
static tiling parks nearly all the join work on one shard while the rest
idle.  This benchmark runs the same seeded workload three ways —
single-process serial (the answer oracle), statically-sharded, and
adaptively-sharded — and reports

* **equivalence** (always enforced, the gate CI runs on): the static and
  adaptive sharded answer multisets must be *exactly* the serial
  engine's, per interval;
* **critical-path speedup** (the point of resharding): summed
  per-interval max-shard join seconds, static vs adaptive.  Enforced
  ≥ ``--min-speedup`` (default 1.2x) on full local runs; with
  ``--dry-run`` (CI) the speedup is *informational only* — CI runners
  are too noisy and the smoke population too small to time meaningfully.

Standalone (pytest-free):

    python benchmarks/bench_resharding.py --dry-run
    python benchmarks/bench_resharding.py --out BENCH_resharding.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import Scuba, ScubaConfig  # noqa: E402
from repro.generator import GeneratorConfig, NetworkBasedGenerator  # noqa: E402
from repro.network import grid_city  # noqa: E402
from repro.parallel import (  # noqa: E402
    ReshardConfig,
    ScubaShardFactory,
    ShardedEngine,
)
from repro.streams import CollectingSink, EngineConfig, StreamEngine  # noqa: E402

def make_generator(args) -> NetworkBasedGenerator:
    return NetworkBasedGenerator(
        grid_city(rows=args.city, cols=args.city),
        GeneratorConfig(
            num_objects=args.objects,
            num_queries=args.queries,
            skew=args.skew,
            seed=args.seed,
            query_range=(args.query_range, args.query_range),
            hotspot=args.hotspot,
        ),
    )


def interval_multisets(sink: CollectingSink) -> dict:
    return {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
    }


def serial_run(args):
    sink = CollectingSink()
    engine = StreamEngine(
        make_generator(args),
        Scuba(ScubaConfig()),
        sink,
        EngineConfig(),
    )
    engine.run(args.intervals)
    return interval_multisets(sink)


def sharded_run(args, adaptive: bool):
    sink = CollectingSink()
    engine = ShardedEngine(
        make_generator(args),
        ScubaShardFactory(
            ScubaConfig(),
            max_query_extent=(args.query_range, args.query_range),
        ),
        shards=args.shards,
        sink=sink,
        config=EngineConfig(),
        adaptive=adaptive,
        reshard_config=ReshardConfig(
            interval=args.reshard_interval,
            cooldown=args.reshard_interval,
            imbalance_threshold=1.1,
        )
        if adaptive
        else None,
    )
    critical_path = 0.0
    started = time.perf_counter()
    for _ in range(args.intervals):
        stats = engine.run_interval()
        critical_path += stats.max_shard_join_seconds
    wall = time.perf_counter() - started
    counters = engine.stats.counters
    row = {
        "adaptive": adaptive,
        "critical_path_seconds": critical_path,
        "wall_seconds": wall,
        "load_imbalance": engine.stats.load_imbalance,
        "replication_factor": engine.stats.replication_factor,
        "plan_epoch": engine.plan_epoch,
        "reshard_splits": counters.get("reshard_splits", 0),
        "reshard_merges": counters.get("reshard_merges", 0),
        "clusters_migrated": counters.get("clusters_migrated", 0),
        "migration_seconds": counters.get("migration_seconds", 0.0),
    }
    return interval_multisets(sink), row


def compare(reference: dict, candidate: dict, label: str) -> list:
    """Multiset-compare per-interval answers; returns mismatch strings."""
    problems = []
    if set(reference) != set(candidate):
        problems.append(
            f"{label}: interval sets differ "
            f"({sorted(reference)} vs {sorted(candidate)})"
        )
        return problems
    for t in sorted(reference):
        if reference[t] != candidate[t]:
            missing = reference[t] - candidate[t]
            extra = candidate[t] - reference[t]
            problems.append(
                f"{label}: t={t} answers diverge "
                f"(missing {sum(missing.values())}, "
                f"extra {sum(extra.values())})"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=1600)
    parser.add_argument("--queries", type=int, default=800)
    parser.add_argument("--skew", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--city", type=int, default=11)
    parser.add_argument("--query-range", type=float, default=120.0)
    parser.add_argument("--hotspot", type=float, default=0.85,
                        help="fraction of convoys confined to the downtown "
                             "sub-rect")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--intervals", type=int, default=12)
    parser.add_argument("--reshard-interval", type=int, default=2)
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="required static/adaptive critical-path ratio "
                             "(full runs only)")
    parser.add_argument("--out", metavar="FILE",
                        default="BENCH_resharding.json")
    parser.add_argument("--dry-run", action="store_true",
                        help="small population; equivalence gate only, "
                             "speedup informational (CI)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        args.objects, args.queries = 240, 120
        args.intervals = 8
        args.city = 9
    print(
        f"resharding bench: {args.objects}+{args.queries} entities, "
        f"skew {args.skew}, hotspot {args.hotspot}, K={args.shards}, "
        f"{args.intervals} intervals"
    )
    problems: list = []
    reference = serial_run(args)
    static_answers, static_row = sharded_run(args, adaptive=False)
    adaptive_answers, adaptive_row = sharded_run(args, adaptive=True)
    problems += compare(reference, static_answers, "static")
    problems += compare(reference, adaptive_answers, "adaptive")
    gate_speedup = (
        static_row["critical_path_seconds"]
        / adaptive_row["critical_path_seconds"]
        if adaptive_row["critical_path_seconds"] > 0
        else float("inf")
    )
    print(
        f"  static crit {static_row['critical_path_seconds']:.4f}s "
        f"(imbalance {static_row['load_imbalance']:.2f}) | "
        f"adaptive crit {adaptive_row['critical_path_seconds']:.4f}s "
        f"(imbalance {adaptive_row['load_imbalance']:.2f}, "
        f"epoch {adaptive_row['plan_epoch']}, "
        f"{adaptive_row['clusters_migrated']} clusters migrated) | "
        f"speedup {gate_speedup:.2f}x"
    )
    report = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "skew": args.skew,
            "seed": args.seed,
            "hotspot": args.hotspot,
            "city": [args.city, args.city],
            "query_range": args.query_range,
            "shards": args.shards,
            "intervals": args.intervals,
            "reshard_interval": args.reshard_interval,
            "dry_run": args.dry_run,
        },
        "static": static_row,
        "adaptive": adaptive_row,
        "critical_path_speedup": gate_speedup,
        "equivalence_ok": not problems,
        "problems": problems,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"results written to {args.out}")
    if problems:
        print("EQUIVALENCE FAILURES:")
        for p in problems:
            print(f"  {p}")
        return 1
    if args.dry_run:
        print(
            f"equivalence OK "
            f"(speedup {gate_speedup:.2f}x informational in dry-run)"
        )
        return 0
    if gate_speedup < args.min_speedup:
        print(
            f"SPEEDUP GATE FAILED: {gate_speedup:.2f}x < "
            f"{args.min_speedup:.2f}x required"
        )
        return 1
    print(
        f"equivalence OK, critical-path speedup {gate_speedup:.2f}x "
        f">= {args.min_speedup:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
