"""Batched columnar ingest vs the scalar per-update loop.

Two end-to-end workloads through the SCUBA operator, each run with
``batched_ingest=False`` (the scalar reference) and ``batched_ingest=True``
(the ingest kernel), one JSON report
(``BENCH_ingest.json``):

**parked-convoys** — every convoy stopped in place, everyone reporting
every tick (``stopped_fraction = 1.0``, ``update_fraction = 1.0``).  The
update-heavy steady state the batched fast path targets: the tick groups
are pure heartbeats, so the kernel classifies whole member groups with
column compares, stamps ``last_t`` in bulk and dedupes every grid refresh.
The headline number — and the >= 1.3x gate — is the ingest-stage speedup
here.

**moving-convoys** — the same population all moving and all reporting.
Groups still batch (members track their advancing cluster), but every
commit rewrites member positions, so this measures the fast path under
real refresh work rather than pure heartbeats.

Both workloads cross-check, between the two modes, the per-interval match
multisets *and* the final cluster assignment table — the bench doubles as
an equivalence test at benchmark scale and **fails (exit 1) on any
divergence**, dry run included.  The speedup gate is enforced on full
runs only; ``--dry-run`` (CI smoke) scales the population down too far
for timing gates to be meaningful.

Standalone (pytest-free) so CI can smoke it directly:

    python benchmarks/bench_ingest.py --dry-run
    python benchmarks/bench_ingest.py --out BENCH_ingest.json
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
from repro.streams import CollectingSink, EngineConfig, StreamEngine  # noqa: E402

DELTA = 2.0

WORKLOADS = [
    {
        "name": "parked-convoys",
        "stopped_fraction": 1.0,
        "description": "every convoy parked, everyone reporting (heartbeats)",
    },
    {
        "name": "moving-convoys",
        "stopped_fraction": 0.0,
        "description": "everything moving and reporting (bulk refreshes)",
    },
]


def make_generator(args, workload, scale: float):
    city = grid_city(rows=args.city, cols=args.city)
    return NetworkBasedGenerator(
        city,
        GeneratorConfig(
            num_objects=max(1, int(args.objects * scale)),
            num_queries=max(1, int(args.queries * scale)),
            skew=args.skew,
            seed=args.seed,
            mixed_groups=False,
            query_range=(args.query_range, args.query_range),
            update_fraction=1.0,
            stopped_fraction=workload["stopped_fraction"],
        ),
    )


def run_mode(args, workload, batched: bool, scale: float,
             warmup: int, intervals: int) -> dict:
    """One seeded run: warm-up (untimed), then timed steady-state intervals."""
    generator = make_generator(args, workload, scale)
    operator = Scuba(
        ScubaConfig(
            grid_size=args.grid,
            delta=DELTA,
            batched_ingest=batched,
        )
    )
    sink = CollectingSink()
    engine = StreamEngine(
        generator, operator, sink, EngineConfig(delta=DELTA, tick=1.0)
    )
    for _ in range(warmup):
        engine.run_interval()
    warm_boundary = generator.time
    ingest_seconds = 0.0
    started = time.perf_counter()
    for _ in range(intervals):
        stats = engine.run_interval()
        ingest_seconds += stats.ingest_seconds
    wall_seconds = time.perf_counter() - started
    timed = {
        t: Counter((m.qid, m.oid) for m in matches)
        for t, matches in sink.by_interval.items()
        if t > warm_boundary
    }
    return {
        "batched": batched,
        "ingest_seconds": ingest_seconds,
        "wall_seconds": wall_seconds,
        "result_count": sum(sum(c.values()) for c in timed.values()),
        "counters": operator.join_counters(),
        "_matches": timed,
        "_homes": dict(operator.world.home._home),
    }


def bench_workload(args, workload, scale, warmup, intervals, repeats,
                   verbose=True) -> dict:
    """Best-of-``repeats`` comparison of the two modes on one workload."""
    best = {}
    matches = {}
    homes = {}
    for batched in (False, True):
        for _ in range(max(1, repeats)):
            run = run_mode(args, workload, batched, scale, warmup, intervals)
            if (batched not in best
                    or run["ingest_seconds"] < best[batched]["ingest_seconds"]):
                best[batched] = run
            if batched not in matches:
                matches[batched] = run["_matches"]
                homes[batched] = run["_homes"]
    matches_agree = matches[False] == matches[True]
    homes_agree = homes[False] == homes[True]
    scalar, batched_run = best[False], best[True]
    speedup = (
        scalar["ingest_seconds"] / batched_run["ingest_seconds"]
        if batched_run["ingest_seconds"] > 0
        else None
    )
    counters = batched_run["counters"]
    if verbose:
        print(f"  {workload['name']}: scalar {scalar['ingest_seconds']:.3f}s  "
              f"batched {batched_run['ingest_seconds']:.3f}s  "
              + (f"speedup {speedup:.2f}x  " if speedup else "")
              + f"batched rows {counters.get('fast_path_batched', 0)}  "
              + f"refreshes deduped {counters.get('grid_refresh_deduped', 0)}"
              + ("" if matches_agree else "  MULTISETS DISAGREE")
              + ("" if homes_agree else "  ASSIGNMENTS DISAGREE"))
    for run in (scalar, batched_run):
        del run["_matches"], run["_homes"]
    return {
        "workload": workload["name"],
        "description": workload["description"],
        "stopped_fraction": workload["stopped_fraction"],
        "scalar": scalar,
        "batched": batched_run,
        "ingest_speedup": speedup,
        "matches_agree": matches_agree,
        "assignments_agree": homes_agree,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=4000)
    parser.add_argument("--queries", type=int, default=4000)
    parser.add_argument("--skew", type=int, default=50,
                        help="entities per convoy")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--city", type=int, default=11,
                        help="lattice size of the city (NxN nodes)")
    parser.add_argument("--grid", type=int, default=100,
                        help="spatial grid size (NxN cells)")
    parser.add_argument("--query-range", type=float, default=60.0)
    parser.add_argument("--warmup", type=int, default=2,
                        help="warm-up intervals (untimed)")
    parser.add_argument("--intervals", type=int, default=10,
                        help="timed steady-state intervals")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per mode (ingest time is best-of)")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="parked-convoys ingest-speedup gate (full runs)")
    parser.add_argument("--out", metavar="FILE", default="BENCH_ingest.json",
                        help="write JSON results here")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny smoke sweep (CI): ~300 entities, "
                             "equivalence gates only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        scale, warmup, intervals, repeats = 0.0375, 1, 3, 1
    else:
        scale, warmup = 1.0, args.warmup
        intervals, repeats = args.intervals, args.repeats
    print(f"batched ingest bench: "
          f"{int(args.objects * scale)} objects + "
          f"{int(args.queries * scale)} queries, skew {args.skew}, "
          f"{warmup} warm-up + {intervals} timed intervals, "
          f"best of {max(1, repeats)}")
    results = [
        bench_workload(args, workload, scale, warmup, intervals, repeats)
        for workload in WORKLOADS
    ]
    matches_agree = all(r["matches_agree"] for r in results)
    assignments_agree = all(r["assignments_agree"] for r in results)
    parked = next(r for r in results if r["workload"] == "parked-convoys")
    gates = {
        "matches_agree": matches_agree,
        "assignments_agree": assignments_agree,
    }
    failed = not (matches_agree and assignments_agree)
    if not matches_agree:
        print("ERROR: batched-ingest answers diverge from the scalar loop")
    if not assignments_agree:
        print("ERROR: batched-ingest cluster assignments diverge")
    if not args.dry_run:
        speedup_ok = (
            parked["ingest_speedup"] is not None
            and parked["ingest_speedup"] >= args.min_speedup
        )
        gates["parked_speedup_ok"] = speedup_ok
        gates["min_speedup"] = args.min_speedup
        if not speedup_ok:
            print(f"ERROR: parked-convoys ingest speedup "
                  f"{parked['ingest_speedup']} below gate {args.min_speedup}x")
            failed = True
    report = {
        "workload": {
            "num_objects": int(args.objects * scale),
            "num_queries": int(args.queries * scale),
            "skew": args.skew,
            "seed": args.seed,
            "city": [args.city, args.city],
            "grid_size": args.grid,
            "query_range": args.query_range,
            "delta": DELTA,
            "warmup_intervals": warmup,
            "timed_intervals": intervals,
            "repeats": max(1, repeats),
            "dry_run": args.dry_run,
        },
        "runs": results,
        "gates": gates,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"results written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
