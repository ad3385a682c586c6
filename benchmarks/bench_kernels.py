"""Join-kernel backend comparison — what did batching buy?

Two measurement layers, one JSON report (``BENCH_kernels.json``):

**Kernel microbenchmark** — synthetic dense cluster pairs at several
member counts and shed fractions, timed directly through
``join_within_pair`` per backend (``scalar`` — the seed-faithful
reference loops, ``numpy`` — the default).  This isolates the
member-level kernels the backends differ in; the headline number is the
geometric-mean speedup of ``numpy`` over ``scalar`` across the
no-shedding cases (the paper's default η = 0 configuration).  Shedding cases are reported alongside: there the
cross-product *emission* of shed-group matches dominates and all
backends converge — batching buys little by design.

**End-to-end runs** — one seeded workload through fresh engine + operator
instances per backend, for both the SCUBA operator and the regular-grid
baseline.  At paper-shaped workloads the cell sweep (not the member
kernels) bounds the join phase, so these numbers contextualise the
microbenchmark rather than repeat it.  Every backend must produce the
identical match multiset in every cell — the bench cross-checks both
layers, so it doubles as an equivalence test at benchmark scale.

Standalone (pytest-free) so CI can smoke it directly:

    python benchmarks/bench_kernels.py --dry-run
    python benchmarks/bench_kernels.py --out BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.clustering.cluster import ClusterMember, MovingCluster  # noqa: E402
from repro.core import RegularConfig, RegularGridJoin, Scuba, ScubaConfig  # noqa: E402
from repro.core.joins import ClusterJoinView, join_within_pair  # noqa: E402
from repro.experiments import WorkloadSpec, bench_scale, build_workload  # noqa: E402
from repro.generator import EntityKind  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.kernels import resolve_backend  # noqa: E402
from repro.streams import CollectingSink, EngineConfig, StreamEngine  # noqa: E402

#: (members per side, shed fraction) cells of the microbenchmark.  Member
#: counts bracket dense-traffic cluster sizes; geometry matches the
#: paper's defaults (Θ_D = 100 spread, 50-unit query windows).
KERNEL_CASES = [
    (30, 0.0),
    (100, 0.0),
    (300, 0.0),
    (30, 0.3),
    (100, 0.3),
    (300, 0.3),
]


# -- kernel microbenchmark ----------------------------------------------------


def _make_cluster(
    cid: int, members: int, shed_fraction: float, rng: random.Random, qr: float
) -> MovingCluster:
    """A dense synthetic cluster: ``members`` objects + ``members`` queries
    spread uniformly within the Θ_D-sized footprint."""
    cluster = MovingCluster(
        cid=cid,
        centroid=Point(500.0, 500.0),
        cn_node=1,
        cn_loc=Point(1000.0, 1000.0),
        now=0.0,
    )
    for i in range(members):
        member = ClusterMember(
            i,
            EntityKind.OBJECT,
            500.0 + rng.uniform(-90.0, 90.0),
            500.0 + rng.uniform(-90.0, 90.0),
            0.0,
            0.0,
            5.0,
            0.0,
            cn_node=1,
            cn_x=1000.0,
            cn_y=1000.0,
        )
        if rng.random() < shed_fraction:
            member.position_shed = True
            cluster.shed_count += 1
        cluster.objects[i] = member
    for i in range(members):
        member = ClusterMember(
            10_000 + i,
            EntityKind.QUERY,
            500.0 + rng.uniform(-90.0, 90.0),
            500.0 + rng.uniform(-90.0, 90.0),
            0.0,
            0.0,
            5.0,
            0.0,
            range_width=qr,
            range_height=qr,
            cn_node=1,
            cn_x=1000.0,
            cn_y=1000.0,
        )
        if rng.random() < shed_fraction:
            member.position_shed = True
            cluster.shed_count += 1
        cluster.queries[10_000 + i] = member
    cluster.radius = 130.0
    cluster.nucleus_radius = 30.0
    return cluster


def kernel_microbench(
    backends, cases, seed: int, rep_budget: int, qr: float = 50.0, verbose=True
) -> list:
    """Time ``join_within_pair`` per backend on synthetic cluster pairs.

    Views are rebuilt per backend so each pays its own derivation cost
    (sorted columns, ndarray mirrors) exactly as a cache-miss evaluation
    would; repeats then amortise it exactly as cache hits do.
    """
    results = []
    for members, shed_fraction in cases:
        rng = random.Random(seed)
        left = _make_cluster(1, members, shed_fraction, rng, qr)
        right = _make_cluster(2, members, shed_fraction, rng, qr)
        reps = max(2, rep_budget // members)
        timings = {}
        multisets = {}
        for backend_name in backends:
            backend = resolve_backend(backend_name)
            view_l, view_r = ClusterJoinView(left), ClusterJoinView(right)
            out = []
            started = time.perf_counter()
            for _ in range(reps):
                out.clear()
                join_within_pair(view_l, view_r, 0.0, out, backend)
            timings[backend_name] = (time.perf_counter() - started) / reps
            multisets[backend_name] = Counter(out)
        reference = multisets[backends[0]]
        agree = all(m == reference for m in multisets.values())
        scalar_seconds = timings.get("scalar")
        case = {
            "members_per_side": members,
            "shed_fraction": shed_fraction,
            "match_count": sum(reference.values()),
            "reps": reps,
            "seconds": timings,
            "speedup_vs_scalar": {
                name: (scalar_seconds / seconds if scalar_seconds else None)
                for name, seconds in timings.items()
            },
            "matches_agree": agree,
        }
        results.append(case)
        if verbose:
            speedups = "  ".join(
                f"{name} {case['speedup_vs_scalar'][name]:5.2f}x"
                for name in backends
                if name != "scalar"
            )
            print(
                f"  kernel n={members:<4d} shed={shed_fraction:.1f}  "
                f"scalar {timings['scalar'] * 1e6:8.0f}us  {speedups}  "
                f"matches {case['match_count']}"
                + ("" if agree else "  MULTISETS DISAGREE")
            )
    return results


def _geomean(values) -> float | None:
    values = [v for v in values if v]
    if not values:
        return None
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


# -- end-to-end runs ----------------------------------------------------------


def make_operator(operator: str, backend: str, delta: float):
    if operator == "regular":
        return RegularGridJoin(RegularConfig(kernel_backend=backend))
    return Scuba(ScubaConfig(delta=delta, kernel_backend=backend))


def run_backend(
    spec: WorkloadSpec,
    operator: str,
    backend: str,
    intervals: int,
    delta: float,
    repeats: int,
) -> dict:
    """Best-of-``repeats`` run of one (operator, backend) cell.

    Every repeat rebuilds the workload from the seed, so all cells see the
    identical stream; join time is the minimum across repeats (the usual
    noise-robust choice), matches are cross-checked from the first repeat.
    """
    best_join = None
    match_multiset = None
    stats_dict = None
    for _ in range(max(1, repeats)):
        _network, generator = build_workload(spec)
        op = make_operator(operator, backend, delta)
        sink = CollectingSink()
        engine = StreamEngine(generator, op, sink, EngineConfig(delta=delta, tick=1.0))
        stats = engine.run(intervals)
        join = stats.total_join_seconds
        if best_join is None or join < best_join:
            best_join = join
            stats_dict = stats.to_dict()
        if match_multiset is None:
            match_multiset = Counter((m.qid, m.oid, m.t) for m in sink.all_matches)
    return {
        "operator": operator,
        "backend": backend,
        "join_seconds": best_join,
        "ingest_seconds": stats_dict["totals"]["ingest_seconds"],
        "maintenance_seconds": stats_dict["totals"]["maintenance_seconds"],
        "result_count": stats_dict["totals"]["result_count"],
        "counters": stats_dict["counters"],
        "_matches": match_multiset,
    }


def end_to_end_sweep(
    spec: WorkloadSpec,
    operators,
    backends,
    intervals: int,
    delta: float,
    repeats: int,
    verbose: bool = True,
):
    runs = []
    matches_agree = True
    for operator in operators:
        reference = None
        scalar_join = None
        for backend in backends:
            data = run_backend(spec, operator, backend, intervals, delta, repeats)
            if reference is None:
                reference = data["_matches"]
            elif data["_matches"] != reference:
                matches_agree = False
                print(
                    f"ERROR: {operator}/{backend} match multiset differs "
                    f"from {operator}/{backends[0]}"
                )
            if backend == "scalar":
                scalar_join = data["join_seconds"]
            data["speedup_vs_scalar"] = (
                scalar_join / data["join_seconds"]
                if scalar_join and data["join_seconds"] > 0
                else None
            )
            del data["_matches"]
            runs.append(data)
            if verbose:
                speedup = data["speedup_vs_scalar"]
                print(
                    f"  e2e {operator:<8s} {backend:<8s} "
                    f"join {data['join_seconds']:7.3f}s  "
                    f"results {data['result_count']:>7d}  "
                    + (f"speedup {speedup:5.2f}x" if speedup else "(reference)")
                )
    return runs, matches_agree


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="population scale (default: SCUBA_BENCH_SCALE or 0.1)")
    parser.add_argument("--intervals", type=int, default=4,
                        help="Δ intervals per end-to-end configuration")
    parser.add_argument("--delta", type=float, default=2.0)
    parser.add_argument("--skew", type=int, default=100,
                        help="entities per convoy")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="end-to-end repeats per cell (join time is best-of)")
    parser.add_argument("--rep-budget", type=int, default=60_000,
                        help="microbenchmark repetition budget (reps = budget/n)")
    parser.add_argument("--operators", nargs="+", default=["scuba", "regular"],
                        choices=["scuba", "regular"])
    parser.add_argument("--out", metavar="FILE", default="BENCH_kernels.json",
                        help="write JSON results here")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny smoke sweep (CI): ~200 entities, minimal reps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        spec = WorkloadSpec(
            seed=args.seed, skew=10, query_range=(600.0, 600.0)
        ).scaled(0.02)
        intervals, repeats, rep_budget = 2, 1, 600
        kernel_cases = [(30, 0.0), (30, 0.3)]
    else:
        scale = args.scale if args.scale is not None else bench_scale()
        if scale <= 0:
            raise SystemExit(f"--scale must be positive, got {scale}")
        spec = WorkloadSpec(seed=args.seed, skew=args.skew).scaled(scale)
        intervals, repeats = args.intervals, args.repeats
        rep_budget, kernel_cases = args.rep_budget, KERNEL_CASES
    backends = ["scalar", "numpy"]  # reference first
    print(f"kernel backends: {backends}")
    print("kernel microbenchmark (dense synthetic cluster pairs):")
    kernel_results = kernel_microbench(backends, kernel_cases, args.seed, rep_budget)
    kernel_agree = all(case["matches_agree"] for case in kernel_results)
    numpy_headline = _geomean(
        case["speedup_vs_scalar"].get("numpy")
        for case in kernel_results
        if case["shed_fraction"] == 0.0
    )
    print(
        f"end-to-end: {spec.num_objects} objects + {spec.num_queries} queries, "
        f"{intervals} intervals, best of {repeats}"
    )
    e2e_runs, e2e_agree = end_to_end_sweep(
        spec, args.operators, backends, intervals, args.delta, repeats
    )
    matches_agree = kernel_agree and e2e_agree
    if numpy_headline is not None:
        print(f"kernel speedup (no shedding, geomean), numpy vs scalar: "
              f"{numpy_headline:.2f}x")
    results = {
        "workload": {
            "num_objects": spec.num_objects,
            "num_queries": spec.num_queries,
            "skew": spec.skew,
            "seed": spec.seed,
            "city": [spec.city_rows, spec.city_cols],
            "intervals": intervals,
            "delta": args.delta,
            "repeats": repeats,
        },
        "backends": backends,
        "kernel_cases": kernel_results,
        "kernel_speedup_numpy_vs_scalar": numpy_headline,
        "end_to_end_runs": e2e_runs,
        "matches_agree": matches_agree,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=2))
        print(f"results written to {args.out}")
    return 0 if matches_agree else 1


if __name__ == "__main__":
    sys.exit(main())
