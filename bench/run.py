"""The repo's benchmark: one command, four workloads, answers checked.

Two ways in:

``python bench/run.py [--seed N] [--workload NAME] [--repeat K] [--smoke]``
    The report.  Each workload runs in fresh child processes — ``K``
    untraced runs for the end-to-end metrics, one traced run for the
    per-layer metrics — and the parent prints every metric by name with its
    unit, cross-checks the two kinds of run, and writes one results JSON
    under ``bench/out/``.

``python bench/run.py --workload NAME --seed N --seconds S --trace {0,1}``
    One run in this process: the form ``BENCHMARK.json`` names.  The last
    line of stdout is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (end-to-end metrics for ``--trace 0``,
    per-layer metrics for ``--trace 1``).

``--seed`` reaches the workload generators and nothing else; the engine
sees only generated inputs.  Metric names, units and bounds live in
``BENCHMARK.json``; this file computes a value for each name.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"

if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import batch  # noqa: E402
import serve  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload, round_seed  # noqa: E402

with open(REPO / "BENCHMARK.json") as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: A round (set-up, warm-up, timed intervals) is sized for a little under
#: this on the reference box; see ``round_intervals`` in workloads.py.
ROUND_NOMINAL_S = 10.0
#: Traced-run extras, shortened to fit the run cap (ISSUE asked for 30).
SHARDED_PASS_INTERVALS = 20
DRAIN_TICKS = 100


# -- one run -----------------------------------------------------------------


def _run_round(workload: Workload, seed: int, recorder=None) -> batch.Round:
    # The previous round's engine is cyclic garbage; left to the
    # collector's own schedule it makes later rounds of a run slower.
    gc.collect()
    run = serve.run_round if workload.is_serve else batch.run_round
    return run(workload, seed, recorder)


def _mismatches(workload: Workload, rounds: List[batch.Round]) -> int:
    """Print the rounds' reference mismatches; returns how many."""
    for index, rnd in enumerate(rounds):
        for line in rnd.mismatches:
            print(f"MISMATCH {workload.name} round {index} {line}")
    return sum(len(rnd.mismatches) for rnd in rounds)


def _over_limit(workload: Workload, rounds: List[batch.Round]) -> int:
    """Serve only: intervals that missed the lag limit of one interval
    period, if the run as a whole missed it.

    The limit is on the run's (raw) p90: one answer delayed by a hiccup of
    a shared box is not a failed interval, but a service that cannot hold
    p90 under the limit has failed every interval that came in over it.
    """
    if not workload.is_serve:
        return 0
    limit_ms = workload.interval_period_s * 1e3
    if _lag_ms(rounds, 90, scaled=False) <= limit_ms:
        return 0
    return sum(lag * 1e3 > limit_ms for rnd in rounds for lag in rnd.lags_s)


def _lag_ms(rounds: List[batch.Round], percentile: float, scaled: bool = True) -> float:
    """Percentile of the rounds' pooled answer lags, in reference-box
    milliseconds unless ``scaled`` is off."""
    lags = [
        lag * (rnd.speed if scaled else 1.0) for rnd in rounds for lag in rnd.lags_s
    ]
    return float(np.percentile(lags, percentile)) * 1e3 if lags else 0.0


def _end_to_end(
    workload: Workload, rounds: List[batch.Round], scaled: bool = True
) -> Dict[str, float]:
    """The time metrics of a run, in reference-box or (``scaled`` off) raw
    seconds.

    ``setup_s`` is never scaled: it is a second or less, two yardstick
    readings around it say too little about the box, and on ten runs the
    scaled value spread wider than the raw one.  Nor is the service's
    wall, which is the feed's schedule.  Its lags are service time and
    are scaled.
    """
    closed_loop = scaled and not workload.is_serve
    rates = [
        r.updates / (r.wall_s * (r.speed if closed_loop else 1.0))
        for r in rounds
        if r.wall_s > 0
    ]
    return {
        "setup_s": float(np.median([r.setup_s for r in rounds])),
        "updates_per_s": float(np.median(rates or [0.0])),
        "answer_lag_p50_ms": _lag_ms(rounds, 50, scaled),
        "answer_lag_p90_ms": _lag_ms(rounds, 90, scaled),
    }


def _timed_run(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced rounds: one per :data:`ROUND_NOMINAL_S` of ``seconds``.

    The count follows from ``--seconds`` alone, not from how fast the box
    happens to be: peak RSS grows with the number of engines a process has
    built (by up to 5 MB from the first round to the third on
    ``wide_windows``), so a count that flips with machine speed moves it.
    The clock only cuts a run short on a box so slow that the planned
    rounds would take twice ``seconds``.
    """
    run_start = perf_counter()
    rounds: List[batch.Round] = []
    for index in range(max(1, round(seconds / ROUND_NOMINAL_S))):
        rounds.append(_run_round(workload, round_seed(seed, index)))
        if perf_counter() - run_start + rounds[-1].duration_s > 2.0 * seconds:
            break
    if workload.is_serve:
        peak_rss_mb = max(r.layers["peak_rss_mb"] for r in rounds)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mismatches = _mismatches(workload, rounds)
    over_limit = _over_limit(workload, rounds)
    metrics = {**_end_to_end(workload, rounds), "peak_rss_mb": peak_rss_mb}
    detail = {
        "rounds": len(rounds),
        "raw": _end_to_end(workload, rounds, scaled=False),
        "yardstick_ms": [r.yard_s * 1e3 for r in rounds],
        "lag_samples": sum(len(r.lags_s) for r in rounds),
        "counts": [r.counts for r in rounds],
        "mismatches": mismatches,
        "no_answer": sum(r.failed for r in rounds),
        "over_lag_limit": over_limit,
    }
    if workload.is_serve:
        detail["loadgen.late_share"] = float(
            np.mean([r.layers["late_share"] for r in rounds])
        )
        detail["loadgen.max_late_ms"] = max(r.layers["max_late_ms"] for r in rounds)
    return {
        "correct": mismatches == 0,
        "attempted": len(rounds) * workload.round_intervals,
        "failed": mismatches + over_limit + sum(r.failed for r in rounds),
        "metrics": metrics,
        "detail": detail,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(read: Dict[str, float], cache: str) -> float:
    hits = read.get(f"{cache}_hits", 0)
    return _ratio(hits, hits + read.get(f"{cache}_misses", 0))


def _batch_layers(untraced: batch.Round, traced: batch.Round, recorder: SpanRecorder):
    totals = recorder.totals()

    def busy(name: str) -> float:
        return totals[name].busy_s * traced.speed if name in totals else 0.0

    wall = busy("interval")
    self_s = totals["interval"].self_s * traced.speed
    read = traced.layers
    matches = sum(traced.counts)
    return {
        "generator.tick_s": busy("generator.tick"),
        "generator.us_per_update": _ratio(busy("generator.tick"), traced.updates) * 1e6,
        "ingest.busy_s": busy("ingest"),
        "ingest.share": _ratio(busy("ingest"), wall),
        "ingest.us_per_update": _ratio(busy("ingest"), traced.updates) * 1e6,
        "ingest.calls": totals["ingest"].calls,
        "clustering.stay_ratio": _ratio(read["fast_path_hits"], read["processed"]),
        "clustering.clusters": read["clusters"],
        "clustering.members_per_cluster": _ratio(read["members"], read["clusters"]),
        "index.grid_refresh_skips": read["grid_refresh_skips"],
        "join.busy_s": busy("join"),
        "join.share": _ratio(busy("join"), wall),
        "join.us_per_match": _ratio(busy("join"), matches) * 1e6,
        "join.between_tests": read["between_tests"],
        "join.between_pass_ratio": _ratio(read["between_hits"], read["between_tests"]),
        "join.within_tests": read["within_tests"],
        "join.within_hit_ratio": _ratio(matches, read["within_tests"]),
        "join.view_cache_hit_ratio": _hit_ratio(read, "view_cache"),
        "join.between_cache_hit_ratio": _hit_ratio(read, "between_cache"),
        "shed.busy_s": busy("shed"),
        "maintenance.busy_s": busy("post_join_maintenance"),
        "maintenance.share": _ratio(busy("post_join_maintenance"), wall),
        "maintenance.evicted_stale": read["evicted_stale"],
        "emit.busy_s": busy("sink.accept"),
        "emit.matches": matches,
        "pipeline.self_s": self_s,
        "pipeline.self_share": _ratio(self_s, wall),
        "trace.overhead_share": _ratio(
            traced.wall_s * traced.speed, untraced.wall_s * untraced.speed
        )
        - 1.0,
    }


def _serve_layers(workload: Workload, untraced: batch.Round, traced: batch.Round):
    """What can be said about the service from outside it.

    Engine seconds and cache counters come from the untraced round's
    ``summary`` event and cover the service's whole life, warm-up
    included; shares are of the time the schedule gave it.
    """
    read = untraced.layers
    intervals = read.get("service_intervals", 0)
    scheduled_s = intervals * workload.interval_period_s
    updates = intervals * workload.delta * workload.entities
    matches = sum(untraced.counts)
    # Raw engine seconds for the shares (the schedule is real time),
    # reference-box seconds everywhere else.
    raw = {name: read.get(f"{name}_s", 0.0) for name in ("ingest", "join", "maintenance")}
    busy = {name: seconds * untraced.speed for name, seconds in raw.items()}
    p50 = _lag_ms([untraced], 50)

    return {
        "ingest.busy_s": busy["ingest"],
        "ingest.share": _ratio(raw["ingest"], scheduled_s),
        "ingest.us_per_update": _ratio(busy["ingest"], updates) * 1e6,
        "ingest.calls": intervals * workload.delta,
        "index.grid_refresh_skips": read.get("grid_refresh_skips", 0),
        "join.busy_s": busy["join"],
        "join.share": _ratio(raw["join"], scheduled_s),
        "join.us_per_match": _ratio(busy["join"], matches) * 1e6,
        "join.view_cache_hit_ratio": _hit_ratio(read, "view_cache"),
        "join.between_cache_hit_ratio": _hit_ratio(read, "between_cache"),
        "maintenance.busy_s": busy["maintenance"],
        "maintenance.share": _ratio(raw["maintenance"], scheduled_s),
        "maintenance.evicted_stale": read.get("evicted_stale", 0),
        "emit.matches": matches,
        "serve.overhead_p50_ms": p50 - _ratio(sum(busy.values()), intervals) * 1e3,
        "serve.bp_events": read.get("bp_events", 0),
        "loadgen.late_share": read["late_share"],
        "loadgen.max_late_ms": read["max_late_ms"],
        # The traced feed differs from the untraced one by --emit-matches
        # only, and an open loop's wall is its schedule: compare lag.
        "trace.overhead_share": _ratio(_lag_ms([traced], 50), p50) - 1.0,
    }


def _traced_run(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """One untraced and one traced round over the same inputs, then the
    workload's extra passes; per-layer metrics come from the traced round."""
    first_seed = round_seed(seed, 0)
    recorder = SpanRecorder()
    untraced = _run_round(workload, first_seed)
    traced = _run_round(workload, first_seed, recorder)
    rounds = [untraced, traced]
    mismatches = _mismatches(workload, rounds)
    if untraced.counts != traced.counts:
        mismatches += 1
        print(f"MISMATCH {workload.name}: traced and untraced match counts differ")
    layers = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0.0)
    if workload.is_serve:
        layers.update(_serve_layers(workload, untraced, traced))
        layers["serve.decode_ms_per_tick"] = serve.decode_ms_per_tick(workload, first_seed)
        layers["serve.drain_ticks_per_s"] = serve.run_drain(
            workload, first_seed, DRAIN_TICKS // 4 if smoke else DRAIN_TICKS
        )
    else:
        layers.update(_batch_layers(untraced, traced, recorder))
    if workload.sharded_pass:
        layers.update(
            batch.run_sharded_pass(
                workload, first_seed, 5 if smoke else SHARDED_PASS_INTERVALS
            )
        )
    trace_path = OUT / f"trace_{workload.name}.json"
    recorder.write_chrome_trace(
        trace_path, {"workload": workload.name, "seed": seed, "smoke": smoke}
    )
    over_limit = _over_limit(workload, rounds)
    return {
        "correct": mismatches == 0,
        "attempted": 2 * workload.round_intervals,
        "failed": mismatches + over_limit + sum(r.failed for r in rounds),
        "metrics": {name: float(value) for name, value in layers.items()},
        "detail": {
            "counts": [r.counts for r in rounds],
            "mismatches": mismatches,
            "no_answer": sum(r.failed for r in rounds),
            "over_lag_limit": over_limit,
            "trace_file": str(trace_path.relative_to(REPO)),
        },
    }


def single_run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if args.trace:
        result = _traced_run(workload, args.seed, args.smoke)
    else:
        result = _timed_run(workload, args.seed, args.seconds)
    detail = result.pop("detail")
    samples = detail.get("lag_samples")
    for name, value in result["metrics"].items():
        note = f"  (n={samples})" if samples and name.startswith("answer_lag") else ""
        print(f"{name:32s} {value:14.4f} {UNITS[name]}{note}")
    print("detail " + json.dumps(detail))
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the report ---------------------------------------------------------------


def _child(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One run in a fresh process; its result line plus its detail line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].partition(" ")[2])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{name} --trace {trace} exited {done.returncode} without a result:\n"
            f"{done.stdout}{done.stderr}"
        )
    for line in lines[:-2]:
        if line.startswith(("MISMATCH", "interval", "load generator")):
            print(line)
    return result


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def report(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    workloads: Dict[str, Any] = {}
    attempted = failed = 0
    for name in names:
        workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
        print(f"== {name}: {why[name]}")
        runs = [_child(name, args, trace=0) for _ in range(args.repeat)]
        traced = _child(name, args, trace=1)
        # Same seed, same first round: the untraced run's per-interval
        # match counts must be the traced run's.
        counts_agree = all(
            run["detail"]["counts"][0] == traced["detail"]["counts"][1] for run in runs
        )
        if not counts_agree:
            print(f"MISMATCH {name}: untraced and traced runs disagree on match counts")
        for metric in SPEC["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            samples = runs[0]["detail"]["lag_samples"]
            note = f"  (n={samples})" if metric["name"].startswith("answer_lag") else ""
            print(
                f"  {metric['name']:30s} {float(np.median(values)):14.4f} "
                f"{metric['unit']}{note}"
            )
        run_attempted = sum(run["attempted"] for run in runs)
        run_failed = sum(run["failed"] for run in runs)
        print(f"  {'failed_share':30s} {run_failed / run_attempted:14.4f} share"
              f"  ({run_failed} of {run_attempted} intervals)")
        for key in ("loadgen.late_share", "loadgen.max_late_ms"):
            if key in runs[0]["detail"]:
                print(f"  {key:30s} {runs[0]['detail'][key]:14.4f} {UNITS[key]}")
        for metric in SPEC["per_layer"]:
            value = traced["metrics"][metric["name"]]["value"]
            print(f"    {metric['name']:28s} {value:14.4f} {metric['unit']}")
        attempted += run_attempted + traced["attempted"]
        failed += run_failed + traced["failed"] + (0 if counts_agree else 1)
        workloads[name] = {
            "why": why[name],
            "intervals_per_round": workload.round_intervals,
            "runs": runs,
            "traced": traced,
            "counts_agree": counts_agree,
            "failed_share": run_failed / run_attempted,
        }
    results = {
        "schema": 1,
        "meta": {
            "seed": args.seed,
            "run_seconds": args.seconds,
            "smoke": args.smoke,
            "repeat": args.repeat,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
        "workloads": workloads,
        "failed_share": failed / attempted,
        "claim": None,
    }
    suffix = "_smoke" if args.smoke else ""
    out = Path(args.out) if args.out else OUT / f"results_seed{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"results written to {out}")
    print(json.dumps({"failed_share": failed / attempted, "claim": None}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds "
                             "of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run once in this process, untraced (0) or traced "
                             "(1), and end with the result JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20-size workloads, one short round each")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report only: untraced runs per workload")
    parser.add_argument("--out", help="report only: results file "
                                      "(default bench/out/results_seed<N>[_smoke].json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(SPEC["run_seconds"])
    if args.trace is None:
        return report(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
