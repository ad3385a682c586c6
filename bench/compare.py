"""Compare sets of benchmark runs: ``compare.py BASE.json OTHER.json [...]``.

Each argument is a results file written by ``bench/run.py`` — a *set* of
runs (``--repeat K`` puts K untraced runs per workload in one file).  The
first file is the base; every further file is compared with it.  For each
workload and end-to-end metric both sides are reported as median and
quartiles, the ratio is printed with its base, and the pair is judged
against the metric's bound in ``BENCHMARK.json``:

``agree``       the other side's median is no worse than the base's by
                more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side (inter-quartile
                distance over median) is wider than the bound, so the
                medians cannot settle the question.

Exit status is 1 if anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per run]}}`` of a results file."""
    with open(path) as handle:
        results = json.load(handle)
    return {
        name: {
            metric["name"]: [
                run["metrics"][metric["name"]]["value"] for run in entry["runs"]
            ]
            for metric in SPEC["end_to_end"]
        }
        for name, entry in results["workloads"].items()
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base, other, better: str, bound: float):
    """(verdict, share by which ``other`` is worse, the two spreads), from
    the two sides' :func:`quartiles`."""
    (b1, b2, b3), (o1, o2, o3) = base, other
    spreads = ((b3 - b1) / b2, (o3 - o1) / o2)
    worse_by = (o2 - b2) / b2 if better == "lower" else (b2 - o2) / b2
    if max(spreads) > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "agree"
    return verdict, worse_by, spreads


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    base_path, base = argv[0], load(argv[0])
    regressed = False
    for other_path in argv[1:]:
        other = load(other_path)
        print(f"base {base_path}  vs  {other_path}")
        for workload in base:
            if workload not in other:
                continue
            print(f"  {workload}")
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                a, b = base[workload][name], other[workload][name]
                (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
                verdict, worse_by, spreads = judge(
                    (a1, a2, a3), (b1, b2, b3), metric["better"], metric["bound"]
                )
                regressed |= verdict == "regressed"
                print(
                    f"    {name:18s} {verdict:10s} "
                    f"base {a2:.4g} [{a1:.4g}, {a3:.4g}] n={len(a)}  "
                    f"other {b2:.4g} [{b1:.4g}, {b3:.4g}] n={len(b)}  "
                    f"ratio {b2 / a2:.3f} ({b2:.4g} / {a2:.4g} {metric['unit']})  "
                    f"worse by {worse_by:+.1%} of bound {metric['bound']:.0%}  "
                    f"spread {spreads[0]:.1%} / {spreads[1]:.1%}"
                )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
