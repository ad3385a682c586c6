"""Golden pin of the default ``ScubaConfig()`` join path.

The literals below were recorded at commit 7db43d6 — the last one that
still carried the per-pair and incremental drivers, columnar storage and
the stdlib sweep, each proven equivalent to this path by its own suite —
and must hold unchanged on every later commit: per-interval match counts,
a digest of the sorted ``(qid, oid, t)`` multiset and the logical join
counters, with and without load shedding.  A diff here means the surviving
path's observable behaviour moved, not that a test needs re-recording.
"""

import hashlib

import pytest

from repro.core import Scuba, ScubaConfig
from repro.generator import GeneratorConfig, NetworkBasedGenerator
from repro.network import grid_city
from repro.shedding import policy_for_eta
from repro.streams import CollectingSink, EngineConfig, StreamEngine

INTERVALS = 6

COUNTERS = (
    "between_tests",
    "between_hits",
    "within_tests",
    "view_cache_hits",
    "view_cache_misses",
    "between_cache_hits",
    "between_cache_misses",
)


def measure(seed, eta):
    config = ScubaConfig(delta=2.0)
    if eta is not None:
        config.shedding = policy_for_eta(eta, config.theta_d)
    operator = Scuba(config)
    generator = NetworkBasedGenerator(
        grid_city(rows=7, cols=7),
        GeneratorConfig(
            num_objects=600,
            num_queries=600,
            skew=15,
            seed=seed,
            query_range=(400.0, 400.0),
            # Parked groups keep their cluster versions, so the view and
            # between caches hit as well as miss.
            stopped_fraction=0.4,
        ),
    )
    sink = CollectingSink()
    StreamEngine(generator, operator, sink, EngineConfig(delta=2.0)).run(INTERVALS)
    digest = hashlib.sha256()
    counts = []
    for t in sorted(sink.by_interval):
        rows = sorted((m.qid, m.oid, m.t) for m in sink.by_interval[t])
        counts.append(len(rows))
        digest.update(repr(rows).encode())
    return {
        "counts": counts,
        "digest": digest.hexdigest(),
        **{name: getattr(operator, name) for name in COUNTERS},
    }


#: ``(seed, eta)`` -> what :func:`measure` returned at the recording commit.
GOLDEN = {
    (7, None): {
        "counts": [1431, 1499, 1769, 1955, 1742, 1495],
        "digest": "8db462fe3d141cb8b9a6aa6e378c33a304541c0e7797627c0ae817ddd961aff9",
        "between_tests": 523,
        "between_hits": 350,
        "within_tests": 14294,
        "view_cache_hits": 486,
        "view_cache_misses": 217,
        "between_cache_hits": 44,
        "between_cache_misses": 479,
    },
    (7, 0.5): {
        "counts": [2034, 2057, 2155, 2325, 2296, 2024],
        "digest": "9bc5f5a2727b01906bc4710c5ec11619455a685f1af8e2a214a38174ac8d6505",
        "between_tests": 534,
        "between_hits": 361,
        "within_tests": 4328,
        "view_cache_hits": 389,
        "view_cache_misses": 337,
        "between_cache_hits": 0,
        "between_cache_misses": 534,
    },
    (13, None): {
        "counts": [1127, 1134, 1067, 1055, 1294, 1449],
        "digest": "6556c89418714be7c6146937aa0686bdffd7b1d61f711da341e1a6dcce74c0e1",
        "between_tests": 398,
        "between_hits": 244,
        "within_tests": 9746,
        "view_cache_hits": 334,
        "view_cache_misses": 169,
        "between_cache_hits": 12,
        "between_cache_misses": 386,
    },
    (13, 0.5): {
        "counts": [1541, 1520, 1439, 1441, 1635, 1735],
        "digest": "8569b8a95c97eff863d646539e4702d466325e0b1f6a363679165b1ad5775742",
        "between_tests": 423,
        "between_hits": 263,
        "within_tests": 3027,
        "view_cache_hits": 312,
        "view_cache_misses": 229,
        "between_cache_hits": 0,
        "between_cache_misses": 423,
    },
}


@pytest.mark.parametrize("seed,eta", list(GOLDEN))
def test_default_path_is_bit_identical_to_the_recording(seed, eta):
    assert measure(seed, eta) == GOLDEN[(seed, eta)]
