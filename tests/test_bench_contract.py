"""What the committed benchmark (``bench/``) reads from the program.

``bench/`` is frozen between benchmark changes, so an attribute or a
summary format it depends on must not move under it unnoticed.  These
tests drive the benchmark's own code on a tiny input: renaming something
it reads fails here, not in the benchmark run.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import Scuba, ScubaConfig
from repro.streams import CountingSink, EngineConfig, StreamEngine

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: Top-level module names ``bench/`` imports itself under.
BENCH_MODULES = ("batch", "serve", "workloads", "reference", "tracing", "yardstick")


@pytest.fixture
def bench(monkeypatch):
    """``bench/`` importable for one test; its modules forgotten after."""
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    import batch
    import serve
    import tracing
    import workloads

    yield batch, serve, tracing, workloads
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_traced_batch_round_reads_the_operator_counters(bench):
    batch, _serve, tracing, workloads = bench
    workload = replace(workloads.WORKLOADS["lone_movers"].smoke(), round_intervals=2)
    result = batch.run_round(workload, seed=42, recorder=tracing.SpanRecorder())
    assert result.failed == 0
    assert result.mismatches == []
    assert len(result.counts) == 2
    # The counters a traced round differences, the grid's included.
    assert "grid_refresh_skips" in result.layers
    assert result.layers["processed"] > 0


def test_serve_parses_the_engine_summary(bench):
    _batch, serve, _tracing, _workloads = bench
    from repro.generator import GeneratorConfig, NetworkBasedGenerator
    from repro.network import grid_city

    generator = NetworkBasedGenerator(
        grid_city(5, 5), GeneratorConfig(num_objects=40, num_queries=40, seed=3)
    )
    engine = StreamEngine(
        generator, Scuba(ScubaConfig()), CountingSink(), EngineConfig(delta=2.0)
    )
    engine.run(2)
    match = serve._ENGINE_SECONDS.search(engine.stats.summary())
    assert match is not None
    assert all(float(group) >= 0.0 for group in match.groups())
