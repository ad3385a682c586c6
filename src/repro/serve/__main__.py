"""Service-mode command line: ``python -m repro.serve``.

Runs the evaluation engines as a long-lived service — ticks in through
an async source, answers out as a JSON-line event stream:

    python -m repro.serve                          # generator source
    python -m repro.serve --source socket --port 0 # TCP line-protocol ingest
    python -m repro.serve --source trace --trace run.jsonl
    python -m repro.serve --checkpoint-every 5 --checkpoint snap.pkl
    python -m repro.serve --resume snap.pkl        # continue mid-stream
    python -m repro.serve --shards 4 --executor process --queue-depth 16

All the batch simulator's workload and operator flags apply unchanged
(same parser underneath); ``--intervals`` becomes the service's stopping
bound (0 = serve until the source ends).  The first stdout line is a
``{"event": "started", ...}`` record — with a socket source it carries
the bound ingest port, which is how clients and tests find an
ephemeral-port service.
"""

from __future__ import annotations

import argparse
import pickle
import sys

from ..__main__ import build_parser, make_operator, make_shard_factory
from ..generator import GeneratorConfig
from ..streams import EngineConfig, StreamEngine
from .backpressure import OVERLOAD_POLICIES, BackpressureConfig
from .checkpoint import SnapshotError, load_snapshot
from .service import EvaluationService, QueuedTickSource, ServeConfig
from .sinks import IntervalBufferSink, JsonlEmitter, SocketEmitter
from .sources import build_source, generator_spec


def build_serve_parser() -> argparse.ArgumentParser:
    """The batch parser plus the service-mode flags."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve continuous spatio-temporal queries over a live "
        "update stream.",
        parents=[build_parser()],
        add_help=False,
    )
    group = parser.add_argument_group("service")
    group.add_argument("--source", choices=["generator", "trace", "socket"],
                       default="generator",
                       help="where ticks come from (default: in-process "
                            "workload generator)")
    group.add_argument("--trace", metavar="PATH",
                       help="trace file for --source trace")
    group.add_argument("--host", default="127.0.0.1",
                       help="listen address for --source socket")
    group.add_argument("--port", type=int, default=0,
                       help="listen port for --source socket (0 = ephemeral; "
                            "the started event reports the bound port)")
    group.add_argument("--queue-depth", type=int, default=64,
                       help="bounded ingest queue capacity, in ticks")
    group.add_argument("--overload-policy", choices=list(OVERLOAD_POLICIES),
                       default="block",
                       help="reaction to a full ingest queue: block the "
                            "producer (exact answers), shed (escalate the "
                            "shedding ladder), or drop whole ticks")
    group.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="INTERVALS",
                       help="write a snapshot every N intervals (0 = off)")
    group.add_argument("--checkpoint", metavar="PATH",
                       help="snapshot file path (atomic overwrite)")
    group.add_argument("--resume", metavar="PATH",
                       help="restore engine + source cursor from a snapshot "
                            "and continue mid-stream (--intervals counts the "
                            "whole logical run: completed intervals carry "
                            "over, so resuming a 3-interval run with "
                            "--intervals 6 evaluates 3 more)")
    group.add_argument("--emit", choices=["stdout", "none"], default="stdout",
                       help="primary result channel (JSONL events)")
    group.add_argument("--emit-matches", action="store_true",
                       help="include individual matches in results events, "
                            "not just counts")
    group.add_argument("--emit-port", type=int, default=None, metavar="PORT",
                       help="also broadcast the event stream on a TCP port "
                            "(0 = ephemeral)")
    return parser


def _build_fresh(args, bridge, sink):
    """Engine + manifest + source for a from-scratch service start."""
    engine_config = EngineConfig(delta=args.delta, tick=1.0)
    if args.source == "generator":
        spec = generator_spec(
            city_rows=args.city,
            city_cols=args.city,
            generator_config=GeneratorConfig(
                num_objects=args.objects,
                num_queries=args.queries,
                skew=args.skew,
                seed=args.seed,
                query_range=(args.query_range, args.query_range),
                update_fraction=args.update_fraction,
                stopped_fraction=args.stopped_fraction,
                hotspot=args.hotspot,
            ),
        )
    elif args.source == "trace":
        if not args.trace:
            raise SystemExit("--source trace requires --trace PATH")
        spec = {"kind": "trace", "path": args.trace}
    else:
        spec = {"kind": "socket", "host": args.host, "port": args.port}
    source = build_source(spec)
    engine, manifest = _build_engine(args, bridge, sink, engine_config)
    return engine, manifest, source, engine_config


def _build_engine(args, bridge, sink, engine_config):
    sharded = args.shards > 1 or args.executor == "process"
    if sharded:
        from ..parallel import ShardedEngine

        factory = make_shard_factory(args)
        engine = ShardedEngine(
            bridge,
            factory,
            shards=args.shards,
            sink=sink,
            config=engine_config,
            executor=args.executor,
            adaptive=args.adaptive_sharding,
            reshard_interval=args.reshard_interval,
        )
        manifest = {
            "kind": "sharded",
            "engine_config": engine_config,
            "plan": engine.plan,
            "factory": pickle.dumps(factory),
            "executor": args.executor,
            "adaptive": args.adaptive_sharding,
            "reshard_interval": args.reshard_interval,
        }
    else:
        engine = StreamEngine(bridge, make_operator(args), sink, engine_config)
        manifest = {"kind": "serial", "engine_config": engine_config}
    return engine, manifest


def _build_resumed(args, sink):
    """Engine + source continuing from a snapshot — the restart path.

    Everything structural comes from the snapshot (engine kind, shard
    plan, clocking, source recipe); the command line only supplies things
    a restart may legitimately change, like the socket listen address.
    """
    try:
        envelope = load_snapshot(args.resume)
    except SnapshotError as exc:
        raise SystemExit(f"--resume: {exc}") from None
    manifest = envelope["engine"]
    engine_config = manifest["engine_config"]
    cursor = envelope["cursor"]
    bridge = QueuedTickSource(ticks_consumed=cursor)
    if manifest["kind"] == "sharded":
        from ..parallel import ShardedEngine

        engine = ShardedEngine(
            bridge,
            pickle.loads(manifest["factory"]),
            shards=manifest["plan"],
            sink=sink,
            config=engine_config,
            executor=manifest["executor"],
            adaptive=manifest.get("adaptive", False),
            reshard_interval=manifest.get("reshard_interval", 4),
        )
    else:
        operator = pickle.loads(envelope["engine_state"]["operator"])
        engine = StreamEngine(bridge, operator, sink, engine_config)
    engine.restore_state(envelope["engine_state"])
    spec = envelope["source_spec"]
    overrides = {}
    if spec.get("kind") == "socket":
        overrides = {"host": args.host, "port": args.port}
    source = build_source(spec, skip_ticks=cursor, **overrides)
    return engine, manifest, source, engine_config, bridge, envelope["serve"]


def main(argv=None) -> int:
    """Entry point: build the service from flags (or a snapshot) and run."""
    args = build_serve_parser().parse_args(argv)
    if args.record or args.replay:
        raise SystemExit(
            "--record/--replay are batch-mode flags; use --source trace "
            "--trace PATH to serve from a recorded trace"
        )
    if args.checkpoint_every and not args.checkpoint:
        raise SystemExit("--checkpoint-every requires --checkpoint PATH")
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")

    sink = IntervalBufferSink()
    serve_state = None
    if args.resume:
        (engine, manifest, source, engine_config, bridge, serve_state) = (
            _build_resumed(args, sink)
        )
    else:
        bridge = QueuedTickSource()
        engine, manifest, source, engine_config = _build_fresh(
            args, bridge, sink
        )

    emitters = []
    if args.emit == "stdout":
        emitters.append(JsonlEmitter())
    if args.emit_port is not None:
        emitters.append(SocketEmitter(port=args.emit_port))

    config = ServeConfig(
        engine=engine_config,
        backpressure=BackpressureConfig(
            queue_depth=args.queue_depth, policy=args.overload_policy
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        max_intervals=args.intervals,
        emit_matches=args.emit_matches,
    )
    service = EvaluationService(
        engine,
        bridge,
        source,
        sink,
        emitters=emitters,
        config=config,
        engine_manifest=manifest,
        resume_serve_state=serve_state,
    )
    try:
        service.run_forever()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
