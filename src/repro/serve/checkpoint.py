"""Versioned service snapshots: checkpoint files and state digests.

A snapshot is one pickle file holding everything a dead worker needs to
continue mid-stream: the engine state (operator/cluster/grid/shedder
state, per shard when sharded), the pipeline clock and run accounting,
the source rebuild recipe plus its tick cursor, and the service's own
backpressure counters.  The payload is wrapped in a versioned envelope —
``{"format": "scuba-snapshot", "version": 2, ...}`` — so a reader can
reject foreign or future files instead of unpickling garbage semantics.

Writes are atomic (temp file + ``os.replace``): a crash mid-checkpoint
leaves the previous snapshot intact, never a torn file.

:func:`state_digest` is the equivalence gate's fingerprint: a canonical
SHA-256 over an operator's cluster and table state, stable across
processes (pure sorted traversal, no set iteration, exact float reprs) —
two operators digest equal iff their resumable state is bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Union

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "state_digest",
    "engine_state_digest",
]

SNAPSHOT_FORMAT = "scuba-snapshot"
#: 2: the envelope's operators pickle object-backed clusters only and
#: ``ScubaConfig`` has no storage/join-driver fields (version 1 could
#: carry both).  3: ``ScubaConfig`` lost its batched-ingest switch and
#: the clusterer keeps one counter per row outcome.
SNAPSHOT_VERSION = 3


class SnapshotError(RuntimeError):
    """The file is not a snapshot this build can restore."""


def save_snapshot(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Atomically write ``payload`` inside a versioned envelope.

    ``payload`` must be picklable; the envelope's format/version fields
    are added here so writers cannot forget them.
    """
    path = Path(path)
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        **payload,
    }
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a snapshot envelope."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            envelope = pickle.load(fh)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        # A class the payload names no longer exists in this build.
        ImportError,
        AttributeError,
    ) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if envelope.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path} is snapshot version {envelope.get('version')}, "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    return envelope


# -- state digests ------------------------------------------------------------


def _member_record(member) -> tuple:
    return (
        member.kind.value,
        member.entity_id,
        member.abs_x,
        member.abs_y,
        member.tr_x,
        member.tr_y,
        member.speed,
        member.range_width,
        member.range_height,
        member.last_t,
        member.position_shed,
        member.cn_node,
        member.cn_x,
        member.cn_y,
    )


def _cluster_record(cluster) -> tuple:
    return (
        cluster.cid,
        cluster.cx,
        cluster.cy,
        cluster.radius,
        cluster.avespeed,
        cluster.cn_node,
        (cluster.cn_loc.x, cluster.cn_loc.y),
        cluster.exptime,
        cluster.created_at,
        cluster.trans_x,
        cluster.trans_y,
        cluster.version,
        cluster.nucleus_radius,
        cluster.shed_count,
        cluster.last_moved,
        tuple(sorted(_member_record(m) for m in cluster.members())),
        tuple(sorted((cluster.successors or {}).items())),
    )


def state_digest(operator) -> str:
    """Canonical SHA-256 fingerprint of an operator's resumable state.

    SCUBA operators digest their cluster storage and attribute tables
    through a fully sorted traversal (cross-process stable); other
    operators fall back to a pickle hash, which is stable within one
    process history but makes no cross-process promise — good enough for
    same-process resume tests, documented as such.
    """
    world = getattr(operator, "world", None)
    if world is None:
        return hashlib.sha256(pickle.dumps(operator)).hexdigest()
    clusters = tuple(
        sorted((_cluster_record(c) for c in world.storage), key=lambda r: r[0])
    )
    tables = tuple(
        tuple(sorted((eid, tuple(sorted(attrs.items()))) for eid, attrs in table))
        for table in (operator.objects_table, operator.queries_table)
    )
    canonical = (clusters, tables, world.cluster_count)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def engine_state_digest(engine) -> str:
    """Fingerprint a whole engine: the operator, or every shard's operator.

    Sharded engines digest each shard blob independently and hash the
    ordered tuple, so shard count and per-shard state are both pinned.
    """
    executor = getattr(engine, "executor", None)
    if executor is None:
        return state_digest(engine.operator)
    digests = tuple(
        state_digest(pickle.loads(blob))
        for blob in executor.snapshot_operators()
    )
    return hashlib.sha256(repr(digests).encode("utf-8")).hexdigest()
