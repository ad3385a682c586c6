"""ObjectsTable and QueriesTable (paper §4.1).

The remaining two of SCUBA's five in-memory structures: registries of the
*non-spatial* attributes of moving objects (``o.attrs`` — "child", "red
car", ...) and of queries (``q.attrs`` — predicates beyond the range
window).  Spatial state lives in the moving clusters; these tables exist so
that attribute predicates and final answers can be resolved without
touching cluster internals.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

__all__ = ["EntityAttributeTable", "ObjectsTable", "QueriesTable"]


class EntityAttributeTable:
    """id → attribute-mapping registry with last-seen bookkeeping."""

    def __init__(self) -> None:
        self._attrs: Dict[int, Mapping[str, Any]] = {}
        self._last_seen: Dict[int, float] = {}

    def record(self, entity_id: int, attrs: Optional[Mapping[str, Any]], t: float) -> None:
        """Upsert an entity's attributes from an update at time ``t``."""
        if attrs:
            self._attrs[entity_id] = attrs
        elif entity_id not in self._attrs:
            self._attrs[entity_id] = {}
        self._last_seen[entity_id] = t

    def record_ids(self, entity_ids: Sequence[int], t: float) -> None:
        """Bulk :meth:`record` for one tick's attribute-less rows: same
        rows, same insertion order."""
        attrs = self._attrs
        for entity_id in entity_ids:
            if entity_id not in attrs:
                attrs[entity_id] = {}
        self._last_seen.update(dict.fromkeys(entity_ids, t))

    def attrs(self, entity_id: int) -> Mapping[str, Any]:
        return self._attrs[entity_id]

    def last_seen(self, entity_id: int) -> Optional[float]:
        return self._last_seen.get(entity_id)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        return iter(self._attrs.items())

    def evict(self, entity_id: int) -> bool:
        """Drop one entity's row (sharded hand-off); True if it existed."""
        existed = self._attrs.pop(entity_id, None) is not None
        self._last_seen.pop(entity_id, None)
        return existed

    def evict_stale(self, cutoff: float) -> int:
        """Drop entities not heard from since ``cutoff``; returns count.

        Streams have no explicit end-of-entity signal; garbage-collecting
        silent entities bounds table growth in long runs.  The common
        serve-loop case — nothing stale — is a single allocation-free
        scan; only when something actually is stale do we rebuild the
        dicts (allocation bounded by the survivors, never a full
        stale-id list).
        """
        last_seen = self._last_seen
        for t in last_seen.values():
            if t < cutoff:
                break
        else:
            return 0
        attrs = self._attrs
        survivors = {eid: t for eid, t in last_seen.items() if t >= cutoff}
        evicted = len(last_seen) - len(survivors)
        self._attrs = {eid: attrs[eid] for eid in survivors}
        self._last_seen = survivors
        return evicted


class ObjectsTable(EntityAttributeTable):
    """Attributes of moving objects (``(o.oid, o.attrs)`` rows)."""


class QueriesTable(EntityAttributeTable):
    """Attributes of continuous queries (``(q.qid, q.attrs)`` rows)."""
