"""Vectorized tick core: whole-population kinematics as column ops.

The scalar generator advances each :class:`MovingEntity` with a Python
loop; at 10k entities that loop *is* the generate stage.  This core keeps
the population's motion state as numpy ``float64`` columns and advances
every entity per tick with a handful of
array operations, delegating to the scalar entity only at the infrequent
moments the scalar path itself treats specially — node crossings, where
routes pop, plans replan, and speeds change.

Bit-identical by construction
-----------------------------

The emitted stream must match the scalar generator exactly (the
stream-equivalence tests pin this).  That holds because every float the
fast path produces is computed by the *same* IEEE-754 operations on the
same values as the scalar path:

* steady advance is ``offset += speed * dt`` — one multiply, one add,
  identical in numpy ``float64`` and Python ``float``;
* an entity whose step reaches its connection node (``speed * dt >=
  length - offset``, the exact negation of the scalar fast-path guard) is
  synced back and advanced by ``MovingEntity.advance`` itself, then its
  columns are reloaded — crossings, replanning, and speed changes never
  run vectorized at all;
* emission interpolates ``start + (end - start) * clamp(offset/length)``
  with the same operation order as ``Segment.point_at`` (edge lengths are
  strictly positive, so the division is always defined);
* the generator's RNG is only consulted for the per-entity report draw
  (``update_fraction < 1``), which the caller performs in entity order
  after the advance — ``MovingEntity.advance`` never draws, so the RNG
  stream is untouched by vectorization.

Columns go stale only through the entity objects: callers that reach for
``generator.entities`` get the offsets/odometers synced back and the core
marked dirty, so external mutation of entity state (tests park entities,
resume paths rebuild them) is always observed on the next tick.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .batch import TickBatch
from .records import EntityKind

__all__ = ["VectorTickCore"]


class VectorTickCore:
    """Column-resident motion state for a generator's whole population."""

    def __init__(self, generator) -> None:
        self.generator = generator
        self.network = generator.network
        self._dirty = True
        # Static columns (population membership never changes post-build).
        entities = generator._entities
        self.n = len(entities)
        self.ids: List[int] = [e.entity_id for e in entities]
        self.kinds: List[bool] = [e.kind is EntityKind.OBJECT for e in entities]
        self.keys: List[int] = [
            (eid << 1) | 1 if is_obj else eid << 1
            for eid, is_obj in zip(self.ids, self.kinds)
        ]
        self.ws = np.asarray([e.range_width for e in entities], dtype=np.float64)
        self.hs = np.asarray([e.range_height for e in entities], dtype=np.float64)
        # Dynamic columns, built on first use.
        self.offsets = None
        self.lengths = None
        self.sxs = None
        self.sys_ = None
        self.dxs = None
        self.dys = None
        self.speeds = None
        self.dists = None
        self.cns: List[int] = [0] * self.n
        self.cn_xs = None
        self.cn_ys = None
        self.cn_points: List[object] = [None] * self.n

    # -- column (re)loading --------------------------------------------------

    def mark_dirty(self) -> None:
        """External code touched entity state; reload before the next tick."""
        self._dirty = True

    def _reload(self) -> None:
        n = self.n
        offsets = [0.0] * n
        lengths = [0.0] * n
        sxs = [0.0] * n
        sys_ = [0.0] * n
        dxs = [0.0] * n
        dys = [0.0] * n
        speeds = [0.0] * n
        dists = [0.0] * n
        cn_xs = [0.0] * n
        cn_ys = [0.0] * n
        cns = self.cns
        cn_points = self.cn_points
        node_location = self.network.node_location
        for i, e in enumerate(self.generator._entities):
            pos = e.position
            edge = pos.edge
            dest = edge.other_endpoint(pos.origin)
            start = node_location(pos.origin)
            end = node_location(dest)
            offsets[i] = pos.offset
            lengths[i] = edge.length
            sxs[i] = start.x
            sys_[i] = start.y
            dxs[i] = end.x - start.x
            dys[i] = end.y - start.y
            speeds[i] = e.speed
            dists[i] = e.distance_travelled
            cns[i] = dest
            cn_xs[i] = end.x
            cn_ys[i] = end.y
            cn_points[i] = end
        f64 = np.float64
        self.offsets = np.asarray(offsets, dtype=f64)
        self.lengths = np.asarray(lengths, dtype=f64)
        self.sxs = np.asarray(sxs, dtype=f64)
        self.sys_ = np.asarray(sys_, dtype=f64)
        self.dxs = np.asarray(dxs, dtype=f64)
        self.dys = np.asarray(dys, dtype=f64)
        self.speeds = np.asarray(speeds, dtype=f64)
        self.dists = np.asarray(dists, dtype=f64)
        self.cn_xs = np.asarray(cn_xs, dtype=f64)
        self.cn_ys = np.asarray(cn_ys, dtype=f64)
        self._dirty = False

    def _load_row(self, i: int, e) -> None:
        """Refresh one entity's columns after a scalar crossing advance."""
        pos = e.position
        edge = pos.edge
        dest = edge.other_endpoint(pos.origin)
        node_location = self.network.node_location
        start = node_location(pos.origin)
        end = node_location(dest)
        self.offsets[i] = pos.offset
        self.lengths[i] = edge.length
        self.sxs[i] = start.x
        self.sys_[i] = start.y
        self.dxs[i] = end.x - start.x
        self.dys[i] = end.y - start.y
        self.speeds[i] = e.speed
        self.dists[i] = e.distance_travelled
        self.cns[i] = dest
        self.cn_xs[i] = end.x
        self.cn_ys[i] = end.y
        self.cn_points[i] = end

    def sync_entities(self) -> None:
        """Write column state back to the entity objects.

        Only offsets and odometers can be stale: every other entity field
        (edge, route, speed, plan state) changes exclusively inside
        ``MovingEntity.advance``, which the core always runs scalar.
        """
        if self._dirty or self.offsets is None:
            return
        offsets = self.offsets.tolist()
        dists = self.dists.tolist()
        for i, e in enumerate(self.generator._entities):
            e.position.offset = offsets[i]
            e.distance_travelled = dists[i]

    # -- advancing -----------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Advance the whole population by ``dt`` (scalar-exact)."""
        if self._dirty:
            self._reload()
        offsets = self.offsets
        dists = self.dists
        step = self.speeds * dt
        crossing = step >= (self.lengths - offsets)
        if crossing.any():
            entities = self.generator._entities
            network = self.network
            for i in np.nonzero(crossing)[0].tolist():
                e = entities[i]
                e.position.offset = float(offsets[i])
                e.distance_travelled = float(dists[i])
                e.advance(dt, network)
                self._load_row(i, e)
            steady = ~crossing
            np.add(offsets, step, out=offsets, where=steady)
            np.add(dists, step, out=dists, where=steady)
        else:
            offsets += step
            dists += step

    # -- emission ------------------------------------------------------------

    def _positions(self):
        """Interpolated (xs, ys) for the whole population."""
        tt = self.offsets / self.lengths
        np.maximum(tt, 0.0, out=tt)
        np.minimum(tt, 1.0, out=tt)
        xs = self.sxs + self.dxs * tt
        ys = self.sys_ + self.dys * tt
        return xs, ys

    def emit_all(self, t: float) -> TickBatch:
        """A batch reporting every entity at time ``t`` (snapshot path)."""
        if self._dirty:
            self._reload()
        xs, ys = self._positions()
        return TickBatch(
            t,
            self.ids,
            self.kinds,
            xs,
            ys,
            self.speeds.copy(),
            list(self.cns),
            self.cn_xs.copy(),
            self.cn_ys.copy(),
            self.ws,
            self.hs,
            cn_points=list(self.cn_points),
            keys=self.keys,
        )

    def emit(self, t: float, rng, fraction: float) -> TickBatch:
        """The tick's reported rows, drawing the report lottery in entity
        order from ``rng`` exactly as the scalar loop does."""
        if fraction >= 1.0:
            return self.emit_all(t)
        random = rng.random
        chosen = [i for i in range(self.n) if random() < fraction]
        return self.emit_all(t).select(chosen)

    def consume_report_draws(self, rng, fraction: float) -> None:
        """Burn the tick's per-entity report draws without emitting.

        ``fast_forward`` discards updates but must leave the RNG exactly
        where a reporting tick would have.
        """
        if fraction >= 1.0:
            return
        random = rng.random
        for _ in range(self.n):
            random()
