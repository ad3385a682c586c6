"""The continuous-operator contract.

SCUBA "has been implemented inside our stream processing system CAPE" (§6.1)
as a continuous operator: tuples flow in at every time unit, and every Δ
time units the operator evaluates all registered queries and emits answers.
:class:`ContinuousJoinOperator` captures exactly that contract so the engine
can drive SCUBA and the regular grid baseline interchangeably — and so a
user can plug in their own algorithm and reuse the whole harness.

The Δ-triggered evaluation is decomposed into the paper's phases —
``join_phase`` (the joining sweep), ``shed_phase`` (the load-shedding
control boundary) and ``post_join_phase`` (cluster upkeep) — so the
staged pipeline (:mod:`repro.pipeline`) can time and hook each phase
individually.  :class:`StagedJoinOperator` is the base for operators
implementing the phases; its :meth:`~StagedJoinOperator.evaluate` is a
compatibility facade running all three in order, so legacy callers (and
shard workers, which evaluate in one message round-trip) see the original
single-call contract.  Operators that only implement ``evaluate`` keep
working: the default ``join_phase`` falls back to it.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Sequence

from ..generator import EntityKind, Update
from .metrics import Timer
from .results import QueryMatch

__all__ = ["ContinuousJoinOperator", "StagedJoinOperator"]


class ContinuousJoinOperator(abc.ABC):
    """A continuous spatio-temporal join over object and query streams."""

    @abc.abstractmethod
    def on_update(self, update: Update) -> None:
        """Ingest one location/query update (the pre-join phase).

        Called for every tuple as it arrives, *between* evaluations.  All
        per-tuple state maintenance (hashing into a grid, incremental
        clustering, ...) happens here.
        """

    def ingest_batch(self, updates: Sequence[Update]) -> None:
        """Ingest one tick's updates, in arrival order.

        The pipeline and the shard executors deliver updates through this
        entry point so an operator can process a tick at a time (see
        :meth:`repro.core.Scuba.ingest_batch`).  The default is
        the per-update loop, semantically identical for every operator.
        """
        for update in updates:
            self.on_update(update)

    @abc.abstractmethod
    def evaluate(self, now: float) -> List[QueryMatch]:
        """Run one Δ-triggered evaluation and return the current answers.

        Implementations must also perform their post-join maintenance here
        (advancing cluster positions, dissolving expired state, ...) and
        record phase timings in :attr:`last_join_seconds` /
        :attr:`last_maintenance_seconds`.
        """

    #: Seconds the most recent :meth:`evaluate` spent joining.
    last_join_seconds: float = 0.0
    #: Seconds the most recent :meth:`evaluate` spent on post-join upkeep.
    last_maintenance_seconds: float = 0.0

    # -- staged phase API ----------------------------------------------------
    #
    # The pipeline drives these instead of evaluate() when the operator
    # overrides join_phase (see repro.pipeline.plans.OperatorPlan).  The
    # defaults keep evaluate()-only operators working: the whole legacy
    # evaluation runs inside the join stage, and the other phases no-op.

    def join_phase(self, now: float) -> List[QueryMatch]:
        """The Δ-triggered joining phase, returning the current answers.

        Legacy fallback: operators that only implement :meth:`evaluate`
        run it here in full (post-join maintenance included), so staged
        execution stays correct even without a phase decomposition — only
        the per-stage timing attribution is coarser.
        """
        return self.evaluate(now)

    def shed_phase(self, now: float) -> None:
        """The load-shedding control boundary between join and upkeep.

        Runs once per Δ, after the answers are produced: adaptive
        controllers inspect resource pressure here and swap the shedding
        policy applied to subsequent ingests.  Default: nothing to shed.
        """

    def post_join_phase(self, now: float) -> None:
        """Post-join maintenance (cluster dissolution/advance, pruning).

        Default: nothing — evaluate()-only operators already maintain
        their state inside :meth:`evaluate`.
        """

    def retract(self, entity_id: int, kind: EntityKind) -> None:
        """Forget one entity entirely, as if it had never reported.

        Sharded execution replicates entities into neighbouring shards'
        halo regions; when an entity's reported position leaves a shard's
        halo, the shard must drop its (now unmaintained) copy or it would
        keep producing matches from stale state.  Unknown entities are a
        no-op.  Operators that cannot remove per-entity state may leave
        this unimplemented — they then cannot serve as shard operators.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support retract()"
        )

    def join_counters(self) -> Dict[str, Any]:
        """Implementation-detail counters to fold into run statistics.

        Raw cumulative counts (and identifying strings such as the kernel
        backend name) only — rates are derived at reporting time so that
        sharded runs can sum counters across shards correctly.
        """
        return {}

    def state_roots(self) -> List[Any]:
        """Objects that constitute the operator's in-memory state.

        The memory experiments deep-size everything reachable from these
        roots.  The default is the operator itself, which is correct but
        implementations may narrow it to exclude configuration.
        """
        return [self]

    def reset(self) -> None:
        """Discard all accumulated state (optional operation)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support reset()"
        )


class StagedJoinOperator(ContinuousJoinOperator):
    """Base for operators implementing the staged phase decomposition.

    Subclasses implement :meth:`join_phase` (and optionally
    :meth:`shed_phase` / :meth:`post_join_phase`); :meth:`evaluate`
    becomes a facade that runs the phases in pipeline order and records
    the legacy two-way timing split (join vs maintenance), so direct
    callers, shard workers and old tests observe the original contract.
    """

    @abc.abstractmethod
    def join_phase(self, now: float) -> List[QueryMatch]:
        """Produce the interval's answers (no maintenance side effects)."""

    def evaluate(self, now: float) -> List[QueryMatch]:
        """Compatibility facade: join → shed → post-join, timed."""
        join_timer = Timer()
        with join_timer:
            matches = self.join_phase(now)
        self.last_join_seconds = join_timer.seconds
        maintenance_timer = Timer()
        with maintenance_timer:
            self.shed_phase(now)
            self.post_join_phase(now)
        self.last_maintenance_seconds = maintenance_timer.seconds
        return matches
