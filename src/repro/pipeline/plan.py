"""Stage plans: what each pipeline stage actually does.

The :class:`~repro.pipeline.pipeline.EvaluationPipeline` owns the interval
*structure* — the tick loop, the stage order, the timing, the stats and
sink bookkeeping.  A :class:`StagePlan` supplies the stage *bodies*: how
tuples reach the operator(s), how the Δ-triggered join runs, and how the
finished interval is described as an
:class:`~repro.streams.metrics.IntervalStats` record.

Two plans cover the two execution shapes:

* :class:`OperatorPlan` — one in-process operator (the classic
  ``StreamEngine`` shape).  Staged operators (those overriding
  ``join_phase``) get true per-phase stage execution; legacy
  evaluate()-only operators run their whole evaluation inside the join
  stage and keep their self-reported timings.
* ``ShardedStagePlan`` (in :mod:`repro.parallel.engine`) — routing +
  scatter/gather over K shard operators, merge in the post-join stage.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Sequence

from ..streams.metrics import IntervalStats
from ..streams.operator import ContinuousJoinOperator
from .context import EvaluationContext

__all__ = ["StagePlan", "OperatorPlan"]


class StagePlan(abc.ABC):
    """The stage bodies of one evaluation pipeline."""

    def begin_interval(self, ctx: EvaluationContext) -> None:
        """Reset plan-private per-interval accounting (optional)."""

    @abc.abstractmethod
    def ingest(self, ctx: EvaluationContext, updates: Sequence[Any]) -> None:
        """Deliver one tick's updates to the operator(s)."""

    def pre_join_maintenance(self, ctx: EvaluationContext) -> None:
        """Δ-boundary maintenance deferred from ingest (default: none).

        In-process operators maintain state per tuple inside ``ingest``
        (the paper's pre-join maintenance runs as tuples arrive), so this
        stage is an empty, hookable seam — batched/deferred maintenance
        strategies attach here without re-plumbing the loop.
        """

    @abc.abstractmethod
    def join(self, ctx: EvaluationContext) -> None:
        """Run the Δ-triggered join.  Sets ``ctx.matches`` (directly, or
        leaves it for a later stage such as a sharded merge)."""

    def shed(self, ctx: EvaluationContext) -> None:
        """Load-shedding control boundary (default: none)."""

    def post_join_maintenance(self, ctx: EvaluationContext) -> None:
        """Post-join upkeep — cluster maintenance, or a sharded merge."""

    def emit(self, ctx: EvaluationContext) -> None:
        """Deliver the interval's answers to the sink."""
        ctx.sink.accept(ctx.matches, ctx.now)

    @abc.abstractmethod
    def interval_stats(self, ctx: EvaluationContext) -> IntervalStats:
        """Describe the finished interval (engine-flavour specific)."""

    def counters(self, ctx: EvaluationContext) -> Dict[str, Any]:
        """Operator counter snapshot to record into the run stats."""
        return {}


class OperatorPlan(StagePlan):
    """Single in-process operator: the ``StreamEngine`` execution shape."""

    def __init__(self, operator: ContinuousJoinOperator) -> None:
        self.rebind(operator)

    def rebind(self, operator: ContinuousJoinOperator) -> None:
        """Point the plan at (a restored copy of) its operator.

        Checkpoint restore swaps the operator object wholesale; rebinding
        re-derives the staged flag so a restored legacy operator keeps its
        evaluate()-in-join execution shape.
        """
        self.operator = operator
        #: Whether the operator implements the phase decomposition.  When
        #: it does not, its whole evaluate() runs inside the join stage
        #: and its self-reported timings are kept verbatim.
        self.staged = (
            type(operator).join_phase is not ContinuousJoinOperator.join_phase
        )

    def ingest(self, ctx: EvaluationContext, updates: Sequence[Any]) -> None:
        # One tick per call: Scuba runs a column TickBatch through its
        # whole-tick pass; the default is the per-update loop.
        self.operator.ingest_batch(updates)

    def join(self, ctx: EvaluationContext) -> None:
        ctx.matches = self.operator.join_phase(ctx.now)

    def shed(self, ctx: EvaluationContext) -> None:
        self.operator.shed_phase(ctx.now)

    def post_join_maintenance(self, ctx: EvaluationContext) -> None:
        self.operator.post_join_phase(ctx.now)

    def interval_stats(self, ctx: EvaluationContext) -> IntervalStats:
        operator = self.operator
        if self.staged:
            # The pipeline timed the phases; mirror them onto the legacy
            # attributes so direct readers stay consistent.
            operator.last_join_seconds = ctx.stage_timers["join"].seconds
            operator.last_maintenance_seconds = ctx.seconds(
                "shed", "post_join_maintenance"
            )
        return IntervalStats(
            t=ctx.now,
            generate_seconds=ctx.generate_timer.seconds,
            ingest_seconds=ctx.seconds("ingest", "pre_join_maintenance"),
            join_seconds=operator.last_join_seconds,
            maintenance_seconds=operator.last_maintenance_seconds,
            result_count=len(ctx.matches),
            tuple_count=ctx.tuple_count,
            stage_seconds=ctx.stage_seconds(),
        )

    def counters(self, ctx: EvaluationContext) -> Dict[str, Any]:
        return self.operator.join_counters()
