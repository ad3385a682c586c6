"""The join-kernel backend contract.

A backend implements the four join-within predicate cases of
:mod:`repro.core.joins` as **batched kernels** over structure-of-arrays
member columns, plus the point-in-rect kernel the regular grid baseline
joins with.  All backends are *observationally identical*: for the same
inputs they must produce the same :class:`~repro.streams.QueryMatch`
multiset and report the same logical test count — only emission order and
wall-clock time may differ.  That contract is pinned by
``tests/test_kernels_property.py``.

The **logical test count** is the paper's cost metric: the number of
candidate (object, query) member pairs an evaluation considers (one per
exact member pair behind a passing bounding-box pre-filter, one per shed
group test).  A batched backend that prunes candidates algorithmically
still reports the full logical count, so figures stay comparable across
backends.

Kernels read the SoA columns of :class:`~repro.core.joins.ClusterJoinView`
(``obj_ids``/``obj_xs``/``obj_ys``, ``query_ids``/``query_xs``/...)
directly and may stash backend-specific derived data (sorted permutations,
ndarray mirrors) in the view's ``scratch`` dict — views are cached across
evaluations, so the derivation cost is paid once per cluster *change*, not
once per cluster *pair*.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

from ..streams import QueryMatch

__all__ = ["JoinKernelBackend", "PointBatch", "rect_point_gap_sq"]


class PointBatch:
    """A structure-of-arrays batch of identified points.

    The unit the regular grid baseline hands to :meth:`points_in_rect`:
    one batch per occupied cell per evaluation, shared by every query
    hashed into that cell.  ``scratch`` carries backend-specific derived
    arrays, built lazily on first kernel use.
    """

    __slots__ = ("ids", "xs", "ys", "scratch")

    def __init__(
        self,
        ids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> None:
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.scratch: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.ids)


class JoinKernelBackend(abc.ABC):
    """Batched kernels for the four join-within cases plus point-in-rect.

    ``objects`` and ``queries`` arguments are
    :class:`~repro.core.joins.ClusterJoinView` instances (possibly the
    same view, for a mixed cluster's self join).  Every kernel appends its
    matches to ``out`` and returns its logical test count.
    """

    #: Registry/CLI name (``numpy``, ``scalar``).
    name = "abstract"

    # -- join-within predicate cases ----------------------------------------

    @abc.abstractmethod
    def exact_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        """Exact objects × exact queries: point inside the query window."""

    @abc.abstractmethod
    def shed_exact(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        """Shed objects × exact queries: window reaches the object nucleus."""

    @abc.abstractmethod
    def exact_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        """Exact objects × shed query groups: object within nucleus slack of
        the window placed at the query cluster's centroid."""

    @abc.abstractmethod
    def shed_shed(self, objects, queries, now: float, out: List[QueryMatch]) -> int:
        """Shed objects × shed query groups: the two nuclei within reach."""

    # -- macro-batched sweep kernels -----------------------------------------

    def join_segments(
        self,
        segments: Sequence[Tuple[object, object]],
        now: float,
        out: List[QueryMatch],
    ) -> int:
        """Evaluate a run of shed-free exact×exact join segments.

        Each segment is an ``(objects_view, queries_view)`` pair of
        :class:`~repro.core.joins.ClusterJoinView` with non-empty exact
        columns and no shed members, in the driver's canonical emission
        order.  The default evaluates them one ``exact_exact`` call at a
        time — exact by construction; a batched backend may fuse the whole
        run into one segmented array pass as long as the QueryMatch
        multiset and the logical test count match this loop.
        """
        tests = 0
        exact_exact = self.exact_exact
        for objects, queries in segments:
            tests += exact_exact(objects, queries, now, out)
        return tests

    # -- grid baseline kernel ------------------------------------------------

    @abc.abstractmethod
    def points_in_rect(
        self,
        batch: PointBatch,
        qid: int,
        qx: float,
        qy: float,
        hw: float,
        hh: float,
        now: float,
        out: List[QueryMatch],
    ) -> int:
        """Batched point-in-window test: ids of ``batch`` inside the rect."""

    # -- plumbing -------------------------------------------------------------

    def __reduce__(self):
        # Backends are stateless: pickling re-resolves by name, so shard
        # operators built from a pickled factory share the receiving
        # process's instance.
        from . import resolve_backend

        return (resolve_backend, (self.name,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def rect_point_gap_sq(
    cx: float, cy: float, hw: float, hh: float, px: float, py: float
) -> float:
    """Squared distance from point ``(px, py)`` to rect ``(cx±hw, cy±hh)``."""
    dx = abs(px - cx) - hw
    dy = abs(py - cy) - hh
    if dx < 0.0:
        dx = 0.0
    if dy < 0.0:
        dy = 0.0
    return dx * dx + dy * dy
