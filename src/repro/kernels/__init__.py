"""Batched join kernels with pluggable backends.

The join-within member loops and the grid baseline's point-in-window test
are the system's hottest code; this package isolates them behind
:class:`~repro.kernels.base.JoinKernelBackend` so they can be swapped as a
unit:

* ``numpy`` — vectorised kernels, the default.  Below its vectorisation
  thresholds it falls through to :class:`PythonBatchBackend` (sorted-slab
  pruning in plain Python) and from there to the scalar loops — selected
  by input size, never by configuration;
* ``scalar`` — the original tuple-at-a-time loops, kept as the semantics
  oracle ``tests/test_kernels_property.py`` compares the others against.

Both produce identical :class:`~repro.streams.QueryMatch` multisets and
logical test counts, so picking one is purely a performance decision
(``ScubaConfig.kernel_backend`` / ``RegularConfig.kernel_backend`` /
CLI ``--kernel-backend``).
"""

from __future__ import annotations

from .base import JoinKernelBackend, PointBatch, rect_point_gap_sq
from .batched import PythonBatchBackend
from .numpy_backend import NumpyBackend
from .scalar import ScalarBackend

__all__ = [
    "BACKEND_CHOICES",
    "JoinKernelBackend",
    "NumpyBackend",
    "PointBatch",
    "PythonBatchBackend",
    "ScalarBackend",
    "rect_point_gap_sq",
    "resolve_backend",
]

#: Backends are stateless, so one shared instance per name.
_BACKENDS = {"numpy": NumpyBackend(), "scalar": ScalarBackend()}

#: Backend names accepted by configs and the CLI.
BACKEND_CHOICES = tuple(_BACKENDS)


def resolve_backend(name: str = "numpy") -> JoinKernelBackend:
    """The shared backend instance for ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose one of {BACKEND_CHOICES})"
        ) from None
