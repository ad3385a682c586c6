"""Batched columnar ingest: the vectorised cluster-maintenance fast path.

The ingest stage counterpart of :mod:`repro.kernels`: one
:class:`UpdateBatch` per evaluation tick, bulk-processing the steady-state
fast path per cluster group instead of per update (see
:mod:`repro.ingest.base` for the exactness contract).
``ScubaConfig(batched_ingest=True)`` installs a
:class:`NumpyIngestKernel`; off (the default), the operator runs its
per-update ``on_update`` loop.  Small groups classify through the
plain-Python :class:`PythonBatchIngestKernel` code the numpy kernel
inherits — selected by group size, not by configuration.

Unlike join-kernel backends — stateless and shared — ingest kernels carry
per-operator counters and view caches, so every operator owns a fresh
instance.
"""

from __future__ import annotations

from .base import IngestKernel, IngestView, PythonBatchIngestKernel
from .batch import UpdateBatch
from .numpy_kernel import NumpyIngestKernel

__all__ = [
    "IngestKernel",
    "IngestView",
    "NumpyIngestKernel",
    "PythonBatchIngestKernel",
    "UpdateBatch",
]
