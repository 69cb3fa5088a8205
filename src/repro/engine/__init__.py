"""repro.engine — the batched execution engine.

The runtime path of the reproduction, restructured for serving:

    predictor -> PredictionCache -> GemmService -> ExecutionBackend

* :class:`ExecutionBackend` — the one protocol every execution target
  satisfies (``timed_run(spec, n_threads, repeats)``): the machine
  simulators, the host's real ``ParallelGemm`` thread teams, and the
  BLAS routine oracle, so GEMM, GEMV, SYRK and TRSM all serve through
  one engine.
* :class:`PredictionCache` — a bounded, stats-tracking LRU replacing the
  paper's single-shape memo.
* :class:`GemmService` — the request layer: deduplicates a spec stream
  by shape, batch-predicts misses in one vectorised model pass, and
  calls its backend for each call (a non-GEMM routine on a machine
  simulator runs on the routine oracle over it).
"""

from repro.engine.backend import ExecutionBackend, as_backend
from repro.engine.cache import PredictionCache
from repro.engine.service import GemmCallRecord, GemmService

__all__ = [
    "ExecutionBackend",
    "GemmCallRecord",
    "GemmService",
    "PredictionCache",
    "as_backend",
]
