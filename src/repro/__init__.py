"""repro — reproduction of "A Machine Learning Approach Towards Runtime
Optimisation of Matrix Multiplication" (Xia et al., IPDPS 2023).

ADSALA selects the optimal number of threads for a multi-threaded GEMM
at runtime using a regression model trained at installation time.

Quickstart::

    from repro import quick_install, AdsalaGemm, GemmSpec

    bundle, simulator = quick_install("gadi", n_shapes=120)
    with AdsalaGemm(bundle, simulator) as gemm:
        record = gemm.gemm(m=64, k=2048, n=64)
        print(record.n_threads, record.runtime)

Subpackages
-----------
``repro.gemm``
    BLAS-style GEMM substrate: kernels, packing, partitioning, a real
    threaded executor.
``repro.machine``
    Simulated two-socket HPC nodes (Setonix / Gadi presets) with a
    white-box cost model for multi-threaded GEMM wall time.
``repro.ml``
    From-scratch numpy implementations of all candidate regression
    models and the surrounding model-selection machinery.
``repro.preprocessing``
    Yeo-Johnson, standardisation, LOF outlier removal, correlation
    pruning.
``repro.sampling``
    Scrambled-Halton sampling of the GEMM shape domain.
``repro.core``
    The ADSALA workflow itself: feature engineering, data gathering,
    installation-time training/model selection, the runtime library.
``repro.engine``
    The execution engine: the ``ExecutionBackend`` protocol, the LRU
    ``PredictionCache``, and the batch-predicting ``GemmService``
    request layer.
``repro.compile``
    Compiled inference plans: fitted pipeline + model lowered into
    fused array kernels (fused preprocessing transform, packed tree
    ensembles, affine models) with bitwise-identical predictions.
``repro.serve``
    The async serving subsystem: ``GemmServer`` with dynamic
    micro-batching, admission control (backpressure + overload
    rejection), multi-tenant shard routing and
    zero-downtime bundle hot-reload.
``repro.train``
    The staged training pipeline: resumable content-addressed stages,
    parallel hyper-parameter tuning (bitwise-identical to serial), the
    versioned ``ModelRegistry`` and the routine x machine
    ``TrainingMatrix``.
``repro.bench``
    Harness utilities for regenerating the paper's tables and figures.
"""

from repro.compile import CompiledPlan, compile_plan
from repro.core.config import AdsalaConfig
from repro.core.library import AdsalaGemm, AdsalaRuntime
from repro.core.routines import build_spec, get_routine, routine_names
from repro.core.training import InstallationWorkflow, TrainedBundle
from repro.engine import GemmService, PredictionCache
from repro.gemm.interface import GemmSpec
from repro.machine.presets import by_name as machine_by_name
from repro.machine.simulator import MachineSimulator
from repro.serve import GemmServer, ServerOverloaded
from repro.train import ModelRegistry, TrainingMatrix, TrainingPipeline

__version__ = "1.5.0"

__all__ = [
    "AdsalaConfig",
    "AdsalaGemm",
    "AdsalaRuntime",
    "CompiledPlan",
    "compile_plan",
    "GemmServer",
    "GemmService",
    "InstallationWorkflow",
    "ModelRegistry",
    "PredictionCache",
    "ServerOverloaded",
    "TrainedBundle",
    "TrainingMatrix",
    "TrainingPipeline",
    "GemmSpec",
    "MachineSimulator",
    "build_spec",
    "get_routine",
    "machine_by_name",
    "quick_install",
    "routine_names",
    "__version__",
]


def quick_install(machine: str = "gadi", n_shapes: int = 120,
                  memory_cap_mb: int = 100, seed: int = 0, **workflow_kwargs):
    """One-call ADSALA installation on a simulated platform.

    Returns ``(bundle, simulator)``: the trained installation artefacts
    and the machine they were trained for.  Keyword arguments are passed
    through to :class:`repro.core.training.InstallationWorkflow`.
    """
    simulator = MachineSimulator(machine_by_name(machine), seed=seed)
    workflow = InstallationWorkflow(
        simulator, memory_cap_bytes=memory_cap_mb * 1024 * 1024,
        n_shapes=n_shapes, seed=seed, **workflow_kwargs)
    return workflow.run(), simulator
