"""ADSALA core: ML-guided runtime thread selection for GEMM.

The paper's contribution, assembled from the substrate packages:

- :mod:`repro.core.features` — the Table II feature engineering.
- :mod:`repro.core.dataset` — timing-dataset container.
- :mod:`repro.core.gather` — installation-time data gathering campaigns.
- :mod:`repro.core.training` — the installation workflow of Fig. 2
  (preprocess, tune, fit, measure, select).
- :mod:`repro.core.selection` — speedup-based model selection
  (``s = t_original / (t_ADSALA + t_eval)``, Section IV-D).
- :mod:`repro.core.predictor` — runtime thread-count prediction with
  last-call memoisation (Fig. 3).
- :mod:`repro.core.config` / :mod:`repro.core.serialize` — the two
  installation artefacts (config file + trained model).
- :mod:`repro.core.library` — the routine-generic ``AdsalaRuntime``
  class users link against (``AdsalaGemm`` is its GEMM alias).
- :mod:`repro.core.routines` — the central routine registry making
  GEMM, GEMV, TRSM and SYRK first-class citizens of every layer.
"""

from repro.core.features import (FEATURE_NAMES_GROUP1, FEATURE_NAMES_GROUP2,
                                 FeatureBuilder)
from repro.core.dataset import TimingDataset, TimingRecord
from repro.core.gather import DataGatherer
from repro.core.training import InstallationWorkflow, TrainedBundle
from repro.core.selection import ModelSelectionReport, SpeedupEstimate, estimate_speedup
from repro.core.predictor import ThreadPredictor
from repro.core.config import AdsalaConfig
from repro.core.serialize import load_bundle, save_bundle
from repro.core.library import AdsalaGemm, AdsalaRuntime
from repro.core.diagnostics import ChoiceDiagnostics, diagnose_choices
from repro.core.routines import (REGISTRY, RoutineInfo, RoutineSpec,
                                 build_spec, get_routine, register_routine,
                                 routine_names, routine_of)

__all__ = [
    "FEATURE_NAMES_GROUP1", "FEATURE_NAMES_GROUP2", "FeatureBuilder",
    "TimingDataset", "TimingRecord",
    "DataGatherer",
    "InstallationWorkflow", "TrainedBundle",
    "ModelSelectionReport", "SpeedupEstimate", "estimate_speedup",
    "ThreadPredictor",
    "AdsalaConfig",
    "save_bundle", "load_bundle",
    "AdsalaGemm", "AdsalaRuntime",
    "ChoiceDiagnostics", "diagnose_choices",
    "REGISTRY", "RoutineInfo", "RoutineSpec",
    "build_spec", "get_routine", "register_routine",
    "routine_names", "routine_of",
]
