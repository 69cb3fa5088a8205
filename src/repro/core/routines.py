"""Routines as first-class citizens of the runtime stack.

The paper's core claim is that ML-guided thread selection never looks
*inside* the kernel: it needs a dimension triple to build features
from, a timing oracle, and a thread grid.  Everything else — GEMM,
GEMV, TRSM, SYRK — is interchangeable.  This module makes that claim
structural:

* :class:`RoutineSpec` is the protocol every problem description
  satisfies (``routine`` name, ``dims`` triple in the GEMM feature
  convention, ``dtype``, FLOP/byte accounting, and a canonical ``key()``
  that *includes the routine name* so two routines with coinciding
  dimension triples can never alias);
* :class:`RoutineRegistry` is the central catalogue the engine, serving,
  training and CLI layers consult instead of hard-coding spec classes.
  Each :class:`RoutineInfo` records how to build a spec from the
  routine's natural dimensions (trace files, CLI), how to map a sampled
  GEMM problem onto the routine (training campaigns), and how to
  recover a spec from the stored feature dims (datasets).

Spec classes resolve lazily (dotted-path strings) so importing this
module costs nothing and cannot create import cycles with the packages
that define the specs.

:func:`routine_of` is the duck-typed hot-path companion: it reads the
spec's ``routine`` class attribute without touching the registry, so
dispatch in the engine stays a dictionary lookup.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

#: The routine every bare ``(m, k, n)`` triple is assumed to be.
DEFAULT_ROUTINE = "gemm"


@runtime_checkable
class RoutineSpec(Protocol):
    """Structural protocol of one routine problem instance.

    Any frozen value object exposing these serves through the whole
    stack: features come from ``dims``, admission and sampling budgets
    from ``memory_bytes``, throughput reports from ``flops``, and every
    cache and router key starts with ``routine``.
    """

    routine: str
    dtype: str

    @property
    def dims(self) -> tuple:
        """``(m, k, n)`` in the GEMM feature convention."""
        ...  # pragma: no cover - protocol stub

    @property
    def flops(self) -> int:
        ...  # pragma: no cover - protocol stub

    @property
    def memory_bytes(self) -> int:
        ...  # pragma: no cover - protocol stub

    def key(self) -> tuple:
        """Hashable identity, routine name first."""
        ...  # pragma: no cover - protocol stub


def routine_of(spec, default: str = DEFAULT_ROUTINE) -> str:
    """The routine name of a spec (or a bare dims triple -> ``default``)."""
    return getattr(spec, "routine", default)


@dataclass(frozen=True)
class RoutineInfo:
    """One registry entry: how the stack builds and maps a routine.

    Parameters
    ----------
    name:
        Registry key ("gemm", "gemv", ...).
    spec_path:
        Dotted path ``module:ClassName`` of the spec dataclass, resolved
        lazily on first use.
    dim_names:
        The spec's *natural* dimension fields, in the order trace files
        and the CLI list them (GEMV is ``m n``, SYRK is ``n k``, ...).
    gemm_dims:
        Maps a sampled GEMM problem's ``(m, k, n)`` onto this routine's
        natural dims — how training campaigns reuse the GEMM domain
        sampler.
    feature_dims:
        Inverse of ``spec.dims``: recovers the natural dims from the
        stored ``(m, k, n)`` feature triple, so tagged dataset rows can
        be turned back into specs.
    description:
        One line for ``--help`` and docs.
    """

    name: str
    spec_path: str
    dim_names: tuple
    gemm_dims: callable
    feature_dims: callable
    description: str = ""

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    @property
    def spec_type(self) -> type:
        """The spec class, imported on first access."""
        module_name, _, class_name = self.spec_path.partition(":")
        return getattr(importlib.import_module(module_name), class_name)

    def build(self, *dims, dtype: str = "float32"):
        """A spec from the routine's natural dimensions."""
        if len(dims) != self.n_dims:
            raise ValueError(
                f"routine {self.name!r} takes {self.n_dims} dimensions "
                f"{self.dim_names}, got {len(dims)}: {dims}")
        return self.spec_type(**dict(zip(self.dim_names, map(int, dims))),
                              dtype=dtype)

    def from_gemm(self, gemm_spec):
        """Map a sampled GEMM problem onto this routine's spec."""
        return self.build(*self.gemm_dims(gemm_spec.m, gemm_spec.k,
                                          gemm_spec.n),
                          dtype=gemm_spec.dtype)

    def from_feature_dims(self, dims, dtype: str = "float32"):
        """A spec back from the stored ``(m, k, n)`` feature triple."""
        m, k, n = dims
        return self.build(*self.feature_dims(int(m), int(k), int(n)),
                          dtype=dtype)


class RoutineRegistry:
    """Name -> :class:`RoutineInfo` catalogue with spec-type lookup."""

    def __init__(self):
        self._routines: dict = {}

    def register(self, info: RoutineInfo) -> RoutineInfo:
        if info.name in self._routines:
            raise ValueError(f"routine {info.name!r} already registered")
        self._routines[info.name] = info
        return info

    def names(self) -> tuple:
        """Registered routine names, registration order."""
        return tuple(self._routines)

    def get(self, name: str) -> RoutineInfo:
        try:
            return self._routines[name]
        except KeyError:
            raise KeyError(f"unknown routine {name!r}; registered: "
                           f"{sorted(self._routines)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._routines


#: The process-wide registry every layer consults.
REGISTRY = RoutineRegistry()


def register_routine(name: str, spec_path: str, dim_names, gemm_dims,
                     feature_dims, description: str = "") -> RoutineInfo:
    """Register a routine with the global :data:`REGISTRY`."""
    return REGISTRY.register(RoutineInfo(
        name=name, spec_path=spec_path, dim_names=tuple(dim_names),
        gemm_dims=gemm_dims, feature_dims=feature_dims,
        description=description))


def get_routine(name: str) -> RoutineInfo:
    return REGISTRY.get(name)


def routine_names() -> tuple:
    return REGISTRY.names()


def build_spec(routine: str, *dims, dtype: str = "float32"):
    """Convenience: ``get_routine(routine).build(*dims, dtype=dtype)``."""
    return REGISTRY.get(routine).build(*dims, dtype=dtype)


# ---------------------------------------------------------------------------
# The built-in BLAS routines.  GEMM's mappings are identities; the
# others mirror repro.train.matrix's historic campaign conventions and
# each spec's documented ``dims`` layout.
register_routine(
    "gemm", "repro.gemm.interface:GemmSpec", ("m", "k", "n"),
    gemm_dims=lambda m, k, n: (m, k, n),
    feature_dims=lambda m, k, n: (m, k, n),
    description="general matrix-matrix product C <- alpha*A@B + beta*C")

register_routine(
    "gemv", "repro.blas.gemv:GemvSpec", ("m", "n"),
    gemm_dims=lambda m, k, n: (m, k),          # dims -> (m, n, 1)
    feature_dims=lambda m, k, n: (m, k),
    description="matrix-vector product y <- alpha*A@x + beta*y "
                "(level 2, bandwidth-bound)")

register_routine(
    "syrk", "repro.blas.syrk:SyrkSpec", ("n", "k"),
    gemm_dims=lambda m, k, n: (m, k),          # dims -> (n, k, n)
    feature_dims=lambda m, k, n: (m, k),
    description="symmetric rank-k update C <- alpha*A@A.T + beta*C "
                "(half the FLOPs of the equivalent product)")

register_routine(
    "trsm", "repro.blas.trsm:TrsmSpec", ("m", "n"),
    gemm_dims=lambda m, k, n: (m, n),          # dims -> (m, m, n)
    feature_dims=lambda m, k, n: (m, n),
    description="triangular solve X <- alpha*inv(L)@B "
                "(parallelism over RHS columns)")
