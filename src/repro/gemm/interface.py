"""BLAS-style GEMM problem description and front-end entry points.

The paper (Listing 1) works against the standard ``sgemm`` interface::

    sgemm(TRANSA, TRANSB, M, N, K, ALPHA, A, LDA, B, LDB, BETA, C, LDC)

We model the *problem* as an immutable :class:`GemmSpec` so the sampler,
the simulator, the ML feature builder and the runtime library all share
one vocabulary, and provide thin ``sgemm``/``dgemm`` wrappers that follow
the classic argument order on top of numpy arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.gemm.counts import gemm_flops, gemm_memory_bytes


class Transpose(enum.Enum):
    """Transpose flag for a GEMM operand, mirroring BLAS 'N'/'T' characters."""

    NO = "N"
    YES = "T"

    @classmethod
    def from_flag(cls, flag) -> "Transpose":
        """Accept BLAS-style characters, booleans, or Transpose instances."""
        if isinstance(flag, Transpose):
            return flag
        if isinstance(flag, bool):
            return cls.YES if flag else cls.NO
        if isinstance(flag, str) and flag.upper() in ("N", "T"):
            return cls.YES if flag.upper() == "T" else cls.NO
        raise ValueError(f"invalid transpose flag {flag!r}; expected 'N', 'T', bool or Transpose")


@dataclass(frozen=True)
class GemmSpec:
    """Immutable description of one GEMM problem ``C <- alpha*op(A)op(B) + beta*C``.

    Attributes
    ----------
    m, k, n:
        Logical dimensions: ``op(A)`` is ``m x k``, ``op(B)`` is ``k x n``
        and ``C`` is ``m x n``.
    dtype:
        ``"float32"`` (SGEMM) or ``"float64"`` (DGEMM).
    transa, transb:
        Whether each input operand is transposed before multiplication.
    alpha, beta:
        The scalar multipliers from the BLAS interface.
    """

    #: Routine name in the central registry (:mod:`repro.core.routines`).
    routine: ClassVar[str] = "gemm"

    m: int
    k: int
    n: int
    dtype: str = "float32"
    transa: Transpose = Transpose.NO
    transb: Transpose = Transpose.NO
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("m", "k", "n"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"GemmSpec.{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        dtype = str(np.dtype(self.dtype))
        if dtype not in ("float32", "float64"):
            raise ValueError(f"GemmSpec.dtype must be float32 or float64, got {self.dtype!r}")
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "transa", Transpose.from_flag(self.transa))
        object.__setattr__(self, "transb", Transpose.from_flag(self.transb))

    # -- accounting ---------------------------------------------------
    @property
    def flops(self) -> int:
        """Total floating point operations for this problem."""
        return gemm_flops(self.m, self.k, self.n)

    @property
    def memory_bytes(self) -> int:
        """Aggregate operand footprint (paper Section IV-B)."""
        return gemm_memory_bytes(self.m, self.k, self.n, self.dtype)

    @property
    def memory_mb(self) -> float:
        """Footprint in binary megabytes, the unit used throughout the paper."""
        return self.memory_bytes / (1024.0 * 1024.0)

    @property
    def dims(self) -> tuple:
        """The ``(m, k, n)`` triple."""
        return (self.m, self.k, self.n)

    @property
    def min_dim(self) -> int:
        """Smallest of the three dimensions (drives Fig. 8's filter)."""
        return min(self.m, self.k, self.n)

    @property
    def max_dim(self) -> int:
        return max(self.m, self.k, self.n)

    # -- routine protocol ---------------------------------------------
    def equivalent_gemm(self) -> "GemmSpec":
        """GEMM is its own GEMM equivalent (routine-oracle protocol)."""
        return self

    @property
    def work_fraction(self) -> float:
        """Arithmetic fraction of the equivalent product (1 for GEMM)."""
        return 1.0

    # -- operand helpers ----------------------------------------------
    def a_shape(self) -> tuple:
        """Stored shape of A (before ``op``) as a row-major numpy array."""
        return (self.k, self.m) if self.transa is Transpose.YES else (self.m, self.k)

    def b_shape(self) -> tuple:
        return (self.n, self.k) if self.transb is Transpose.YES else (self.k, self.n)

    def c_shape(self) -> tuple:
        return (self.m, self.n)

    def random_operands(self, rng=None, aligned: bool = True):
        """Allocate random operands ``(A, B, C)`` for this problem.

        The paper fills operands with random numbers and aligns them to 64
        bytes to assist vector units (Section V-B3).  numpy does not expose
        ``memalign`` directly, so when ``aligned`` we over-allocate a byte
        buffer and carve out a 64-byte-aligned view, which preserves the
        behavioural intent (stable, vector-friendly base addresses).
        """
        rng = np.random.default_rng(rng)
        a = _aligned_random(rng, self.a_shape(), self.dtype, aligned)
        b = _aligned_random(rng, self.b_shape(), self.dtype, aligned)
        c = _aligned_random(rng, self.c_shape(), self.dtype, aligned)
        return a, b, c

    def key(self) -> tuple:
        """Hashable identity used for runtime memoisation of predictions.

        The routine name leads so keys from different routines with
        coinciding dimensions can never alias in a shared table.
        """
        return (self.routine, self.m, self.k, self.n, self.dtype,
                self.transa.value, self.transb.value)


def _aligned_random(rng, shape, dtype, aligned: bool, alignment: int = 64):
    n_items = int(np.prod(shape))
    itemsize = np.dtype(dtype).itemsize
    if not aligned:
        return rng.standard_normal(shape).astype(dtype)
    raw = np.empty(n_items * itemsize + alignment, dtype=np.uint8)
    offset = (-raw.ctypes.data) % alignment
    view = raw[offset : offset + n_items * itemsize].view(dtype).reshape(shape)
    view[...] = rng.standard_normal(shape).astype(dtype)
    # Keep the raw buffer alive through the view's base reference chain.
    return view


def gemm(spec: GemmSpec, a, b, c, backend=None):
    """Execute ``spec`` on concrete operands using ``backend``.

    ``backend`` is any callable ``(spec, a, b, c) -> c``; by default the
    strict reference kernel is used.  The parallel executor in
    :mod:`repro.gemm.parallel` and the machine simulator both satisfy the
    same signature, which is what lets ADSALA treat GEMM as a black box.
    """
    from repro.gemm.reference import gemm_reference

    backend = backend or gemm_reference
    return backend(spec, a, b, c)


def sgemm(transa, transb, m, n, k, alpha, a, b, beta, c, backend=None):
    """Single-precision GEMM following the classic BLAS argument order.

    Note BLAS orders the dimension arguments ``M, N, K`` (as in Listing 1
    of the paper) whereas :class:`GemmSpec` stores ``m, k, n``.
    """
    spec = GemmSpec(m=m, k=k, n=n, dtype="float32", transa=transa, transb=transb,
                    alpha=alpha, beta=beta)
    return gemm(spec, a, b, c, backend=backend)


def dgemm(transa, transb, m, n, k, alpha, a, b, beta, c, backend=None):
    """Double-precision GEMM following the classic BLAS argument order."""
    spec = GemmSpec(m=m, k=k, n=n, dtype="float64", transa=transa, transb=transb,
                    alpha=alpha, beta=beta)
    return gemm(spec, a, b, c, backend=backend)
