"""Decision tables: the compiled plan pre-evaluated over a shape lattice.

A :class:`~repro.compile.plan.CompiledPlan` made the *model pass* cheap;
a :class:`DecisionTable` removes it entirely for the dense head of the
traffic distribution.  At build time the plan is evaluated over the
reachable shape lattice — the cross-product of per-axis quantised
``(m, k, n)`` values derived from the training campaign's sampling
domain — and the argmin thread choice per lattice point is packed into
one small integer array.  Serving a lattice shape then costs three
dict probes (one per-axis value -> index map) and one list read: no
features, no pipeline, no model.

Correctness is anchored the same way the plan's is: every lattice point
is round-tripped through the table's own lookup machinery at build time
and compared against the plan-computed choices
(:class:`TableValidationError` on any mismatch), so a table can never
answer differently from the plan it was compiled from.  Shapes off the
lattice **fall through** — :meth:`DecisionTable.lookup_batch` reports
them unresolved and the predictor runs the plan for just those shapes.

Two snap modes bound how far "on the lattice" stretches:

* ``"exact"`` (default): only exact lattice hits are answered; every
  other shape falls through.  The table is then a pure accelerator —
  thread choices are bitwise identical with or without it.
* ``"plateau"``: exact hits are answered as in ``"exact"``; an
  off-lattice shape inside the bounding box is answered from its
  bracketing lattice cell (found by bisection per axis) **iff** all
  eight cell corners agree on the thread choice (the cell is a
  *plateau* of the decision function) and the cell survived build-time
  probe validation.  Corner disagreement — or a build-time probe that
  caught the plan changing its mind *inside* an agreeing cell —
  demotes the cell, and shapes landing in it fall through to the plan
  unchanged.  Every table answer therefore remains bitwise-equal to
  what the plan would have said on the validated probe distribution,
  while the long tail of near-lattice traffic is absorbed into tier 0.

The table pickles only numpy arrays and plain scalars — the lookup
maps are rebuilt on load — so it pickles small and deterministically,
serving never changes its pickle, and the bundle checksum can cover it
(:mod:`repro.core.serialize` persists tables as ``adsala_table.pkl``;
refined tables additionally carry a ``generation`` counter in their
metadata).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

#: Upper bound on lattice size; a resolution/axes mistake should fail
#: loudly at build time, not allocate gigabytes.
MAX_LATTICE_POINTS = 1_000_000

#: Lattice points evaluated per plan pass during compilation.
BUILD_CHUNK = 4096

#: Interior probe points per plateau-mode build-time validation pass.
PLATEAU_PROBES = 512

SNAP_MODES = ("exact", "plateau")

#: What the lookup kernel returns for a shape that falls through.
_MISS = (0, False, False)


class TableValidationError(RuntimeError):
    """The built table disagrees with the plan on a lattice point."""


def _as_axis(values) -> np.ndarray:
    axis = np.unique(np.asarray(list(values), dtype=np.int64))
    if axis.size == 0:
        raise ValueError("lattice axes must be non-empty")
    if (axis < 1).any():
        raise ValueError("lattice dimensions must be >= 1")
    return axis


def _corner_agreement(grid_index: np.ndarray) -> np.ndarray:
    """Boolean per-cell mask: do all 2^3 cell corners pick one choice?

    The cell array has ``max(size-1, 1)`` entries per axis; a
    single-value axis contributes one degenerate "cell" whose two
    corners coincide, so it never blocks agreement.
    """
    shape = grid_index.shape
    cdim = tuple(max(s - 1, 1) for s in shape)
    base = None
    ok = np.ones(cdim, dtype=bool)
    for dm in (0, 1):
        for dk in (0, 1):
            for dn in (0, 1):
                # For a degenerate axis (size 1) every corner offset
                # clips back to the single plane.
                sl = tuple(slice(min(d, s - c), min(d, s - c) + c)
                           for d, s, c in zip((dm, dk, dn), shape, cdim))
                corner = grid_index[sl]
                if base is None:
                    base = corner
                else:
                    ok &= corner == base
    return ok


def refine_axes(axes, miss_dims, max_new_per_axis: int = 8):
    """Densify lattice ``axes`` where observed traffic missed them.

    ``miss_dims`` is the fallback evidence — ``(m, k, n)`` triples that
    probed the table and fell through.  Per axis, the most frequent
    missing values (ties broken toward the smaller value, so the result
    is fully deterministic) are merged in, at most ``max_new_per_axis``
    of them; misses outside the old bounding box extend it.  When the
    densified lattice would exceed :data:`MAX_LATTICE_POINTS` the
    per-axis budget shrinks until it fits — refinement degrades
    gracefully instead of failing a serving loop.

    Returns a new axes tuple; the input axes are never mutated.  Axes
    that gain nothing come back equal, so callers can detect a no-op
    refinement with ``np.array_equal``.
    """
    if max_new_per_axis < 0:
        raise ValueError("max_new_per_axis must be >= 0")
    axes = tuple(_as_axis(a) for a in axes)
    miss = np.asarray([d.dims if hasattr(d, "dims") else d
                       for d in miss_dims], dtype=np.int64)
    if miss.size == 0:
        return axes
    miss = miss.reshape(-1, 3)
    if (miss < 1).any():
        raise ValueError("miss dimensions must be >= 1")
    ranked = []
    for axis, col in zip(axes, miss.T):
        values, counts = np.unique(col, return_counts=True)
        fresh = ~np.isin(values, axis)
        values, counts = values[fresh], counts[fresh]
        # Most frequent first; equal frequencies resolve to the smaller
        # value (lexsort keys are least-significant first).
        order = np.lexsort((values, -counts))
        ranked.append(values[order])
    for budget in range(int(max_new_per_axis), -1, -1):
        out = tuple(np.unique(np.concatenate([axis, new[:budget]]))
                    for axis, new in zip(axes, ranked))
        if int(np.prod([a.size for a in out])) <= MAX_LATTICE_POINTS:
            return out
    return axes  # pragma: no cover - axes alone exceed the bound


class DecisionTable:
    """Packed shape-lattice -> thread-choice mapping with O(1) lookup.

    Attributes
    ----------
    routine:
        The routine the source predictor serves; lookups are only valid
        for shapes in that routine's feature-dims convention.
    thread_grid:
        The candidate grid the choices index into (int64, ascending).
        A table is only usable by a predictor with the *identical*
        grid — a clamped serving grid would make packed indices point
        at infeasible thread counts.
    axes:
        Three sorted int64 arrays of lattice values for m, k, n.
    grid_index:
        ``(|m|, |k|, |n|)`` int16 array of indices into ``thread_grid``.
    snap:
        ``"exact"`` or ``"plateau"`` (module docstring).
    cell_ok:
        Plateau mode only: ``(max(|m|-1,1), max(|k|-1,1), max(|n|-1,1))``
        boolean mask of cells allowed to answer their interior.  Derived
        from corner agreement when not given; build-time probe
        validation may demote cells.  ``None`` in exact mode.
    meta:
        Build provenance: resolution, probe count, campaign coverage,
        refinement ``generation``.
    """

    __slots__ = ("routine", "thread_grid", "axes", "grid_index", "snap",
                 "meta", "cell_ok", "_index", "_ticks", "_choices")

    #: The slots that are the table's identity, in pickle order.  The
    #: rest is the lookup kernel's working form of ``axes`` and
    #: ``grid_index``, rebuilt by :meth:`_derive` and never pickled.
    _STATE = ("routine", "thread_grid", "axes", "grid_index", "snap",
              "meta", "cell_ok")

    def __init__(self, routine: str, thread_grid, axes, grid_index,
                 snap: str = "exact", meta: dict = None, cell_ok=None):
        if snap not in SNAP_MODES:
            raise ValueError(f"snap must be 'exact' or 'plateau', "
                             f"got {snap!r}")
        self.routine = str(routine)
        self.thread_grid = np.asarray(thread_grid, dtype=np.int64)
        self.axes = tuple(_as_axis(a) for a in axes)
        if len(self.axes) != 3:
            raise ValueError("need exactly three lattice axes (m, k, n)")
        self.grid_index = np.asarray(grid_index, dtype=np.int16)
        shape = tuple(a.size for a in self.axes)
        if self.grid_index.shape != shape:
            raise ValueError(f"grid_index shape {self.grid_index.shape} "
                             f"does not match lattice {shape}")
        if self.grid_index.size and (
                (self.grid_index < 0).any()
                or (self.grid_index >= self.thread_grid.size).any()):
            raise ValueError("grid_index entries outside the thread grid")
        self.snap = snap
        if snap == "plateau":
            agreement = _corner_agreement(self.grid_index)
            if cell_ok is None:
                cell_ok = agreement
            else:
                cell_ok = np.asarray(cell_ok, dtype=bool)
                if cell_ok.shape != agreement.shape:
                    raise ValueError(
                        f"cell_ok shape {cell_ok.shape} does not match "
                        f"the cell lattice {agreement.shape}")
                # A mask can only ever demote agreeing cells: a cell
                # whose corners disagree has no plateau to answer from.
                cell_ok = cell_ok & agreement
        else:
            cell_ok = None
        self.cell_ok = cell_ok
        self.meta = dict(meta or {})
        self._derive()

    def _derive(self) -> None:
        """Build the lookup kernel's maps from ``axes``/``grid_index``:
        per-axis tick value -> index dicts, the ticks as lists for
        bisection, and the thread choice of every lattice point as one
        flat list in ``grid_index`` order."""
        self._ticks = tuple(axis.tolist() for axis in self.axes)
        self._index = tuple({value: i for i, value in enumerate(ticks)}
                            for ticks in self._ticks)
        self._choices = self.thread_grid[self.grid_index].ravel().tolist()

    # -- pickling --------------------------------------------------------
    def __getstate__(self) -> dict:
        # Only identity is pickled, so a table's pickle (the idempotence
        # anchor for registry retrofits) is the same before and after it
        # serves.
        return {name: getattr(self, name) for name in self._STATE}

    def __setstate__(self, state: dict) -> None:
        for name in self._STATE:
            setattr(self, name, state[name])
        self._derive()

    # -- geometry --------------------------------------------------------
    @property
    def lattice_shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def n_points(self) -> int:
        return int(self.grid_index.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the packed arrays."""
        return int(self.grid_index.nbytes + self.thread_grid.nbytes
                   + sum(a.nbytes for a in self.axes)
                   + (self.cell_ok.nbytes if self.cell_ok is not None else 0))

    def lattice_points(self) -> np.ndarray:
        """Every lattice ``(m, k, n)`` as an ``(n_points, 3)`` array."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    # -- lookup ----------------------------------------------------------
    def _resolve(self, m: int, k: int, n: int) -> tuple:
        """The one lookup kernel: ``(choice, resolved, interpolated)``.

        An exact lattice hit costs three dict probes and one list read.
        In plateau mode an off-lattice shape inside the bounding box is
        answered from the lower corner of its bracketing cell when that
        cell may answer its interior (all agreeing corners answer
        alike).  Every other shape falls through as ``(0, False,
        False)``.
        """
        index_m, index_k, index_n = self._index
        i, j, l = index_m.get(m), index_k.get(k), index_n.get(n)
        interpolated = i is None or j is None or l is None
        if interpolated:
            if self.cell_ok is None:
                return _MISS
            cell = self._cell(m, k, n)
            if cell is None or not self.cell_ok[cell]:
                return _MISS
            i, j, l = cell
        _, size_k, size_n = self.grid_index.shape
        return self._choices[(i * size_k + j) * size_n + l], True, \
            interpolated

    def _cell(self, m: int, k: int, n: int):
        """Bracketing cell of a shape inside the bounding box, else None.

        Cell ``i`` spans ``axis[i]..axis[i+1]``: an exact tick anchors
        the cell whose *lower* edge it is, the last tick clips into the
        last cell, and a single-value axis maps everything to cell 0.
        """
        cell = []
        for ticks, value in zip(self._ticks, (m, k, n)):
            if value < ticks[0] or value > ticks[-1]:
                return None
            cell.append(min(bisect_right(ticks, value) - 1,
                            max(len(ticks) - 2, 0)))
        return tuple(cell)

    @staticmethod
    def _as_dims(shapes) -> np.ndarray:
        dims = np.asarray([s.dims if hasattr(s, "dims") else s
                           for s in shapes], dtype=np.int64)
        return dims.reshape(-1, 3) if dims.size else dims.reshape(0, 3)

    def lookup_batch(self, shapes):
        """Batch probe: ``(choices, resolved)`` aligned with input.

        ``choices`` is int64; entries where ``resolved`` is False are 0
        and the caller must fall through to the plan for those shapes.
        """
        choices, resolved, _ = self.lookup_batch_ex(shapes)
        return choices, resolved

    def lookup_batch_ex(self, shapes):
        """:meth:`lookup_batch` plus the interpolation mask.

        Returns ``(choices, resolved, interpolated)`` — the extra mask
        marks resolved entries answered between lattice points, so the
        predictor can account tier-0 interpolation separately from
        exact hits.  Each shape goes through the scalar kernel.
        """
        rows = [self._resolve(m, k, n)
                for m, k, n in self._as_dims(shapes).tolist()]
        cols = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        return cols[0], cols[1].astype(bool), cols[2].astype(bool)

    def lookup(self, m: int, k: int, n: int):
        """Scalar probe: the thread choice, or ``None`` off the lattice."""
        choice, _ = self.lookup_ex(m, k, n)
        return choice

    def lookup_ex(self, m: int, k: int, n: int):
        """Scalar probe with attribution: ``(choice or None, interpolated)``."""
        choice, resolved, interpolated = self._resolve(int(m), int(k),
                                                       int(n))
        if not resolved:
            return None, False
        return choice, interpolated

    # -- reporting -------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able summary for manifests and ``models inspect``."""
        info = {
            "routine": self.routine,
            "snap": self.snap,
            "lattice_shape": list(self.lattice_shape),
            "n_points": self.n_points,
            "nbytes": self.nbytes,
            "thread_grid": self.thread_grid.tolist(),
            "axis_ranges": [[int(a[0]), int(a[-1])] for a in self.axes],
        }
        if self.cell_ok is not None:
            info["cells"] = int(self.cell_ok.size)
            info["plateau_cells"] = int(self.cell_ok.sum())
        for key in ("resolution", "coverage", "n_probe", "source",
                    "generation", "refined_from_version", "demoted_cells",
                    "validation_probes"):
            if key in self.meta:
                info[key] = self.meta[key]
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DecisionTable({self.routine!r}, "
                f"lattice={self.lattice_shape}, snap={self.snap!r})")


def campaign_axes(config, routine: str = None, resolution: int = 16,
                  n_probe: int = 512):
    """Quantised lattice axes for the shapes a campaign can reach.

    Re-runs the training campaign's domain sampler (same cap, dtype and
    seed recorded in ``config``) to probe the shape distribution the
    model was fitted on, maps each GEMM problem onto the routine's
    feature dims, and quantises every *varying* axis to ``resolution``
    square-root-scale values between the observed extremes — matching
    the sampler's own sqrt-scale draw, so lattice density follows
    sampling density.  Constant axes (GEMV's trailing 1, TRSM's tied
    k = m) collapse to a single lattice value.

    Returns ``(axes, probe_dims)`` — the probe is reused for the
    coverage statistic.
    """
    from repro.core.routines import REGISTRY
    from repro.sampling.domain import GemmDomainSampler

    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    cap = int(getattr(config, "memory_cap_bytes", 0) or 0)
    if cap <= 0:
        raise ValueError(
            "config records no sampling domain (memory_cap_bytes) — pass "
            "explicit axes to compile a table for this bundle")
    routine = routine or getattr(config, "routine", "gemm")
    info = REGISTRY.get(routine)
    sampler = GemmDomainSampler(memory_cap_bytes=cap,
                                dtype=getattr(config, "dtype", "float32"),
                                seed=int(getattr(config, "seed", 0)))
    probe = sampler.sample(int(n_probe))
    probe_dims = np.asarray([info.from_gemm(s).dims for s in probe],
                            dtype=np.int64)
    axes = []
    for col in probe_dims.T:
        lo, hi = int(col.min()), int(col.max())
        if lo == hi:
            axes.append(np.asarray([lo], dtype=np.int64))
            continue
        ticks = np.linspace(np.sqrt(lo), np.sqrt(hi), int(resolution)) ** 2
        ticks = np.clip(np.round(ticks).astype(np.int64), lo, hi)
        axes.append(np.unique(ticks))
    return tuple(axes), probe_dims


def _plateau_probe_points(axes, probe_dims, n_probe: int) -> np.ndarray:
    """Off-lattice validation probes for plateau cells.

    Campaign probe shapes that land inside the bounding box without
    being exact lattice points (real traffic the plateau will answer),
    plus a seeded uniform sweep of the box interior so sparse campaigns
    still exercise every region.  Deterministic by construction.
    """
    lo = np.asarray([a[0] for a in axes], dtype=np.int64)
    hi = np.asarray([a[-1] for a in axes], dtype=np.int64)
    rng = np.random.default_rng(abs(hash(("plateau",) + tuple(
        int(v) for v in np.concatenate(axes)))) % (2 ** 32))
    uniform = np.column_stack([
        rng.integers(int(l), int(h) + 1, size=int(n_probe), dtype=np.int64)
        for l, h in zip(lo, hi)])
    points = [uniform]
    if probe_dims is not None and len(probe_dims):
        in_box = ((probe_dims >= lo) & (probe_dims <= hi)).all(axis=1)
        points.append(np.asarray(probe_dims, dtype=np.int64)[in_box])
    merged = np.concatenate(points, axis=0)
    exact = np.ones(len(merged), dtype=bool)
    for axis, col in zip(axes, merged.T):
        exact &= np.isin(col, axis)
    return np.unique(merged[~exact], axis=0)


def compile_table(predictor, config=None, axes=None, snap: str = "exact",
                  resolution: int = 16, n_probe: int = 512) -> DecisionTable:
    """Pre-evaluate ``predictor`` over a shape lattice into a table.

    ``axes`` gives the lattice explicitly; otherwise it derives from the
    training campaign recorded in ``config`` (:func:`campaign_axes`).
    Evaluation goes through whatever path the predictor itself uses —
    pass a compiled predictor to tabulate the plan — in
    :data:`BUILD_CHUNK`-point batches, then **every** lattice point is
    looked up back through the packed table and compared bitwise against
    the directly-computed choices; any disagreement raises
    :class:`TableValidationError` rather than shipping a wrong table.

    ``snap="plateau"`` adds a second validation sweep over a sampled
    off-lattice probe set: any agreeing cell whose *interior* the plan
    nevertheless answers differently (piecewise-constant tree models
    can carve a cell without moving its corners) is **demoted** — the
    cell falls through at serving time instead of shipping a wrong
    interpolation.  The demotion count lands in the table's metadata.
    """
    if axes is None:
        if config is None:
            raise ValueError("compile_table needs explicit axes or a config "
                             "to derive the campaign lattice from")
        axes, probe_dims = campaign_axes(config, routine=predictor.routine,
                                         resolution=resolution,
                                         n_probe=n_probe)
        source = "campaign"
    else:
        axes = tuple(_as_axis(a) for a in axes)
        if len(axes) != 3:
            raise ValueError("need exactly three lattice axes (m, k, n)")
        probe_dims = None
        source = "explicit"
    grid = np.asarray(predictor.thread_grid, dtype=np.int64)
    if grid.size > np.iinfo(np.int16).max:
        raise ValueError("thread grid too large to pack into int16 indices")
    shape = tuple(a.size for a in axes)
    n_points = int(np.prod(shape))
    if n_points > MAX_LATTICE_POINTS:
        raise ValueError(
            f"lattice of {n_points} points exceeds the "
            f"{MAX_LATTICE_POINTS}-point bound; lower the resolution")

    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    rows = np.empty(n_points, dtype=np.int16)
    for start in range(0, n_points, BUILD_CHUNK):
        chunk = points[start:start + BUILD_CHUNK]
        scores = predictor.predicted_runtimes_batch(
            [tuple(int(v) for v in p) for p in chunk])
        rows[start:start + BUILD_CHUNK] = np.argmin(
            scores, axis=1).astype(np.int16)

    meta = {"resolution": int(resolution), "source": source}
    if probe_dims is not None:
        lo = np.asarray([a[0] for a in axes])
        hi = np.asarray([a[-1] for a in axes])
        in_box = ((probe_dims >= lo) & (probe_dims <= hi)).all(axis=1)
        meta["coverage"] = round(float(in_box.mean()), 4)
        meta["n_probe"] = int(probe_dims.shape[0])
    table = DecisionTable(routine=predictor.routine, thread_grid=grid,
                          axes=axes, grid_index=rows.reshape(shape),
                          snap=snap, meta=meta)

    expected = grid[rows.astype(np.intp)]
    for start in range(0, n_points, BUILD_CHUNK):
        chunk = points[start:start + BUILD_CHUNK]
        got, resolved = table.lookup_batch(chunk)
        if not resolved.all():
            raise TableValidationError(
                f"table failed to resolve its own lattice points for "
                f"routine {table.routine!r}")
        if not np.array_equal(got, expected[start:start + BUILD_CHUNK]):
            bad = np.nonzero(got != expected[start:start + BUILD_CHUNK])[0][0]
            m, k, n = (int(v) for v in chunk[bad])
            raise TableValidationError(
                f"table answer diverges from the plan at lattice point "
                f"({m}, {k}, {n}): table={int(got[bad])} "
                f"plan={int(expected[start + bad])}")

    if snap == "plateau":
        _validate_plateaus(table, predictor, probe_dims,
                           n_probe=max(int(n_probe), PLATEAU_PROBES))
    return table


def _validate_plateaus(table: DecisionTable, predictor, probe_dims,
                       n_probe: int) -> None:
    """Demote plateau cells the plan disagrees with on interior probes."""
    probes = _plateau_probe_points(table.axes, probe_dims, n_probe)
    demoted = 0
    checked = 0
    for start in range(0, len(probes), BUILD_CHUNK):
        chunk = probes[start:start + BUILD_CHUNK]
        got, resolved, interpolated = table.lookup_batch_ex(chunk)
        if not interpolated.any():
            continue
        sample = chunk[interpolated]
        answers = got[interpolated]
        checked += len(sample)
        scores = predictor.predicted_runtimes_batch(
            [tuple(int(v) for v in p) for p in sample])
        plan = table.thread_grid[np.argmin(scores, axis=1)]
        bad = answers != plan
        if bad.any():
            before = int(table.cell_ok.sum())
            for m, k, n in sample[bad].tolist():
                table.cell_ok[table._cell(m, k, n)] = False
            demoted += before - int(table.cell_ok.sum())
    table.meta["validation_probes"] = int(checked)
    table.meta["demoted_cells"] = int(demoted)
