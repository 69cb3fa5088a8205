"""The oracle gate: every run's selections against the object path.

Serving machinery may change when a thread count is chosen, never which
one.  :func:`gate` holds every measured run to that: each request's
record must be present, describe the requested shape, carry the
object-path oracle's thread choice, and carry exactly the replayed
simulator time for that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Universe:
    """The prepared shapes with their replay times and oracle choices."""

    dims: list          # row -> (m, k, n)
    grid: list          # thread counts, ascending
    times: list         # row -> tuple of seconds, one per grid entry
    oracle: list        # row -> object-path thread choice
    on_lattice: np.ndarray
    gain: np.ndarray    # row -> all-cores time / fastest time

    @classmethod
    def load(cls, path: str) -> "Universe":
        with np.load(path) as data:
            times = data["times"]
            return cls(dims=list(map(tuple, data["dims"].tolist())),
                       grid=data["grid"].tolist(),
                       times=list(map(tuple, times.tolist())),
                       oracle=data["oracle"].tolist(),
                       on_lattice=data["on_lattice"].copy(),
                       gain=times[:, -1] / times.min(axis=1))

    def backend(self):
        """The replay backend over this universe's table."""
        from perfbench.replay import ReplayBackend

        return ReplayBackend(self.dims, self.grid, self.times)

    def fastest(self) -> dict:
        """``(m, k, n) -> `` the grid entry with the smallest replay time."""
        return {dims: self.grid[int(np.argmin(row))]
                for dims, row in zip(self.dims, self.times)}


def gate(rows, records, universe: Universe) -> dict:
    """Check ``records[i]`` against universe row ``rows[i]``.

    ``rows`` has one entry per request sent.  A record that is an
    exception is a failed request and is not checked; ``None``, or no
    record at all past the end of a short ``records``, is a request that
    completed without a record; a record past the end of ``rows``
    answers no request and is wrong.  Returns counts; the run is correct
    when ``missing`` and ``wrong`` are both zero.
    """
    column = {t: j for j, t in enumerate(universe.grid)}
    dims, times, oracle = universe.dims, universe.times, universe.oracle
    checked = failed = 0
    missing = max(0, len(rows) - len(records))
    wrong = max(0, len(records) - len(rows))
    for row, record in zip(rows, records):
        if isinstance(record, BaseException):
            failed += 1
            continue
        if record is None:
            missing += 1
            continue
        checked += 1
        j = column.get(record.n_threads)
        if (j is None or record.n_threads != oracle[row]
                or record.spec.dims != dims[row]
                or record.runtime != times[row][j]):
            wrong += 1
    return {"checked": checked, "missing": missing, "wrong": wrong,
            "failed": failed}


def gemm_speedup(rows, records, universe: Universe) -> float:
    """Geometric mean of per-call ``t(max grid threads) / t(chosen)``.

    The per-call ratio is the paper's Table V speedup.  On the 0-100 MB
    domain it runs from below 1x to several hundred x, so an arithmetic
    mean over a run would be set by its few tiniest shapes; the
    geometric mean weighs every call alike.
    """
    base = len(universe.grid) - 1
    ratios = [universe.times[row][base] / record.runtime
              for row, record in zip(rows, records)
              if not isinstance(record, BaseException) and record is not None]
    return float(np.exp(np.mean(np.log(ratios))))
