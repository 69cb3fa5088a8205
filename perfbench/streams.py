"""Seeded workload streams over the prepared shape universe.

A stream is an array of universe row indices, one per request, in the
order the workload sends them.  The program only ever sees the
``GemmSpec`` objects built from those rows; the generators here only
see the universe's ``on_lattice`` mask and each shape's ``gain`` (the
simulator's all-cores time over its fastest time), so tests can drive
them with a synthetic universe.

* ``library``: a seeded working set of :data:`WORKING_SET` off-lattice
  shapes cycled in a seeded order, with about :data:`COLD_SHARE` of the
  calls taking the next shape of a seeded cold pool instead.  The cold
  pool is thousands of shapes long, so a cold shape recurs only long
  after the prediction cache has evicted it.
* ``serve`` and ``fleet``: about :data:`HOT_SHARE` of the requests pick
  a shape of a seeded hot set; the rest are first-touch shapes, half
  lattice points of the published decision table and half off-lattice
  pool shapes, each walked in a seeded order.

Working and hot sets take one random shape from each of equally sized
bins of the pool sorted by gain.  Gains run from 1x to several hundred
x, so a plain random draw of a few dozen shapes would let one seed's
average GEMM speedup differ from the next seed's by a third.
"""

from __future__ import annotations

import numpy as np

STREAM_LENGTH = 1 << 16
WORKING_SET = 48
COLD_SHARE = 0.05
HOT_SET = 32
HOT_SHARE = 0.20
#: Salts keep the three workloads' streams distinct for one seed.
SALT = {"library": 1, "serve": 2, "fleet": 3}


def _cycle(rows: np.ndarray, count: int) -> np.ndarray:
    return rows[np.arange(count) % rows.size]


def _spread_sample(rng, rows: np.ndarray, gain, size: int) -> np.ndarray:
    """One random row from each of ``size`` gain-ordered bins."""
    ordered = rows[np.argsort(np.asarray(gain)[rows], kind="stable")]
    return np.asarray([rng.choice(b) for b in np.array_split(ordered, size)])


def library_stream(on_lattice, gain, seed: int,
                   length: int = STREAM_LENGTH) -> np.ndarray:
    rng = np.random.default_rng([SALT["library"], int(seed)])
    pool = np.flatnonzero(~np.asarray(on_lattice))
    working = rng.permutation(_spread_sample(rng, pool, gain, WORKING_SET))
    cold = rng.permutation(np.setdiff1d(pool, working))
    is_cold = rng.random(length) < COLD_SHARE
    out = np.empty(length, dtype=np.int64)
    out[~is_cold] = _cycle(working, int((~is_cold).sum()))
    out[is_cold] = _cycle(cold, int(is_cold.sum()))
    return out


def mixed_stream(on_lattice, gain, seed: int, workload: str = "serve",
                 length: int = STREAM_LENGTH) -> np.ndarray:
    on_lattice = np.asarray(on_lattice)
    rng = np.random.default_rng([SALT[workload], int(seed)])
    lattice = rng.permutation(np.flatnonzero(on_lattice))
    pool = np.flatnonzero(~on_lattice)
    hot = _spread_sample(rng, pool, gain, HOT_SET)
    off = rng.permutation(np.setdiff1d(pool, hot))
    kind = rng.choice(3, size=length,
                      p=[(1 - HOT_SHARE) / 2, (1 - HOT_SHARE) / 2, HOT_SHARE])
    out = np.empty(length, dtype=np.int64)
    out[kind == 0] = _cycle(lattice, int((kind == 0).sum()))
    out[kind == 1] = _cycle(off, int((kind == 1).sum()))
    out[kind == 2] = hot[rng.integers(0, HOT_SET, int((kind == 2).sum()))]
    return out


def stream(workload: str, on_lattice, gain, seed: int,
           length: int = STREAM_LENGTH) -> np.ndarray:
    if workload == "library":
        return library_stream(on_lattice, gain, seed, length)
    return mixed_stream(on_lattice, gain, seed, workload, length)
