"""A fixed multi-process unit of work: the fleet workload's speed probe.

``host.probe`` times a few tens of microseconds of hot, single-thread
Python; ``library`` and ``serve`` slow down with it.  The fleet does
not: its bursts cross three processes on the pinned CPU, so each slab
pays process wake-ups, pipe transfers, pickling and refilling caches
that the other processes evicted, and on a shared host those costs move
with the neighbours' memory traffic as much as with the core's speed.
On a loaded 2-vCPU KVM guest, fleet runs of equal ``host.probe`` cost
differed by up to 25% in wall-clock burst latency, and batches of five
or six 20 s runs converted by it spread 0.16-0.18 (IQR over median).
Converted by this probe, with exponent 1 (:data:`host.ELASTICITY`),
two ten-run sets whose wall-clock median burst latency ranged 66-108 ms
spread 0.042 and 0.028.

:class:`Relay` is a miniature of the fleet's transport that never
touches the program: two helper processes, spawned on the same pinned
CPU, each answering slabs of shapes with a small numpy computation, and
:meth:`Relay.probe` times one round of :data:`SLABS` slabs through them
in wall time.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

HELPERS = 2
SLABS = 8
SLAB_SIZE = 16
JOIN_TIMEOUT_S = 10.0

_WEIGHTS = np.linspace(-1.0, 1.0, 24).reshape(3, 8)


def _answer(slab):
    """A slab's fixed reply: a choice and a score per shape, boxed the
    way records are (tuples and a dict per shape)."""
    logs = np.log2(np.asarray(slab, dtype=np.float64))
    score = logs @ _WEIGHTS
    picks = np.argmin(score, axis=1).tolist()
    best = score.min(axis=1).tolist()
    return tuple((dims, pick, value, {"dims": dims, "pick": pick})
                 for dims, pick, value in zip(slab, picks, best))


def _helper(conn) -> None:
    while True:
        slab = conn.recv()
        if slab is None:
            return
        conn.send(_answer(slab))


class Relay:
    """Helper processes and the fixed slabs sent through them."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        try:
            for _ in range(HELPERS):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(child,),
                                   daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        dims = np.random.default_rng(7).integers(64, 4096,
                                                 (SLABS, SLAB_SIZE, 3))
        self._slabs = [tuple(map(tuple, slab)) for slab in dims.tolist()]
        self.probe()  # first round: helper imports and warm caches

    def probe(self) -> float:
        """Wall seconds of one round: every slab out, every reply back."""
        conns = self._conns
        t0 = time.perf_counter()
        for i, slab in enumerate(self._slabs):
            conns[i % HELPERS].send(slab)
        for i in range(SLABS):
            conns[i % HELPERS].recv()
        return time.perf_counter() - t0

    def close(self) -> None:
        """Stop the helpers and wait for each to end."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []
