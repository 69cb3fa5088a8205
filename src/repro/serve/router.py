"""Pluggable shard routing: which shard serves a request.

A server front (:class:`~repro.serve.server.GemmServer` over local
shards, :class:`~repro.fleet.server.FleetServer` over worker
processes) fronts several shards — one per machine profile, per
routine family, per tenant or per replica — and a router maps each
burst of ``(spec, client)`` requests to shard names.

Every router implements one method, ``route_batch(specs, client)``;
:class:`ShardRouter` derives the scalar ``route`` from it, so the two
forms cannot drift.  The routers:

* :class:`SingleShardRouter` — everything to one shard;
* :class:`ConsistentHashRouter` — shape-hash spreading over replicas
  (the multi-shard default), stable under membership changes;
* :class:`LeastLoadedRouter` / :class:`CostAwareLeastLoadedRouter` —
  live in-flight slots or outstanding predicted FLOPs;
* :class:`CanaryRouter` — a deterministic traffic fraction to one
  shard during a rollout;
* :class:`RoutineRouter` — per routine family (one shard per routine
  name: the mixed-routine deployment default);
* :class:`TenantRouter` — per client.

All but the load-based ones are deterministic functions of their
inputs, so replaying a trace reproduces the same shard assignment (and
therefore the same per-shard cache and batch behaviour).
"""

from __future__ import annotations

import bisect
import hashlib

from repro.core.routines import routine_of
from repro.engine.cache import routine_key
from repro.serve.cost import cost_of


class ShardRouter:
    """Base router: map a burst of requests to shard names.

    Subclasses implement :meth:`route_batch` only, returning one shard
    name per spec; :meth:`route` is its one-spec case.
    """

    def route_batch(self, specs, client: str = "default") -> list:
        raise NotImplementedError

    def route(self, spec, client: str = "default") -> str:
        return self.route_batch([spec], client)[0]


def _require_shards(shards) -> list:
    names = list(shards)
    if not names:
        raise ValueError("router needs at least one shard name")
    return names


class SingleShardRouter(ShardRouter):
    """Everything goes to the one shard (the single-tenant default)."""

    def __init__(self, shard: str = "default"):
        self.shard = str(shard)

    def route_batch(self, specs, client: str = "default") -> list:
        return [self.shard] * len(specs)


class ConsistentHashRouter(ShardRouter):
    """Hash-ring spreading that survives shard membership changes.

    The same shape always lands on the same shard, so its prediction
    stays cached there.  Plain ``hash % n`` spreading would remap
    nearly every key when one shard leaves — a dead fleet worker would
    flush every surviving worker's prediction cache.  The ring keeps
    each shard at ``replicas`` virtual points; a key routes to the
    first point clockwise of its own hash, so removing a shard remaps
    *only* the keys that lived on it and adding one steals an even
    slice from everyone.  Assignments hash the canonical,
    routine-qualified shape key with blake2b (not Python's salted
    ``hash``), so they are stable across processes and runs.
    """

    def __init__(self, shards, replicas: int = 64):
        if int(replicas) < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: list = []   # sorted ring positions
        self._owners: list = []   # shard name at each position
        self.shards: list = []
        for shard in _require_shards(shards):
            self.add(shard)

    @staticmethod
    def _hash(data: str) -> int:
        digest = hashlib.blake2b(data.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def add(self, shard: str) -> None:
        if shard in self.shards:
            return
        self.shards.append(shard)
        for i in range(self.replicas):
            point = self._hash(f"{shard}#{i}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, shard)

    def remove(self, shard: str) -> None:
        if shard not in self.shards:
            return
        if len(self.shards) == 1:
            raise ValueError("cannot remove the last shard from the ring")
        self.shards.remove(shard)
        keep = [i for i, owner in enumerate(self._owners) if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def route_batch(self, specs, client: str = "default") -> list:
        memo: dict = {}  # one ring lookup per distinct key
        out = []
        for spec in specs:
            key = routine_key(spec)
            shard = memo.get(key)
            if shard is None:
                at = bisect.bisect_right(self._points,
                                         self._hash(repr(key)))
                shard = memo[key] = self._owners[at % len(self._points)]
            out.append(shard)
        return out


class LeastLoadedRouter(ShardRouter):
    """Route each request to the shard holding the fewest in-flight slots.

    ``loads`` supplies the live occupancy — either a dict the owner
    mutates in place or a zero-argument callable returning one — and
    the router picks the least-loaded shard, breaking ties by shard
    registration order so identical load states route identically.
    ``route_batch`` additionally counts its *own* assignments while it
    spreads a burst: each routed slot will occupy its shard the moment
    the burst is admitted, so simulating that admission is what makes
    the batch land exactly where sequential route-then-admit calls
    would have put it.  Assignments depend on live state, not only on
    the spec — use it for replica load-spreading, not when replay
    reproducibility matters.
    """

    def __init__(self, shards, loads=None):
        self.shards = _require_shards(shards)
        self._loads = loads if loads is not None else {}

    def current_loads(self) -> dict:
        return dict(self._loads() if callable(self._loads) else self._loads)

    def add(self, shard: str) -> None:
        if shard not in self.shards:
            self.shards.append(shard)

    def remove(self, shard: str) -> None:
        if shard in self.shards:
            if len(self.shards) == 1:
                raise ValueError("cannot remove the last shard")
            self.shards.remove(shard)

    def route_batch(self, specs, client: str = "default") -> list:
        loads = self.current_loads()
        out = []
        for _ in specs:
            shard = min(self.shards, key=lambda s: loads.get(s, 0))
            loads[shard] = loads.get(shard, 0) + 1
            out.append(shard)
        return out


class CostAwareLeastLoadedRouter(LeastLoadedRouter):
    """Least-loaded routing weighted by outstanding *predicted cost*.

    :class:`LeastLoadedRouter` counts in-flight request slots, so a
    worker holding two huge GEMMs looks less loaded than one holding
    three tiny GEMVs.  This router reads ``loads`` as outstanding
    predicted FLOPs per shard (the fleet front supplies its live
    per-worker cost gauge) and ``route_batch`` simulates its own
    assignments by each slot's *cost* rather than by 1 — a burst
    spreads so every shard ends up with a near-equal predicted-FLOPs
    share, whatever the request mix.  Tie-breaking stays registration
    order, so identical load states still route identically.
    """

    def route_batch(self, specs, client: str = "default") -> list:
        loads = self.current_loads()
        out = []
        for cost in cost_of(specs):
            shard = min(self.shards, key=lambda s: loads.get(s, 0))
            loads[shard] = loads.get(shard, 0) + cost
            out.append(shard)
        return out


class CanaryRouter(ShardRouter):
    """Divert a deterministic key fraction of traffic to one shard.

    Wraps a base router during a canary rollout: every spec whose
    hashed shape key falls into the lowest ``fraction`` of the hash
    space routes to ``canary``, everything else follows the base
    router.  The split is a pure function of the shape key (blake2b,
    not Python's salted ``hash``), so the same request always lands on
    the same side — canary-vs-fleet comparisons see disjoint, stable
    traffic sets rather than a random sample.

    Membership changes (``add``/``remove``, when a worker dies or
    rejoins mid-rollout) go to the base router, which keeps routing
    after the rollout ends.
    """

    def __init__(self, base, canary: str, fraction: float = 0.25):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.base = base
        self.canary = str(canary)
        self.fraction = float(fraction)

    def _is_canary(self, spec) -> bool:
        digest = hashlib.blake2b(
            b"canary:" + repr(routine_key(spec)).encode(),
            digest_size=8).digest()
        bucket = int.from_bytes(digest, "little") / float(2 ** 64)
        return bucket < self.fraction

    def add(self, shard: str) -> None:
        add = getattr(self.base, "add", None)
        if add is not None:
            add(shard)

    def remove(self, shard: str) -> None:
        remove = getattr(self.base, "remove", None)
        if remove is not None:
            remove(shard)

    def route_batch(self, specs, client: str = "default") -> list:
        # The base router must see only the slots it will actually own:
        # a stateful base (least-loaded) would otherwise account for
        # slots the canary took.
        rest = [i for i, spec in enumerate(specs)
                if not self._is_canary(spec)]
        out: list = [self.canary] * len(specs)
        if rest:
            names = self.base.route_batch([specs[i] for i in rest], client)
            for i, name in zip(rest, names):
                out[i] = name
        return out


class RoutineRouter(ShardRouter):
    """Route by the spec's *routine name* (one shard per routine family).

    Shards are looked up by the spec's ``routine`` attribute (bare dims
    triples count as "gemm"), so registry-driven deployments can wire
    mixed-routine traffic without importing any spec class.  With
    ``routes`` omitted, each routine maps to the shard of its own name —
    the natural layout when shards are built from a model registry's
    ``(routine, machine)`` cells.
    """

    def __init__(self, routes: dict = None, default: str = None):
        self.routes = dict(routes) if routes is not None else None
        self.default = default

    def route_batch(self, specs, client: str = "default") -> list:
        memo: dict = {}  # one table lookup per distinct routine name
        out = []
        for spec in specs:
            routine = routine_of(spec)
            shard = memo.get(routine)
            if shard is None:
                if self.routes is None:
                    shard = routine
                else:
                    shard = self.routes.get(routine, self.default)
                    if shard is None:
                        raise KeyError(
                            f"no shard registered for routine {routine!r} "
                            f"(have {sorted(self.routes)})")
                memo[routine] = shard
            out.append(shard)
        return out


class TenantRouter(ShardRouter):
    """Route by client identity (one shard per tenant or tenant group)."""

    def __init__(self, routes: dict, default: str = None):
        self.routes = dict(routes)
        self.default = default

    def route_batch(self, specs, client: str = "default") -> list:
        shard = self.routes.get(client, self.default)
        if shard is None:
            raise KeyError(f"no shard registered for client {client!r}")
        return [shard] * len(specs)


def default_router(shard_names) -> ShardRouter:
    """The server's routing default: single shard direct, else a hash
    ring."""
    names = _require_shards(shard_names)
    if len(names) == 1:
        return SingleShardRouter(names[0])
    return ConsistentHashRouter(names)
