"""The replicated resilient store: versioned snapshots with quorum reads.

Layout follows Resilient X10's ``PlaceLocalStore``: the snapshot a place
writes under a key is replicated to its ``k`` *successor* places (ring
neighbours ``owner+1 .. owner+k``), so a single death never takes out a
fragment and simultaneous deaths only lose data when a place and both of its
successors die together.

All data movement is real simulated traffic: a put is one remote evaluation
per replica (payload = the modeled snapshot size), a get is a quorum read
consulting every live replica and returning the newest version.  Replica
tables live *at* their place — when the place dies the copies die with it
(:meth:`_on_place_death` clears the table).

Writes are versioned and exactly-once: the transport already dedupes
retried deliveries, and the store additionally skips a ``(key, version)``
pair it has seen.
"""

from __future__ import annotations

import copy
from typing import Any, Optional, Tuple

from repro.errors import DeadPlaceError, ResilientError
from repro.xrt import estimate_nbytes


class ResilientStore:
    """Replicated, versioned key/value snapshots for checkpoint data."""

    def __init__(self, rt, name: str = "store", replicas: int = 2) -> None:
        if replicas < 1:
            raise ResilientError("a resilient store needs at least one replica")
        self.rt = rt
        self.name = name
        #: replicas per key, capped so a tiny runtime still constructs
        self.k = min(replicas, max(1, rt.n_places - 1))
        #: per-place replica tables: place -> {key: {version: (value, nbytes)}}
        self._tables: list[dict] = [dict() for _ in range(rt.n_places)]
        #: key -> owner place (recorded at first put; keys are owner-scoped)
        self._owners: dict[str, int] = {}
        metrics = rt.obs.metrics
        self._c_writes = metrics.counter("resilient.store_writes")
        self._c_dup_writes = metrics.counter("resilient.store_dup_writes")
        self._c_degraded_writes = metrics.counter("resilient.degraded_writes")
        self._c_reads = metrics.counter("resilient.quorum_reads")
        self._c_degraded_reads = metrics.counter("resilient.degraded_reads")
        self._c_restored_bytes = metrics.counter("resilient.restored_bytes")
        self._tracer = rt.obs.trace
        if rt.chaos is not None:
            rt.chaos.subscribe_death(self._on_place_death)

    def replicas_of(self, owner: int) -> list[int]:
        """Ring successors holding ``owner``'s snapshots (never the owner)."""
        n = self.rt.n_places
        return [(owner + i) % n for i in range(1, self.k + 1)]

    # -- writes ---------------------------------------------------------------------

    def put(self, ctx, key: str, value: Any, version: int,
            nbytes: Optional[int] = None, commit_scope: Optional[str] = None):
        """Write one versioned snapshot to every live replica (generator).

        The value is deep-copied at call time (the serialization point), so
        later mutation of the live object cannot corrupt the snapshot.  The
        writer yields until every live replica acked; replicas that are dead
        — or die mid-write — degrade the copy count instead of failing the
        writer.  ``commit_scope`` marks single-key-atomic users (GLB): a
        ``resilient.commit`` trace instant is emitted once the snapshot is
        durable on at least one replica.
        """
        owner = ctx.here
        self._owners.setdefault(key, owner)
        snapshot = copy.deepcopy(value)
        size = nbytes if nbytes is not None else estimate_nbytes(snapshot)
        pending = []
        for replica in self.replicas_of(owner):
            if self.rt.is_dead(replica):
                self._c_degraded_writes.inc()
                continue
            pending.append(
                ctx.at(replica, self._apply_put, key, version, snapshot, size, nbytes=size)
            )
        durable = False
        for event in pending:
            try:
                yield event
            except DeadPlaceError:
                self._c_degraded_writes.inc()
                continue
            self._c_writes.inc()
            if not durable:
                durable = True
                if commit_scope is not None and self._tracer.enabled:
                    self._tracer.instant(
                        "resilient.commit", "resilient", owner, self.rt.engine.now,
                        scope=commit_scope, epoch=version, key=key,
                    )
        return durable

    def _apply_put(self, rctx, key: str, version: int, value: Any, size: int) -> bool:
        table = self._tables[rctx.here].setdefault(key, {})
        if version in table:
            self._c_dup_writes.inc()
            return False
        table[version] = (value, size)
        return True

    # -- reads ----------------------------------------------------------------------

    def get(self, ctx, key: str):
        """Quorum-read the newest snapshot of ``key`` (generator).

        Consults every live replica and returns ``(version, value)`` for the
        highest version any of them holds.  Returns ``(-1, None)`` when no
        replica holds a version, and raises :class:`ResilientError` when *no*
        replica is even alive — that is data loss, not a miss.
        """
        owner = self._owners.get(key)
        if owner is None:
            return (-1, None)
        hits: list[Tuple[int, Any, int]] = []
        alive = 0
        for replica in self.replicas_of(owner):
            if self.rt.is_dead(replica):
                continue
            alive += 1
            try:
                hit = yield ctx.at(replica, self._fetch, key)
            except DeadPlaceError:
                alive -= 1
                continue
            if hit is not None:
                hits.append(hit)
        if alive == 0:
            raise ResilientError(
                f"store {self.name!r}: no live replica for key {key!r} "
                f"(replicas of place {owner} all failed)"
            )
        self._c_reads.inc()
        if alive < self.k:
            self._c_degraded_reads.inc()
        if not hits:
            return (-1, None)
        version, value, size = max(hits, key=lambda h: h[0])
        self._c_restored_bytes.inc(size)
        return (version, copy.deepcopy(value))

    def _fetch(self, rctx, key: str):
        table = self._tables[rctx.here].get(key)
        if not table:
            return None
        version = max(table)
        value, size = table[version]
        return (version, value, size)

    # -- place failure ----------------------------------------------------------------

    def _on_place_death(self, place: int) -> None:
        """A replica host died: its copies die with it."""
        self._tables[place].clear()
