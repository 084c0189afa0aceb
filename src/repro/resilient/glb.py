"""GLB resilience: bag fragments at steal boundaries plus a loot ledger.

GLB has no global iteration structure to cut epochs at, so its unit of
durability is the *steal boundary*: whenever a bag splits (a steal, a
lifeline delivery, the initial distribution wave) or merges (loot arriving),
the place writes one atomic snapshot — ``(processed, cost, bag, merged-ids)``
under a single key — to its replica set.  Chunk processing *between*
boundaries is deliberately not checkpointed: a restored worker replays it,
and :attr:`reexecuted_items` (counted as ``processed-at-death minus
processed-at-snapshot``) lets the stats report the exact tree size anyway.

The **loot ledger** keeps in-flight loot exactly-once across deaths.  Every
fragment that leaves a bag gets a ledger entry *after* the covering post-split
snapshot is durable (so restored victims are never pre-split), transitioning
``in_flight -> received -> done``:

``in_flight``
    shipped but not yet merged anywhere.  Recovery of the victim re-merges it
    (the loot died in transit) — unless the restored snapshot pre-dates the
    split (``cover_version``), in which case the loot is still inside the
    restored bag.  Late deliveries of a re-merged entry are dropped by
    :meth:`accept_loot`.
``received``
    merged into the thief's volatile bag, covering snapshot not yet durable.
    Recovery of the *thief* re-merges it unless the restored snapshot's
    merged-id set already contains it.
``done``
    covered by a durable snapshot somewhere; no recovery action ever.

This mirrors what a real resilient GLB reconstructs by querying survivors;
the ledger is the simulator's omniscient-but-faithful stand-in, while every
byte of snapshot and restore traffic flows through the simulated transport.
"""

from __future__ import annotations

import copy
import itertools

from repro.resilient.store import ResilientStore

#: simulated seconds between a GLB place's death and its respawn (rejoin latency)
RESPAWN_DELAY = 2e-3


class _LootEntry:
    __slots__ = ("victim", "thief", "bag", "state", "cover_version")

    def __init__(self, victim: int, thief: int, bag, cover_version: int) -> None:
        self.victim = victim
        self.thief = thief
        self.bag = bag
        self.state = "in_flight"
        self.cover_version = cover_version


class GlbResilience:
    """Checkpoint/ledger bookkeeping attached to one :class:`~repro.glb.Glb`."""

    def __init__(self, store: ResilientStore) -> None:
        self.store = store
        self.rt = store.rt
        #: items/cost a recovered place re-processed (subtracted by stats)
        self.reexecuted_items = 0.0
        self.reexecuted_cost = 0.0
        n = self.rt.n_places
        self._version = [0] * n  # last snapshot version per place
        self._merged: list[set[int]] = [set() for _ in range(n)]
        self._base_processed = [0.0] * n
        self._base_cost = [0.0] * n
        self._ledger: dict[int, _LootEntry] = {}
        self._loot_ids = itertools.count(1)
        self._deaths: dict[int, tuple[float, float]] = {}
        metrics = self.rt.obs.metrics
        self._c_fragments = metrics.counter("resilient.glb_fragments")
        self._c_reassigned = metrics.counter("resilient.loot_reassigned")
        self._tracer = self.rt.obs.trace
        self._glb = None

    def attach(self, glb) -> None:
        """Bind to the Glb instance (counters are absolute; remember the base)."""
        self._glb = glb
        for p, st in enumerate(glb.state):
            self._base_processed[p] = float(st.processed.value)
            self._base_cost[p] = float(st.cost.value)

    # -- snapshot boundaries -----------------------------------------------------------

    def checkpoint(self, ctx, st):
        """Write this place's atomic snapshot (generator; yields on the store).

        The snapshot tuple is deep-copied by the store at call time, so it is
        consistent even though other activities at this place may mutate the
        bag while the replica writes are in flight.  Once the put returns,
        every ``received`` loot entry covered by the snapshot becomes
        ``done``.
        """
        place = ctx.here
        version = self._version[place] + 1
        self._version[place] = version
        merged = frozenset(self._merged[place])
        value = (float(st.processed.value), float(st.cost.value), st.bag, merged)
        nbytes = st.bag.serialized_nbytes + 32
        yield from self.store.put(
            ctx, f"glb/bag/{place}", value, version,
            nbytes=nbytes, commit_scope=f"glb/{place}",
        )
        self._c_fragments.inc()
        for lid in merged:
            entry = self._ledger.get(lid)
            if entry is not None and entry.thief == place and entry.state == "received":
                entry.state = "done"

    def register_loot(self, victim: int, thief: int, loot) -> int:
        """Record a fragment leaving ``victim`` for ``thief``; returns its id.

        Must be called *after* the post-split snapshot is durable — the
        entry's cover version is the victim's current snapshot version.
        """
        lid = next(self._loot_ids)
        self._ledger[lid] = _LootEntry(
            victim, thief, copy.deepcopy(loot), self._version[victim]
        )
        return lid

    def reclaim(self, lid: int, holder: int) -> None:
        """The planned thief died before delivery; ``holder`` keeps the loot."""
        self._ledger[lid].thief = holder

    def accept_loot(self, lid: int) -> bool:
        """May arriving loot be merged?  False: it was reassigned by recovery."""
        return self._ledger[lid].state == "in_flight"

    def note_merged(self, place: int, lid: int) -> None:
        """Loot merged into ``place``'s volatile bag (durable at next snapshot)."""
        entry = self._ledger[lid]
        entry.state = "received"
        entry.thief = place
        self._merged[place].add(lid)

    # -- death and recovery -------------------------------------------------------------

    def note_death(self, place: int, processed: float, cost: float) -> None:
        """Capture the dead place's counters for re-execution accounting."""
        self._deaths[place] = (processed, cost)

    def restore(self, ctx, st) -> int:
        """Reload a revived place's bag from replicas (generator).

        Merges the newest durable snapshot into ``st.bag``, credits the work
        lost since that snapshot to :attr:`reexecuted_items`, then re-merges
        every ledger entry stranded by the death.  Returns the restored
        snapshot version (-1 if the place never checkpointed).
        """
        place = ctx.here
        version, value = yield from self.store.get(ctx, f"glb/bag/{place}")
        if value is not None:
            processed_at, cost_at, bag, merged = value
            st.bag.merge(bag)  # store.get returned a fresh copy
        else:
            processed_at = self._base_processed[place]
            cost_at = self._base_cost[place]
            merged = frozenset()
        dead_processed, dead_cost = self._deaths.pop(place, (processed_at, cost_at))
        self.reexecuted_items += max(0.0, dead_processed - processed_at)
        self.reexecuted_cost += max(0.0, dead_cost - cost_at)
        self._merged[place] = set(merged)
        self._version[place] = max(self._version[place], version)
        for lid in self._stranded(place, version, merged):
            entry = self._ledger[lid]
            self._c_reassigned.inc()
            if entry.bag is not None:
                st.bag.merge(entry.bag)
            entry.bag = None
            entry.state = "done"
            self._merged[place].add(lid)
        if self._tracer.enabled:
            self._tracer.instant(
                "resilient.restore", "resilient", place, self.rt.engine.now,
                scope=f"glb/{place}", epoch=version,
            )
        return version

    def _stranded(self, place: int, restored_version: int, restored_merged) -> list[int]:
        """Ledger entries recovery of ``place`` must re-merge (or settle)."""
        out = []
        for lid, entry in self._ledger.items():
            if entry.state == "done":
                continue
            if entry.victim == place and entry.state == "in_flight":
                if restored_version >= entry.cover_version:
                    out.append(lid)  # restored bag is post-split: loot is gone
                else:
                    # the covering snapshot never became durable, so the loot
                    # never shipped and still sits inside the restored bag
                    entry.state = "done"
                    entry.bag = None
            elif entry.thief == place:
                if lid in restored_merged:
                    entry.state = "done"  # restored bag already contains it
                    entry.bag = None
                else:
                    out.append(lid)
        return out
