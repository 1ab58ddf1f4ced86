"""GPU-style coordinate hash table.

Sparse convolution libraries build their kernel maps by inserting all input
coordinates into a hash table on the GPU and probing it once per (output
point, kernel offset) pair.  We reproduce that structure — an open-addressing
table with linear probing, vectorised over numpy — rather than using a Python
``dict``, for two reasons:

* the *probe counts* are the dominant cost of mapping operations, which the
  paper shows can be up to 50% of end-to-end runtime (Section 6.3); the table
  reports them so :mod:`repro.gpusim` can charge for them;
* determinism matches real systems: every query is a pure function of the
  inserted key set.

Insertion runs in rounds, like concurrent ``atomicCAS`` inserts: every
pending key tries its current slot, the first pending key (in pending order)
aiming at a free slot wins it, and everyone else moves one slot on, the
losers of a race keeping their pending order.  The table never deletes, so
every slot between a stored key's home slot and its final slot is occupied.
That makes a query's probe count a function of the layout alone: a hit
costs the key's displacement from its home slot plus one, a miss the
circular distance from its home slot to the next empty slot plus one.
:meth:`CoordinateHashMap.charge_known` uses it to account for queries whose
answers are already known without probing for them, which is how
:func:`~repro.sparse.kmap.build_kernel_map` charges the mirrored half of a
submanifold map.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import MapError

#: 64-bit multiplicative hashing constant (Fibonacci hashing).
_HASH_MULT = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as signed
#: Sentinel for an empty slot.
_EMPTY = np.int64(np.iinfo(np.int64).min)


def _hash_keys(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Map int64 keys to initial probe slots in ``[0, capacity)`` (int64).

    ``capacity`` must be a power of two; Fibonacci multiplicative hashing
    takes the top ``log2(capacity)`` bits of the mixed key, which covers
    the whole table uniformly (a partially covered table degrades linear
    probing to long chains).
    """
    log2_capacity = capacity.bit_length() - 1
    mixed = (keys * _HASH_MULT).view(np.uint64)
    return (mixed >> np.uint64(64 - log2_capacity)).view(np.int64)


@dataclasses.dataclass
class HashMapStats:
    """Accounting for one table's lifetime (consumed by the cost model)."""

    inserts: int = 0
    insert_probes: int = 0
    queries: int = 0
    query_probes: int = 0


class CoordinateHashMap:
    """Open-addressing int64 -> int32 map with linear probing.

    Keys must be unique (coordinate sets are deduplicated before insertion,
    as in real libraries).  Values are the row indices of the coordinates.
    """

    #: Table slots per key (load factor 0.5, typical for GPU hash tables).
    GROWTH_FACTOR = 2

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise MapError(f"hash keys must be 1-D, got shape {keys.shape}")
        ranked = np.sort(keys)
        if np.any(ranked[1:] == ranked[:-1]):
            raise MapError("hash keys must be unique; deduplicate coords first")
        if len(ranked) and ranked[0] == _EMPTY:  # the smallest int64
            raise MapError("key collides with the empty-slot sentinel")
        self.stats = HashMapStats()
        # Next power of two at or above GROWTH_FACTOR * N (load <= 0.5).
        wanted = max(4, self.GROWTH_FACTOR * len(keys))
        self._capacity = 1 << (wanted - 1).bit_length()
        self._slots_keys = np.full(self._capacity, _EMPTY, dtype=np.int64)
        self._slots_vals = np.full(self._capacity, -1, dtype=np.int32)
        self._insert(keys, np.arange(len(keys), dtype=np.int32))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._slots_keys != _EMPTY))

    # ------------------------------------------------------------------ #
    def _insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        mask = self._capacity - 1
        # ``pending`` indexes ``keys``; ``slots`` is aligned with it.
        slots = _hash_keys(keys, self._capacity)
        pending = np.arange(len(keys))
        while len(pending):
            occupied = self._slots_keys[slots] != _EMPTY
            free = np.flatnonzero(~occupied)
            if len(free):
                # Among pending keys aiming at the same free slot only the
                # first wins (atomicCAS semantics); a stable sort puts it
                # first in its run of equal targets.
                order = np.argsort(slots[free], kind="stable")
                ranked = slots[free[order]]
                first = np.ones(len(order), dtype=bool)
                first[1:] = ranked[1:] != ranked[:-1]
                won = np.zeros(len(free), dtype=bool)
                won[order[first]] = True
                chosen = free[won]
                self._slots_keys[slots[chosen]] = keys[pending[chosen]]
                self._slots_vals[slots[chosen]] = values[pending[chosen]]
                # Losers stay in ``free`` order.  Pending keys all advance
                # together, so keys meet again only if they share a home
                # slot, and their order decides who wins there next.
                keep = np.concatenate([np.flatnonzero(occupied), free[~won]])
                pending = pending[keep]
                slots = slots[keep]
            self.stats.insert_probes += len(pending)
            slots = (slots + 1) & mask
        self.stats.inserts += len(keys)
        self.stats.insert_probes += len(keys)  # the successful probe

    # ------------------------------------------------------------------ #
    def query(self, keys: np.ndarray) -> np.ndarray:
        """Look up ``keys``; returns int32 values, ``-1`` for missing keys."""
        keys = np.asarray(keys, dtype=np.int64)
        mask = self._capacity - 1
        slots = _hash_keys(keys, self._capacity)
        slot_keys = self._slots_keys[slots]
        hit = slot_keys == keys
        result = np.where(hit, self._slots_vals[slots], np.int32(-1))
        self.stats.queries += len(keys)
        self.stats.query_probes += len(keys)
        # Continue probing only where the slot is occupied by another key;
        # ``active`` indexes ``result``, ``slots``/``keys`` are aligned.
        active = np.flatnonzero(~hit & (slot_keys != _EMPTY))
        slots = (slots[active] + 1) & mask
        keys = keys[active]
        while len(active):
            self.stats.query_probes += len(active)
            slot_keys = self._slots_keys[slots]
            hit = slot_keys == keys
            result[active[hit]] = self._slots_vals[slots[hit]]
            keep = ~hit & (slot_keys != _EMPTY)
            active = active[keep]
            slots = (slots[keep] + 1) & mask
            keys = keys[keep]
        return result

    def charge_known(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Account for querying ``keys`` whose results ``values`` are known.

        Adds exactly what :meth:`query` would add to ``queries`` and
        ``query_probes``, read off the table layout instead of probing:
        a hit on the key with value ``i`` costs that key's displacement
        from its home slot plus one, a miss the circular distance from its
        home slot to the next empty slot plus one.  Exact because probing
        is linear and nothing is ever deleted.
        """
        mask = self._capacity - 1
        values = np.asarray(values)
        misses = values < 0
        empty = self._slots_keys == _EMPTY
        # Displacement of each stored key, indexed by its value (the row
        # indices ``0..N-1`` the constructor inserted).
        stored = np.flatnonzero(~empty)
        displacement = np.empty(len(stored), dtype=np.int64)
        displacement[self._slots_vals[stored]] = (
            stored - _hash_keys(self._slots_keys[stored], self._capacity)
        ) & mask
        # Circular distance from every slot to the next empty one (the
        # load factor keeps at least half the slots empty).
        position = np.arange(self._capacity)
        next_empty = np.where(empty, position, np.argmax(empty) + self._capacity)
        gap = np.minimum.accumulate(next_empty[::-1])[::-1] - position
        home = _hash_keys(np.asarray(keys, dtype=np.int64)[misses],
                          self._capacity)
        self.stats.queries += len(values)
        self.stats.query_probes += int(
            len(values) + displacement[values[~misses]].sum() + gap[home].sum()
        )
