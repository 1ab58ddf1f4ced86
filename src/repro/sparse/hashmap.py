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
losers of a race keeping their pending order.  All pending keys advance
together, so in round ``r`` every pending key sits at its home slot plus
``r``: two keys meet only if they share a home, and then they meet in every
round until one is placed.  Keys of one home therefore leave in their
original order, one per round at most, and keys of different homes never
compete.  The table runs exactly that: one sort groups the keys into a
queue per home, and round ``r`` offers slot ``home + r`` to the head of
every queue that still waits.  A key placed in round ``r`` paid ``r``
extra probes, which is recorded as its displacement.

The table never deletes, so every slot between a stored key's home slot and
its final slot is occupied.  That makes a query's probe count a function of
the layout alone: a hit costs the key's displacement from its home slot plus
one, a miss the circular distance from its home slot to the next empty slot
plus one.  :meth:`CoordinateHashMap.charge_known` uses it to account for
queries whose answers are already known without probing for them, which is
how :func:`~repro.sparse.kmap.build_kernel_map` charges the mirrored half of
a submanifold map.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

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
    mixed: np.ndarray = keys * _HASH_MULT
    bits = mixed.view(np.uint64)
    bits >>= np.uint64(64 - log2_capacity)
    return mixed


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

    def __init__(self, keys: np.ndarray) -> None:
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
        #: Displacement of each stored key from its home slot, indexed by
        #: its value (the row indices ``0..N-1`` inserted below).
        self._displacement = np.zeros(len(keys), dtype=np.int64)
        self._insert(keys, np.arange(len(keys), dtype=np.int32))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._slots_keys != _EMPTY))

    # ------------------------------------------------------------------ #
    def _insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        num = len(keys)
        mask = self._capacity - 1
        home = _hash_keys(keys, self._capacity)
        # Group the keys by home slot, in insertion order within a home: one
        # sort of ``home << b | i`` with ``b`` bits for the index ``i``,
        # exact while ``capacity << b < 2**63`` (``capacity <= max(8, 4N)``,
        # so for any N below 2**30).
        bits = num.bit_length()
        queued_home = np.sort((home << bits) | np.arange(num))
        member = queued_home & ((1 << bits) - 1)
        queued_home >>= bits
        # One queue per home slot: ``head`` is the position of its next key
        # in ``member``, ``end`` one past its last.
        head = np.flatnonzero(np.diff(queued_home, prepend=-1))
        end = np.append(head[1:], num)
        queue_home = queued_home.take(head)
        placed = np.empty(num, dtype=np.int64)  # each key's final slot
        rnd = 0
        while len(head):
            # Round ``rnd``: the head of every queue tries its home slot
            # plus ``rnd``; no two queues aim at the same slot.
            slots = queue_home + rnd
            slots &= mask
            free = self._slots_keys.take(slots) == _EMPTY
            won = member.take(head[free])
            slots = slots[free]
            self._slots_keys[slots] = keys.take(won)
            placed[won] = slots
            head += free
            waiting = head < end
            head, end, queue_home = head[waiting], end[waiting], queue_home[waiting]
            rnd += 1
        self._slots_vals[placed] = values
        displacement = (placed - home) & mask
        self._displacement[values] = displacement
        self.stats.inserts += num
        # One probe per round spent waiting plus the successful probe.
        self.stats.insert_probes += num + int(displacement.sum())

    # ------------------------------------------------------------------ #
    def query(
        self, keys: np.ndarray, stats: Optional[HashMapStats] = None
    ) -> np.ndarray:
        """Look up ``keys``; returns int32 values, ``-1`` for missing keys.

        The queries and probes are added to ``stats``, by default the
        table's own (a table shared by several maps charges each map's
        queries to that map).
        """
        keys = np.asarray(keys, dtype=np.int64)
        mask = self._capacity - 1
        slots = _hash_keys(keys, self._capacity)
        slot_keys = self._slots_keys.take(slots)
        result = np.full(len(keys), -1, dtype=np.int32)
        hit = np.flatnonzero(slot_keys == keys)
        result[hit] = self._slots_vals.take(slots.take(hit))
        probes = len(keys)
        # Continue probing only where the slot holds another key;
        # ``active`` indexes ``result``, ``slots``/``keys`` are aligned.
        going = slot_keys != keys
        going &= slot_keys != _EMPTY
        active = np.flatnonzero(going)
        slots = slots.take(active)
        keys = keys.take(active)
        while len(active):
            slots += 1
            slots &= mask
            probes += len(active)
            slot_keys = self._slots_keys.take(slots)
            going = slot_keys != keys
            hit = np.flatnonzero(~going)
            if len(hit):
                result[active.take(hit)] = self._slots_vals.take(
                    slots.take(hit)
                )
            going &= slot_keys != _EMPTY
            keep = np.flatnonzero(going)
            active = active.take(keep)
            slots = slots.take(keep)
            keys = keys.take(keep)
        stats = self.stats if stats is None else stats
        stats.queries += len(result)
        stats.query_probes += probes
        return result

    def charge_known(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        stats: Optional[HashMapStats] = None,
    ) -> None:
        """Account for querying ``keys`` whose results ``values`` are known.

        Adds exactly what :meth:`query` would add to ``queries`` and
        ``query_probes``, read off the table layout instead of probing:
        a hit on the key with value ``i`` costs that key's displacement
        from its home slot (recorded at insert) plus one, a miss the
        circular distance from its home slot to the next empty slot plus
        one.  Exact because probing is linear and nothing is ever deleted.
        Accounts into ``stats`` like :meth:`query`.
        """
        values = np.asarray(values)
        empty = self._slots_keys == _EMPTY
        # Circular distance from every slot to the next empty one (the
        # load factor keeps at least half the slots empty).
        position = np.arange(self._capacity)
        next_empty = np.where(empty, position, np.argmax(empty) + self._capacity)
        gap = np.minimum.accumulate(next_empty[::-1])[::-1] - position
        # Charge every key as a miss, then swap each hit's gap for its
        # displacement.
        home = _hash_keys(np.asarray(keys, dtype=np.int64), self._capacity)
        hit = np.flatnonzero(values >= 0)
        stats = self.stats if stats is None else stats
        stats.queries += len(values)
        stats.query_probes += int(
            len(values)
            + gap.take(home).sum()
            - gap.take(home.take(hit)).sum()
            + self._displacement.take(values.take(hit)).sum()
        )
