"""Tests for the GPU-style coordinate hash table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_sample
from repro.errors import MapError
from repro.sparse.coords import pack_coords
from repro.sparse.hashmap import _EMPTY, CoordinateHashMap, _hash_keys


class ReferenceHashMap(CoordinateHashMap):
    """The round-based insert and probe loops written out plainly: the
    oracle for the slot layout, query results and every stats field."""

    def _insert(self, keys, values):
        slots = _hash_keys(keys, self._capacity).astype(np.int64)
        pending = np.arange(len(keys))
        while len(pending):
            at = slots[pending]
            occupied = self._slots_keys[at] != _EMPTY
            free = pending[~occupied]
            if len(free):
                # First pending key per free target slot wins.
                _, winners = np.unique(slots[free], return_index=True)
                chosen = free[winners]
                self._slots_keys[slots[chosen]] = keys[chosen]
                self._slots_vals[slots[chosen]] = values[chosen]
                lost = np.setdiff1d(free, chosen, assume_unique=True)
                pending = np.concatenate([pending[occupied], lost])
            else:
                pending = pending[occupied]
            slots[pending] = (slots[pending] + 1) % self._capacity
            self.stats.insert_probes += len(pending)
        self.stats.inserts += len(keys)
        self.stats.insert_probes += len(keys)

    def query(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        result = np.full(len(keys), -1, dtype=np.int32)
        slots = _hash_keys(keys, self._capacity).astype(np.int64)
        active = np.arange(len(keys))
        self.stats.queries += len(keys)
        while len(active):
            self.stats.query_probes += len(active)
            at = slots[active]
            slot_keys = self._slots_keys[at]
            hit = slot_keys == keys[active]
            result[active[hit]] = self._slots_vals[at[hit]]
            active = active[~hit & (slot_keys != _EMPTY)]
            slots[active] = (slots[active] + 1) % self._capacity
        return result


def _capacity(n):
    return 1 << (max(4, 2 * n) - 1).bit_length()


@st.composite
def colliding_key_sets(draw):
    """Unique int64 keys that crowd the table: consecutive runs, keys
    spaced by the table capacity, negative keys, at sizes on either side
    of a power of two (where the capacity doubles)."""
    size = draw(
        st.sampled_from([1 << p for p in range(9)]).flatmap(
            lambda b: st.sampled_from([b - 1, b, b + 1])
        )
        | st.integers(0, 300)
    )
    start = draw(st.integers(-(2**40), 2**40) | st.sampled_from([0, -1, 7]))
    step = draw(st.sampled_from(
        [1, -1, _capacity(size), -_capacity(size), 2 * _capacity(size)]
    ) | st.integers(1, 2**20))
    keys = start + step * np.arange(size, dtype=np.int64)
    extra = draw(st.lists(st.integers(-(2**50), 2**50), max_size=20))
    keys = np.concatenate([keys, np.array(extra, dtype=np.int64)])
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


@st.composite
def tables_and_queries(draw):
    """A key set and a query batch mixing hits and misses near the keys."""
    keys = draw(colliding_key_sets())
    shifts = draw(st.lists(
        st.sampled_from([0, 1, -1, 2, _capacity(len(keys))])
        | st.integers(-(2**20), 2**20),
        min_size=1, max_size=4,
    ))
    queries = np.concatenate(
        [keys + shift for shift in shifts]
        + [np.array(draw(st.lists(st.integers(-(2**50), 2**50), max_size=20)),
                    dtype=np.int64)]
    )
    return keys, draw(st.permutations(list(queries)))


class TestAgainstReference:
    """Same layout, answers and accounting as the plain probe loops."""

    @given(colliding_key_sets())
    @settings(max_examples=120, deadline=None)
    def test_insert_layout_matches_reference(self, keys):
        table, reference = CoordinateHashMap(keys), ReferenceHashMap(keys)
        assert np.array_equal(table._slots_keys, reference._slots_keys)
        assert np.array_equal(table._slots_vals, reference._slots_vals)
        assert table.stats == reference.stats

    @given(tables_and_queries())
    @settings(max_examples=120, deadline=None)
    def test_query_matches_reference(self, case):
        keys, queries = case
        queries = np.array(queries, dtype=np.int64)
        table, reference = CoordinateHashMap(keys), ReferenceHashMap(keys)
        got = table.query(queries)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference.query(queries))
        assert table.stats == reference.stats

    @given(tables_and_queries())
    @settings(max_examples=120, deadline=None)
    def test_charge_known_equals_probing(self, case):
        keys, queries = case
        queries = np.array(queries, dtype=np.int64)
        table, reference = CoordinateHashMap(keys), ReferenceHashMap(keys)
        table.charge_known(queries, reference.query(queries))
        assert table.stats == reference.stats

    def test_charge_known_on_empty_table_and_batch(self):
        table = CoordinateHashMap(np.array([], dtype=np.int64))
        table.charge_known(np.array([3, 4], dtype=np.int64), np.array([-1, -1]))
        table.charge_known(np.array([], dtype=np.int64), np.array([], int))
        assert table.stats.queries == 2
        assert table.stats.query_probes == 2


def keys_with_homes(homes, count, capacity, exclude=()):
    """The first ``count`` non-negative ints whose home slot at
    ``capacity`` is in ``homes`` (and not in ``exclude``), in order."""
    candidates = np.arange(1 << 22, dtype=np.int64)
    wanted = np.isin(_hash_keys(candidates, capacity), list(homes))
    picked = candidates[wanted & ~np.isin(candidates, list(exclude))]
    assert len(picked) >= count
    return picked[:count]


def assert_matches_reference(keys, queries):
    """Layout, query answers and every stats field of a table over
    ``keys`` equal the plain loops', and ``charge_known`` charges
    exactly what probing for ``queries`` costs."""
    table, reference = CoordinateHashMap(keys), ReferenceHashMap(keys)
    assert np.array_equal(table._slots_keys, reference._slots_keys)
    assert np.array_equal(table._slots_vals, reference._slots_vals)
    assert table.stats == reference.stats
    expected = reference.query(queries)
    assert np.array_equal(table.query(queries), expected)
    assert table.stats == reference.stats
    charged = CoordinateHashMap(keys)
    charged.charge_known(queries, expected)
    assert charged.stats == reference.stats
    return table


class TestAgainstReferenceAtScale:
    """Deterministic cases beyond the property tests' ~300 keys: a
    LiDAR-sized table, clusters that wrap past the last slot, one
    n-long chain, and an empty table."""

    def test_lidar_keys(self):
        coords = make_sample("semantickitti", seed=3, scale=0.5).coords
        keys = pack_coords(coords)[:50_000]
        assert len(keys) == 50_000
        offsets = np.array([0, 1, -1, 1 << 16, -(1 << 32), 3 << 16])
        queries = (keys[:, np.newaxis] + offsets).ravel()
        table = assert_matches_reference(keys, queries)
        assert table.stats.insert_probes > table.stats.inserts  # collisions

    def test_clusters_wrap_to_slot_zero(self):
        capacity = _capacity(64)
        last = range(capacity - 4, capacity)
        keys = keys_with_homes(last, 64, capacity)
        table = assert_matches_reference(
            keys,
            np.concatenate([
                keys,
                keys_with_homes(last, 16, capacity, exclude=keys),
                keys_with_homes([0, 1], 16, capacity),
            ]),
        )
        # The cluster runs from the last slots through slot 0 onwards.
        assert table._slots_keys[0] != _EMPTY
        assert table._slots_keys[capacity - 1] != _EMPTY

    def test_every_key_on_one_home(self):
        capacity = _capacity(200)
        keys = keys_with_homes([5], 200, capacity)
        others = keys_with_homes([5], 220, capacity)[200:]
        table = assert_matches_reference(
            keys, np.concatenate([keys[::-1], others])
        )
        # One chain: key i sits i slots past the home, in insertion order.
        assert np.array_equal(table._slots_keys[5:205], keys)
        assert table.stats.insert_probes == 200 + 199 * 200 // 2

    def test_empty_table(self):
        table = assert_matches_reference(
            np.array([], dtype=np.int64), np.array([3, -4, 0], dtype=np.int64)
        )
        assert table.stats.query_probes == 3


class TestCoordinateHashMap:
    def test_query_hits(self):
        keys = np.array([10, 20, 30, 40], dtype=np.int64)
        table = CoordinateHashMap(keys)
        assert np.array_equal(table.query(keys), np.arange(4, dtype=np.int32))

    def test_query_misses_return_minus_one(self):
        table = CoordinateHashMap(np.array([1, 2, 3], dtype=np.int64))
        result = table.query(np.array([99, 2, -7], dtype=np.int64))
        assert result[0] == -1
        assert result[1] == 1
        assert result[2] == -1

    def test_len_matches_inserted(self):
        keys = np.arange(100, dtype=np.int64)
        assert len(CoordinateHashMap(keys)) == 100

    def test_duplicate_keys_rejected(self):
        with pytest.raises(MapError):
            CoordinateHashMap(np.array([5, 5], dtype=np.int64))

    def test_empty_table(self):
        table = CoordinateHashMap(np.array([], dtype=np.int64))
        assert len(table) == 0
        assert np.array_equal(
            table.query(np.array([1, 2], dtype=np.int64)),
            np.array([-1, -1], dtype=np.int32),
        )

    def test_adversarial_collisions(self):
        # Keys spaced by the table capacity would collide under a modulo
        # hash; Fibonacci mixing must still resolve all of them.
        keys = (np.arange(64, dtype=np.int64) * 4096) + 7
        table = CoordinateHashMap(keys)
        assert np.array_equal(table.query(keys), np.arange(64, dtype=np.int32))

    def test_probe_statistics_recorded(self):
        keys = np.arange(1000, dtype=np.int64)
        table, reference = CoordinateHashMap(keys), ReferenceHashMap(keys)
        queries = np.arange(-500, 1500, dtype=np.int64)
        table.query(queries)
        reference.query(queries)
        assert table.stats == reference.stats
        assert table.stats.inserts == 1000
        assert table.stats.queries == 2000

    def test_negative_keys(self):
        keys = np.array([-1, -100, -(2**40)], dtype=np.int64)
        table = CoordinateHashMap(keys)
        assert np.array_equal(table.query(keys), np.arange(3, dtype=np.int32))

    @given(st.sets(st.integers(-(2**50), 2**50), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_property_all_inserted_found_all_others_missed(self, key_set):
        keys = np.array(sorted(key_set), dtype=np.int64)
        table = CoordinateHashMap(keys)
        assert np.array_equal(table.query(keys), np.arange(len(keys)))
        probes = keys + 1  # shifted keys: hit only where key+1 also present
        expected = np.array(
            [list(keys).index(k) if k in key_set else -1 for k in probes]
        )
        assert np.array_equal(table.query(probes), expected)
