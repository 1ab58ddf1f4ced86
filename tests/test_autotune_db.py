"""Tests for the persistent policy store (`repro.tune.cache.PolicyStore`)
that `python -m repro autotune` and `serve-bench --tuning-db` operate on."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.kernels.base import SMALL_TILE
from repro.kernels.registry import Dataflow
from repro.nn.context import GroupPolicy, LayerConfig, Role
from repro.serve.cache import PolicyCache
from repro.tune.cache import PolicyStore, StoreEntry, flat_key, parse_key

SIG = ((1, 1, 1), (3, 3, 3), (1, 1, 1), False)


def make_key(workload="SK-M-0.5", device="A100", precision="fp16"):
    return PolicyCache.make_key(workload, device, precision)


def make_entry(e2e=100.0, trials=1, **config_kwargs):
    policy = GroupPolicy({SIG: {Role.FORWARD: LayerConfig(**config_kwargs)}})
    return StoreEntry(policy=policy, end_to_end_us=e2e, trials=trials)


def contents(store):
    return [(key, entry.to_dict()) for key, entry in store.items()]


class TestKeys:
    def test_flat_parse_round_trip(self):
        key = make_key(device="RTX 3090")
        assert parse_key(flat_key(key)) == key

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigError):
            parse_key("only-one-part")

    def test_separator_in_component_rejected(self):
        with pytest.raises(ConfigError, match="separator"):
            flat_key(make_key(workload="a||b"))


class TestEntryOrder:
    def test_lower_latency_beats(self):
        assert make_entry(e2e=50.0).beats(make_entry(e2e=60.0))
        assert not make_entry(e2e=60.0).beats(make_entry(e2e=50.0))

    def test_tie_breaks_deterministically(self):
        a = make_entry(e2e=50.0, dataflow=Dataflow.IMPLICIT_GEMM)
        b = make_entry(e2e=50.0, dataflow=Dataflow.GATHER_SCATTER)
        # Exactly one wins, and the relation is antisymmetric.
        assert a.beats(b) != b.beats(a)

    def test_round_trip(self):
        entry = make_entry(schedule=SMALL_TILE, gs_chunks=2)
        again = StoreEntry.from_dict(entry.to_dict())
        assert again.to_dict() == entry.to_dict()
        assert again.policy.config(SIG) == entry.policy.config(SIG)

    def test_malformed_entry_raises_config_error(self):
        with pytest.raises(ConfigError, match="'policy'"):
            StoreEntry.from_dict({"end_to_end_us": 1.0, "trials": 1})
        bad = make_entry().to_dict()
        bad["trials"] = 0
        with pytest.raises(ConfigError, match="'trials'"):
            StoreEntry.from_dict(bad)
        bad = make_entry().to_dict()
        bad["end_to_end_us"] = float("nan")
        with pytest.raises(ConfigError, match="'end_to_end_us'"):
            StoreEntry.from_dict(bad)


class TestDatabase:
    def test_get_counts_hits_and_misses(self):
        store = PolicyStore()
        key = make_key()
        assert store.get(key) is None
        store.put(key, make_entry())
        assert store.get(key) is not None
        assert (store.hits, store.misses) == (1, 1)

    def test_peek_does_not_count(self):
        store = PolicyStore()
        store.peek(make_key())
        assert (store.hits, store.misses) == (0, 0)

    def test_put_keeps_better_existing_entry(self):
        store = PolicyStore()
        key = make_key()
        best = make_entry(e2e=10.0)
        store.put(key, best)
        kept = store.put(key, make_entry(e2e=20.0))
        assert kept is best
        assert store.peek(key) is best

    def test_save_load_round_trip(self, tmp_path):
        store = PolicyStore()
        store.put(make_key(), make_entry(schedule=SMALL_TILE))
        store.put(make_key(precision="fp32"), make_entry(42.0, gs_chunks=2))
        path = tmp_path / "store.json"
        store.save(path)
        loaded = PolicyStore.load(path)
        assert len(loaded) == 2
        assert contents(loaded) == contents(store)

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = PolicyStore(), PolicyStore()
        # Insert in opposite orders: serialization must not care.
        keys = [make_key(), make_key(precision="fp32"),
                make_key(device="RTX 3090")]
        for key in keys:
            a.put(key, make_entry())
        for key in reversed(keys):
            b.put(key, make_entry())
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_load_missing_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            PolicyStore.load(tmp_path / "missing.json")

    def test_load_or_create_starts_empty(self, tmp_path):
        store = PolicyStore.load_or_create(tmp_path / "missing.json")
        assert len(store) == 0

    def test_corrupt_and_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="store.json"):
            PolicyStore.load(path)
        path.write_text(json.dumps({"schema": 999, "entries": {}}))
        with pytest.raises(ConfigError, match="schema"):
            PolicyStore.load(path)

    def test_malformed_policy_names_file_entry_and_field(self, tmp_path):
        store = PolicyStore()
        store.put(make_key(), make_entry())
        doc = json.loads(store.to_json())
        (entry,) = doc["entries"].values()
        (by_role,) = entry["policy"].values()
        del by_role["forward"]["tile"]
        path = tmp_path / "store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            PolicyStore.load(path)
        message = str(exc.value)
        assert str(path) in message
        assert "SK-M-0.5||A100||fp16" in message
        assert "'tile'" in message


class TestMerge:
    def test_merge_adopts_new_and_better(self):
        a, b = PolicyStore(), PolicyStore()
        shared, only_b = make_key(), make_key(precision="fp32")
        a.put(shared, make_entry(e2e=100.0))
        b.put(shared, make_entry(e2e=50.0))
        b.put(only_b, make_entry())
        adopted = a.merge(b)
        assert adopted == 2
        assert a.peek(shared).end_to_end_us == 50.0
        assert only_b in a

    def test_merge_pools_trial_counts(self):
        a, b = PolicyStore(), PolicyStore()
        key = make_key()
        a.put(key, make_entry(e2e=100.0, trials=3))
        b.put(key, make_entry(e2e=50.0, trials=2))
        a.merge(b)
        assert a.peek(key).trials == 5
        # Losing direction pools too.
        c = PolicyStore()
        c.put(key, make_entry(e2e=100.0, trials=3))
        d = PolicyStore()
        d.put(key, make_entry(e2e=50.0, trials=2))
        d.merge(c)
        assert d.peek(key).trials == 5

    def test_merge_order_independent(self):
        def replica(e2e, precision):
            store = PolicyStore()
            store.put(make_key(), make_entry(e2e=e2e))
            store.put(make_key(precision=precision), make_entry())
            return store

        ab, ba = PolicyStore(), PolicyStore()
        ab.merge(replica(100.0, "fp32"))
        ab.merge(replica(50.0, "tf32"))
        ba.merge(replica(50.0, "tf32"))
        ba.merge(replica(100.0, "fp32"))

        def strip(store):
            # Trial pooling differs by merge path; the winning policies
            # and latencies must not.
            return [
                (key, dataclasses.replace(entry, trials=1).to_dict())
                for key, entry in store.items()
            ]

        assert strip(ab) == strip(ba)
