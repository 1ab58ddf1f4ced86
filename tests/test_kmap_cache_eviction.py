"""KmapCache LRU eviction semantics and accounting purity (satellite)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.cache import KmapCache, KmapEntry, scene_key


def _entry(tag="x"):
    return KmapEntry(charge_keys=frozenset({(tag,)}))


def _keys(*seeds):
    return [scene_key("SK-M-0.5", s) for s in seeds]


class TestLRUOrder:
    def test_evicts_least_recently_used_first(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        cache.put(b, _entry("b"))
        cache.put(c, _entry("c"))
        assert a not in cache
        assert b in cache and c in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        cache.put(b, _entry("b"))
        assert cache.get(a) is not None  # a becomes most-recent
        cache.put(c, _entry("c"))
        assert b not in cache
        assert a in cache

    def test_put_refreshes_recency_on_overwrite(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        cache.put(b, _entry("b"))
        cache.put(a, _entry("a2"))  # overwrite refreshes a
        cache.put(c, _entry("c"))
        assert b not in cache
        assert a in cache and cache.evictions == 1

    def test_warm_keys_lru_first_under_churn(self):
        cache = KmapCache(capacity=3)
        a, b, c = _keys(1, 2, 3)
        for key, tag in ((a, "a"), (b, "b"), (c, "c")):
            cache.put(key, _entry(tag))
        cache.get(a)
        assert cache.warm_keys() == (b, c, a)

    def test_eviction_counter_accumulates(self):
        cache = KmapCache(capacity=1)
        keys = _keys(*range(5))
        for key in keys:
            cache.put(key, _entry())
        assert cache.evictions == 4
        assert len(cache) == 1
        assert keys[-1] in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            KmapCache(capacity=0)


class TestAccountingPurity:
    def test_peek_never_perturbs_accounting_or_order(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        cache.put(b, _entry("b"))
        hits, misses = cache.hits, cache.misses
        assert cache.peek(a) == _entry("a")
        assert cache.peek(_keys(9)[0]) is None
        assert (cache.hits, cache.misses) == (hits, misses)
        # a's recency was NOT refreshed by peek: it evicts first.
        cache.put(c, _entry("c"))
        assert a not in cache

    def test_contains_never_perturbs_accounting_or_order(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        cache.put(b, _entry("b"))
        hits, misses = cache.hits, cache.misses
        assert a in cache
        assert _keys(9)[0] not in cache
        assert (cache.hits, cache.misses) == (hits, misses)
        cache.put(c, _entry("c"))
        assert a not in cache

    def test_may_evict_is_read_only(self):
        cache = KmapCache(capacity=2)
        a, b, c = _keys(1, 2, 3)
        cache.put(a, _entry("a"))
        hits, misses, evictions = cache.hits, cache.misses, cache.evictions
        order = cache.warm_keys()
        assert not cache.may_evict((a, b, a))
        assert cache.may_evict((a, b, c))
        assert (cache.hits, cache.misses, cache.evictions) == (
            hits, misses, evictions,
        )
        assert cache.warm_keys() == order

    def test_get_counts_hits(self):
        cache = KmapCache(capacity=2)
        (a,) = _keys(1)
        cache.put(a, _entry("a"))
        assert cache.get(a) == _entry("a")
        assert cache.get(_keys(9)[0]) is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5


class TestEvictingBatches:
    """A single-stream batch whose puts could evict runs cold; composed
    and cold batches leave the cache exactly as a plain LRU sequence."""

    def test_evicting_batches_run_cold_and_match_lru(self, monkeypatch):
        from repro.serve import ServeConfig, ServingRuntime
        from repro.serve.request import InferenceRequest
        from repro.serve.runtime import DeviceReplica

        runtime = ServingRuntime(ServeConfig(
            device="rtx3090", scene_scale=0.05, kmap_cache_size=2,
            lint_admission=False,
        ))
        calls = {"compose": 0, "cold": 0}
        compose, cold = runtime._compose_cost, runtime._execute_cold

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            runtime, "_compose_cost", counted("compose", compose)
        )
        monkeypatch.setattr(runtime, "_execute_cold", counted("cold", cold))
        replica = DeviceReplica(index=0, kmap_cache=KmapCache(capacity=2))
        # [1, 2] fits an empty cache (composed); [3, 1] and [3, 1, 2]
        # each insert past capacity (cold).
        batches = [(1, 2), (3, 1), (3, 1, 2)]
        reference = KmapCache(capacity=2)
        request_id = 0
        for seeds in batches:
            batch = []
            for seed in seeds:
                batch.append(InferenceRequest(
                    request_id=request_id, workload_id="SK-M-0.5",
                    stream_id=seed, frame_index=request_id,
                    scene_seed=seed, arrival_ms=0.0, deadline_ms=1000.0,
                ))
                request_id += 1
            run = runtime._execute(batch, 0.0, replica)
            expected_hits = []
            for request in batch:
                hit = reference.get(request.scene_key) is not None
                expected_hits.append(hit)
                if not hit:
                    reference.put(request.scene_key, _entry())
            assert run.kmap_hits == expected_hits
        assert calls == {"compose": 1, "cold": 2}
        cache = replica.kmap_cache
        assert (cache.hits, cache.misses, cache.evictions) == (
            reference.hits, reference.misses, reference.evictions,
        )
        assert (cache.hits, cache.misses, cache.evictions) == (2, 5, 3)
        assert cache.warm_keys() == reference.warm_keys() == tuple(_keys(1, 2))

    def test_over_budget_batch_runs_cold_on_an_untouched_cache(
        self, monkeypatch
    ):
        """A composable batch whose modeled peak is over budget falls back
        to the cold path before the cache sees a single get or put."""
        from repro.serve import ServeConfig, ServingRuntime
        from repro.serve.request import InferenceRequest
        from repro.serve.runtime import DeviceReplica

        runtime = ServingRuntime(ServeConfig(
            device="rtx3090", scene_scale=0.05, lint_admission=False,
        ))
        runtime.model("SK-M-0.5")
        # Weights alone fit; any resident feature pushes the batch over.
        runtime.memory_budget = runtime._weight_bytes["SK-M-0.5"] + 1.0
        seen = []
        cold = runtime._execute_cold

        def recording(batch, samples, kmap_cache, *args):
            seen.append((kmap_cache.hits, kmap_cache.misses, len(kmap_cache)))
            return cold(batch, samples, kmap_cache, *args)

        monkeypatch.setattr(runtime, "_execute_cold", recording)
        replica = DeviceReplica(index=0, kmap_cache=KmapCache(capacity=4))
        batch = [
            InferenceRequest(
                request_id=i, workload_id="SK-M-0.5", stream_id=seed,
                frame_index=i, scene_seed=seed, arrival_ms=0.0,
                deadline_ms=1000.0,
            )
            for i, seed in enumerate((1, 2, 1))
        ]
        run = runtime._execute(batch, 0.0, replica)
        assert seen == [(0, 0, 0)]
        assert run.oomed and run.ladder
        assert run.kmap_hits == [False, False, True]
        cache = replica.kmap_cache
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)

    def test_refill_within_a_batch_keeps_the_scene_charge(self):
        """A scene evicted and re-filled inside one cold batch is stored
        with the charge keys of its first fill, so its next batch is
        warm: a kmap hit with no mapping work."""
        from repro.serve import ServeConfig, ServingRuntime
        from repro.serve.request import InferenceRequest
        from repro.serve.runtime import DeviceReplica

        runtime = ServingRuntime(ServeConfig(
            device="a100", scene_scale=0.05, kmap_cache_size=1,
            lint_admission=False,
        ))
        request_ids = iter(range(100))

        def run(replica, *seeds):
            batch = [
                InferenceRequest(
                    request_id=i, workload_id="SK-M-0.5", stream_id=seed,
                    frame_index=i, scene_seed=seed, arrival_ms=0.0,
                    deadline_ms=1000.0,
                )
                for seed, i in zip(seeds, request_ids)
            ]
            return runtime._execute(batch, 0.0, replica)

        def replica():
            return DeviceReplica(index=0, kmap_cache=KmapCache(capacity=1))

        reference = replica()
        first = run(reference, 11)
        warm = run(reference, 11)
        assert warm.kmap_hits == [True]
        assert warm.stages.get("mapping", 0.0) == 0.0 < first.stages["mapping"]

        churned = replica()
        assert run(churned, 11, 22, 11).kmap_hits == [False, False, False]
        (key,) = _keys(11)
        assert (
            churned.kmap_cache.peek(key).charge_keys
            == reference.kmap_cache.peek(key).charge_keys
        )
        after = run(churned, 11)
        assert after.kmap_hits == [True]
        assert after.stages == warm.stages
        assert after.service_ms == warm.service_ms
