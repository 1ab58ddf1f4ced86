"""Serving-integration tests for the persistent policy store.

The acceptance criterion: serve-bench with a pre-warmed store shows
measurably lower time-to-first-tuned-config than a cold start, and the
amortization is visible in the metrics.  A cold store tunes with the
same Sparse Autotuner call as ``warm_policy``.
"""

import pytest

from repro.serve import ServeConfig, ServingRuntime
from repro.serve.traffic import generate_requests, parse_traffic

WORKLOAD = "SK-M-0.5"
SCALE = 0.1


def requests(count=16, seed=3):
    return generate_requests(
        WORKLOAD,
        parse_traffic("steady:rate=40", seed=seed),
        count=count,
    )


def serve_once(db_path, **overrides):
    config = ServeConfig(
        device="3090",
        scene_scale=SCALE,
        tuning_db=str(db_path),
        **overrides,
    )
    runtime = ServingRuntime(config)
    result = runtime.serve(requests())
    return runtime, result.metrics


class TestConfig:
    def test_empty_tuning_db_path_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ServeConfig(tuning_db="  ")

    def test_no_tuning_db_means_no_tuner(self):
        runtime = ServingRuntime(ServeConfig(scene_scale=SCALE))
        assert runtime.tuning_db is None
        with pytest.raises(Exception):
            runtime.save_tuning_db()


class TestColdStart:
    def test_cold_run_background_tunes_then_hits(self, tmp_path):
        runtime, metrics = serve_once(tmp_path / "db.json")
        assert metrics.tuning_db_misses > 0
        assert metrics.background_tunes >= 1
        # The background tune completed on the virtual clock and later
        # batches were served tuned.
        assert metrics.time_to_first_tuned_ms > 0
        assert len(runtime.tuning_db) > 0

    def test_cold_run_persists_learned_entries(self, tmp_path):
        path = tmp_path / "db.json"
        runtime, _ = serve_once(path)
        runtime.save_tuning_db()
        from repro.tune.cache import PolicyStore

        saved = PolicyStore.load(path)
        assert len(saved) == len(runtime.tuning_db)


class TestWarmAmortization:
    def test_warm_db_lowers_time_to_first_tuned(self, tmp_path):
        path = tmp_path / "db.json"
        cold_runtime, cold = serve_once(path)
        cold_runtime.save_tuning_db()
        _, warm = serve_once(path)
        assert warm.tuning_db_misses == 0
        assert warm.background_tunes == 0
        assert warm.time_to_first_tuned_ms < cold.time_to_first_tuned_ms

    def test_warm_run_never_degrades(self, tmp_path):
        path = tmp_path / "db.json"
        cold_runtime, cold = serve_once(path)
        cold_runtime.save_tuning_db()
        _, warm = serve_once(path)
        assert warm.degraded == 0
        assert warm.degraded <= cold.degraded

    def test_metrics_render_amortization(self, tmp_path):
        _, metrics = serve_once(tmp_path / "db.json")
        table = metrics.to_table()
        assert "tuning db hits / misses" in table
        assert "time to first tuned" in table


class TestDeterminism:
    def test_two_cold_runs_byte_identical_dbs(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            runtime, _ = serve_once(path)
            runtime.save_tuning_db()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_deterministic_given_db_state(self, tmp_path):
        _, first = serve_once(tmp_path / "a.json")
        _, second = serve_once(tmp_path / "b.json")
        assert first.to_json() == second.to_json()


class TestOneTuner:
    """A cold store tunes with the paper's group tuner, so the policy it
    installs is the one ``SparseAutotuner`` picks, never worse than the
    untuned default on the tuned scene."""

    def test_background_tune_installs_sparse_autotuner_policy(
        self, tmp_path
    ):
        from repro.models import get_workload
        from repro.nn import ExecutionContext, FixedPolicy
        from repro.serve.runtime import TUNE_SCENES, tuning_samples
        from repro.tune import SparseAutotuner
        from repro.tune.cache import policy_to_dict

        config = ServeConfig(
            device="a100",
            scene_scale=SCALE,
            tuning_db=str(tmp_path / "db.json"),
        )
        runtime = ServingRuntime(config)
        metrics = runtime.serve(requests()).metrics
        assert metrics.tuning_db_misses == 1
        assert metrics.background_tunes == 1
        key = runtime.policy_key(WORKLOAD)
        installed = runtime.policy_cache.get(key)
        assert installed is not None

        workload = get_workload(WORKLOAD)
        samples = tuning_samples(workload, SCALE, TUNE_SCENES)
        model = workload.build_model()
        model.eval()
        expected, report = SparseAutotuner().tune(
            model, samples, "a100", "fp16"
        )
        assert policy_to_dict(installed) == policy_to_dict(expected)
        stored = runtime.tuning_db.peek(key)
        assert stored.end_to_end_us == report.end_to_end_us

        probe = tuning_samples(workload, SCALE)[0]
        latency = {}
        for name, policy in (
            ("tuned", installed), ("default", FixedPolicy())
        ):
            ctx = ExecutionContext(
                device="a100", precision="fp16", policy=policy,
                simulate_only=True,
            )
            probe.cache.clear()
            runtime.model(WORKLOAD)(probe, ctx)
            latency[name] = ctx.latency_us()
        assert latency["tuned"] <= latency["default"]

    def test_store_hit_skips_the_tuner(self, tmp_path, monkeypatch):
        from repro.tune.tuner import SparseAutotuner

        path = tmp_path / "db.json"
        cold_runtime, _ = serve_once(path)
        cold_runtime.save_tuning_db()

        def no_tuning(*args, **kwargs):
            raise AssertionError("a stored policy must not be re-tuned")

        monkeypatch.setattr(SparseAutotuner, "tune", no_tuning)
        _, warm = serve_once(path)
        assert (warm.tuning_db_hits, warm.tuning_db_misses) == (1, 0)
