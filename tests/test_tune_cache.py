"""Round-trip tests for policy serialization (`repro.tune.cache`).

The deployment contract: a tuned policy written to JSON and loaded back
must assign the identical :class:`LayerConfig` to every (signature, role)
— and therefore produce the identical simulated end-to-end latency.
"""

import json

import numpy as np
import pytest

from repro.models import MinkUNet
from repro.nn import ExecutionContext
from repro.nn.context import GroupPolicy, LayerConfig, Role
from repro.sparse import SparseTensor
from repro.tune import SparseAutotuner, load_policy, save_policy
from repro.tune.cache import config_to_dict


def cloud(n=400, extent=18, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [np.zeros((n, 1), np.int32),
             rng.integers(0, extent, (n, 3)).astype(np.int32)],
            axis=1,
        ),
        axis=0,
    )
    feats = rng.standard_normal((len(coords), 4)).astype(np.float32)
    return SparseTensor(coords, feats)


@pytest.fixture(scope="module")
def tuned():
    model = MinkUNet(in_channels=4, num_classes=5, width=0.25)
    policy, report = SparseAutotuner().tune(
        model, [cloud()], device="3090", precision="fp16"
    )
    return model, policy, report


class TestPublicPolicyApi:
    def test_items_covers_all_signatures(self, tuned):
        _, policy, report = tuned
        assert len(policy) == len(report.groups)
        signatures = policy.signatures()
        assert set(signatures) == {sig for sig, _ in policy.items()}
        for signature, by_role in policy.items():
            assert Role.FORWARD in by_role
            assert policy.config(signature) == by_role[Role.FORWARD]

    def test_items_returns_copies(self, tuned):
        _, policy, _ = tuned
        signature, by_role = next(iter(policy.items()))
        original = by_role[Role.FORWARD]
        by_role[Role.FORWARD] = LayerConfig(tensor_cores=False)
        assert policy.config(signature) == original

    def test_default_property(self):
        default = LayerConfig(tensor_cores=False)
        policy = GroupPolicy({}, default=default)
        assert policy.default == default
        assert policy.config(("anything",)) == default


class TestRoundTrip:
    def test_configs_identical_after_round_trip(self, tuned, tmp_path):
        _, policy, _ = tuned
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert len(loaded) == len(policy)
        for signature, by_role in policy.items():
            for role, config in by_role.items():
                assert loaded.config(signature, role) == config

    def test_simulated_latency_identical_after_round_trip(
        self, tuned, tmp_path
    ):
        model, policy, _ = tuned
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        model.eval()
        latencies = []
        for p in (policy, loaded):
            ctx = ExecutionContext(
                device="3090", precision="fp16", policy=p, simulate_only=True
            )
            model(cloud(seed=7), ctx)  # a scene the tuner never saw
            latencies.append(ctx.latency_us())
        assert latencies[0] == latencies[1]

    def test_double_round_trip_stable(self, tuned, tmp_path):
        _, policy, _ = tuned
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_policy(policy, first)
        save_policy(load_policy(first), second)
        assert first.read_text() == second.read_text()

    def test_gs_chunks_survives_round_trip(self, tmp_path):
        """Regression: gs_chunks used to be silently dropped on save,
        so chunked gather-scatter policies reloaded unchunked."""
        from repro.kernels.registry import Dataflow

        config = LayerConfig(dataflow=Dataflow.GATHER_SCATTER, gs_chunks=4)
        policy = GroupPolicy({("sig",): {Role.FORWARD: config}})
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.config(("sig",)).gs_chunks == 4
        assert loaded.config(("sig",)) == config

    def test_legacy_policy_without_gs_chunks_loads(self, tmp_path):
        """Policies written before gs_chunks existed load at the default."""
        config = LayerConfig()
        policy = GroupPolicy({("sig",): {Role.FORWARD: config}})
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        for by_role in payload.values():
            for cfg in by_role.values():
                del cfg["gs_chunks"]
        path.write_text(json.dumps(payload))
        loaded = load_policy(path)
        assert loaded.config(("sig",)).gs_chunks == 1


def _valid_payload():
    policy = GroupPolicy({(1, 3, 1, False): {Role.FORWARD: LayerConfig()}})
    return {
        repr(signature): {
            role.value: config_to_dict(config)
            for role, config in by_role.items()
        }
        for signature, by_role in policy.items()
    }


def _drop_tile(payload):
    (by_role,) = payload.values()
    del by_role["forward"]["tile"]
    return json.dumps(payload)


def _bad_dataflow(payload):
    (by_role,) = payload.values()
    by_role["forward"]["dataflow"] = "warp_drive"
    return json.dumps(payload)


def _non_literal_signature(payload):
    (by_role,) = payload.values()
    return json.dumps({"__import__('os').getcwd()": by_role})


class TestMalformedPolicyFiles:
    """A malformed ``--policy`` file exits 2 with a message naming the
    file and the field, never a traceback."""

    @pytest.mark.parametrize(
        "make_text, field",
        [
            (_drop_tile, "'tile'"),
            (_bad_dataflow, "'dataflow'"),
            (_non_literal_signature, "signature"),
            (lambda payload: "{not json", "not valid JSON"),
        ],
        ids=["missing-tile", "unknown-dataflow", "non-literal-signature",
             "non-json"],
    )
    def test_serve_bench_exits_2_naming_file_and_field(
        self, tmp_path, make_text, field
    ):
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "policy.json"
        path.write_text(make_text(_valid_payload()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve-bench", "--workload",
             "SK-M-0.5", "--policy", str(path), "--requests", "1",
             "--scale", "0.05"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr
        assert field in proc.stderr

    def test_valid_payload_loads(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(_valid_payload()))
        assert len(load_policy(path)) == 1
