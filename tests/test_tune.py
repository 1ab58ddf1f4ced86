"""Tests for the Sparse Autotuner: spaces, groups, tuning, training tuner."""

import numpy as np
import pytest

from repro.kernels.registry import Dataflow
from repro.models import MinkUNet
from repro.nn import ExecutionContext, LayerConfig
from repro.nn.context import Role
from repro.sparse import SparseTensor
from repro.tune import (
    BindingScheme,
    SPCONV2_SPACE,
    SparseAutotuner,
    TORCHSPARSEPP_SPACE,
    TrainingTuner,
    discover_groups,
    load_policy,
    pick_binding_scheme,
    save_policy,
)
from repro.tune import tuner as tuner_module
from repro.tune.space import split_space


def cloud(n=500, extent=20, seed=0):
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
def tiny_model():
    return MinkUNet(in_channels=4, num_classes=5, width=0.25)


class TestDesignSpaces:
    def test_torchsparsepp_superset_of_spconv2(self):
        assert len(TORCHSPARSEPP_SPACE) > len(SPCONV2_SPACE)
        spconv_kinds = {
            (c.dataflow, c.ig_config.num_splits, c.ig_config.sort)
            for c in SPCONV2_SPACE
        }
        ours = {
            (c.dataflow, c.ig_config.num_splits, c.ig_config.sort)
            for c in TORCHSPARSEPP_SPACE
        }
        assert spconv_kinds <= ours

    def test_full_space_includes_unsorted_and_fod(self):
        kinds = {(c.dataflow, c.ig_config.sort) for c in TORCHSPARSEPP_SPACE}
        assert (Dataflow.IMPLICIT_GEMM, False) in kinds
        assert any(d is Dataflow.FETCH_ON_DEMAND for d, _ in kinds)

    def test_split_space_helper(self):
        space = split_space([0, 1, 2])
        splits = {(c.ig_config.num_splits, c.ig_config.sort) for c in space}
        assert (1, False) in splits  # "split 0" notation
        assert (2, True) in splits


class TestGroupDiscovery:
    def test_groups_share_maps(self, tiny_model):
        sigs, by_sig = discover_groups(tiny_model, cloud())
        assert len(sigs) >= 5
        for sig in sigs:
            kmaps = {id(r.kmap) for r in by_sig[sig]}
            assert len(kmaps) == 1  # one map per group per sample

    def test_probe_resets_trace(self, tiny_model):
        # The probe's context (and its trace) is dropped; the maps it
        # built stay in the sample's cache for the next execution.
        x = cloud()
        _, by_sig = discover_groups(tiny_model, x)
        ctx = ExecutionContext(simulate_only=True)
        tiny_model(x, ctx)
        assert {id(r.kmap) for r in ctx.layers} == {
            id(r.kmap) for records in by_sig.values() for r in records
        }

    def test_layer_counts_cover_all_convs(self, tiny_model):
        _, by_sig = discover_groups(tiny_model, cloud())
        total = sum(len(v) for v in by_sig.values())
        from repro.nn.conv import SparseConv3d

        conv_count = sum(
            1 for _, m in tiny_model.named_modules()
            if isinstance(m, SparseConv3d)
        )
        assert total == conv_count


class TestSparseAutotuner:
    def test_tuned_no_worse_than_default(self, tiny_model):
        tuner = SparseAutotuner()
        policy, report = tuner.tune(
            tiny_model, [cloud()], device="3090", precision="fp16"
        )
        assert report.end_to_end_us <= report.default_us * (1 + 1e-9)

    def test_policy_runs_end_to_end(self, tiny_model):
        policy, report = SparseAutotuner().tune(
            tiny_model, [cloud()], device="3090", precision="fp16"
        )
        ctx = ExecutionContext(
            device="3090", precision="fp16", policy=policy, simulate_only=True
        )
        tiny_model.eval()
        tiny_model(cloud(), ctx)
        assert ctx.latency_us() > 0

    def test_report_structure(self, tiny_model):
        _, report = SparseAutotuner().tune(
            tiny_model, [cloud()], device="a100", precision="fp16"
        )
        assert len(report.groups) >= 5
        for group in report.groups:
            assert len(group.candidate_latencies_us) == len(TORCHSPARSEPP_SPACE)
            assert min(group.candidate_latencies_us) > 0
        assert "tuned" in report.describe()

    def test_restricted_space_never_beats_full_space(self, tiny_model):
        _, full = SparseAutotuner(space=TORCHSPARSEPP_SPACE).tune(
            tiny_model, [cloud()], device="3090", precision="fp32"
        )
        _, restricted = SparseAutotuner(space=SPCONV2_SPACE).tune(
            tiny_model, [cloud()], device="3090", precision="fp32"
        )
        assert full.end_to_end_us <= restricted.end_to_end_us * (1 + 1e-9)

    def test_multiple_samples_average(self, tiny_model):
        policy, report = SparseAutotuner().tune(
            tiny_model, [cloud(seed=0), cloud(seed=1)],
            device="3090", precision="fp16",
        )
        assert report.end_to_end_us > 0

    def test_group_costs_evaluated_once_and_report_unchanged(
        self, tiny_model, monkeypatch
    ):
        samples = [cloud(seed=0), cloud(seed=1)]
        tuner = SparseAutotuner()
        calls = []
        real = tuner_module.group_latency_us

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tuner_module, "group_latency_us", counting)
        _, report = tuner.tune(tiny_model, samples, "3090", "fp16")
        groups = len(report.groups)
        # At most one evaluation per (group, candidate-or-default) per sample.
        assert len(calls) <= groups * (len(tuner.space) + 1) * len(samples)
        monkeypatch.undo()

        expected = _uncached_greedy(tuner, tiny_model, samples)
        assert [g.signature for g in report.groups] == [
            g.signature for g in expected.groups
        ]
        assert [g.chosen for g in report.groups] == [
            g.chosen for g in expected.groups
        ]
        assert [g.candidate_latencies_us for g in report.groups] == [
            g.candidate_latencies_us for g in expected.groups
        ]
        assert report.end_to_end_us == expected.end_to_end_us
        assert report.default_us == expected.default_us


def _uncached_greedy(tuner, model, samples, device="3090", precision="fp16"):
    """The greedy search re-summing every group's cost inside every
    end-to-end evaluation: the reference the tuner must match exactly."""
    from repro.hw.specs import get_device
    from repro.precision import Precision
    from repro.tune.tuner import GroupResult, TuningReport

    device, precision = get_device(device), Precision.parse(precision)
    ordered, per_sample = [], []
    for sample in samples:
        sigs, by_sig = discover_groups(model, sample)
        per_sample.append(by_sig)
        ordered += [sig for sig in sigs if sig not in ordered]
    cache = {}

    def group_cost(sig, config):
        return sum(
            tuner_module.group_latency_us(
                by_sig.get(sig, []), config, device, precision, cache
            )
            for by_sig in per_sample
        ) / len(per_sample)

    chosen, results = {}, []
    for k, sig in enumerate(ordered):
        latencies = [
            sum(
                group_cost(
                    other,
                    chosen[other] if j < k
                    else candidate if j == k else tuner.default,
                )
                for j, other in enumerate(ordered)
            )
            for candidate in tuner.space
        ]
        best = tuner.space.candidates[latencies.index(min(latencies))]
        chosen[sig] = best
        results.append(GroupResult(sig, best, latencies, 0))
    return TuningReport(
        groups=results,
        end_to_end_us=sum(group_cost(sig, chosen[sig]) for sig in ordered),
        default_us=sum(group_cost(sig, tuner.default) for sig in ordered),
        tuning_seconds=0.0,
    )


class TestTrainingTuner:
    def test_scheme_selection_matches_paper(self):
        assert pick_binding_scheme("a100") is BindingScheme.BIND_DGRAD_WGRAD
        assert pick_binding_scheme("2080ti") is BindingScheme.BIND_FWD_DGRAD

    def test_decoupled_no_worse_than_bound(self, tiny_model):
        tiny_model.train()
        for scheme in (BindingScheme.BIND_FWD_DGRAD,
                       BindingScheme.BIND_DGRAD_WGRAD):
            _, report = TrainingTuner(scheme=scheme).tune(
                tiny_model, [cloud()], device="a100", precision="fp16"
            )
            assert report.end_to_end_us <= report.bound_all_us * (1 + 1e-9)

    def test_policy_assigns_roles(self, tiny_model):
        tiny_model.train()
        policy, _ = TrainingTuner(
            scheme=BindingScheme.BIND_FWD_DGRAD
        ).tune(tiny_model, [cloud()], device="2080ti", precision="fp16")
        sig = next(iter(policy._assignments))
        by_role = policy._assignments[sig]
        assert by_role[Role.FORWARD] == by_role[Role.DGRAD]


class TestPolicyCache:
    def test_roundtrip(self, tiny_model, tmp_path):
        policy, _ = SparseAutotuner().tune(
            tiny_model, [cloud()], device="3090", precision="fp16"
        )
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        for sig, by_role in policy._assignments.items():
            for role, config in by_role.items():
                restored = loaded.config(sig, role)
                assert restored.dataflow == config.dataflow
                assert restored.ig_config == config.ig_config
                assert restored.schedule.tile_m == config.schedule.tile_m
