"""Tests for the per-layer probe: ``ExecutionContext.layers``.

Every convolution forward appends one :class:`LayerRecord` to its
context.  Group discovery, model summaries, the serving runtime's feature
peak and the footprint model all read that one list; these tests pin what
each consumer sees.  ``tests/golden/layer_records.json`` holds, for all
seven presets (seed 0, scale 0.05), the groups, shared-map pattern and
summary rows produced by the earlier callback-based probe.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.resilience.footprint as footprint_module
from repro.data.datasets import make_sample
from repro.errors import ConfigError
from repro.models.registry import WORKLOADS, get_workload
from repro.nn import ConvBlock, Sequential
from repro.nn.context import ExecutionContext, FixedPolicy, LayerConfig
from repro.nn.summary import summarize
from repro.precision import Precision
from repro.resilience import (
    DEFAULT_RUNGS,
    ExecState,
    apply_rung,
    ladder_footprint,
    model_footprint,
)
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.sparse import SparseTensor
from repro.tune import discover_groups

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "layer_records.json").read_text()
)


def preset(workload_id, seed=0):
    workload = get_workload(workload_id)
    sample = make_sample(
        workload.dataset, frames=workload.frames, seed=seed, scale=0.05
    )
    return workload.build_model(), sample


def cloud(channels, seed=0, n=200):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [np.zeros((n, 1), np.int32),
             rng.integers(0, 16, (n, 3)).astype(np.int32)],
            axis=1,
        ),
        axis=0,
    )
    feats = rng.standard_normal((len(coords), channels))
    return SparseTensor(coords, feats.astype(np.float32))


def group_doc(model, sample):
    """Groups as signature reprs with ``[label, c_in, c_out, map index]``
    rows, where equal map indices mean one shared kernel-map object."""
    ordered, by_sig = discover_groups(model, sample)
    maps, groups = [], []
    for sig in ordered:
        rows = []
        for record in by_sig[sig]:
            index = next(
                (i for i, m in enumerate(maps) if m is record.kmap), len(maps)
            )
            if index == len(maps):
                maps.append(record.kmap)
            rows.append([record.label, record.c_in, record.c_out, index])
        groups.append([repr(sig), rows])
    geometry = [
        [int(m.num_inputs), int(m.num_outputs), int(m.total_pairs),
         int(m.volume)]
        for m in maps
    ]
    return groups, geometry


@pytest.mark.parametrize("workload_id", sorted(WORKLOADS))
class TestPresetsMatchGolden:
    def test_discover_groups(self, workload_id):
        groups, geometry = group_doc(*preset(workload_id))
        assert groups == GOLDEN[workload_id]["groups"]
        assert geometry == GOLDEN[workload_id]["maps"]

    def test_summarize_rows(self, workload_id):
        rows = [
            [row.label, repr(row.signature), int(row.num_outputs), row.c_in,
             row.c_out, repr(row.effective_macs), repr(row.mean_neighbors)]
            for row in summarize(*preset(workload_id))
        ]
        assert rows == GOLDEN[workload_id]["summary"]


class TestContextLayers:
    def test_one_record_per_conv_forward(self):
        model, sample = preset("SK-M-0.5")
        ctx = ExecutionContext(simulate_only=True)
        model(sample, ctx)
        groups, _ = group_doc(model, sample)
        assert len(ctx.layers) == sum(len(rows) for _, rows in groups)
        model(sample, ctx)  # a second forward appends, never replaces
        assert len(ctx.layers) == 2 * sum(len(rows) for _, rows in groups)

    def test_reset_trace_empties_layers(self):
        model, sample = preset("SK-M-0.5")
        ctx = ExecutionContext(simulate_only=True)
        model(sample, ctx)
        assert ctx.layers and len(ctx.trace)
        ctx.reset_trace()
        assert ctx.layers == [] and len(ctx.trace) == 0


class TestSummarizeRestoresMode:
    @pytest.mark.parametrize("training", [True, False])
    def test_mode_restored_when_forward_raises(self, training):
        model, _ = preset("SK-M-0.5")
        model.train(training)
        with pytest.raises(ConfigError):
            summarize(model, cloud(7))  # the model takes 4 channels
        assert model.training is training

    def test_mode_restored_after_success(self):
        model, sample = preset("SK-M-0.5")
        model.train(True)
        summarize(model, sample)
        assert model.training is True


class TestFeaturePeak:
    @pytest.mark.parametrize("workload_id", ["SK-M-0.5", "WM-C-1f"])
    def test_serving_peak_equals_footprint(self, workload_id):
        model, sample = preset(workload_id)
        model.eval()
        runtime = ServingRuntime(ServeConfig(device="rtx3090"))
        cost = runtime._simulate_sample(
            sample, model, FixedPolicy(), degraded=False, warmth=None
        )
        report = model_footprint(
            model, [sample], device="rtx3090", precision=runtime.precision
        )
        assert cost.feature_bytes == report.peak_feature_bytes > 0.0

    def test_batch_members_count_only_their_own_layers(self):
        model, first = preset("SK-M-0.5", seed=0)
        _, second = preset("SK-M-0.5", seed=1)
        model.eval()
        runtime = ServingRuntime(ServeConfig(device="rtx3090"))
        ctx = ExecutionContext(simulate_only=True)
        peaks = [runtime._forward(model, s, ctx) for s in (first, second)]
        alone = [
            model_footprint(model, [s], device="rtx3090").peak_feature_bytes
            for s in (first, second)
        ]
        assert peaks == alone


class TestLadderFootprint:
    @staticmethod
    def states():
        """Every ladder state reachable from the FP32 default by applying
        rungs, in discovery order."""
        found = [ExecState(config=LayerConfig(), precision=Precision.FP32)]
        for state in found:
            for rung in DEFAULT_RUNGS:
                after = apply_rung(state, rung)
                if after is not None and after not in found:
                    found.append(after)
        return found

    def test_matches_direct_warm_footprint(self, monkeypatch):
        model = Sequential(
            ConvBlock(4, 16, label="a"),
            ConvBlock(16, 16, kernel_size=2, stride=2, label="b"),
        ).eval()
        samples = [cloud(4, seed=0), cloud(4, seed=1)]
        states = self.states()
        # 7 layer configs x 2 precisions x 4 batch chunkings.
        assert len(set(states)) == len(states) == 56
        expected = {
            state: model_footprint(
                model,
                samples,
                device="rtx3090",
                precision=state.precision,
                policy=FixedPolicy(state.config),
                batch_chunks=state.batch_chunks,
                warm=True,
            ).total_bytes
            for state in states
        }
        calls = []
        real = footprint_module.model_footprint
        monkeypatch.setattr(
            footprint_module,
            "model_footprint",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        footprint = ladder_footprint(model, samples, "rtx3090")
        for state in states + states:
            assert footprint(state) == expected[state]
        assert len(calls) == len(states)  # each state is modeled once

    def test_states_cover_every_rung_kind(self):
        kinds = set()
        for state in self.states():
            if state.config.dataflow is not LayerConfig().dataflow:
                kinds.add("dataflow")
            if state.config.gs_chunks > 1:
                kinds.add("chunks")
            if state.precision is not Precision.FP32:
                kinds.add("precision")
            if state.batch_chunks > 1:
                kinds.add("batch")
        assert kinds == {"dataflow", "chunks", "precision", "batch"}
