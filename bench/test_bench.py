"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from bench import compare, run, worker, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_serving():
    return workloads.Serving(
        name="small",
        traffic="steady:rate=400",
        tenants="default:mix=SK-M-0.5+NS-M-1f,streams=2",
        count=16,
        config=dict(gpu_streams=2, scene_scale=0.1, slo_ms=50.0),
        faults={},
        required=("sync_events",),
        tail=20,  # 12 of the 16 requests above it
    )


def test_tracer_is_transparent():
    serving = _small_serving()
    runtime = serving.setup(0)
    requests = serving.inputs(runtime, 0)
    untraced = serving.outputs(serving.run(serving.fresh(runtime, requests)))
    tracer = Tracer()
    tracer.install(worker.TARGETS)
    try:
        with tracer.span("pass") as root:
            raw = serving.run(serving.fresh(runtime, requests))
    finally:
        tracer.uninstall()
    traced = serving.outputs(raw)
    assert traced.golden == untraced.golden
    assert not traced.problems
    layers = tracer.summary(root)
    assert layers["serve.serve"]["calls"] == 1
    assert layers["nn.forward"]["calls"] > 0


def test_alias_rebinding_catches_from_imports():
    import repro.nn.conv as conv
    import repro.sparse.kmap as kmap

    original = kmap.build_kernel_map
    assert conv.build_kernel_map is original
    tracer = Tracer()
    tracer.install([("sparse.build_kernel_map", "repro.sparse.kmap",
                     "build_kernel_map")])
    try:
        assert conv.build_kernel_map is not original
        assert conv.build_kernel_map is kmap.build_kernel_map
        sample = workloads.datasets.make_sample(
            "nuscenes", seed=workloads.HELD_OUT_SEED, scale=0.05
        )
        conv.build_kernel_map(sample.coords, kernel_size=3, stride=1)
    finally:
        tracer.uninstall()
    assert conv.build_kernel_map is original
    assert kmap.build_kernel_map is original
    assert [s[0] for s in tracer.spans] == ["sparse.build_kernel_map"]


def test_self_time_on_nested_spans_and_other_closes_the_sum():
    a, b = "nn.forward", "sparse.build_kernel_map"
    tracer = Tracer()
    tracer.spans = [
        ["setup", 0.0, 1.0, -1],
        ["pass", 1.0, 11.0, -1],
        [a, 2.0, 7.0, 1],
        [b, 3.0, 5.0, 2],
        [a, 3.5, 4.5, 3],  # recursion: counted once in total_s
        [b, 8.0, 9.0, 1],
    ]
    layers = tracer.summary(1)
    assert layers[a]["self_s"] == pytest.approx(3.0 + 1.0)
    assert layers[a]["total_s"] == pytest.approx(5.0)
    assert layers[a]["calls"] == 2
    assert layers[b]["self_s"] == pytest.approx(1.0 + 1.0)
    assert layers[b]["total_s"] == pytest.approx(3.0)
    metrics = worker._layer_metrics(
        tracer, 0, 1.0, [{"root": 1, "wall_s": 10.0, "scale": 0.5}], 0.0, 0.0
    )
    assert metrics[f"{a}.self_s"] == pytest.approx(0.5 * 4.0)
    assert metrics[f"{a}.calls"] == 2
    assert metrics["other.self_s"] == pytest.approx(0.5 * (10.0 - 6.0))
    parts = sum(
        v for k, v in metrics.items()
        if k.endswith(".self_s") and not k.startswith("setup.")
    )
    assert parts == pytest.approx(0.5 * 10.0)


def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    absent = tracer.install([
        ("x", "repro.no_such_module", "f"),
        ("y", "repro.gpusim.engine", "no_such_function"),
        ("z", "repro.serve.runtime", "ServingRuntime.no_such_method"),
        ("w", "repro.serve.runtime", "NoSuchClass.method"),
    ])
    tracer.uninstall()
    assert absent == [
        "repro.no_such_module:f",
        "repro.gpusim.engine:no_such_function",
        "repro.serve.runtime:ServingRuntime.no_such_method",
        "repro.serve.runtime:NoSuchClass.method",
    ]


def _metric(values, clock="host", better="higher"):
    values = list(values)
    return {"clock": clock, "better": better, "unit": "u",
            **run._summary(values)}


@pytest.mark.parametrize("base, cand, clock, expected", [
    ([100, 101, 102], [99, 100, 101], "host", "pass"),
    ([100, 101, 102], [80, 81, 82], "host", "regression"),
    ([80, 100, 120], [90, 100, 110], "host", "unresolved"),
    ([80, 100, 120], [130, 140, 150], "host", "pass"),
    ([2.5, 2.5], [2.5, 2.5, 2.5], "sim", "pass"),
    ([2.5, 2.5], [2.4, 2.4], "sim", "regression"),
])
def test_compare_verdicts(base, cand, clock, expected):
    base_doc = {"workloads": {"w": {"metrics": {"m": _metric(base, clock)}}}}
    cand_doc = {"workloads": {"w": {"metrics": {"m": _metric(cand, clock)}}}}
    rows = compare.compare(base_doc, cand_doc, {"m": 0.10})
    assert [row[-1] for row in rows] == [expected]


@pytest.mark.parametrize("cand, expected", [
    ([0.0, 0.0], "pass"), ([0.1, 0.1], "regression"),
])
def test_error_rate_may_fall_but_not_rise(cand, expected):
    def doc(values):
        metric = _metric(values, "sim", "lower")
        return {"workloads": {"w": {"metrics": {"error_rate": metric}}}}

    rows = compare.compare(doc([0.05, 0.05]), doc(cand), {})
    assert [row[-1] for row in rows] == [expected]


def test_metric_names_are_well_formed_and_match_the_spec():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(run.E2E)
    assert all(pattern.fullmatch(name) for name in names)
    host = {name for name, (_, _, clock) in run.E2E.items() if clock == "host"}
    assert {m["name"] for m in SPEC["end_to_end"]} == host
    tracer = Tracer()
    tracer.spans = [["setup", 0.0, 1.0, -1], ["pass", 1.0, 2.0, -1]]
    emitted = set(worker._layer_metrics(
        tracer, 0, 1.0, [{"root": 1, "wall_s": 1.0, "scale": 1.0}], 0.0, 0.0
    )) | set(workloads.SIM_LAYERS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= emitted
    # Undeclared: times of host layers that some workload never runs,
    # which would read a constant 0 there.
    for name in emitted - declared:
        layer = name.rsplit(".", 1)[0]
        assert name.endswith(("self_s", "total_s"))
        assert f"{layer}.calls" in declared
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_speed_reference_buffers():
    reference = worker.SpeedReference()
    # Five int64 buffers and one bool buffer per key.
    keys = sum(keys for keys, _ in reference.SIZES)
    assert reference.nbytes == 41 * keys
    assert round(reference.nbytes / 2**20) == 44  # as bench/README.md says
    assert reference.seconds() > 0


def test_serving_stream_scenes_are_not_degenerate():
    for serving in (workloads.SERVE_MULTISTREAM, workloads.SERVE_OVERLOAD):
        requests = serving.inputs(None, 0)
        scale = serving.config["scene_scale"]
        scenes = {(r.workload_id, r.scene_seed) for r in requests}
        for workload_id, scene_seed in scenes:
            workload = workloads.get_workload(workload_id)
            reference = workloads._scene(
                workload, workloads.HELD_OUT_SEED, scale
            ).num_points
            points = workloads._scene(workload, scene_seed, scale).num_points
            assert points >= workloads.MIN_SCENE_SHARE * reference


def test_fault_seed_injects_one_early_oom_and_a_failure():
    faults = workloads.SERVE_OVERLOAD.faults
    for seed in (0, 1, 7):
        plan = workloads.FaultPlan(
            seed=workloads._fault_seed(seed, faults), **faults
        )
        injector = workloads.FaultInjector(plan, 1)
        ooms = [b for b in range(workloads.FAULT_HORIZON)
                if injector.batch_ooms(b)]
        assert ooms == [0]
        assert any(injector.batch_fails(b)
                   for b in range(workloads.FAULT_EARLY))
