"""Byte-for-byte goldens of every output the trace-check recipe feeds.

``repro lint`` (trace rules through ``LintContext.trace_violations``) and
``repro depgraph --json`` (``check_execution`` and ``depgraph_report``)
must print exactly the committed documents: two bundled workloads, one
broken trace fixture, one depgraph verification each of a clean and
a tampered (``dropped-sync``) schedule, and one four-sample schedule on
four streams.  Regenerate, after an intended change, with::

    PYTHONPATH=src:. python -m repro lint SK-M-0.5 --json \\
        > tests/golden/lint_sk_m_0_5.json
    PYTHONPATH=src:. python -m repro lint WM-C-1f --json \\
        > tests/golden/lint_wm_c_1f.json
    PYTHONPATH=src:. python -m repro lint \\
        tests.broken_traces:build_dropped_gather --json \\
        > tests/golden/lint_dropped_gather.json
    PYTHONPATH=src:. python -m repro depgraph SK-M-0.5 --scale 0.1 \\
        --batch 1 --schedule --verify --json \\
        > tests/golden/depgraph_verify.json
    PYTHONPATH=src:. python -m tests.broken_schedules dropped-sync bad.json
    PYTHONPATH=src:. python -m repro depgraph SK-M-0.5 --scale 0.1 \\
        --batch 1 --schedule-json bad.json --verify --json \\
        > tests/golden/depgraph_verify_dropped_sync.json
    PYTHONPATH=src:. python -m repro depgraph SK-M-0.5 --scale 0.1 \\
        --batch 4 --schedule --gpu-streams 4 --json \\
        > tests/golden/depgraph_schedule_4streams.json

The module also checks that lint reports a schedule violation once.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.analyze import collect_execution_trace, lint_model
from repro.analyze.hb import SyncEvent
from repro.cli import main
from repro.models import get_workload
from repro.opt import schedule as opt_schedule
from tests import broken_schedules

GOLDEN = Path(__file__).parent / "golden"
DEPGRAPH = ["depgraph", "SK-M-0.5", "--scale", "0.1", "--batch", "1"]

CASES = {
    "lint_sk_m_0_5": (["lint", "SK-M-0.5", "--json"], 0),
    "lint_wm_c_1f": (["lint", "WM-C-1f", "--json"], 0),
    "lint_dropped_gather": (
        ["lint", "tests.broken_traces:build_dropped_gather", "--json"], 1
    ),
    "depgraph_verify": ([*DEPGRAPH, "--schedule", "--verify", "--json"], 0),
    "depgraph_schedule_4streams": (
        ["depgraph", "SK-M-0.5", "--scale", "0.1", "--batch", "4",
         "--schedule", "--gpu-streams", "4", "--json"], 0
    ),
}


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(capsys, name):
    argv, expected_rc = CASES[name]
    rc, out = run(capsys, argv)
    assert rc == expected_rc
    assert out == (GOLDEN / f"{name}.json").read_text(), (
        f"{' '.join(argv)} drifted from tests/golden/{name}.json"
    )


def test_tampered_schedule_matches_golden(capsys, tmp_path):
    schedule_json = tmp_path / "dropped-sync.json"
    assert broken_schedules.main(["dropped-sync", str(schedule_json)]) == 0
    capsys.readouterr()
    rc, out = run(
        capsys,
        [*DEPGRAPH, "--schedule-json", str(schedule_json), "--verify",
         "--json"],
    )
    assert rc == 1
    golden = GOLDEN / "depgraph_verify_dropped_sync.json"
    assert out == golden.read_text()


def test_schedule_violation_is_reported_once(monkeypatch):
    # A sync event past the end of the trace has no launch to name, so
    # the finding's path is the trace's: it must appear exactly once.
    real = opt_schedule.best_schedule

    def with_stray_event(trace, device, streams, graph, prices):
        schedule = real(trace, device, streams, graph, prices)
        stray = SyncEvent(999, len(schedule.assignments) + 5, 0, 0, 0)
        return dataclasses.replace(
            schedule, events=(*schedule.events, stray)
        )

    monkeypatch.setattr(opt_schedule, "best_schedule", with_stray_event)
    workload = get_workload("SK-M-0.5")
    model = workload.build_model()
    trace = collect_execution_trace(
        model, workload.dataset_config.in_channels
    )
    findings = lint_model(
        model,
        in_channels=workload.dataset_config.in_channels,
        trace=trace,
        rules=["unsynchronized-cross-stream-dep"],
    )
    stray = [f for f in findings if "outside the trace" in f.message]
    assert len(stray) == 1, [f.format() for f in findings]
    assert stray[0].path == "<trace>"
