"""Pin every serving-batch schedule byte for byte.

The traces are the batches a 4-stream serving run hands the scheduler
(``tests/serving_batches.py``): the two per-workload runs of the
fast-path tests and one run serving the SK-M-0.5 + NS-M-1f mix at scene
scale 0.1.  For each trace and K = 1..4, on an a100 in fp16, the golden
holds the SHA-256 of :func:`~repro.opt.schedule.schedule_report_json`
for both :func:`~repro.opt.schedule.list_schedule` and
:func:`~repro.opt.schedule.best_schedule`, their exact makespans, and
their ``redundant_events_removed`` counts.  Any change to a placement,
a kept sync event, a removal count or a re-timed window shows here.

Regenerate (only when a schedule change is intended) with::

    PYTHONPATH=src python -m tests.test_serve_batch_schedules
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyze.depgraph import DependenceGraph
from repro.gpusim.engine import launch_prices
from repro.hw import get_device
from repro.opt.schedule import best_schedule, list_schedule, schedule_report_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "serve_batch_schedules.json"
DEVICE = "a100"
PRECISION = "fp16"
STREAMS = (1, 2, 3, 4)


def _digest(schedule) -> dict:
    report = json.dumps(schedule_report_json(schedule), sort_keys=True)
    return {
        "sha256": hashlib.sha256(report.encode()).hexdigest(),
        "makespan_us": repr(schedule.makespan_us),
        "events": len(schedule.events),
        "removed": schedule.redundant_events_removed,
    }


def schedule_digests(batches) -> dict:
    """``batches``: (source label, traces) pairs -> the golden document."""
    device = get_device(DEVICE)
    entries = []
    for source, traces in batches:
        for index, launches in enumerate(traces):
            graph = DependenceGraph.build(launches)
            prices = launch_prices(launches, device, PRECISION)
            entry = {
                "source": source,
                "index": index,
                "launches": len(launches),
                "barriers": sum(1 for launch in launches if launch.is_barrier),
            }
            for k in STREAMS:
                entry[f"K{k}"] = {
                    "list": _digest(
                        list_schedule(launches, device, k, graph, prices)
                    ),
                    "best": _digest(
                        best_schedule(launches, device, k, graph, prices)
                    ),
                }
            entries.append(entry)
    return {"device": DEVICE, "precision": PRECISION, "batches": entries}


def _sources(per_workload, mixed):
    return [*per_workload.items(), ("SK-M-0.5+NS-M-1f", mixed)]


def test_serving_batch_schedules_match_golden(
    serving_batches, mixed_serving_batches
):
    expected = json.loads(GOLDEN.read_text())
    actual = schedule_digests(_sources(serving_batches, mixed_serving_batches))
    assert len(actual["batches"]) == len(expected["batches"])
    for got, want in zip(actual["batches"], expected["batches"]):
        assert got == want, f"{want['source']} batch {want['index']}"
    assert actual == expected


@pytest.mark.parametrize("k", STREAMS[1:])
def test_golden_covers_barrier_fences(k):
    # The mixed batches are barrier-heavy (BN, ReLU and concat launches
    # carry no accesses), so their schedules exercise fence pruning.
    doc = json.loads(GOLDEN.read_text())
    mixed = [b for b in doc["batches"] if "+" in b["source"]]
    assert mixed and all(b["barriers"] > b["launches"] / 3 for b in mixed)
    assert any(b[f"K{k}"]["list"]["removed"] > 0 for b in mixed)


if __name__ == "__main__":
    from tests.serving_batches import mixed_batches, per_workload_batches

    doc = schedule_digests(_sources(per_workload_batches(), mixed_batches()))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(doc['batches'])} batches)")
