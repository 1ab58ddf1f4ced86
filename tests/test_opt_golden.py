"""Goldens for the optimization-pass path.

``tests/golden/opt_passes.json`` pins, for every dataflow, what each pass
alone and the default pipeline do to the input of
``test_each_pass_alone_is_sound`` (seed 11, c_in 5, c_out 6, the naive
dynamic-shape schedule, FP16): each pass's ``changed`` flag, its
before/after :class:`~repro.gpusim.trace.TraceSummary`, and the SHA-256
of the optimized launches' ``repr``.  Regenerate (after an intentional
pass change) with:

    PYTHONPATH=src:. python -m tests.test_opt_golden \
        > tests/golden/opt_passes.json

``tests/golden/depgraph_optimized.json`` pins the ``-O`` pipeline on a
whole network (only ``plan-workspace`` fires on it); regenerate with:

    PYTHONPATH=src python -m repro depgraph SK-M-0.5 --scale 0.1 \
        -O --schedule --json > tests/golden/depgraph_optimized.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.kernels.base import KernelSchedule
from repro.kernels.registry import DATAFLOWS, trace_dataflow
from repro.opt import PASSES, optimize_trace
from repro.precision import Precision
from tests.test_dataflow_differential import build_case

GOLDEN = Path(__file__).parent / "golden" / "opt_passes.json"
DEPGRAPH_GOLDEN = Path(__file__).parent / "golden" / "depgraph_optimized.json"

#: Pipelines per dataflow: each pass alone, then the default (``None``).
PIPELINES = [[name] for name in sorted(PASSES)] + [None]


def case_key(dataflow, passes):
    return f"{dataflow}/{'default' if passes is None else passes[0]}"


def record_case(dataflow, passes):
    """Optimize a fresh trace and describe the result as plain JSON."""
    _, _, _, kmap = build_case(3, 1, 1, seed=11)
    trace = trace_dataflow(
        dataflow, kmap, c_in=5, c_out=6,
        schedule=KernelSchedule(hoist_invariants=False),
        precision=Precision.FP16,
    )
    optimized, results = optimize_trace(trace, passes=passes)
    return {
        "results": [
            {
                "name": r.name,
                "changed": r.changed,
                "before": dataclasses.asdict(r.before),
                "after": dataclasses.asdict(r.after),
            }
            for r in results
        ],
        "launches_sha256": hashlib.sha256(
            repr(list(optimized.launches)).encode()
        ).hexdigest(),
    }


def record_all():
    return {
        case_key(dataflow, passes): record_case(dataflow, passes)
        for dataflow in DATAFLOWS
        for passes in PIPELINES
    }


@pytest.mark.parametrize("passes", PIPELINES, ids=lambda p: p and p[0])
@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_matches_committed_golden(dataflow, passes):
    golden = json.loads(GOLDEN.read_text())
    assert record_case(dataflow, passes) == golden[
        case_key(dataflow, passes)
    ], (
        "optimization-pass output drifted from the golden fixture; "
        "if intentional, regenerate per this module's docstring"
    )


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {
        case_key(dataflow, passes)
        for dataflow in DATAFLOWS
        for passes in PIPELINES
    }


def test_depgraph_optimized_matches_committed_golden(capsys):
    argv = ["depgraph", "SK-M-0.5", "--scale", "0.1", "-O", "--schedule", "--json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == DEPGRAPH_GOLDEN.read_text()


if __name__ == "__main__":
    print(json.dumps(record_all(), indent=1, sort_keys=True))
