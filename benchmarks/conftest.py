"""Shared benchmark infrastructure.

Each benchmark module regenerates one of the paper's tables or figures via
:mod:`repro.experiments` and asserts its *shape* claims (who wins, by
roughly what factor, where crossovers fall).  Absolute latencies come from
the analytical GPU model, so they are deterministic; pytest-benchmark
measures the wall-clock cost of regenerating each artifact.

Tables are written to ``benchmarks/results/<experiment>.txt`` so a full
run leaves the regenerated paper artifacts on disk, and each must equal
the committed ``benchmarks/golden/<experiment>.txt`` byte for byte: a
change that moves any simulated number fails here.  After an intentional
model change, regenerate with ``pytest benchmarks --benchmark-disable``
and copy ``benchmarks/results/*.txt`` over ``benchmarks/golden/``.

Every execution a table prices runs through the trace check
(:func:`repro.analyze.sanitize_trace`, set as
:data:`repro.gpusim.engine.TRACE_CHECK` as in the tier-1 suite and called
as ``check(priced, device, precision)`` with the priced execution), so a
table built from a trace the sanitizer rejects fails here too.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analyze import sanitize_trace
from repro.gpusim import engine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def sanitize_all_traces(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CHECK", sanitize_trace)
    yield


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Persist a regenerated table and compare it with its golden."""

    def record(name: str, table: str) -> None:
        (results_dir / f"{name}.txt").write_text(table)
        golden = GOLDEN_DIR / f"{name}.txt"
        assert golden.exists(), f"no golden table {golden}"
        assert table == golden.read_text(), (
            f"{name} table differs from {golden}; diff it against "
            f"{results_dir / f'{name}.txt'}"
        )

    return record


@pytest.fixture()
def run_experiment(benchmark, record_table):
    """Run an experiment module once under pytest-benchmark, persist its
    regenerated table and check it against the golden."""

    def runner(module, quick: bool = True):
        result = benchmark.pedantic(
            module.run, kwargs={"quick": quick}, iterations=1, rounds=1
        )
        record_table(result.experiment, result.to_table() + "\n")
        return result

    return runner
