"""Tests for ``benchmarks/run_full.py``, the full-scale table archiver."""

import importlib.util
import json
import pathlib

_SCRIPT = pathlib.Path(__file__).parent.parent / "benchmarks" / "run_full.py"


def _load_run_full():
    spec = importlib.util.spec_from_file_location("run_full", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prefix_run_merges_into_existing_summary(tmp_path):
    run_full = _load_run_full()
    earlier = {"fig14": {"geomean": 2.0}, "fig21": {"stale": 1.0}}
    (tmp_path / "summary.json").write_text(json.dumps(earlier))

    assert run_full.main(["fig21"], results=tmp_path) == 0

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fig14"] == {"geomean": 2.0}  # untouched experiment kept
    assert summary["fig21"] != {"stale": 1.0}  # rerun experiment replaced
    assert summary["fig21"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig21.txt", "summary.json",
    ]


def test_first_run_starts_a_summary(tmp_path):
    results = tmp_path / "results_full"
    assert _load_run_full().main(["fig21"], results=results) == 0
    assert list(json.loads((results / "summary.json").read_text())) == [
        "fig21"
    ]
