#!/usr/bin/env python
"""Run every experiment at full scale and archive the regenerated tables.

Writes ``benchmarks/results_full/<experiment>.txt`` plus a combined
``summary.json`` of all metrics.  A prefix run regenerates only the
selected experiments and merges their metrics into the existing summary.  This is the long-form companion to
``pytest benchmarks/ --benchmark-only`` (which runs the quick grids).

Run:  python benchmarks/run_full.py [experiment-prefix ...]
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
import time
import traceback

from repro.experiments import EXPERIMENTS

RESULTS = pathlib.Path(__file__).parent / "results_full"


def main(argv, results: pathlib.Path = RESULTS) -> int:
    results.mkdir(exist_ok=True)
    selected = [
        e for e in EXPERIMENTS
        if not argv or any(e.startswith(p) for p in argv)
    ]
    summary_path = results / "summary.json"
    summary = (
        json.loads(summary_path.read_text()) if summary_path.exists() else {}
    )
    for name in selected:
        module = importlib.import_module(f"repro.experiments.{name}")
        start = time.perf_counter()
        try:
            result = module.run(quick=False)
        except Exception:  # keep going; record the failure
            (results / f"{name}.txt").write_text(traceback.format_exc())
            print(f"[{name}] FAILED", flush=True)
            continue
        elapsed = time.perf_counter() - start
        (results / f"{result.experiment}.txt").write_text(
            result.to_table() + f"\n[completed in {elapsed:.1f}s]\n"
        )
        summary[result.experiment] = result.metrics
        print(f"[{name}] done in {elapsed:.1f}s", flush=True)
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
