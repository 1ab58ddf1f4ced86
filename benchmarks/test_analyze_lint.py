"""Static-lint sweep over every bundled workload.

Not a paper figure — this is the deployment gate exercised at benchmark
scale: every registered workload is traced symbolically and run through
the full rule catalogue at each precision.  Shape claims asserted:

* no bundled workload carries an error-level finding at any precision
  (the gate CI enforces with ``repro lint --fail-on error`` stays green);
* at fp16/tf32 there are no warnings either, while every fp32 row warns
  about the tensor-core schedule falling back to CUDA cores — the
  linter's static restatement of the paper's FP32 penalty;
* every workload's boundary layers (dataset-fixed input channels, class
  counts) surface the expected info-level tile-alignment notes with
  their Figure 21 padding-waste percentages.
"""

from __future__ import annotations

from repro.analyze import Severity, lint_workload
from repro.models.registry import WORKLOADS
from repro.utils.format import format_table

DEVICE = "a100"
PRECISIONS = ("fp16", "tf32", "fp32")


def lint_table():
    rows = []
    for workload_id in sorted(WORKLOADS):
        for precision in PRECISIONS:
            findings = lint_workload(
                workload_id, device=DEVICE, precision=precision
            )
            by_sev = {sev: 0 for sev in Severity}
            for f in findings:
                by_sev[f.severity] += 1
            worst_waste = max(
                (f.data.get("waste_pct", 0.0) for f in findings
                 if f.rule == "tile-alignment"),
                default=0.0,
            )
            rows.append([
                workload_id, precision,
                str(by_sev[Severity.ERROR]),
                str(by_sev[Severity.WARNING]),
                str(by_sev[Severity.INFO]),
                f"{worst_waste:.1f}%",
            ])
    return format_table(
        ["workload", "precision", "errors", "warnings", "infos",
         "worst tile waste"],
        rows,
        title=f"static lint sweep on {DEVICE}",
    ), rows


def test_lint_sweep_table(benchmark, record_table):
    table, rows = benchmark.pedantic(lint_table, iterations=1, rounds=1)
    record_table("lint", table + "\n")
    assert len(rows) == len(WORKLOADS) * len(PRECISIONS)
    # The deployment gate: bundled workloads never lint at error level.
    assert all(row[2] == "0" for row in rows), table
    # Tensor-core precisions are warning-free; fp32 always warns about
    # the CUDA-core fallback.
    for row in rows:
        if row[1] == "fp32":
            assert int(row[3]) > 0, table
        else:
            assert row[3] == "0", table
    # Dataset-fixed boundary channels always leave an info-level note.
    assert all(int(row[4]) > 0 for row in rows), table
