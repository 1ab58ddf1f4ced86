"""Figure 11: redundant computation vs number of mask splits.

(a) segmentation workloads keep benefiting from splits up to s = 5;
(b) detection workloads' unsorted (split 0) overhead is a tolerable
2.4-2.9x.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, fmt, workload_fixture
from repro.sparse.bitmask import redundancy_ratio
from repro.tune.groups import discover_groups


def _submanifold_map(workload_id: str):
    """The stride-1 submanifold map — the dominant layer group."""
    _, model, inputs = workload_fixture(workload_id, (0,))
    ordered, by_sig = discover_groups(model, inputs[0])
    for sig in ordered:
        records = by_sig[sig]
        if records[0].kmap.volume == 27:
            return records[0].kmap
    raise RuntimeError("no 3x3x3 map found")


def run(quick: bool = True) -> ExperimentResult:
    seg_map = _submanifold_map("SK-M-1.0" if not quick else "NS-M-1f")
    det_map = _submanifold_map("WM-C-1f")
    splits = [0, 1, 2, 3, 4, 5] if not quick else [0, 1, 2, 3, 5]
    rows = []
    seg_ratios = {}
    det_ratios = {}
    for s in splits:
        sort = s != 0
        num = max(1, s)
        seg = redundancy_ratio(seg_map.nbmap, num, sort=sort, warp_rows=32)
        det = redundancy_ratio(det_map.nbmap, num, sort=sort, warp_rows=32)
        seg_ratios[s] = seg
        det_ratios[s] = det
        label = "unsorted" if s == 0 else f"split={s}"
        rows.append([label, fmt(seg), fmt(det)])
    return ExperimentResult(
        experiment="fig11",
        title="Issued/effective MAC ratio vs number of mask splits",
        headers=["config", "segmentation", "detection"],
        rows=rows,
        metrics={
            "seg_drop_1_to_max": seg_ratios[1] / seg_ratios[max(splits)],
            "det_unsorted_overhead": det_ratios[0],
            "seg_unsorted_overhead": seg_ratios[0],
        },
        notes="Paper: redundancy keeps dropping until s=5; unsorted "
        "detection overhead is 2.4-2.9x.",
    )
