"""Trace sanitizer: conservation invariants over :class:`KernelTrace`
streams, plus a scatter write-race detector.

The performance model is only as honest as its traces.  Every dataflow
emits launches whose resource counts must respect physics:

* structural sanity — finite, non-negative fields, ``ctas >= 1``,
  ``compute_efficiency`` in ``(0, 1]``, non-empty names;
* flop conservation — a convolution's GEMM-kind launches must issue at
  least ``2 x MACs = 2 x total_pairs x C_in x C_out`` flops (warp
  lockstep and tile padding only ever *add* issued work);
* byte accounting — gathers must read at least one copy of every
  gathered input row; the output (plain + atomic writes) must
  materialise at least one copy of every output row; the total atomic
  traffic can never exceed the scatter-everything upper bound of
  ``4 bytes x total_pairs x C_out`` (FP32 accumulation of every pair);
* **write-race detection** — for every scatter-class launch the checker
  recomputes the output-index conflict set from the kernel map: a launch
  covering offsets whose pairs target the same output row more than once
  is racing unless it carries at least ``4 x conflicts x C_out`` atomic
  bytes.  Output-stationary dataflows (implicit GEMM) are conflict-free
  by construction; fetch-on-demand makes every write atomic; the fused
  gather-scatter splits first-touch stores from atomic accumulations.

Checkers *report* :class:`TraceViolation`s rather than raising, so the
test-suite fixture and the CLI can decide severity.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Dict, List, Optional

import numpy as np

from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.sparse.kmap import KernelMap

#: Bytes per FP32 partial sum (all dataflows accumulate in FP32).
ACCUM_BYTES = 4.0

#: Absolute slack for float byte comparisons.
_EPS = 0.5

_OFFSET_RE = re.compile(r"offset(\d+)")


@dataclasses.dataclass(frozen=True)
class TraceViolation:
    """One broken invariant, attributed to a launch when possible."""

    invariant: str
    message: str
    launch: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.launch}]" if self.launch else ""
        return f"{self.invariant}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {
            "invariant": self.invariant,
            "launch": self.launch,
            "message": self.message,
        }


def _numeric_fields(launch: KernelLaunch) -> List[str]:
    return [
        "flops",
        "dram_read_bytes",
        "dram_write_bytes",
        "atomic_write_bytes",
        "scalar_ops",
        "workspace_bytes",
    ]


def check_trace(trace: KernelTrace) -> List[TraceViolation]:
    """Structural invariants every launch must satisfy, regardless of what
    produced the trace."""
    violations: List[TraceViolation] = []
    for launch in trace:
        if not launch.name:
            violations.append(
                TraceViolation(
                    invariant="launch-name",
                    message="launch has an empty name",
                )
            )
        for field in _numeric_fields(launch):
            value = float(getattr(launch, field))
            if not math.isfinite(value):
                violations.append(
                    TraceViolation(
                        invariant="finite-fields",
                        launch=launch.name,
                        message=f"{field} is not finite ({value})",
                    )
                )
            elif value < 0:
                violations.append(
                    TraceViolation(
                        invariant="non-negative",
                        launch=launch.name,
                        message=f"{field} is negative ({value})",
                    )
                )
        if launch.ctas < 1:
            violations.append(
                TraceViolation(
                    invariant="cta-count",
                    launch=launch.name,
                    message=f"ctas must be >= 1, got {launch.ctas}",
                )
            )
        if not 0.0 < launch.compute_efficiency <= 1.0:
            violations.append(
                TraceViolation(
                    invariant="compute-efficiency",
                    launch=launch.name,
                    message=(
                        f"compute_efficiency must be in (0, 1], got "
                        f"{launch.compute_efficiency}"
                    ),
                )
            )
    # Peak workspace is a max over serialized launches: the summary can
    # never report less than the largest single launch's workspace.
    largest_ws = max((float(l.workspace_bytes) for l in trace), default=0.0)
    peak_ws = float(trace.summary().peak_workspace_bytes)
    if peak_ws + _EPS < largest_ws:
        violations.append(
            TraceViolation(
                invariant="peak-workspace",
                message=(
                    f"summary peak_workspace_bytes {peak_ws:.0f} is below "
                    f"the largest single launch workspace {largest_ws:.0f}"
                ),
            )
        )
    return violations


# ---------------------------------------------------------------------- #
# Scatter write-race detection
# ---------------------------------------------------------------------- #
def _is_scatter_class(launch: KernelLaunch) -> bool:
    """Launches that scatter per-pair partial sums into the output buffer."""
    name = launch.name
    if "writeback" in name:
        return False  # dense accumulator -> storage copy: one row each
    return "scatter/" in name or "fetch_on_demand/" in name


def _covered_offsets(launch: KernelLaunch, volume: int) -> Optional[List[int]]:
    """Which kernel offsets a scatter-class launch writes for.

    ``offset<k>`` names cover one offset; fused launches cover all of
    them.  Returns ``None`` when the name encodes neither.
    """
    match = _OFFSET_RE.search(launch.name)
    if match:
        k = int(match.group(1))
        return [k] if k < volume else None
    if "fused" in launch.name:
        return list(range(volume))
    return None


def scatter_conflicts(kmap: KernelMap, offsets: List[int]) -> int:
    """Size of the output-index conflict set over the covered offsets:
    scattered writes minus distinct output rows touched."""
    columns = kmap.nbmap[:, offsets] >= 0
    writes = int(np.count_nonzero(columns))
    distinct = int(np.count_nonzero(columns.any(axis=1)))
    return writes - distinct


def check_scatter_races(
    trace: KernelTrace, kmap: KernelMap, c_out: int
) -> List[TraceViolation]:
    """Error on any launch writing overlapping output rows without enough
    atomic traffic to cover its conflict set."""
    violations: List[TraceViolation] = []
    for launch in trace:
        if not _is_scatter_class(launch):
            continue
        offsets = _covered_offsets(launch, kmap.volume)
        if offsets is None:
            continue
        conflicts = scatter_conflicts(kmap, offsets)
        if conflicts == 0:
            continue
        required = ACCUM_BYTES * conflicts * c_out
        if launch.atomic_write_bytes + _EPS < required:
            violations.append(
                TraceViolation(
                    invariant="scatter-write-race",
                    launch=launch.name,
                    message=(
                        f"launch covers {len(offsets)} offset(s) with "
                        f"{conflicts} conflicting writes to shared output "
                        f"rows but carries only "
                        f"{launch.atomic_write_bytes:.0f} atomic bytes "
                        f"(needs >= {required:.0f}); non-atomic overlapping "
                        f"scatter is a data race"
                    ),
                )
            )
    return violations


# ---------------------------------------------------------------------- #
# Convolution conservation invariants
# ---------------------------------------------------------------------- #
def check_conv_trace(
    trace: KernelTrace,
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    itemsize: float = 4.0,
) -> List[TraceViolation]:
    """Conservation invariants for one forward-convolution trace.

    ``itemsize`` is the storage precision's bytes per element (e.g.
    ``Precision.FP16.itemsize``).
    """
    violations = check_trace(trace)
    violations.extend(check_scatter_races(trace, kmap, c_out))
    total_pairs = int(kmap.total_pairs)
    macs = float(total_pairs) * c_in * c_out

    gemm_flops = trace.filter(LaunchKind.GEMM).summary().flops
    if gemm_flops + _EPS < 2.0 * macs:
        violations.append(
            TraceViolation(
                invariant="flop-conservation",
                message=(
                    f"GEMM launches issue {gemm_flops:.0f} flops but the "
                    f"map demands 2 x MACs = {2.0 * macs:.0f}"
                ),
            )
        )

    summary = trace.summary()
    min_reads = itemsize * total_pairs * c_in
    if summary.dram_read_bytes + _EPS < min_reads:
        violations.append(
            TraceViolation(
                invariant="gather-read-accounting",
                message=(
                    f"trace reads {summary.dram_read_bytes:.0f} bytes but "
                    f"gathering every input pair needs >= {min_reads:.0f}"
                ),
            )
        )

    min_writes = itemsize * kmap.num_outputs * c_out
    total_writes = summary.dram_write_bytes + summary.atomic_write_bytes
    if total_writes + _EPS < min_writes:
        violations.append(
            TraceViolation(
                invariant="scatter-write-accounting",
                message=(
                    f"trace writes {total_writes:.0f} bytes but "
                    f"materialising every output row needs >= "
                    f"{min_writes:.0f}"
                ),
            )
        )

    max_atomic = ACCUM_BYTES * total_pairs * c_out
    if summary.atomic_write_bytes > max_atomic + _EPS:
        violations.append(
            TraceViolation(
                invariant="atomic-write-bound",
                message=(
                    f"trace charges {summary.atomic_write_bytes:.0f} atomic "
                    f"bytes, above the scatter-everything bound "
                    f"{max_atomic:.0f} (= 4 x pairs x C_out)"
                ),
            )
        )
    return violations


def assert_trace_ok(trace: KernelTrace) -> None:
    """Raise ``AssertionError`` listing every structural violation."""
    violations = check_trace(trace)
    if violations:
        details = "\n".join(f"  - {v}" for v in violations)
        raise AssertionError(
            f"trace sanitizer found {len(violations)} violation(s):\n{details}"
        )


__all__ = [
    "TraceViolation",
    "check_trace",
    "check_conv_trace",
    "check_scatter_races",
    "scatter_conflicts",
    "assert_trace_ok",
]
