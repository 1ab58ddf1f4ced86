"""OOM resilience: memory-footprint modeling and graceful degradation.

The paper's dataflow menu spans a workspace-memory axis as well as a
performance one: gather-GEMM-scatter materializes staging buffers for
every (input, output) pair, implicit GEMM carries dense output-stationary
map structures (doubled when sorted copies are materialized offline, plus
FP32 partial buffers per mask split), and fetch-on-demand streams pair
lists with no staging at all — the minimal-footprint fallback.  This
package turns that axis into a recovery mechanism: model the footprint of
an execution (:mod:`repro.resilience.footprint`), and when it exceeds a
device budget walk a deterministic, policy-ordered degradation ladder
(:mod:`repro.resilience.ladder`) instead of dying.
"""

from repro.resilience.footprint import (
    FootprintReport,
    LayerFootprint,
    ladder_footprint,
    model_footprint,
    model_weight_bytes,
)
from repro.resilience.ladder import (
    DEFAULT_RUNGS,
    DegradationLadder,
    ExecState,
    LadderPlan,
    LadderStep,
    apply_rung,
)

__all__ = [
    "DEFAULT_RUNGS",
    "DegradationLadder",
    "ExecState",
    "FootprintReport",
    "LadderPlan",
    "LadderStep",
    "LayerFootprint",
    "apply_rung",
    "ladder_footprint",
    "model_footprint",
    "model_weight_bytes",
]
