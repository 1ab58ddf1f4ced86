"""Static analysis for sparse-convolution models (``python -m repro lint``).

Three layers:

* :mod:`repro.analyze.ir` / :mod:`repro.analyze.propagate` — a static IR
  extracted by symbolic propagation of coordinate stride, channel counts
  and kernel-map scope through the model graph, without executing data;
* :mod:`repro.analyze.rules` — a pluggable lint-rule registry
  (severities info/warning/error) over that IR;
* :mod:`repro.analyze.tracecheck` — conservation invariants and a scatter
  write-race detector over :class:`~repro.gpusim.trace.KernelTrace`
  streams.

:func:`lint_model` / :func:`lint_workload` are the high-level entry points
used by the CLI, CI, and the serving runtime's admission controller.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.analyze.depgraph import (
    DepEdge,
    DependenceGraph,
    check_dependences,
    check_execution,
    check_latency_model,
    depgraph_report,
)
from repro.analyze.hb import (
    HappensBefore,
    SyncEvent,
    check_schedule,
    find_redundant_events,
    redundant_sync_edges,
)
from repro.analyze.ir import (
    ChannelMismatch,
    IRNode,
    JoinEvent,
    MapEvent,
    ModelIR,
    SymbolicTensor,
)
from repro.analyze.propagate import (
    HANDLERS,
    SymbolicTracer,
    register_handler,
    trace_model,
)
from repro.analyze.provenance import (
    Exemption,
    FuzzReport,
    KeyComponent,
    KeySchema,
    ReadLog,
    SiteAudit,
    audit_cache_site,
    audit_cache_sites,
    fuzz_all,
    fuzz_cache_site,
    register_cache_site,
    wrap,
)
from repro.analyze.ranges import (
    LayerRange,
    RangeReport,
    ValueRange,
    model_range_report,
    precision_drop_veto,
    propagate_ranges,
)
from repro.analyze.rules import (
    RULES,
    Finding,
    LintContext,
    Severity,
    lint_rule,
    max_severity,
    run_rules,
    static_weight_bytes,
)
from repro.analyze.tracecheck import (
    TraceViolation,
    assert_trace_ok,
    check_conv_trace,
    check_scatter_races,
    check_trace,
    scatter_conflicts,
)
from repro.gpusim.engine import PricedTrace
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec
from repro.nn.module import Module
from repro.precision import Precision


def collect_execution_trace(
    model: Module,
    in_channels: int,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
    num_points: int = 150,
    seed: int = 0,
) -> Optional["KernelTrace"]:
    """Simulate one forward pass on a small synthetic scene and return the
    annotated kernel trace (``None`` when the model cannot execute — the
    static rules still run without it)."""
    import numpy as np

    from repro.hw import get_device
    from repro.nn.context import ExecutionContext
    from repro.sparse.tensor import SparseTensor

    rng = np.random.default_rng(seed)
    coords = np.unique(
        rng.integers(0, 24, size=(num_points, 3), dtype=np.int32), axis=0
    )
    # Leading batch column (single scene).
    coords = np.concatenate(
        [np.zeros((len(coords), 1), dtype=np.int32), coords], axis=1
    )
    feats = rng.standard_normal((len(coords), in_channels)).astype(np.float32)
    ctx = ExecutionContext(
        device=get_device(device),
        precision=Precision.parse(precision),
        policy=policy,
        simulate_only=True,
    )
    try:
        model(SparseTensor(coords=coords, feats=feats), ctx)
    except Exception:
        return None
    return ctx.trace


def lint_model(
    model: Module,
    *,
    in_channels: int,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
    ndim: int = 3,
    rules: Optional[Sequence[str]] = None,
    trace: Optional["KernelTrace"] = None,
    collect_trace: bool = False,
    ir: Optional[ModelIR] = None,
) -> List[Finding]:
    """Statically lint one model for a deployment target.

    ``trace`` supplies an executed kernel trace for the dependence and
    liveness rules; ``collect_trace=True`` simulates a small forward pass
    to obtain one (3-D models only).  Without either, trace-level rules
    are skipped.  ``ir`` reuses the model's :func:`trace_model` IR when
    the caller already built it.  Returns findings sorted most severe
    first (empty list = clean).
    """
    from repro.hw import get_device

    if trace is None and collect_trace and ndim == 3:
        trace = collect_execution_trace(
            model,
            in_channels,
            device=device,
            precision=precision,
            policy=policy,
        )
    if ir is None:
        ir = trace_model(model, in_channels=in_channels, ndim=ndim)
    ctx = LintContext(
        ir=ir,
        device=get_device(device),
        precision=Precision.parse(precision),
        policy=policy,
        trace=trace,
    )
    return run_rules(ctx, rules=rules)


def lint_workload(
    workload_id: str,
    *,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
    rules: Optional[Sequence[str]] = None,
    collect_trace: bool = False,
) -> List[Finding]:
    """Lint a bundled workload's model with its dataset's input channels."""
    from repro.models import get_workload

    workload = get_workload(workload_id)
    model = workload.build_model()
    return lint_model(
        model,
        in_channels=workload.dataset_config.in_channels,
        device=device,
        precision=precision,
        policy=policy,
        rules=rules,
        collect_trace=collect_trace,
    )


def sanitize_trace(
    priced: PricedTrace, device: DeviceSpec, precision: Precision
) -> None:
    """The trace check (:data:`repro.gpusim.engine.TRACE_CHECK`): raise
    ``AssertionError`` listing every violation :func:`check_trace` and
    :func:`check_execution` (on the priced schedule, dependence graph and
    price vector) find in the priced execution.  A graph is built only
    when the execution carries none (one stream).  ``precision`` is the
    hook's; the price vector already carries it."""
    trace = priced.trace
    graph = priced.graph
    if graph is None:
        graph = DependenceGraph.build(trace)
    violations = check_trace(trace) + check_execution(
        trace, device, graph, priced.prices, priced.schedule
    )
    if violations:
        details = "\n".join(f"  - {v}" for v in violations)
        raise AssertionError(
            f"trace sanitizer found {len(violations)} violation(s) in a "
            f"trace submitted for latency estimation:\n{details}"
        )


__all__ = [
    "ChannelMismatch",
    "DepEdge",
    "DependenceGraph",
    "Exemption",
    "Finding",
    "FuzzReport",
    "KeyComponent",
    "KeySchema",
    "HANDLERS",
    "HappensBefore",
    "SyncEvent",
    "IRNode",
    "JoinEvent",
    "LayerRange",
    "LintContext",
    "MapEvent",
    "ModelIR",
    "RULES",
    "RangeReport",
    "ReadLog",
    "Severity",
    "SiteAudit",
    "SymbolicTensor",
    "SymbolicTracer",
    "TraceViolation",
    "ValueRange",
    "assert_trace_ok",
    "audit_cache_site",
    "audit_cache_sites",
    "check_conv_trace",
    "check_dependences",
    "check_execution",
    "check_latency_model",
    "check_scatter_races",
    "check_schedule",
    "check_trace",
    "collect_execution_trace",
    "depgraph_report",
    "find_redundant_events",
    "fuzz_all",
    "fuzz_cache_site",
    "lint_model",
    "lint_rule",
    "lint_workload",
    "max_severity",
    "model_range_report",
    "precision_drop_veto",
    "propagate_ranges",
    "redundant_sync_edges",
    "register_cache_site",
    "register_handler",
    "run_rules",
    "sanitize_trace",
    "scatter_conflicts",
    "static_weight_bytes",
    "trace_model",
    "wrap",
]
