"""Trace-to-latency conversion for a device spec."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.errors import SimulatedOOMError
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.hw.specs import DeviceSpec
from repro.precision import Precision


def wave_efficiency(ctas: int, concurrent_ctas: int) -> float:
    """Utilization fraction from wave quantization.

    A GPU executes thread blocks in waves of ``concurrent_ctas``; a kernel
    with fewer blocks than one wave leaves SMs idle, and the last partial
    wave of a large kernel does the same.  This is the mechanism that makes
    extra mask splits (more, smaller, parallel GEMMs) profitable on
    low-parallelism workloads (Table 5) and devices (Figure 18 on Orin).
    """
    if ctas < 1 or concurrent_ctas < 1:
        raise ValueError("ctas and concurrent_ctas must be >= 1")
    waves = math.ceil(ctas / concurrent_ctas)
    return ctas / (waves * concurrent_ctas)


def _compute_time_us(
    launch: KernelLaunch, device: DeviceSpec, precision: Precision
) -> float:
    """Time on the launch's compute pipe, including scalar-op overhead."""
    eff = wave_efficiency(launch.ctas, device.concurrent_ctas)
    if launch.kind is LaunchKind.GEMM:
        tflops = device.gemm_tflops(precision, launch.tensor_core_eligible)
    else:
        # Mapping, memory and reduction (elementwise adds) launches run on
        # the CUDA cores regardless of precision.
        tflops = device.cuda_core_tflops
    t_flops = launch.flops / (tflops * 1e6 * eff * launch.compute_efficiency)
    # Scalar ops (addressing, boundary checks, hash probes) run on the CUDA
    # cores' integer pipe regardless of the launch kind.
    t_scalar = launch.scalar_ops / (device.int_giops * 1e3 * eff)
    return t_flops + t_scalar


def _memory_time_us(launch: KernelLaunch, device: DeviceSpec) -> float:
    """DRAM time: plain traffic plus serialized atomic traffic.

    Achievable bandwidth also degrades for small launches: DRAM saturates
    only with roughly one resident thread block per SM, so a 1-CTA kernel
    on a 108-SM device sees ~1/108 of peak — small kernels are latency
    bound, which matters for mapping operations on thin layers.
    """
    plain = launch.dram_read_bytes + launch.dram_write_bytes
    atomic = launch.atomic_write_bytes * device.atomic_serialization
    bw_eff = min(1.0, launch.ctas / device.sms)
    return (plain + atomic) / (device.dram_bw_gbps * 1e3 * bw_eff)


def estimate_launch_us(
    launch: KernelLaunch, device: DeviceSpec, precision: Precision
) -> float:
    """Latency of a single kernel launch in microseconds."""
    t_compute = _compute_time_us(launch, device, precision)
    t_memory = _memory_time_us(launch, device)
    if launch.overlapped:
        body = max(t_compute, t_memory)
    else:
        body = t_compute + t_memory
    return device.kernel_launch_us + body


def launch_prices(
    trace: Iterable[KernelLaunch],
    device: DeviceSpec,
    precision: "Precision | str",
) -> List[float]:
    """Per-launch latency (us) of ``trace``, in program order.

    The one place a trace's launches are priced: the scheduler, the
    dependence graph's critical path and the per-kind / per-layer
    breakdowns all read this vector.  Each caller keeps its own
    summation order (``sum()`` is compensated on Python >= 3.12, an
    explicit left-to-right loop is not), so sharing the vector never
    moves a result by a bit.
    """
    parsed = Precision.parse(precision)
    return [estimate_launch_us(launch, device, parsed) for launch in trace]


def estimate_trace_us(
    trace: KernelTrace,
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int = 1,
) -> float:
    """Total latency of a trace in microseconds.

    With ``streams=1`` (the default) launches serialize on one stream —
    sparse convolution layers are data-dependent, so that matches what
    real single-stream libraries do.  With ``streams=K > 1`` the trace is
    list-scheduled onto K virtual streams respecting its dependence DAG
    (:mod:`repro.opt.schedule`), so the result lands in
    ``[critical_path, serialized]``.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    parsed = Precision.parse(precision)
    if streams > 1:
        # Imported lazily: repro.opt depends on this module for launch
        # pricing, so a top-level import would be circular.
        from repro.opt.schedule import scheduled_trace_us

        return scheduled_trace_us(trace, device, parsed, streams)
    return sum(launch_prices(trace, device, parsed))


def memory_budget_bytes(device: DeviceSpec, headroom: float = 0.0) -> float:
    """Usable DRAM on ``device`` after reserving a headroom fraction.

    The headroom models everything the simulator does not trace: the CUDA
    context, allocator fragmentation, framework reserves.
    """
    if not 0.0 <= headroom < 1.0:
        raise ValueError(f"headroom must be in [0, 1), got {headroom}")
    return device.dram_bytes * (1.0 - headroom)


def enforce_memory_budget(
    trace: KernelTrace,
    device: DeviceSpec,
    resident_bytes: float = 0.0,
    headroom: float = 0.0,
    budget_bytes: "float | None" = None,
) -> float:
    """Check a trace against the device's DRAM capacity.

    ``resident_bytes`` carries everything live for the whole execution that
    launches do not annotate as workspace: features and weights.  Raises
    :class:`~repro.errors.SimulatedOOMError` when the modeled peak (resident
    plus the trace's liveness-aware peak workspace) exceeds the budget;
    returns the modeled peak in bytes otherwise.
    """
    if resident_bytes < 0:
        raise ValueError(f"resident_bytes must be >= 0, got {resident_bytes}")
    budget = (
        float(budget_bytes)
        if budget_bytes is not None
        else memory_budget_bytes(device, headroom)
    )
    peak = trace.summary().peak_workspace_bytes + resident_bytes
    if peak > budget:
        raise SimulatedOOMError(
            f"modeled peak memory {peak / (1 << 30):.3f} GiB exceeds "
            f"budget {budget / (1 << 30):.3f} GiB on {device.name}",
            peak_bytes=peak,
            budget_bytes=budget,
        )
    return peak


def latency_breakdown(
    trace: KernelTrace, device: DeviceSpec, precision: "Precision | str"
) -> Dict[str, float]:
    """Latency split by launch kind, in microseconds.

    The ``"mapping"`` vs ``"gemm"`` split is the quantity behind the paper's
    Tables 3/4 contrast (kernel-only time vs end-to-end time).
    """
    out: Dict[str, float] = {}
    for launch, price in zip(trace, launch_prices(trace, device, precision)):
        key = launch.kind.value
        out[key] = out.get(key, 0.0) + price
    return out
