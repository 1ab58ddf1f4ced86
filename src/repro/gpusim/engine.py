"""Trace-to-latency conversion for a device spec."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

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


# ---------------------------------------------------------------------- #
# Trace memoization (ROADMAP item 5)
# ---------------------------------------------------------------------- #

#: Launch fields the single-stream pricing model reads.  This tuple is the
#: single source of truth for the trace-memo key: ``launch_signature`` keys
#: on exactly these fields, and ``analyze.provenance`` audits that the
#: pricing functions above read nothing else.
PRICING_FIELDS: Tuple[str, ...] = (
    "kind",
    "flops",
    "dram_read_bytes",
    "dram_write_bytes",
    "atomic_write_bytes",
    "scalar_ops",
    "ctas",
    "overlapped",
    "tensor_core_eligible",
    "compute_efficiency",
)

#: Additional launch fields the multi-stream scheduler reads on top of
#: pricing: dependence edges come from named buffer accesses, tie-breaking
#: from launch names, and workspace liveness from per-launch workspace.
SCHEDULE_FIELDS: Tuple[str, ...] = (
    "name",
    "workspace_bytes",
    "reads",
    "writes",
)

_PRICING_GETTER = attrgetter(*PRICING_FIELDS)
_SCHEDULE_GETTER = attrgetter(*(PRICING_FIELDS + SCHEDULE_FIELDS))


def launch_signature(
    launch: KernelLaunch, scheduled: bool = False
) -> Tuple[Any, ...]:
    """Tuple of exactly the launch fields the latency model reads.

    With ``scheduled=False`` this covers the single-stream pricing path
    (:func:`estimate_launch_us`); with ``scheduled=True`` it additionally
    covers the dependence/scheduling fields read by ``streams > 1``
    estimation.  ``KernelLaunch`` is mutable (optimization passes rewrite
    launches in place), so the signature is recomputed per call rather than
    cached on the launch: a mutated launch re-keys instead of aliasing.
    """
    getter = _SCHEDULE_GETTER if scheduled else _PRICING_GETTER
    sig: Tuple[Any, ...] = getter(launch)
    return sig


def trace_signature(
    trace: KernelTrace,
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int = 1,
) -> Tuple[Hashable, ...]:
    """Memo key for :func:`estimate_trace_us`.

    The key is (device, precision, streams, per-launch field signatures) —
    the kmap and layer shape are fully determined by the launch fields
    (flops, bytes, ctas all derive from them), so this *is* the (layer
    signature, kmap signature, device, precision, streams) key ROADMAP
    item 5 asks for, computed from what the pricing model actually reads.

    ``precision`` is keyed as passed (string or enum, unparsed): parsing on
    the hit path would cost more than the lookup.  Spelling aliases such as
    ``"fp16"`` vs ``Precision.FP16`` therefore occupy separate entries, but
    each maps to the value computed from its parsed form, so aliasing can
    only duplicate work, never corrupt a result.
    """
    getter = _SCHEDULE_GETTER if streams > 1 else _PRICING_GETTER
    return (device, precision, streams, tuple(map(getter, trace)))


class TraceMemo:
    """Bounded FIFO memo table for :func:`estimate_trace_us` results.

    Content-keyed via :func:`trace_signature`: mutating a launch between
    calls re-keys the trace, so a stale hit is impossible by construction.
    Eviction is insertion-ordered FIFO (deterministic, no per-hit
    bookkeeping on the fast path).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[Tuple[Hashable, ...], float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[Hashable, ...]) -> Optional[float]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Tuple[Hashable, ...], value: float) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = value

    def clear(self) -> None:
        """Drop all entries and reset hit/miss/eviction counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_TRACE_MEMO = TraceMemo()


def trace_memo_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters of the process-wide trace memo."""
    return _TRACE_MEMO.stats()


def clear_trace_memo() -> None:
    """Empty the process-wide trace memo and reset its counters."""
    _TRACE_MEMO.clear()


def estimate_trace_us(
    trace: KernelTrace,
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int = 1,
    memoize: bool = True,
) -> float:
    """Total latency of a trace in microseconds.

    With ``streams=1`` (the default) launches serialize on one stream —
    sparse convolution layers are data-dependent, so that matches what
    real single-stream libraries do.  With ``streams=K > 1`` the trace is
    list-scheduled onto K virtual streams respecting its dependence DAG
    (:mod:`repro.opt.schedule`), so the result lands in
    ``[critical_path, serialized]``.

    Results are memoized in a process-wide :class:`TraceMemo` keyed by
    :func:`trace_signature` — repeated batches replay prior estimates
    byte-identically instead of re-pricing every launch (ROADMAP item 5).
    Pass ``memoize=False`` to force a fresh computation.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if memoize:
        key = trace_signature(trace, device, precision, streams)
        cached = _TRACE_MEMO.get(key)
        if cached is not None:
            return cached
    parsed = Precision.parse(precision)
    if streams > 1:
        # Imported lazily: repro.opt depends on this module for launch
        # pricing, so a top-level import would be circular.
        from repro.opt.schedule import scheduled_trace_us

        total = scheduled_trace_us(trace, device, parsed, streams)
    else:
        total = sum(launch_prices(trace, device, parsed))
    if memoize:
        _TRACE_MEMO.put(key, total)
    return total


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
