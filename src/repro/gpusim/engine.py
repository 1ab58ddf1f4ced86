"""Trace-to-latency conversion for a device spec."""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.errors import SimulatedOOMError
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.hw.specs import DeviceSpec
from repro.precision import Precision

if TYPE_CHECKING:
    from repro.opt.schedule import StreamSchedule


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

    The one per-launch price vector: :func:`price_trace` computes it
    once per execution and times the latency and the schedule from it,
    and every split of the time groups it (:meth:`PricedTrace.attribute`).
    """
    parsed = Precision.parse(precision)
    return [estimate_launch_us(launch, device, parsed) for launch in trace]


#: The check :func:`price_trace` runs on every execution it prices, as
#: ``check(priced, device, precision)`` with the :class:`PricedTrace` it
#: built (its trace, price vector and schedule, ``None`` on one stream).
#: ``None`` in production; the test suites set it to
#: :func:`repro.analyze.sanitize_trace`.
TRACE_CHECK: Optional[Callable[..., None]] = None


@contextlib.contextmanager
def unchecked() -> Iterator[None]:
    """Turn :data:`TRACE_CHECK` off for a check's own pricing."""
    global TRACE_CHECK
    check, TRACE_CHECK = TRACE_CHECK, None
    try:
        yield
    finally:
        TRACE_CHECK = check


def launch_kind(launch: KernelLaunch) -> str:
    return launch.kind.value


def launch_layer(launch: KernelLaunch) -> str:
    return launch.name.split("/", 1)[0]


@dataclasses.dataclass(frozen=True)
class PricedTrace:
    """One execution priced once: its :func:`launch_prices` vector, and
    the latency and schedule (``None`` on one stream) timed from it."""

    trace: KernelTrace
    prices: Sequence[float]
    latency_us: float
    schedule: Optional["StreamSchedule"] = None

    @property
    def sync_events(self) -> int:
        return 0 if self.schedule is None else len(self.schedule.events)

    def attribute(
        self, key: Callable[[KernelLaunch], str]
    ) -> Dict[str, List[float]]:
        """The latency attribution: prices grouped by ``key(launch)`` in
        program order, for each caller to sum in its own form (``sum()``
        is compensated on Python >= 3.12, a loop is not)."""
        groups: Dict[str, List[float]] = {}
        for launch, price in zip(self.trace, self.prices):
            groups.setdefault(key(launch), []).append(price)
        return groups

    def split_us(self, key: Callable[[KernelLaunch], str]) -> Dict[str, float]:
        """Per-group totals of :meth:`attribute`, summed left to right."""
        totals: Dict[str, float] = {}
        for group, prices in self.attribute(key).items():
            totals[group] = 0.0
            for price in prices:
                totals[group] += price
        return totals


def price_trace(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int = 1,
) -> PricedTrace:
    """Price one execution: the one place a trace is priced and checked.

    One stream serializes the launches; ``streams=K > 1`` takes the best
    schedule over 1..K streams (:func:`repro.opt.schedule.best_schedule`),
    so the latency lands in ``[critical_path, serialized]``.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if not isinstance(trace, KernelTrace):
        trace = KernelTrace(trace)
    parsed = Precision.parse(precision)
    prices = launch_prices(trace, device, parsed)
    if streams > 1:
        # Imported lazily: repro.analyze and repro.opt build on this module.
        from repro.analyze.depgraph import DependenceGraph
        from repro.opt.schedule import best_schedule

        schedule = best_schedule(
            trace, device, streams, DependenceGraph.build(trace), prices
        )
        priced = PricedTrace(
            trace, schedule.prices, schedule.makespan_us, schedule
        )
    else:
        priced = PricedTrace(trace, prices, sum(prices))
    check = TRACE_CHECK
    if check is not None:
        with unchecked():
            check(priced, device, parsed)
    return priced


def estimate_trace_us(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    device: DeviceSpec,
    precision: "Precision | str",
    streams: int = 1,
) -> float:
    """Total latency of a trace in microseconds (see :func:`price_trace`)."""
    return price_trace(trace, device, precision, streams).latency_us


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
