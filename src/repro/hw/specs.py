"""GPU device specifications used by the performance model.

Every number here comes from public NVIDIA spec sheets (peak throughput, SM
count, DRAM bandwidth); nothing is fitted to the paper's measurements.  The
paper's qualitative results hinge on two machine-balance ratios that these
specs capture directly:

* tensor-core vs CUDA-core throughput (16x on A100, ~3x on 2080 Ti,
  Section 6.1) — this drives whether mapping overhead or redundant
  computation dominates, and therefore which autotuner binding scheme wins;
* compute vs memory bandwidth and SM count — this drives whether extra
  mask splits (more parallelism, more DRAM traffic) pay off.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.errors import DeviceError
from repro.precision import Precision

#: Threads per warp on every NVIDIA architecture modelled here.
WARP_SIZE = 32


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Analytical model of one GPU.

    Attributes:
        name: Human-readable device name.
        arch: Architecture family (``pascal``, ``turing``, ``ampere``,
            ``ampere-edge``).
        sms: Number of streaming multiprocessors.
        concurrent_ctas_per_sm: Thread blocks resident per SM for a typical
            GEMM-shaped kernel (occupancy-limited).
        cuda_core_tflops: Peak FP32 CUDA-core throughput in TFLOP/s.  Mapping
            operations (hashing, sorting, reordering) always run here.
        fp16_tensor_tflops: Peak FP16 tensor-core throughput (FP32 accumulate)
            in TFLOP/s.  ``None`` when the device has no tensor cores.
        tf32_tensor_tflops: Peak TF32 tensor-core throughput; ``None`` when
            unsupported (pre-Ampere).
        dram_bw_gbps: Peak DRAM bandwidth in GB/s.
        kernel_launch_us: Fixed host-side cost per kernel launch in
            microseconds.
        int_giops: Integer/address-generation throughput of the CUDA cores in
            Giga-ops/s, used to cost un-hoisted pointer arithmetic and
            boundary checks.
        dram_gib: DRAM capacity in GiB (spec-sheet value).  On unified-memory
            parts (Jetson) this is the full SoC memory pool.
        atomic_serialization: Multiplier applied to conflicting atomic DRAM
            writes (fetch-on-demand write-back contention).
        sync_event_us: Cost in microseconds of one cross-stream
            synchronization (an event record + stream wait pair).  Charged
            by the multi-stream scheduler for every sync event it must
            emit, so claimed overlap pays for its synchronization.
    """

    name: str
    arch: str
    sms: int
    concurrent_ctas_per_sm: int
    cuda_core_tflops: float
    fp16_tensor_tflops: Optional[float]
    tf32_tensor_tflops: Optional[float]
    dram_bw_gbps: float
    kernel_launch_us: float
    int_giops: float
    dram_gib: float = 16.0
    atomic_serialization: float = 2.0
    sync_event_us: float = 1.0

    def __post_init__(self) -> None:
        if self.sms <= 0 or self.cuda_core_tflops <= 0 or self.dram_bw_gbps <= 0:
            raise DeviceError(f"inconsistent device spec: {self}")
        if self.dram_gib <= 0:
            raise DeviceError(f"device {self.name!r} has no DRAM capacity")
        if self.sync_event_us < 0:
            raise DeviceError(
                f"device {self.name!r} has negative sync_event_us"
            )

    def __hash__(self) -> int:
        # Device specs are immutable and sit in every memoization key the
        # framework builds, so hashing one is a hot operation.  Cache the field-tuple hash on first use;
        # ``dataclasses.replace`` builds a fresh instance, so the cache can
        # never go stale.
        try:
            cached: int = object.__getattribute__(self, "_cached_hash")
            return cached
        except AttributeError:
            pass
        value = hash((
            self.name, self.arch, self.sms, self.concurrent_ctas_per_sm,
            self.cuda_core_tflops, self.fp16_tensor_tflops,
            self.tf32_tensor_tflops, self.dram_bw_gbps,
            self.kernel_launch_us, self.int_giops, self.dram_gib,
            self.atomic_serialization, self.sync_event_us,
        ))
        object.__setattr__(self, "_cached_hash", value)
        return value

    # ------------------------------------------------------------------ #
    # Throughput queries
    # ------------------------------------------------------------------ #
    def gemm_tflops(self, precision: Precision, tensor_cores: bool = True) -> float:
        """Peak matrix-multiply throughput for ``precision``.

        Falls back to CUDA-core FP32 throughput when tensor cores are absent,
        disabled (``tensor_cores=False``), or the precision is unsupported on
        them (e.g. TF32 on Turing).
        """
        if tensor_cores:
            if precision is Precision.FP16 and self.fp16_tensor_tflops:
                return self.fp16_tensor_tflops
            if precision is Precision.TF32 and self.tf32_tensor_tflops:
                return self.tf32_tensor_tflops
        return self.cuda_core_tflops

    @property
    def concurrent_ctas(self) -> int:
        """Thread blocks the whole device can keep resident at once."""
        return self.sms * self.concurrent_ctas_per_sm

    @property
    def dram_bytes(self) -> float:
        """DRAM capacity in bytes."""
        return self.dram_gib * (1 << 30)

    @property
    def tensor_to_cuda_ratio(self) -> float:
        """FP16 tensor-core : FP32 CUDA-core throughput ratio (Section 6.1)."""
        if not self.fp16_tensor_tflops:
            return 1.0
        return self.fp16_tensor_tflops / self.cuda_core_tflops

    # ------------------------------------------------------------------ #
    # Derived / modified specs
    # ------------------------------------------------------------------ #
    def scaled(
        self,
        bandwidth_scale: float = 1.0,
        compute_scale: float = 1.0,
        name: Optional[str] = None,
    ) -> "DeviceSpec":
        """Return a spec with scaled bandwidth and/or compute (Section 6.3)."""

        def _scale(value: Optional[float]) -> Optional[float]:
            return None if value is None else value * compute_scale

        return dataclasses.replace(
            self,
            name=name or f"{self.name}(bw*{bandwidth_scale:g},fl*{compute_scale:g})",
            cuda_core_tflops=self.cuda_core_tflops * compute_scale,
            fp16_tensor_tflops=_scale(self.fp16_tensor_tflops),
            tf32_tensor_tflops=_scale(self.tf32_tensor_tflops),
            dram_bw_gbps=self.dram_bw_gbps * bandwidth_scale,
        )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
A100 = DeviceSpec(
    name="A100",
    arch="ampere",
    sms=108,
    concurrent_ctas_per_sm=2,
    cuda_core_tflops=19.5,
    fp16_tensor_tflops=312.0,
    tf32_tensor_tflops=156.0,
    dram_bw_gbps=1555.0,
    kernel_launch_us=4.0,
    int_giops=9750.0,
    dram_gib=40.0,
    sync_event_us=0.8,
)

RTX_3090 = DeviceSpec(
    name="RTX 3090",
    arch="ampere",
    sms=82,
    concurrent_ctas_per_sm=2,
    cuda_core_tflops=35.6,
    fp16_tensor_tflops=71.0,
    tf32_tensor_tflops=35.5,
    dram_bw_gbps=936.0,
    kernel_launch_us=4.0,
    int_giops=8900.0,
    dram_gib=24.0,
    sync_event_us=0.8,
)

RTX_2080TI = DeviceSpec(
    name="RTX 2080 Ti",
    arch="turing",
    sms=68,
    concurrent_ctas_per_sm=2,
    cuda_core_tflops=13.4,
    fp16_tensor_tflops=40.3,
    tf32_tensor_tflops=None,
    dram_bw_gbps=616.0,
    kernel_launch_us=4.5,
    int_giops=6700.0,
    dram_gib=11.0,
    sync_event_us=0.9,
)

GTX_1080TI = DeviceSpec(
    name="GTX 1080 Ti",
    arch="pascal",
    sms=28,
    concurrent_ctas_per_sm=2,
    cuda_core_tflops=11.3,
    fp16_tensor_tflops=None,
    tf32_tensor_tflops=None,
    dram_bw_gbps=484.0,
    kernel_launch_us=5.0,
    int_giops=5650.0,
    dram_gib=11.0,
    sync_event_us=1.0,
)

JETSON_ORIN = DeviceSpec(
    name="Jetson AGX Orin",
    arch="ampere-edge",
    sms=16,
    concurrent_ctas_per_sm=2,
    cuda_core_tflops=5.3,
    fp16_tensor_tflops=21.3,
    tf32_tensor_tflops=10.6,
    dram_bw_gbps=204.8,
    kernel_launch_us=9.0,
    int_giops=2650.0,
    dram_gib=32.0,
    sync_event_us=1.8,
)

_REGISTRY: Dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec) -> DeviceSpec:
    """Add ``spec`` to the global registry (keyed case-insensitively)."""
    _REGISTRY[spec.name.lower()] = spec
    return spec


for _spec in (A100, RTX_3090, RTX_2080TI, GTX_1080TI, JETSON_ORIN):
    register_device(_spec)

#: Short aliases accepted by :func:`get_device`.
_ALIASES = {
    "a100": "a100",
    "3090": "rtx 3090",
    "rtx3090": "rtx 3090",
    "2080ti": "rtx 2080 ti",
    "rtx2080ti": "rtx 2080 ti",
    "1080ti": "gtx 1080 ti",
    "gtx1080ti": "gtx 1080 ti",
    "orin": "jetson agx orin",
    "jetson": "jetson agx orin",
}


def get_device(name: "str | DeviceSpec") -> DeviceSpec:
    """Look up a device by name or alias, or pass through a spec."""
    if isinstance(name, DeviceSpec):
        return name
    key = name.lower().strip()
    key = _ALIASES.get(key.replace(" ", ""), key)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise DeviceError(f"unknown device {name!r}; known devices: {known}")
    return _REGISTRY[key]


def list_devices() -> list:
    """All registered device specs, sorted by name."""
    return sorted(_REGISTRY.values(), key=lambda s: s.name)
