"""Arrival programs and request generation for the serving runtime.

Production sparse-conv serving traffic follows *programs* — diurnal
curves, flash crowds with a ramp/peak/decay envelope, on/off bursts —
and the interesting regimes are exactly the ones a static replica count
was not provisioned for.  This module is the runtime's one arrival
model:

* a :class:`TrafficSegment` is one piece of the rate curve — constant,
  linear ramp, or sinusoid — with a duration on the virtual clock;
* a :class:`TrafficTrace` concatenates segments into a rate program
  ``rate_at(t)`` and samples arrival times from it (seeded, so a fixed
  spec and seed always yield the identical schedule).  Traces cycle:
  request counts larger than one period replay the program, which is
  what turns one flash-crowd envelope into a sustained stress sweep;
* :func:`parse_traffic` builds a trace from a CLI spec such as
  ``flash:base=20,peak=200,ramp=300,hold=1000,decay=500`` (presets:
  ``steady`` — memoryless traffic at a fixed rate; ``bursty`` — ``on``
  ms at ``peak``, then ``off`` ms at ``base``; ``flash``; ``diurnal``);
* :func:`generate_requests` turns a trace into a single-workload
  schedule over round-robin scene streams, and
  :func:`generate_traffic_requests` turns a trace plus a tenant roster
  (:class:`~repro.serve.admission.TenantSpec`) into one merged request
  schedule: each arrival is assigned a tenant (seeded, share-weighted), a
  workload drawn from the tenant's mix, a scene stream, a priority class
  and a deadline — the input the overload-robustness layer is judged on.

Everything is a pure function of ``(spec, seed)``; nothing reads a wall
clock.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serve.admission import DEFAULT_TENANT, TenantSpec
from repro.serve.request import InferenceRequest

@dataclasses.dataclass(frozen=True)
class TrafficSegment:
    """One piece of a rate program.

    ``shape`` selects the interpolation between ``start_rate`` and
    ``end_rate`` over ``duration_ms``:

    * ``"const"`` — ``start_rate`` throughout (``end_rate`` ignored);
    * ``"linear"`` — linear ramp from ``start_rate`` to ``end_rate``;
    * ``"sine"`` — half-cosine ease from ``start_rate`` to ``end_rate``
      (smooth diurnal shoulders).
    """

    duration_ms: float
    start_rate: float
    end_rate: float = -1.0
    shape: str = "const"

    def __post_init__(self) -> None:
        for name in ("duration_ms", "start_rate", "end_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"segment {name} must be finite, got {getattr(self, name)}"
                )
        if self.duration_ms <= 0:
            raise ConfigError(
                f"segment duration must be positive, got {self.duration_ms}"
            )
        if self.start_rate <= 0:
            raise ConfigError(
                f"segment rate must be positive, got {self.start_rate}"
            )
        if self.shape not in ("const", "linear", "sine"):
            raise ConfigError(
                f"unknown segment shape {self.shape!r}; "
                f"expected const, linear or sine"
            )
        if self.shape == "const" and self.end_rate < 0:
            object.__setattr__(self, "end_rate", self.start_rate)
        if self.end_rate <= 0:
            raise ConfigError(
                f"segment end rate must be positive, got {self.end_rate}"
            )

    def rate_at(self, offset_ms: float) -> float:
        """Rate at ``offset_ms`` into the segment (clamped to bounds)."""
        if self.shape == "const":
            return self.start_rate
        frac = min(max(offset_ms / self.duration_ms, 0.0), 1.0)
        if self.shape == "sine":
            frac = 0.5 * (1.0 - math.cos(math.pi * frac))
        return self.start_rate + (self.end_rate - self.start_rate) * frac


@dataclasses.dataclass(frozen=True)
class TrafficTrace:
    """A rate program: concatenated segments, cycled, seeded sampling.

    The next inter-arrival gap is exponential at the rate in effect when
    the previous request arrived (no thinning).  Exact enough for a
    serving benchmark, and exactly reproducible — ``times_ms`` is a pure
    function of ``(segments, seed)``.
    """

    segments: Tuple[TrafficSegment, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigError("a traffic trace needs at least one segment")

    @property
    def period_ms(self) -> float:
        return sum(s.duration_ms for s in self.segments)

    def rate_at(self, t_ms: float) -> float:
        """Arrival rate (requests/s) at virtual time ``t_ms``."""
        offset = t_ms % self.period_ms
        for segment in self.segments:
            if offset < segment.duration_ms:
                return segment.rate_at(offset)
            offset -= segment.duration_ms
        return self.segments[-1].end_rate

    def times_ms(self, count: int) -> List[float]:
        """``count`` seeded arrival times sampled from the rate program."""
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        rng = np.random.default_rng(self.seed)
        times: List[float] = []
        t = 0.0
        for _ in range(count):
            rate = self.rate_at(t)
            t += rng.exponential(1000.0 / rate)
            if not math.isfinite(t):
                raise ConfigError(
                    f"traffic rate {rate}/s is too low: arrival times "
                    f"overflow the clock"
                )
            times.append(t)
        return times

    def mean_rate_per_s(self, samples: int = 256) -> float:
        """Time-averaged rate over one period (for provisioning math)."""
        period = self.period_ms
        step = period / samples
        total = sum(self.rate_at(i * step) for i in range(samples))
        return total / samples


# --------------------------------------------------------------------- #
#: Preset spec keys: preset name -> (accepted keys -> default value).
TRAFFIC_PRESETS: Dict[str, Dict[str, float]] = {
    "steady": {"rate": 30.0, "period": 1000.0},
    "bursty": {"base": 30.0, "peak": 120.0, "on": 250.0, "off": 750.0},
    "flash": {
        "base": 20.0,
        "peak": 200.0,
        "warm": 500.0,
        "ramp": 300.0,
        "hold": 1000.0,
        "decay": 500.0,
        "tail": 1000.0,
    },
    "diurnal": {"base": 10.0, "peak": 60.0, "period": 20000.0},
}


def _preset_segments(name: str, params: Dict[str, float]) -> Tuple[TrafficSegment, ...]:
    if name == "steady":
        return (
            TrafficSegment(duration_ms=params["period"], start_rate=params["rate"]),
        )
    if name == "bursty":
        return (
            TrafficSegment(duration_ms=params["on"], start_rate=params["peak"]),
            TrafficSegment(duration_ms=params["off"], start_rate=params["base"]),
        )
    if name == "flash":
        base, peak = params["base"], params["peak"]
        return (
            TrafficSegment(duration_ms=params["warm"], start_rate=base),
            TrafficSegment(
                duration_ms=params["ramp"], start_rate=base,
                end_rate=peak, shape="linear",
            ),
            TrafficSegment(duration_ms=params["hold"], start_rate=peak),
            TrafficSegment(
                duration_ms=params["decay"], start_rate=peak,
                end_rate=base, shape="linear",
            ),
            TrafficSegment(duration_ms=params["tail"], start_rate=base),
        )
    if name == "diurnal":
        base, peak, period = params["base"], params["peak"], params["period"]
        return (
            TrafficSegment(
                duration_ms=period / 2, start_rate=base,
                end_rate=peak, shape="sine",
            ),
            TrafficSegment(
                duration_ms=period / 2, start_rate=peak,
                end_rate=base, shape="sine",
            ),
        )
    raise ConfigError(
        f"unknown traffic preset {name!r}; known presets: "
        f"{', '.join(sorted(TRAFFIC_PRESETS))}"
    )


def parse_traffic(spec: str, seed: int = 0) -> TrafficTrace:
    """Build a :class:`TrafficTrace` from a CLI spec.

    Format: ``preset`` or ``preset:key=value,key=value`` — for example
    ``flash``, ``flash:peak=400,ramp=200`` or ``diurnal:period=60000``.
    Unknown presets, unknown keys and non-numeric, non-positive or
    non-finite values raise :class:`~repro.errors.ConfigError` naming the
    offending token and the valid choices.
    """
    name, _, rest = spec.strip().partition(":")
    name = name.strip()
    if name not in TRAFFIC_PRESETS:
        raise ConfigError(
            f"unknown traffic preset {name!r}; known presets: "
            f"{', '.join(sorted(TRAFFIC_PRESETS))}"
        )
    params = dict(TRAFFIC_PRESETS[name])
    for part in filter(None, (p.strip() for p in rest.split(","))):
        if "=" not in part:
            raise ConfigError(
                f"bad traffic spec item {part!r}; expected key=value "
                f"with keys {sorted(params)}"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in params:
            raise ConfigError(
                f"unknown traffic key {key!r} for preset {name!r}; "
                f"expected one of {sorted(params)}"
            )
        try:
            params[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"bad traffic value {value!r} for key {key!r}"
            ) from None
        if not 0 < params[key] < math.inf:
            raise ConfigError(
                f"traffic key {key!r} must be positive and finite, "
                f"got {value!r}"
            )
    return TrafficTrace(segments=_preset_segments(name, params), seed=seed)


# --------------------------------------------------------------------- #
def _check_deadline(deadline_ms: float) -> None:
    if not 0 < deadline_ms < math.inf:
        raise ConfigError(
            f"deadline_ms must be positive and finite, got {deadline_ms}"
        )


def generate_requests(
    workload_id: str,
    trace: TrafficTrace,
    count: int,
    num_streams: int = 4,
    deadline_ms: float = 200.0,
    scene_seed_base: int = 0,
) -> List[InferenceRequest]:
    """Build a single-workload request schedule from a rate program.

    Streams are assigned round-robin, modelling ``num_streams`` vehicles
    whose frames interleave on the wire.  All frames of a stream share a
    ``scene_seed`` (identical geometry), which is what the serve-side
    kernel-map cache exploits.
    """
    _check_deadline(deadline_ms)
    if num_streams < 1:
        raise ConfigError(f"num_streams must be >= 1, got {num_streams}")
    frame_counters = [0] * num_streams
    requests: List[InferenceRequest] = []
    for i, t in enumerate(trace.times_ms(count)):
        stream = i % num_streams
        requests.append(
            InferenceRequest(
                request_id=i,
                workload_id=workload_id,
                stream_id=stream,
                frame_index=frame_counters[stream],
                scene_seed=scene_seed_base * 10007 + stream,
                arrival_ms=float(t),
                deadline_ms=deadline_ms,
            )
        )
        frame_counters[stream] += 1
    return requests


def generate_traffic_requests(
    trace: TrafficTrace,
    count: int,
    tenants: Sequence[TenantSpec] = (),
    default_workload: str = "SK-M-1.0",
    deadline_ms: float = 200.0,
    scene_seed_base: int = 0,
    seed: Optional[int] = None,
) -> List[InferenceRequest]:
    """Build one merged multi-tenant request schedule from a rate program.

    Each arrival drawn from ``trace`` is assigned:

    * a **tenant**, sampled share-weighted from ``tenants`` (one default
      tenant serving ``default_workload`` when the roster is empty);
    * a **workload** from the tenant's mix (equal-weighted);
    * a **scene stream**, round-robin over the tenant's ``streams`` —
      streams are tenant-private, so kernel-map warmth never leaks across
      tenants;
    * the tenant's **priority class** and **deadline** (falling back to
      ``deadline_ms``).

    The assignment RNG is seeded separately from the arrival-time RNG
    (``seed`` defaults to ``trace.seed``), so the same tenant roster over
    a different rate program keeps its per-tenant mix.
    """
    from repro.models.registry import get_workload

    _check_deadline(deadline_ms)
    roster: List[TenantSpec] = list(tenants) or [
        dataclasses.replace(DEFAULT_TENANT, mix=(default_workload,))
    ]
    shares = np.asarray([t.share for t in roster], dtype=np.float64)
    shares = shares / shares.sum()
    # Resolve workload aliases once (e.g. ``sk-m-1x`` -> ``SK-M-1.0``).
    mixes: List[List[str]] = [
        [get_workload(w).id for w in tenant.mix] for tenant in roster
    ]
    times = trace.times_ms(count)
    assign = np.random.default_rng(
        (trace.seed if seed is None else seed) + 0x5EED
    )
    frame_counters: Dict[Tuple[int, int], int] = {}
    requests: List[InferenceRequest] = []
    for i, t in enumerate(times):
        ti = int(assign.choice(len(roster), p=shares))
        tenant = roster[ti]
        mix = mixes[ti]
        workload_id = mix[int(assign.integers(len(mix)))]
        stream = int(assign.integers(tenant.streams))
        frame = frame_counters.get((ti, stream), 0)
        frame_counters[(ti, stream)] = frame + 1
        requests.append(
            InferenceRequest(
                request_id=i,
                workload_id=workload_id,
                stream_id=stream,
                frame_index=frame,
                scene_seed=scene_seed_base * 10007 + ti * 131 + stream,
                arrival_ms=float(t),
                deadline_ms=(
                    tenant.deadline_ms if tenant.deadline_ms > 0 else deadline_ms
                ),
                tenant=tenant.name,
                priority=tenant.priority,
            )
        )
    return requests
