"""Per-tenant admission control: quotas, priorities, retry budgets.

A multi-tenant serving cluster cannot treat every request the same once
it is past its provisioned load.  This module supplies the three
mechanisms the runtime composes into predictable degradation:

* :class:`TenantSpec` / :func:`parse_tenants` — the tenant roster: each
  tenant carries a **priority class** (0 = highest), a **share** of the
  aggregate traffic, an optional **quota** (token bucket on the virtual
  clock), a workload **mix**, and a **retry-budget ratio**;
* :class:`TokenBucket` — deterministic rate limiting on the virtual
  clock.  A tenant past its quota is shed *at arrival*, before it can
  occupy queue space that higher-paying tenants need;
* :class:`RetryBudget` — the retry-storm damper.  Retries are paid from
  a budget that accrues with *successes* (``ratio`` retries per success,
  plus a small constant floor so cold tenants can retry at all).  When a
  replica stall fails a hundred batches at once, the budget bounds the
  total retry volume to a fraction of the tenant's goodput instead of
  letting every failure multiply into ``max_retries`` re-dispatches.

The priority classes are enforced by the runtime's one
:class:`~repro.serve.batcher.RequestQueue`, which dispatches best class
first and sheds **lowest-priority-first** under pressure: an arriving
high-priority request evicts the worst queued lower-priority request
instead of being dropped on the floor FIFO-style.

All state advances only on the virtual clock; a seeded run is
byte-identical regardless of tenant count.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving cluster.

    Attributes:
        name: Tenant identifier (unique within a roster).
        priority: Priority class, 0 = highest.  Shedding and queue order
            are lowest-priority-first (numerically largest first).
        share: Relative weight of this tenant in the aggregate arrival
            stream (traffic generation only; admission never reads it).
        quota_rps: Token-bucket refill rate in requests per simulated
            second; 0 disables the quota (unlimited).
        quota_burst: Token-bucket capacity (burst allowance); defaults to
            two seconds of quota when left at 0.
        retry_budget: Retries allowed per success (the classic retry
            budget ratio); negative inherits the runtime default.
        deadline_ms: Per-tenant latency deadline; 0 inherits the
            generator default.
        streams: Scene streams (vehicles) this tenant's requests cycle
            over.
        mix: Workload ids the tenant draws from (aliases allowed).
    """

    name: str
    priority: int = 0
    share: float = 1.0
    quota_rps: float = 0.0
    quota_burst: float = 0.0
    retry_budget: float = -1.0
    deadline_ms: float = 0.0
    streams: int = 4
    mix: Tuple[str, ...] = ("SK-M-1.0",)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.priority < 0:
            raise ConfigError(
                f"tenant {self.name!r}: priority must be >= 0, "
                f"got {self.priority}"
            )
        if self.share <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: share must be positive, "
                f"got {self.share}"
            )
        if self.quota_rps < 0 or self.quota_burst < 0:
            raise ConfigError(
                f"tenant {self.name!r}: quota must be >= 0"
            )
        if self.deadline_ms < 0:
            raise ConfigError(
                f"tenant {self.name!r}: deadline must be >= 0"
            )
        if self.streams < 1:
            raise ConfigError(
                f"tenant {self.name!r}: streams must be >= 1, "
                f"got {self.streams}"
            )
        if not self.mix:
            raise ConfigError(
                f"tenant {self.name!r}: workload mix must be non-empty"
            )


#: The implicit tenant of single-tenant runs (legacy request schedules).
DEFAULT_TENANT = TenantSpec(name="default")

#: Spec keys accepted by :func:`parse_tenants` and their TenantSpec fields.
TENANT_SPEC_KEYS: Dict[str, str] = {
    "prio": "priority",
    "share": "share",
    "rps": "quota_rps",
    "burst": "quota_burst",
    "retry_budget": "retry_budget",
    "deadline": "deadline_ms",
    "streams": "streams",
    "mix": "mix",
}


def parse_tenants(spec: str) -> Tuple[TenantSpec, ...]:
    """Parse a CLI tenant roster.

    Format: semicolon-separated tenants, each ``name:key=value,...`` —
    for example ``gold:prio=0,share=1,rps=60;free:prio=1,share=4``.
    Keys: ``prio``, ``share``, ``rps`` (quota), ``burst``,
    ``retry_budget``, ``deadline`` (ms), ``streams``, ``mix``
    (``+``-separated workload ids, e.g. ``mix=sk-m-1x+sk-m-0.5x``).
    Malformed items raise :class:`~repro.errors.ConfigError` naming the
    offending token and the valid keys.
    """
    tenants: List[TenantSpec] = []
    seen: set = set()
    for chunk in filter(None, (c.strip() for c in spec.split(";"))):
        name, _, rest = chunk.partition(":")
        name = name.strip()
        if not name:
            raise ConfigError(f"tenant spec {chunk!r} is missing a name")
        if name in seen:
            raise ConfigError(f"duplicate tenant name {name!r}")
        seen.add(name)
        fields: Dict[str, object] = {"name": name}
        for part in filter(None, (p.strip() for p in rest.split(","))):
            if "=" not in part:
                raise ConfigError(
                    f"bad tenant spec item {part!r} for tenant {name!r}; "
                    f"expected key=value with keys {sorted(TENANT_SPEC_KEYS)}"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in TENANT_SPEC_KEYS:
                raise ConfigError(
                    f"unknown tenant key {key!r} for tenant {name!r}; "
                    f"expected one of {sorted(TENANT_SPEC_KEYS)}"
                )
            field = TENANT_SPEC_KEYS[key]
            if key == "mix":
                workloads = tuple(
                    w.strip() for w in value.split("+") if w.strip()
                )
                if not workloads:
                    raise ConfigError(
                        f"bad tenant mix {value!r} for tenant {name!r}"
                    )
                fields[field] = workloads
                continue
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(
                    f"bad tenant value {value!r} for key {key!r} "
                    f"(tenant {name!r})"
                ) from None
            if not math.isfinite(number):
                raise ConfigError(
                    f"non-finite tenant value {value!r} for key {key!r} "
                    f"(tenant {name!r})"
                )
            if key in ("prio", "streams"):
                fields[field] = int(number)
            else:
                fields[field] = number
        tenants.append(TenantSpec(**fields))  # type: ignore[arg-type]
    if not tenants:
        raise ConfigError(
            "tenant spec is empty; expected e.g. "
            "'gold:prio=0,share=1;free:prio=1,share=4'"
        )
    return tuple(tenants)


class TokenBucket:
    """Deterministic token bucket on the virtual clock.

    ``rate_per_s`` tokens accrue per simulated second up to ``capacity``;
    :meth:`take` spends one.  A zero rate means "unlimited" (every take
    succeeds), so a roster can mix metered and unmetered tenants.
    """

    def __init__(self, rate_per_s: float, capacity: float = 0.0):
        if rate_per_s < 0 or capacity < 0:
            raise ConfigError("token bucket rate/capacity must be >= 0")
        self.rate_per_s = rate_per_s
        self.capacity = capacity if capacity > 0 else max(2.0 * rate_per_s, 1.0)
        self.tokens = self.capacity
        self._last_ms = 0.0
        self.denied = 0

    def take(self, now_ms: float) -> bool:
        """Spend one token at ``now_ms``; False (and counted) when dry."""
        if self.rate_per_s <= 0:
            return True
        elapsed = max(now_ms - self._last_ms, 0.0)
        self._last_ms = max(self._last_ms, now_ms)
        self.tokens = min(
            self.capacity, self.tokens + elapsed * self.rate_per_s / 1000.0
        )
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.denied += 1
        return False


class RetryBudget:
    """Bound retries to a ratio of successes (anti-retry-storm).

    The budget is ``floor + ratio * successes`` total retries; once spent
    retries are denied until new successes accrue.  A negative ratio
    disables the budget entirely (every retry allowed) — the legacy
    behaviour of runs that predate tenancy.
    """

    def __init__(self, ratio: float, floor: int = 3):
        if floor < 0:
            raise ConfigError(f"retry budget floor must be >= 0, got {floor}")
        self.ratio = ratio
        self.floor = floor
        self.successes = 0
        self.spent = 0
        self.exhausted = 0

    @property
    def enabled(self) -> bool:
        return self.ratio >= 0

    def allow(self) -> bool:
        """Spend one retry; False (and counted) when the budget is dry."""
        if not self.enabled:
            self.spent += 1
            return True
        if self.spent < self.floor + self.ratio * self.successes:
            self.spent += 1
            return True
        self.exhausted += 1
        return False

    def record_success(self) -> None:
        self.successes += 1
