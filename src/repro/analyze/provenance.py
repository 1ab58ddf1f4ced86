"""Cache-key soundness: read-set provenance audits of every memoization.

The framework's speed story is memoization: the policy cache (and the
persistent policy store, which shares its key), each replica's
kernel-map cache and the runtime's per-sample execution memo.  Every one
is only as correct as its key: a key that misses an input the cached
computation actually *reads* produces stale or aliased hits that silently
corrupt every downstream latency number, and a key component the
computation never reads produces needless misses.

This module checks the keys mechanically:

* **Recording proxies** (:func:`wrap`) — an input object is wrapped in a
  dynamically created subclass whose ``__getattribute__`` records every
  attribute read as a dotted path (``"device.sms"``) into a
  :class:`ReadLog`, then delegates to the real object.  Because the proxy
  *is* a subclass, ``isinstance`` checks pass and inherited dunders
  (hashing, equality) work — their field reads are recorded too.
* **Key schemas** (:class:`KeySchema`) — each cache site declares, in one
  place, what its key covers: :class:`KeyComponent` entries map key parts
  to the read-path prefixes they determine, ``declared_reads`` names
  by-value inputs, and :class:`Exemption` entries document reads that are
  *deliberately* unkeyed (tune-once reuse, instance-pinned
  configuration) with the reason.
* **Audits** (:func:`audit_cache_site`) — run the site's probe once,
  diff the recorded read set against the schema, and report
  ``unkeyed-read`` (error: read but not keyed, not exempted) and
  ``overkeyed-field`` (info: key component whose covered paths were never
  read).  Both surface via ``repro keycheck``; they audit global code, not
  a model, so model lint and serving admission do not run them.
* **Differential fuzzing** (:func:`fuzz_cache_site`) — a seeded fuzzer
  per site that perturbs *non-key* fields and asserts byte-identical
  cached results.  Run suite-wide from ``tests/conftest.py`` like the
  trace sanitizer.

Audits are cached per (site, schema object): the probes build tiny
scenes and runtimes, so the cost is paid once per process.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple


# ---------------------------------------------------------------------- #
# Read-set recording proxies
# ---------------------------------------------------------------------- #
class ReadLog:
    """Set of dotted attribute paths recorded by :func:`wrap` proxies."""

    def __init__(self) -> None:
        self.paths: Set[str] = set()

    def add(self, path: str) -> None:
        self.paths.add(path)

    def sorted(self) -> Tuple[str, ...]:
        return tuple(sorted(self.paths))


_INTERNAL_ATTRS = ("_prov_target", "_prov_path", "_prov_log")

_PROXY_CLASSES: Dict[type, type] = {}


def _proxy_class(cls: type) -> type:
    """Recording subclass of ``cls`` (cached per class)."""
    cached = _PROXY_CLASSES.get(cls)
    if cached is not None:
        return cached

    def _getattribute(self: Any, name: str) -> Any:
        if name in _INTERNAL_ATTRS:
            return object.__getattribute__(self, name)
        try:
            target = object.__getattribute__(self, "_prov_target")
        except AttributeError:
            # A normally-constructed instance of the proxy class (e.g.
            # ``dataclasses.replace`` builds one): plain subclass behavior.
            return object.__getattribute__(self, name)
        if name.startswith("__") and name.endswith("__"):
            # Dunder lookups (``__class__``, ``__dict__``) are machinery,
            # not data reads; delegate without recording.
            return getattr(target, name)
        path = object.__getattribute__(self, "_prov_path")
        log = object.__getattribute__(self, "_prov_log")
        log.add(f"{path}.{name}")
        return getattr(target, name)

    proxy = type(
        f"{cls.__name__}ProvenanceProxy",
        (cls,),
        {"__getattribute__": _getattribute},
    )
    _PROXY_CLASSES[cls] = proxy
    return proxy


def wrap(obj: Any, name: str, log: ReadLog) -> Any:
    """Wrap ``obj`` so attribute reads are recorded as ``"{name}.{attr}"``.

    The wrapper is an ``object.__new__``-constructed instance of a
    recording subclass of ``type(obj)``: ``isinstance`` checks pass,
    methods resolve to bound methods of the real object (reads *inside* a
    method body are the target's own and are not re-recorded — auditing
    is field-granular at the wrapped object's surface).
    """
    proxy_cls = _proxy_class(type(obj))
    proxy = object.__new__(proxy_cls)
    object.__setattr__(proxy, "_prov_target", obj)
    object.__setattr__(proxy, "_prov_path", name)
    object.__setattr__(proxy, "_prov_log", log)
    return proxy


# ---------------------------------------------------------------------- #
# Key schemas
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class KeyComponent:
    """One part of a cache key and the read paths it determines.

    ``covers`` are dotted-path prefixes: a recorded read ``p`` is covered
    when ``p == c`` or ``p`` starts with ``c + "."`` for some cover ``c``.
    Components with empty ``covers`` document by-value key parts (flags,
    versions) that no proxied read maps to.
    """

    name: str
    covers: Tuple[str, ...] = ()
    note: str = ""


@dataclasses.dataclass(frozen=True)
class Exemption:
    """A read-path prefix that is deliberately not keyed, and why."""

    prefix: str
    reason: str


ProbeFunc = Callable[[], ReadLog]
FuzzFunc = Callable[[random.Random], Tuple[int, List[str]]]


@dataclasses.dataclass(frozen=True)
class KeySchema:
    """Declared key of one cache site plus its probe and fuzzer."""

    site: str
    description: str
    components: Tuple[KeyComponent, ...]
    declared_reads: Tuple[str, ...] = ()
    exemptions: Tuple[Exemption, ...] = ()
    probe: Optional[ProbeFunc] = None
    fuzz: Optional[FuzzFunc] = None


#: Site name -> schema, in registration order.
REGISTRY: Dict[str, KeySchema] = {}


def register_cache_site(schema: KeySchema) -> KeySchema:
    """Register (or replace) the key schema of one cache site."""
    REGISTRY[schema.site] = schema
    return schema


def _prefix_match(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + ".")


# ---------------------------------------------------------------------- #
# Audits
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class SiteAudit:
    """Outcome of diffing one site's recorded reads against its schema."""

    site: str
    reads: Tuple[str, ...]
    unkeyed: Tuple[str, ...]
    overkeyed: Tuple[str, ...]
    exempted: Tuple[Tuple[str, str], ...]

    @property
    def sound(self) -> bool:
        return not self.unkeyed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "reads": list(self.reads),
            "unkeyed": list(self.unkeyed),
            "overkeyed": list(self.overkeyed),
            "exempted": [list(pair) for pair in self.exempted],
            "sound": self.sound,
        }


#: site -> (schema identity at audit time, audit).  An audit is reused
#: only while the registered schema object is unchanged.
_AUDITS: Dict[str, Tuple[KeySchema, SiteAudit]] = {}


def _resolve_schema(site: "str | KeySchema") -> KeySchema:
    if isinstance(site, KeySchema):
        return site
    schema = REGISTRY.get(site)
    if schema is None:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(
            f"unknown cache site {site!r}; registered sites: {known}"
        )
    return schema


def audit_cache_site(site: "str | KeySchema") -> SiteAudit:
    """Probe one cache site and diff its read set against its schema."""
    schema = _resolve_schema(site)
    cached = _AUDITS.get(schema.site)
    if cached is not None and cached[0] is schema:
        return cached[1]
    if schema.probe is None:
        raise ValueError(f"cache site {schema.site!r} declares no probe")
    log = schema.probe()
    reads = log.sorted()
    covers: List[str] = list(schema.declared_reads)
    for component in schema.components:
        covers.extend(component.covers)
    unkeyed: List[str] = []
    exempted: List[Tuple[str, str]] = []
    for path in reads:
        if any(_prefix_match(path, c) for c in covers):
            continue
        reason = next(
            (
                e.reason
                for e in schema.exemptions
                if _prefix_match(path, e.prefix)
            ),
            None,
        )
        if reason is not None:
            exempted.append((path, reason))
        else:
            unkeyed.append(path)
    overkeyed = [
        component.name
        for component in schema.components
        if component.covers
        and not any(
            _prefix_match(path, c)
            for path in reads
            for c in component.covers
        )
    ]
    audit = SiteAudit(
        site=schema.site,
        reads=reads,
        unkeyed=tuple(unkeyed),
        overkeyed=tuple(overkeyed),
        exempted=tuple(exempted),
    )
    _AUDITS[schema.site] = (schema, audit)
    return audit


def audit_cache_sites(
    sites: Optional[Tuple[str, ...]] = None,
) -> Dict[str, SiteAudit]:
    """Audit the selected sites (default: every registered site)."""
    names = list(sites) if sites is not None else sorted(REGISTRY)
    return {name: audit_cache_site(name) for name in names}


# ---------------------------------------------------------------------- #
# Differential fuzzing
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class FuzzReport:
    """Outcome of one site's seeded differential fuzz run."""

    site: str
    trials: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "trials": self.trials,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def fuzz_cache_site(site: "str | KeySchema", seed: int = 0) -> FuzzReport:
    """Run one site's seeded differential fuzzer.

    The fuzzer perturbs fields the schema declares as non-key and asserts
    the cached result is byte-identical; sites without a fuzzer report
    zero trials.
    """
    schema = _resolve_schema(site)
    if schema.fuzz is None:
        return FuzzReport(site=schema.site, trials=0, failures=())
    trials, failures = schema.fuzz(random.Random(seed))
    return FuzzReport(
        site=schema.site, trials=trials, failures=tuple(failures)
    )


def fuzz_all(seed: int = 0) -> Dict[str, FuzzReport]:
    """Fuzz every registered site with per-site derived seeds."""
    return {
        name: fuzz_cache_site(name, seed=seed + i)
        for i, name in enumerate(sorted(REGISTRY))
    }


# ---------------------------------------------------------------------- #
# Probe helpers (lazy imports: repro.serve imports repro.analyze)
# ---------------------------------------------------------------------- #
_PROBE_WORKLOAD = "SK-M-0.5"


def _probe_kmap(n: int = 160, seed: int = 0) -> Any:
    import numpy as np

    from repro.sparse.kmap import build_kernel_map

    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [
                np.zeros((n, 1), np.int32),
                rng.integers(0, 12, (n, 3)).astype(np.int32),
            ],
            axis=1,
        ),
        axis=0,
    )
    return build_kernel_map(coords, kernel_size=3, stride=1)


def _probe_runtime() -> Any:
    from repro.serve.runtime import ServeConfig, ServingRuntime

    # Tiny scenes; admission lint off (the probes audit the memos, not
    # the model).
    return ServingRuntime(
        ServeConfig(
            device="a100", scene_scale=0.05, lint_admission=False
        )
    )


def _probe_requests(seeds: Tuple[int, ...]) -> List[Any]:
    from repro.serve.request import InferenceRequest

    return [
        InferenceRequest(
            request_id=i,
            workload_id=_PROBE_WORKLOAD,
            stream_id=0,
            frame_index=i,
            scene_seed=s,
            arrival_ms=0.0,
            deadline_ms=1000.0,
        )
        for i, s in enumerate(seeds)
    ]


# ---------------------------------------------------------------------- #
# Built-in site registrations
# ---------------------------------------------------------------------- #
def _probe_policy_cache() -> ReadLog:
    from repro.gpusim.engine import estimate_trace_us, unchecked
    from repro.hw.specs import get_device
    from repro.kernels.registry import Dataflow, trace_dataflow
    from repro.precision import Precision

    log = ReadLog()
    device = wrap(get_device("a100"), "device", log)
    scene = wrap(_probe_kmap(), "scene", log)
    best: Optional[Tuple[float, Any]] = None
    # The tune-once decision the policy cache stores: rank dataflows on
    # a sample scene and keep the winner.
    for dataflow in (Dataflow.IMPLICIT_GEMM, Dataflow.GATHER_SCATTER):
        trace = trace_dataflow(dataflow, scene, 16, 16, precision="fp16")
        # The suites' trace check reads far more launch fields than
        # pricing does and would pollute the read set.
        with unchecked():
            us = estimate_trace_us(trace, device, Precision.FP16)
        if best is None or us < best[0]:
            best = (us, dataflow)
    assert best is not None
    return log


def _fuzz_policy_cache(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.nn.context import GroupPolicy
    from repro.serve.cache import PolicyCache

    failures: List[str] = []
    cache = PolicyCache()
    policy = GroupPolicy({})
    key = PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp16")
    cache.put(key, policy)
    trials = 0
    # Scene identity is deliberately not part of the key: any number of
    # distinct scenes must resolve to the same tuned policy object.
    for _ in range(8):
        rng.randrange(1 << 30)  # a fresh scene seed, irrelevant to the key
        again = PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp16")
        trials += 1
        if again != key or cache.get(again) is not policy:
            failures.append("equal (model, device, precision) missed")
    for other in (
        PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp32"),
        PolicyCache.make_key(_PROBE_WORKLOAD, "RTX 3090", "fp16"),
        PolicyCache.make_key("WM-C-1f", "A100", "fp16"),
    ):
        trials += 1
        if cache.get(other) is policy:
            failures.append(f"distinct key {other!r} aliased the entry")
    return trials, failures


def _probe_sample_memo() -> ReadLog:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy

    log = ReadLog()
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    request = _probe_requests((31,))[0]
    sample = runtime.scenes.sample(workload, request)
    runtime.device = wrap(runtime.device, "device", log)
    runtime.config = wrap(runtime.config, "config", log)
    cost = runtime._simulate_sample(
        wrap(sample, "sample", log),
        wrap(model, "model", log),
        wrap(FixedPolicy(runtime.default_config), "policy", log),
        False,
        None,
    )
    assert cost.latency_us > 0.0
    return log


def _fuzz_sample_memo(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy
    from repro.serve.cache import scene_key

    failures: List[str] = []
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    request = _probe_requests((41,))[0]
    sample = runtime.scenes.sample(workload, request)
    policy = FixedPolicy(runtime.default_config)
    cold = runtime._simulate_sample(sample, model, policy, False, None)
    trials = 1
    if runtime._simulate_sample(sample, model, policy, False, None) != cold:
        failures.append("cold per-sample simulation is not deterministic")
    # Warmth is a frozenset: construction order must not matter, and the
    # memo key must therefore be order-insensitive.
    charge = cold.charge
    warm = runtime._simulate_sample(sample, model, policy, False, charge)
    for _ in range(4):
        items = list(charge)
        rng.shuffle(items)
        reordered = frozenset(items)
        trials += 2
        if reordered != charge or hash(reordered) != hash(charge):
            failures.append("warmth frozenset is construction-order "
                            "sensitive")
        if (
            runtime._simulate_sample(sample, model, policy, False, reordered)
            != warm
        ):
            failures.append(
                "reordered warmth changed the warm per-sample cost"
            )
    # Non-key request fields must resolve to the same scene (and the
    # scene provider must return the identical sample object).
    for i in range(4):
        twin = dataclasses.replace(
            request,
            request_id=900 + i,
            frame_index=rng.randrange(100),
            arrival_ms=rng.random() * 10.0,
        )
        trials += 1
        if (
            twin.scene_key != scene_key(_PROBE_WORKLOAD, 41)
            or runtime.scenes.sample(workload, twin) is not sample
        ):
            failures.append(
                "non-key request fields perturbed the scene identity"
            )
    return trials, failures


_PINNED_CONFIG = Exemption(
    "config",
    "ServeConfig is frozen for the runtime's lifetime and the memo dies "
    "with its runtime: config fields are instance-scoped, not key-scoped",
)
_PINNED_DEVICE = Exemption(
    "device",
    "every replica of one runtime serves the single configured device "
    "spec; the memo never crosses runtimes",
)


def _register_builtin_sites() -> None:
    register_cache_site(
        KeySchema(
            site="serve.policy-cache",
            description=(
                "cluster-global tuned policies keyed by (model key, "
                "device, precision) — the tune-once/reuse-everywhere "
                "cache (Section 4.2); the persistent policy store "
                "(repro.tune.cache.PolicyStore) uses the same key"
            ),
            components=(
                KeyComponent(
                    "model_key",
                    note="by value: workload/model identity determines "
                    "every layer signature the tuner prices",
                ),
                KeyComponent("device", covers=("device",)),
                KeyComponent("precision", note="by value"),
            ),
            exemptions=(
                Exemption(
                    "scene",
                    "tune-once/reuse-everywhere: a policy tuned on "
                    "sample scenes is deliberately reused for every "
                    "scene of the workload (Section 4.2)",
                ),
            ),
            probe=_probe_policy_cache,
            fuzz=_fuzz_policy_cache,
        )
    )
    register_cache_site(
        KeySchema(
            site="serve.sample-memo",
            description=(
                "per-runtime _SampleCost memo keyed by (workload, "
                "scene_key, warmth, policy version, degraded)"
            ),
            components=(
                KeyComponent(
                    "scene_key",
                    covers=("sample",),
                    note=(
                        "(workload_id, scene_seed) determines the "
                        "generated sample bit-for-bit "
                        "(repro.serve.cache.scene_key)"
                    ),
                ),
                KeyComponent(
                    "workload_id",
                    covers=("model",),
                    note="selects the model the sample runs through",
                ),
                KeyComponent(
                    "warmth",
                    note="by value: frozenset of pre-charged map keys",
                ),
                KeyComponent(
                    "policy_version",
                    covers=("policy",),
                    note="pins the resolved policy within one runtime",
                ),
                KeyComponent(
                    "degraded",
                    note="by value: selects the default policy and "
                    "disables adaptive tiling",
                ),
            ),
            declared_reads=("precision",),
            exemptions=(_PINNED_CONFIG, _PINNED_DEVICE),
            probe=_probe_sample_memo,
            fuzz=_fuzz_sample_memo,
        )
    )


_register_builtin_sites()
