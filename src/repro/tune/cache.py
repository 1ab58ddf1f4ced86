"""Serialization and persistent storage of tuned policies.

A tuned schedule "could be reused for millions of scenes in real-world ADAS
applications" (Section 4.2) — so it must survive the process and the
machine.  Policies take two on-disk forms that share one payload:

* a **policy file** (:func:`save_policy` / :func:`load_policy`): JSON keyed
  by the string form of each map signature, then by role — what
  ``python -m repro tune --output`` writes;
* the **policy store** (:class:`PolicyStore`): one :class:`StoreEntry` per
  serving policy key ``(workload, device, precision)``
  (:meth:`repro.serve.cache.PolicyCache.make_key`), holding that same
  payload plus the tune's end-to-end latency and a trial count.  The
  store carries a schema version, is written atomically (temp file +
  ``os.replace``) so a reader never sees a torn file, serializes
  byte-deterministically, and merges commutatively so serving replicas
  can tune independently and pool their winners.

Both forms load through one validator: a malformed file raises
:class:`~repro.errors.ConfigError` naming the file and the bad field.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.kernels.base import KernelSchedule
from repro.kernels.implicit_gemm import ImplicitGemmConfig
from repro.kernels.registry import Dataflow
from repro.nn.context import GroupPolicy, LayerConfig, Role, Signature

#: Store layout version; bump on any incompatible key/entry change.
SCHEMA_VERSION = 2

#: Serving policy identity ``(workload, device, precision)``; equal to
#: :data:`repro.serve.cache.PolicyKey`.
StoreKey = Tuple[str, str, str]

#: Separator between the key components in the store's flat JSON keys.
KEY_SEP = "||"

_INT_FIELDS = ("warp_rows", "num_splits")
_BOOL_FIELDS = ("sort", "offline_reorder", "tensor_cores")


def config_to_dict(config: LayerConfig) -> Dict[str, Any]:
    return {
        "dataflow": config.dataflow.value,
        "tile": [config.schedule.tile_m, config.schedule.tile_n,
                 config.schedule.tile_k],
        "warp_rows": config.schedule.warp_rows,
        "num_splits": config.ig_config.num_splits,
        "sort": config.ig_config.sort,
        "offline_reorder": config.ig_config.offline_reorder,
        "tensor_cores": config.tensor_cores,
        "gs_chunks": config.gs_chunks,
    }


def _positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def config_from_dict(data: Any, where: str = "config") -> LayerConfig:
    """Inverse of :func:`config_to_dict`; ``where`` prefixes every error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a config object, got {data!r}")
    for name in ("dataflow", "tile", *_INT_FIELDS, *_BOOL_FIELDS):
        if name not in data:
            raise ConfigError(f"{where}: missing field {name!r}")
    try:
        dataflow = Dataflow(data["dataflow"])
    except ValueError:
        known = ", ".join(d.value for d in Dataflow)
        raise ConfigError(
            f"{where}: field 'dataflow' is {data['dataflow']!r}; "
            f"known dataflows: {known}"
        ) from None
    tile = data["tile"]
    if not (isinstance(tile, list) and len(tile) == 3
            and all(_positive_int(t) for t in tile)):
        raise ConfigError(
            f"{where}: field 'tile' must be three positive integers, "
            f"got {tile!r}"
        )
    # Policies written before gs_chunks existed omit the key; they were
    # tuned at the default (no chunking).
    gs_chunks = data.get("gs_chunks", 1)
    for name, value in [(n, data[n]) for n in _INT_FIELDS] + [
        ("gs_chunks", gs_chunks)
    ]:
        if not _positive_int(value):
            raise ConfigError(
                f"{where}: field {name!r} must be a positive integer, "
                f"got {value!r}"
            )
    for name in _BOOL_FIELDS:
        if not isinstance(data[name], bool):
            raise ConfigError(
                f"{where}: field {name!r} must be true or false, "
                f"got {data[name]!r}"
            )
    tile_m, tile_n, tile_k = tile
    try:
        ig_config = ImplicitGemmConfig(
            num_splits=data["num_splits"],
            sort=data["sort"],
            offline_reorder=data["offline_reorder"],
        )
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return LayerConfig(
        dataflow=dataflow,
        schedule=KernelSchedule(
            tile_m=tile_m, tile_n=tile_n, tile_k=tile_k,
            warp_rows=min(data["warp_rows"], tile_m),
        ),
        ig_config=ig_config,
        tensor_cores=data["tensor_cores"],
        gs_chunks=gs_chunks,
    )


def policy_to_dict(policy: GroupPolicy) -> Dict[str, Dict[str, Any]]:
    """The policy-file payload: signature repr -> role -> config."""
    return {
        repr(tuple(signature)): {
            role.value: config_to_dict(config)
            for role, config in by_role.items()
        }
        for signature, by_role in policy.items()
    }


def _signature_from_key(key: str, where: str) -> Signature:
    """Signatures round-trip through ``repr`` / :func:`ast.literal_eval`,
    which evaluates literals only, never arbitrary code."""
    try:
        signature = ast.literal_eval(key)
    except (ValueError, SyntaxError, TypeError, RecursionError):
        signature = None
    if not isinstance(signature, tuple):
        raise ConfigError(
            f"{where}: signature {key!r} is not a tuple literal"
        )
    return signature


def policy_from_dict(payload: Any, where: str = "policy") -> GroupPolicy:
    """Inverse of :func:`policy_to_dict`; ``where`` prefixes every error."""
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{where}: expected an object of signature -> role -> config"
        )
    assignments: Dict[Signature, Dict[Role, LayerConfig]] = {}
    for key, by_role in payload.items():
        signature = _signature_from_key(key, where)
        if not isinstance(by_role, dict):
            raise ConfigError(
                f"{where}: signature {key}: expected an object of "
                f"role -> config"
            )
        configs: Dict[Role, LayerConfig] = {}
        for role, data in by_role.items():
            try:
                parsed = Role(role)
            except ValueError:
                known = ", ".join(r.value for r in Role)
                raise ConfigError(
                    f"{where}: signature {key}: unknown role {role!r}; "
                    f"known roles: {known}"
                ) from None
            configs[parsed] = config_from_dict(
                data, f"{where}: signature {key} role {role}"
            )
        assignments[signature] = configs
    return GroupPolicy(assignments)


def _read_json(path: Path, what: str) -> Any:
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def save_policy(policy: GroupPolicy, path: "str | Path") -> None:
    """Write a tuned policy to JSON."""
    Path(path).write_text(
        json.dumps(policy_to_dict(policy), indent=2, sort_keys=True)
    )


def load_policy(path: "str | Path") -> GroupPolicy:
    """Load a policy saved by :func:`save_policy`."""
    path = Path(path)
    return policy_from_dict(_read_json(path, "policy file"), str(path))


# ---------------------------------------------------------------------- #
# The persistent policy store
# ---------------------------------------------------------------------- #
def flat_key(key: StoreKey) -> str:
    """Flat string form of a store key, used as the JSON object key."""
    for part in key:
        if KEY_SEP in part:
            raise ConfigError(
                f"policy key component {part!r} contains the separator "
                f"{KEY_SEP!r}"
            )
    return KEY_SEP.join(key)


def parse_key(flat: str) -> StoreKey:
    parts = flat.split(KEY_SEP)
    if len(parts) != 3:
        raise ConfigError(
            f"malformed policy key {flat!r}; expected "
            f"workload{KEY_SEP}device{KEY_SEP}precision"
        )
    return (parts[0], parts[1], parts[2])


@dataclasses.dataclass(frozen=True, eq=False)
class StoreEntry:
    """One tuned policy with its evidence.

    ``end_to_end_us`` is the tuner's end-to-end simulated latency on its
    sample scenes (the objective it minimized); ``trials`` counts the
    tuner runs that contributed to the entry across merges.  Entries
    compare by identity; compare :meth:`to_dict` forms for content.
    """

    policy: GroupPolicy
    end_to_end_us: float
    trials: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": policy_to_dict(self.policy),
            "end_to_end_us": round(float(self.end_to_end_us), 6),
            "trials": int(self.trials),
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "entry") -> "StoreEntry":
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected an entry object")
        for name in ("policy", "end_to_end_us", "trials"):
            if name not in data:
                raise ConfigError(f"{where}: missing field {name!r}")
        latency, trials = data["end_to_end_us"], data["trials"]
        if (isinstance(latency, bool) or not isinstance(latency, (int, float))
                or not math.isfinite(latency)):
            raise ConfigError(
                f"{where}: field 'end_to_end_us' must be a finite number, "
                f"got {latency!r}"
            )
        if not _positive_int(trials):
            raise ConfigError(
                f"{where}: field 'trials' must be a positive integer, "
                f"got {trials!r}"
            )
        return cls(
            policy=policy_from_dict(data["policy"], f"{where}: policy"),
            end_to_end_us=float(latency),
            trials=trials,
        )

    def _serialized(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def beats(self, other: "StoreEntry") -> bool:
        """Deterministic total order for merges: lower end-to-end latency
        wins; ties break on the serialized entry (stable across runs)."""
        if self.end_to_end_us != other.end_to_end_us:
            return self.end_to_end_us < other.end_to_end_us
        return self._serialized() < other._serialized()


class PolicyStore:
    """In-memory view of the persistent policy store."""

    def __init__(
        self, entries: Optional[Dict[StoreKey, StoreEntry]] = None
    ) -> None:
        self._entries: Dict[StoreKey, StoreEntry] = dict(entries or {})
        self.hits = 0
        self.misses = 0

    # -- lookups ------------------------------------------------------- #
    def get(self, key: StoreKey) -> Optional[StoreEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def peek(self, key: StoreKey) -> Optional[StoreEntry]:
        """Lookup without touching the hit/miss accounting."""
        return self._entries.get(key)

    def put(self, key: StoreKey, entry: StoreEntry) -> StoreEntry:
        """Install ``entry`` unless an existing entry beats it."""
        current = self._entries.get(key)
        if current is not None and current.beats(entry):
            return current
        self._entries[key] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: StoreKey) -> bool:
        return key in self._entries

    def items(self) -> Iterator[Tuple[StoreKey, StoreEntry]]:
        """Entries in deterministic (flat-key-sorted) order."""
        for key in sorted(self._entries, key=flat_key):
            yield key, self._entries[key]

    # -- persistence --------------------------------------------------- #
    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "entries": {
                flat_key(key): entry.to_dict() for key, entry in self.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        """Atomically write the store (temp file + rename)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_json() + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PolicyStore":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"policy store {path} does not exist")
        payload = _read_json(path, "policy store")
        where = str(path)
        if not isinstance(payload, dict) or "schema" not in payload:
            raise ConfigError(f"{where}: missing field 'schema'")
        if payload["schema"] != SCHEMA_VERSION:
            raise ConfigError(
                f"{where}: policy store schema {payload['schema']!r} is "
                f"not the supported version {SCHEMA_VERSION}"
            )
        raw = payload.get("entries", {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: field 'entries' is not an object")
        entries: Dict[StoreKey, StoreEntry] = {}
        for flat, data in raw.items():
            entries[parse_key(flat)] = StoreEntry.from_dict(
                data, f"{where}: entry {flat}"
            )
        return cls(entries)

    @classmethod
    def load_or_create(cls, path: Union[str, Path]) -> "PolicyStore":
        """Load ``path`` if present, else start empty (cold replica)."""
        return cls.load(path) if Path(path).exists() else cls()

    # -- fleet merge --------------------------------------------------- #
    def merge(self, other: "PolicyStore") -> int:
        """Adopt ``other``'s entries; the lower end-to-end latency wins.

        Returns the number of entries adopted (new keys plus overwrites).
        Merging is commutative and associative up to the deterministic
        :meth:`StoreEntry.beats` order, so replicas can exchange stores in
        any order and converge on the same content.
        """
        adopted = 0
        for key, entry in other.items():
            current = self._entries.get(key)
            if current is None:
                self._entries[key] = entry
                adopted += 1
            elif entry.beats(current):
                # Pool the evidence: the winning policy keeps the combined
                # trial count so fleet-wide confidence is visible.
                self._entries[key] = dataclasses.replace(
                    entry, trials=entry.trials + current.trials
                )
                adopted += 1
            elif current.beats(entry):
                self._entries[key] = dataclasses.replace(
                    current, trials=current.trials + entry.trials
                )
        return adopted
