"""Verified rewrite passes over a kernel-launch list.

A pass is a plain function from a launch list to a launch list,
registered in :data:`PASSES` as a :class:`Pass` record that names it and
declares which aggregate counters it may *reduce* (``may_reduce``);
everything else is conserved.  :func:`optimize_trace` sandwiches each
pass between soundness checks:

* :func:`repro.analyze.depgraph.check_dependences` must be no worse
  after the rewrite than before (clean stays clean);
* :func:`repro.analyze.tracecheck.check_trace` structural invariants
  must hold after the rewrite;
* the :class:`~repro.gpusim.trace.TraceSummary` conservation contract:
  counters outside ``may_reduce`` are unchanged (to float slack), and
  counters inside it never *increase*.

Passes never mutate their input: a launch they change is a new object
(``dataclasses.replace``).  A pass that breaks its contract raises
:class:`PassSoundnessError` with the caller's trace untouched, so
optimization can never silently corrupt a trace.

The passes themselves mirror the schedule rewrites of TorchSparse /
TorchSparse++ and Minuet:

* ``fuse`` (:func:`fuse_gather_gemm_scatter`) — collapse gather -> gemm
  -> scatter chains (marked by :attr:`KernelLaunch.fuse_group`) into one
  fused launch, eliminating the staging-buffer round trips (Figure 9's
  fused dataflow, derived instead of hand-built);
* ``hoist-invariants`` (:func:`hoist_loop_invariants`) — remove
  loop-invariant address arithmetic declared in
  :attr:`KernelLaunch.hoistable_scalar_ops` (Section 3.2, the Figure 20
  mechanism);
* ``hoist-maps`` (:func:`hoist_map_builds`) — conservative cross-layer
  CSE of identical map-build launches (paper Figure 20's kernel-map
  reuse);
* ``dle`` (:func:`eliminate_dead_launches`) — drop launches whose only
  effect is writing workspace nobody reads;
* ``plan-workspace`` (:func:`plan_workspace_reuse`) — tighten
  over-declared per-launch workspace to what liveness actually requires,
  provably never increasing ``peak_workspace_bytes``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analyze.depgraph import check_dependences
from repro.analyze.tracecheck import check_trace
from repro.errors import ReproError
from repro.gpusim.trace import (
    BufferAccess,
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    TraceSummary,
)

#: Absolute slack for float counter comparisons (bytes / flops).
_EPS = 0.5

#: TraceSummary fields subject to the conservation contract.
_COUNTER_FIELDS = (
    "launches",
    "flops",
    "dram_read_bytes",
    "dram_write_bytes",
    "atomic_write_bytes",
    "scalar_ops",
    "peak_workspace_bytes",
)


class OptError(ReproError):
    """An optimization pass was misused (bad pipeline configuration)."""


class PassSoundnessError(OptError):
    """A pass broke its declared contract; the rewrite was rejected."""


@dataclasses.dataclass(frozen=True)
class PassResult:
    """What one verified pass application did."""

    name: str
    changed: bool
    before: TraceSummary
    after: TraceSummary

    @property
    def launches_removed(self) -> int:
        return self.before.launches - self.after.launches

    @property
    def workspace_saved_bytes(self) -> float:
        return (
            self.before.peak_workspace_bytes - self.after.peak_workspace_bytes
        )


@dataclasses.dataclass(frozen=True)
class Pass:
    """A named rewrite with a declared conservation contract."""

    #: Unique pass name (used by ``--passes`` and reports).
    name: str
    #: TraceSummary counters this pass may legitimately reduce.
    may_reduce: FrozenSet[str]
    #: The launch list in, the rewritten list out; launches it changes
    #: are new objects, the input is never mutated.
    rewrite: Callable[[Sequence[KernelLaunch]], List[KernelLaunch]]


# ---------------------------------------------------------------------- #
# Kernel fusion
# ---------------------------------------------------------------------- #
def _internal_ws_buffers(members: Sequence[KernelLaunch]) -> Set[str]:
    """``ws:`` buffers accessed only within this launch run (so fusion can
    keep them in registers/shared memory instead of DRAM)."""
    internal: Set[str] = set()
    for launch in members:
        for access in (*launch.reads, *launch.writes):
            if access.workspace:
                internal.add(access.buffer)
    return internal


def _fused_launch(members: Sequence[KernelLaunch]) -> KernelLaunch:
    """Fuse a producer/consumer run into one launch.

    Staging buffers internal to the run stop touching DRAM: their access
    bytes leave the read/write traffic and their extents leave the
    workspace requirement (each member's declared workspace minus its own
    internal-staging bytes stays as headroom for untracked transients).
    """
    internal = _internal_ws_buffers(members)
    reads: List[BufferAccess] = []
    writes: List[BufferAccess] = []
    flops = scalar = hoistable = atomic = 0.0
    read_bytes = write_bytes = 0.0
    workspace = untracked = 0.0
    ctas = 1
    tc_eligible = False
    efficiency = 1.0
    for launch in members:
        flops += launch.flops
        scalar += launch.scalar_ops
        hoistable += launch.hoistable_scalar_ops
        atomic += launch.atomic_write_bytes
        read_bytes += launch.dram_read_bytes
        write_bytes += launch.dram_write_bytes
        ctas = max(ctas, launch.ctas)
        member_internal = 0.0
        touched: Dict[str, float] = {}
        for access in launch.reads:
            if access.buffer in internal:
                read_bytes -= access.nbytes
                touched[access.buffer] = max(
                    touched.get(access.buffer, 0.0), access.nbytes
                )
            else:
                reads.append(access)
        for access in launch.writes:
            if access.buffer in internal:
                if access.atomic:
                    atomic -= access.nbytes
                else:
                    write_bytes -= access.nbytes
                touched[access.buffer] = max(
                    touched.get(access.buffer, 0.0), access.nbytes
                )
            else:
                writes.append(access)
        member_internal = sum(touched.values())
        workspace = max(workspace, launch.workspace_bytes - member_internal)
        untracked = max(untracked, launch.untracked_workspace_bytes)
        if launch.kind is LaunchKind.GEMM:
            tc_eligible = launch.tensor_core_eligible
            efficiency = launch.compute_efficiency
    # The group id doubles as the fused launch's name; generators pick ids
    # the race checker understands (e.g. "gather_gemm_scatter/offset3"
    # stays scatter-class and names the single offset it covers).
    name = members[0].fuse_group or "fused"
    return KernelLaunch(
        name=name,
        kind=LaunchKind.GEMM,
        flops=flops,
        dram_read_bytes=max(0.0, read_bytes),
        dram_write_bytes=max(0.0, write_bytes),
        atomic_write_bytes=max(0.0, atomic),
        scalar_ops=scalar,
        workspace_bytes=max(workspace, untracked),
        ctas=ctas,
        overlapped=True,
        tensor_core_eligible=tc_eligible,
        compute_efficiency=efficiency,
        reads=tuple(reads),
        writes=tuple(writes),
        fuse_group="",
        hoistable_scalar_ops=hoistable,
        untracked_workspace_bytes=untracked,
    )


def fuse_gather_gemm_scatter(
    launches: Sequence[KernelLaunch],
) -> List[KernelLaunch]:
    """Fuse contiguous same-``fuse_group`` producer/consumer chains.

    Reduces launch count, DRAM traffic (the staging round trips) and
    workspace; total flops and scalar ops are conserved — fusion changes
    where data lives, not how much math runs.
    """
    # Buffers used outside a group must survive fusion; collect each
    # buffer's set of accessor groups ("" = ungrouped).
    accessor_groups: Dict[str, Set[str]] = {}
    for launch in launches:
        for access in (*launch.reads, *launch.writes):
            accessor_groups.setdefault(access.buffer, set()).add(
                launch.fuse_group
            )
    out: List[KernelLaunch] = []
    run: List[KernelLaunch] = []

    def flush() -> None:
        if len(run) >= 2:
            internal = _internal_ws_buffers(run)
            group = run[0].fuse_group
            if all(
                accessor_groups.get(buf, set()) <= {group} for buf in internal
            ):
                out.append(_fused_launch(run))
                run.clear()
                return
        out.extend(run)
        run.clear()

    for launch in launches:
        group = launch.fuse_group
        if not group:
            flush()
            out.append(launch)
            continue
        if run and run[-1].fuse_group != group:
            flush()
        run.append(launch)
    flush()
    return out


# ---------------------------------------------------------------------- #
# Loop-invariant hoisting
# ---------------------------------------------------------------------- #
def hoist_loop_invariants(
    launches: Sequence[KernelLaunch],
) -> List[KernelLaunch]:
    """Remove the scalar address arithmetic a code generator can hoist.

    Launches declare the removable portion in ``hoistable_scalar_ops``
    (Section 3.2: dynamic-shape address computation that specializing or
    hoisting eliminates, the quantity behind Figure 20).
    """
    return [
        dataclasses.replace(
            launch,
            scalar_ops=launch.scalar_ops - launch.hoistable_scalar_ops,
            hoistable_scalar_ops=0.0,
        )
        if launch.hoistable_scalar_ops > 0.0
        else launch
        for launch in launches
    ]


# ---------------------------------------------------------------------- #
# Cross-layer map-build hoisting (conservative CSE)
# ---------------------------------------------------------------------- #
def _launch_key(launch: KernelLaunch) -> Tuple[object, ...]:
    return (
        launch.name,
        launch.kind,
        launch.flops,
        launch.dram_read_bytes,
        launch.dram_write_bytes,
        launch.atomic_write_bytes,
        launch.scalar_ops,
        launch.workspace_bytes,
        launch.ctas,
        launch.reads,
        launch.writes,
    )


def hoist_map_builds(launches: Sequence[KernelLaunch]) -> List[KernelLaunch]:
    """Eliminate repeated identical mapping launches (kernel-map reuse).

    A mapping launch is redundant with an earlier *identical* launch when
    no intervening launch wrote any buffer either of them touches — the
    recomputation would produce byte-identical results, so layers sharing
    a stride configuration can reuse the first build (Figure 20's map
    reuse, here derived from the trace instead of hand-modeled).
    """
    out: List[KernelLaunch] = []
    # last surviving occurrence of each key -> index in `out` order
    seen: Dict[Tuple[object, ...], int] = {}
    write_epoch: Dict[str, int] = {}  # buffer -> out-position of last write
    for launch in launches:
        if launch.kind is LaunchKind.MAPPING and launch.reads:
            key = _launch_key(launch)
            prior = seen.get(key)
            if prior is not None:
                buffers = {
                    a.buffer for a in (*launch.reads, *launch.writes)
                }
                if all(
                    write_epoch.get(buf, -1) <= prior for buf in buffers
                ):
                    continue  # redundant rebuild: drop it
        pos = len(out)
        out.append(launch)
        for access in launch.writes:
            write_epoch[access.buffer] = pos
        if launch.kind is LaunchKind.MAPPING and launch.reads:
            seen[_launch_key(launch)] = pos
    return out


# ---------------------------------------------------------------------- #
# Dead-launch elimination
# ---------------------------------------------------------------------- #
def eliminate_dead_launches(
    launches: Sequence[KernelLaunch],
) -> List[KernelLaunch]:
    """Drop launches whose only effect is writing workspace nobody reads.

    Runs to a fixpoint (removing a consumer can orphan its producer).
    Only fully-annotated launches whose writes all target unread ``ws:``
    buffers qualify — external and atomic writes are observable effects.
    """
    keep = list(launches)
    while True:
        read_buffers = {
            access.buffer for launch in keep for access in launch.reads
        }
        live = [
            launch
            for launch in keep
            if not launch.writes
            or not all(
                access.workspace
                and not access.atomic
                and access.buffer not in read_buffers
                for access in launch.writes
            )
        ]
        if len(live) == len(keep):
            return keep
        keep = live


# ---------------------------------------------------------------------- #
# Workspace re-use planning
# ---------------------------------------------------------------------- #
def plan_workspace_reuse(
    launches: Sequence[KernelLaunch],
) -> List[KernelLaunch]:
    """Tighten over-declared workspace to the liveness-true requirement.

    For each launch the pass computes the workspace actually live while
    it runs — every ``ws:`` buffer whose lifetime (first write to last
    access) covers the launch — plus the launch's declared untracked
    transients, and clamps ``workspace_bytes`` down to that (never below
    the launch's own touched extents, so the depgraph lifetime check
    stays satisfiable; never above the original declaration, so the peak
    provably cannot increase).
    """
    extent: Dict[str, float] = {}
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for i, launch in enumerate(launches):
        for access in (*launch.reads, *launch.writes):
            if not access.workspace:
                continue
            buf = access.buffer
            extent[buf] = max(extent.get(buf, 0.0), access.nbytes)
            first.setdefault(buf, i)
            last[buf] = i
    out: List[KernelLaunch] = []
    for i, launch in enumerate(launches):
        if launch.is_barrier:
            out.append(launch)  # unannotated: nothing provable, leave it
            continue
        live = sum(
            extent[buf] for buf in extent if first[buf] <= i <= last[buf]
        )
        touched: Dict[str, float] = {}
        for access in (*launch.reads, *launch.writes):
            if access.workspace:
                touched[access.buffer] = max(
                    touched.get(access.buffer, 0.0), access.nbytes
                )
        floor = sum(touched.values())
        need = max(floor, live + launch.untracked_workspace_bytes)
        planned = min(launch.workspace_bytes, need)
        out.append(
            dataclasses.replace(launch, workspace_bytes=planned)
            if planned < launch.workspace_bytes - _EPS
            else launch
        )
    return out


# ---------------------------------------------------------------------- #
# The verified pipeline
# ---------------------------------------------------------------------- #
#: Counters fusion may reduce: it moves data, not math.
_FUSE_REDUCES = frozenset(
    {
        "launches",
        "dram_read_bytes",
        "dram_write_bytes",
        "atomic_write_bytes",
        "peak_workspace_bytes",
    }
)

PASSES: Dict[str, Pass] = {
    p.name: p
    for p in (
        Pass("fuse", _FUSE_REDUCES, fuse_gather_gemm_scatter),
        Pass("hoist-invariants", frozenset({"scalar_ops"}), hoist_loop_invariants),
        Pass("hoist-maps", frozenset(_COUNTER_FIELDS), hoist_map_builds),
        Pass("dle", frozenset(_COUNTER_FIELDS), eliminate_dead_launches),
        Pass(
            "plan-workspace",
            frozenset({"peak_workspace_bytes"}),
            plan_workspace_reuse,
        ),
    )
}

#: The default -O pipeline, in application order.
DEFAULT_PIPELINE = (
    "hoist-maps",
    "fuse",
    "hoist-invariants",
    "dle",
    "plan-workspace",
)


def _violation_kinds(launches: Sequence[KernelLaunch]) -> Set[str]:
    return {
        v.invariant
        for v in (
            *check_dependences(launches),
            *check_trace(KernelTrace(launches)),
        )
    }


def _check_conservation(
    name: str,
    may_reduce: FrozenSet[str],
    before: TraceSummary,
    after: TraceSummary,
) -> None:
    for field in _COUNTER_FIELDS:
        b = float(getattr(before, field))
        a = float(getattr(after, field))
        if field in may_reduce:
            if a > b + _EPS:
                raise PassSoundnessError(
                    f"pass {name!r} increased {field} ({b:.0f} -> {a:.0f}) "
                    f"despite declaring it reducible"
                )
        elif abs(a - b) > _EPS:
            raise PassSoundnessError(
                f"pass {name!r} changed conserved counter {field} "
                f"({b:.0f} -> {a:.0f})"
            )


def optimize_trace(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    passes: Optional[Sequence[str]] = None,
) -> Tuple[KernelTrace, List[PassResult]]:
    """Run ``passes`` (default :data:`DEFAULT_PIPELINE`) in order over
    ``trace``, checking every rewrite; return the optimized trace and one
    :class:`PassResult` per pass.

    New violation kinds after a rewrite (relative to the pre-pass state)
    are a soundness failure — an already-broken input trace stays
    diagnosable, but a pass may never *introduce* breakage.
    """
    names = list(DEFAULT_PIPELINE if passes is None else passes)
    unknown = [n for n in names if n not in PASSES]
    if unknown:
        raise OptError(
            f"unknown pass(es) {unknown}; available: {sorted(PASSES)}"
        )
    launches = list(trace)
    kinds = _violation_kinds(launches)
    results: List[PassResult] = []
    for p in (PASSES[n] for n in names):
        before = KernelTrace(launches).summary()
        rewritten = p.rewrite(launches)
        after = KernelTrace(rewritten).summary()
        changed = rewritten != launches
        if changed:
            after_kinds = _violation_kinds(rewritten)
            introduced = after_kinds - kinds
            if introduced:
                raise PassSoundnessError(
                    f"pass {p.name!r} introduced violation(s) "
                    f"{sorted(introduced)}"
                )
            _check_conservation(p.name, p.may_reduce, before, after)
            launches, kinds = rewritten, after_kinds
        results.append(
            PassResult(name=p.name, changed=changed, before=before, after=after)
        )
    return KernelTrace(launches), results


__all__ = [
    "DEFAULT_PIPELINE",
    "OptError",
    "PASSES",
    "Pass",
    "PassResult",
    "PassSoundnessError",
    "eliminate_dead_launches",
    "fuse_gather_gemm_scatter",
    "hoist_loop_invariants",
    "hoist_map_builds",
    "optimize_trace",
    "plan_workspace_reuse",
]
