"""Verified rewrite passes over :class:`~repro.opt.program.LaunchProgram`.

Every pass declares which aggregate counters it may *reduce*
(``may_reduce``); everything else is conserved.  The pipeline sandwiches
each pass between soundness checks:

* :func:`repro.analyze.depgraph.check_dependences` must be no worse
  after the rewrite than before (clean stays clean);
* :func:`repro.analyze.tracecheck.check_trace` structural invariants
  must hold after the rewrite;
* the :class:`~repro.gpusim.trace.TraceSummary` conservation contract:
  counters outside ``may_reduce`` are unchanged (to float slack), and
  counters inside it never *increase*.

A pass that breaks its contract raises :class:`PassSoundnessError` and
the program is left at its last sound state, so optimization can never
silently corrupt a trace.

The passes themselves mirror the schedule rewrites of TorchSparse /
TorchSparse++ and Minuet:

* :class:`FuseGatherGemmScatter` — collapse gather -> gemm -> scatter
  chains (marked by :attr:`KernelLaunch.fuse_group`) into one fused
  launch, eliminating the staging-buffer round trips (Figure 9's fused
  dataflow, derived instead of hand-built);
* :class:`HoistLoopInvariants` — remove loop-invariant address
  arithmetic declared in :attr:`KernelLaunch.hoistable_scalar_ops`
  (Section 3.2, the Figure 20 mechanism);
* :class:`HoistMapBuilds` — conservative cross-layer CSE of identical
  map-build launches (paper Figure 20's kernel-map reuse);
* :class:`EliminateDeadLaunches` — drop launches whose only effect is
  writing workspace nobody reads;
* :class:`PlanWorkspaceReuse` — tighten over-declared per-launch
  workspace to what liveness actually requires, provably never
  increasing ``peak_workspace_bytes``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Type

from repro.analyze.depgraph import check_dependences
from repro.analyze.tracecheck import TraceViolation, check_trace
from repro.errors import ReproError
from repro.gpusim.trace import (
    BufferAccess,
    KernelLaunch,
    KernelTrace,
    LaunchKind,
    TraceSummary,
)
from repro.opt.program import LaunchProgram, ProgramLaunch

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


class Pass:
    """Base class: a named rewrite with a declared conservation contract."""

    #: Unique pass name (used by ``--passes`` and reports).
    name: str = "pass"
    #: TraceSummary counters this pass may legitimately reduce.
    may_reduce: FrozenSet[str] = frozenset()

    def run(self, program: LaunchProgram) -> bool:
        """Rewrite ``program`` in place; return whether anything changed."""
        raise NotImplementedError


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


class FuseGatherGemmScatter(Pass):
    """Fuse contiguous same-``fuse_group`` producer/consumer chains.

    Reduces launch count, DRAM traffic (the staging round trips) and
    workspace; total flops and scalar ops are conserved — fusion changes
    where data lives, not how much math runs.
    """

    name = "fuse"
    may_reduce = frozenset(
        {
            "launches",
            "dram_read_bytes",
            "dram_write_bytes",
            "atomic_write_bytes",
            "peak_workspace_bytes",
        }
    )

    def run(self, program: LaunchProgram) -> bool:
        entries = program.entries
        # Buffers used outside a group must survive fusion; collect each
        # buffer's set of accessor groups ("" = ungrouped).
        accessor_groups: Dict[str, Set[str]] = {}
        for entry in entries:
            for access in (*entry.launch.reads, *entry.launch.writes):
                accessor_groups.setdefault(access.buffer, set()).add(
                    entry.launch.fuse_group
                )
        out: List[ProgramLaunch] = []
        run: List[ProgramLaunch] = []
        changed = False

        def flush() -> None:
            nonlocal changed
            if len(run) >= 2:
                members = [e.launch for e in run]
                internal = _internal_ws_buffers(members)
                group = members[0].fuse_group
                if all(
                    accessor_groups.get(buf, set()) <= {group}
                    for buf in internal
                ):
                    out.append(
                        ProgramLaunch(program.fresh_id(), _fused_launch(members))
                    )
                    changed = True
                    run.clear()
                    return
            out.extend(run)
            run.clear()

        for entry in entries:
            group = entry.launch.fuse_group
            if not group:
                flush()
                out.append(entry)
                continue
            if run and run[-1].launch.fuse_group != group:
                flush()
            run.append(entry)
        flush()
        if changed:
            program.replace(out)
        return changed


# ---------------------------------------------------------------------- #
# Loop-invariant hoisting
# ---------------------------------------------------------------------- #
class HoistLoopInvariants(Pass):
    """Remove the scalar address arithmetic a code generator can hoist.

    Launches declare the removable portion in ``hoistable_scalar_ops``
    (Section 3.2: dynamic-shape address computation that specializing or
    hoisting eliminates, the quantity behind Figure 20).
    """

    name = "hoist-invariants"
    may_reduce = frozenset({"scalar_ops"})

    def run(self, program: LaunchProgram) -> bool:
        changed = False
        for entry in program.entries:
            launch = entry.launch
            if launch.hoistable_scalar_ops > 0.0:
                launch.scalar_ops -= launch.hoistable_scalar_ops
                launch.hoistable_scalar_ops = 0.0
                changed = True
        if changed:
            program.replace(program.entries)
        return changed


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


class HoistMapBuilds(Pass):
    """Eliminate repeated identical mapping launches (kernel-map reuse).

    A mapping launch is redundant with an earlier *identical* launch when
    no intervening launch wrote any buffer either of them touches — the
    recomputation would produce byte-identical results, so layers sharing
    a stride configuration can reuse the first build (Figure 20's map
    reuse, here derived from the trace instead of hand-modeled).
    """

    name = "hoist-maps"
    may_reduce = frozenset(
        {
            "launches",
            "flops",
            "dram_read_bytes",
            "dram_write_bytes",
            "atomic_write_bytes",
            "scalar_ops",
            "peak_workspace_bytes",
        }
    )

    def run(self, program: LaunchProgram) -> bool:
        out: List[ProgramLaunch] = []
        # last surviving occurrence of each key -> index in `out` order
        seen: Dict[Tuple[object, ...], int] = {}
        write_epoch: Dict[str, int] = {}  # buffer -> out-position of last write
        changed = False
        for entry in program.entries:
            launch = entry.launch
            if launch.kind is LaunchKind.MAPPING and launch.reads:
                key = _launch_key(launch)
                prior = seen.get(key)
                if prior is not None:
                    buffers = {
                        a.buffer
                        for a in (*launch.reads, *launch.writes)
                    }
                    if all(
                        write_epoch.get(buf, -1) <= prior for buf in buffers
                    ):
                        changed = True
                        continue  # redundant rebuild: drop it
            pos = len(out)
            out.append(entry)
            for access in launch.writes:
                write_epoch[access.buffer] = pos
            if launch.kind is LaunchKind.MAPPING and launch.reads:
                seen[_launch_key(launch)] = pos
        if changed:
            program.replace(out)
        return changed


# ---------------------------------------------------------------------- #
# Dead-launch elimination
# ---------------------------------------------------------------------- #
class EliminateDeadLaunches(Pass):
    """Drop launches whose only effect is writing workspace nobody reads.

    Runs to a fixpoint (removing a consumer can orphan its producer).
    Only fully-annotated launches whose writes all target unread ``ws:``
    buffers qualify — external and atomic writes are observable effects.
    """

    name = "dle"
    may_reduce = frozenset(
        {
            "launches",
            "flops",
            "dram_read_bytes",
            "dram_write_bytes",
            "atomic_write_bytes",
            "scalar_ops",
            "peak_workspace_bytes",
        }
    )

    def run(self, program: LaunchProgram) -> bool:
        changed = False
        while True:
            entries = program.entries
            read_buffers = {
                access.buffer
                for entry in entries
                for access in entry.launch.reads
            }
            keep: List[ProgramLaunch] = []
            removed = False
            for entry in entries:
                launch = entry.launch
                dead = (
                    bool(launch.writes)
                    and all(
                        access.workspace
                        and not access.atomic
                        and access.buffer not in read_buffers
                        for access in launch.writes
                    )
                )
                if dead:
                    removed = True
                else:
                    keep.append(entry)
            if not removed:
                break
            program.replace(keep)
            changed = True
        return changed


# ---------------------------------------------------------------------- #
# Workspace re-use planning
# ---------------------------------------------------------------------- #
class PlanWorkspaceReuse(Pass):
    """Tighten over-declared workspace to the liveness-true requirement.

    For each launch the pass computes the workspace actually live while
    it runs — every ``ws:`` buffer whose lifetime (first write to last
    access) covers the launch — plus the launch's declared untracked
    transients, and clamps ``workspace_bytes`` down to that (never below
    the launch's own touched extents, so the depgraph lifetime check
    stays satisfiable; never above the original declaration, so the peak
    provably cannot increase).
    """

    name = "plan-workspace"
    may_reduce = frozenset({"peak_workspace_bytes"})

    def run(self, program: LaunchProgram) -> bool:
        entries = program.entries
        n = len(entries)
        extent: Dict[str, float] = {}
        first: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for i, entry in enumerate(entries):
            for access in (*entry.launch.reads, *entry.launch.writes):
                if not access.workspace:
                    continue
                buf = access.buffer
                extent[buf] = max(extent.get(buf, 0.0), access.nbytes)
                first.setdefault(buf, i)
                last[buf] = i
        changed = False
        for i in range(n):
            launch = entries[i].launch
            if launch.is_barrier:
                continue  # unannotated: nothing provable, leave declared
            live = sum(
                extent[buf]
                for buf in extent
                if first[buf] <= i <= last[buf]
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
            if planned < launch.workspace_bytes - _EPS:
                launch.workspace_bytes = planned
                changed = True
        if changed:
            program.replace(program.entries)
        return changed


# ---------------------------------------------------------------------- #
# The verified pipeline
# ---------------------------------------------------------------------- #
PASSES: Dict[str, Type[Pass]] = {
    cls.name: cls
    for cls in (
        FuseGatherGemmScatter,
        HoistLoopInvariants,
        HoistMapBuilds,
        EliminateDeadLaunches,
        PlanWorkspaceReuse,
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


def _violation_keys(violations: Sequence[TraceViolation]) -> Set[str]:
    return {v.invariant for v in violations}


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


class PassPipeline:
    """Apply passes in order, verifying soundness around every rewrite."""

    def __init__(self, passes: Optional[Sequence[str]] = None):
        names = list(DEFAULT_PIPELINE if passes is None else passes)
        unknown = [n for n in names if n not in PASSES]
        if unknown:
            raise OptError(
                f"unknown pass(es) {unknown}; available: {sorted(PASSES)}"
            )
        self.passes: List[Pass] = [PASSES[n]() for n in names]

    def run(self, program: LaunchProgram) -> List[PassResult]:
        """Run the pipeline; every pass is check-sandwiched.

        New violation kinds after a rewrite (relative to the pre-pass
        state) are a soundness failure — an already-broken input trace
        stays diagnosable, but a pass may never *introduce* breakage.
        """
        results: List[PassResult] = []
        for p in self.passes:
            before_summary = program.summary()
            before_keys = _violation_keys(
                check_dependences(program.launches)
            ) | _violation_keys(check_trace(program.to_trace()))
            changed = p.run(program)
            after_summary = program.summary()
            if changed:
                after = _violation_keys(
                    check_dependences(program.launches)
                ) | _violation_keys(check_trace(program.to_trace()))
                introduced = after - before_keys
                if introduced:
                    raise PassSoundnessError(
                        f"pass {p.name!r} introduced violation(s) "
                        f"{sorted(introduced)}"
                    )
                _check_conservation(
                    p.name, p.may_reduce, before_summary, after_summary
                )
            results.append(
                PassResult(
                    name=p.name,
                    changed=changed,
                    before=before_summary,
                    after=after_summary,
                )
            )
        return results


def optimize_trace(
    trace: "KernelTrace | Sequence[KernelLaunch]",
    passes: Optional[Sequence[str]] = None,
) -> Tuple[LaunchProgram, List[PassResult]]:
    """Convenience: wrap a trace, run a (default) pipeline, return both."""
    program = LaunchProgram.from_trace(trace)
    results = PassPipeline(passes).run(program)
    return program, results


__all__ = [
    "DEFAULT_PIPELINE",
    "EliminateDeadLaunches",
    "FuseGatherGemmScatter",
    "HoistLoopInvariants",
    "HoistMapBuilds",
    "OptError",
    "Pass",
    "PassPipeline",
    "PassResult",
    "PassSoundnessError",
    "PlanWorkspaceReuse",
    "PASSES",
    "optimize_trace",
]
