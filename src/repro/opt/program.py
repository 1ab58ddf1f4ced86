"""The optimizable launch-program IR.

A :class:`LaunchProgram` promotes a flat :class:`~repro.gpusim.trace.
KernelTrace` into a rewritable program: every launch carries a stable
integer id that survives pass rewrites (fused launches get fresh ids;
deleted launches retire theirs), and the dependence DAG from
:mod:`repro.analyze.depgraph` is cached and invalidated on mutation.

Passes (:mod:`repro.opt.passes`) rewrite the program; the scheduler
(:mod:`repro.opt.schedule`) prices it on K virtual streams.  The program
converts losslessly back to a trace with :meth:`LaunchProgram.to_trace`,
so everything downstream of gpusim (tracecheck, memory budgets, serving)
keeps working on optimized programs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.analyze.depgraph import DependenceGraph
from repro.gpusim.engine import estimate_trace_us
from repro.gpusim.trace import KernelLaunch, KernelTrace, TraceSummary
from repro.hw.specs import DeviceSpec
from repro.precision import Precision


@dataclasses.dataclass
class ProgramLaunch:
    """One launch plus its stable program-wide id."""

    id: int
    launch: KernelLaunch


class LaunchProgram:
    """A rewritable sequence of kernel launches with stable ids.

    Program order is execution order on one stream, and — because the
    dependence builder only ever emits forward edges — it is also a
    topological order of the DAG.  Passes must preserve that invariant:
    any rewrite keeps consumers after producers.
    """

    def __init__(self, entries: Optional[Sequence[ProgramLaunch]] = None):
        self._entries: List[ProgramLaunch] = list(entries or [])
        self._next_id = 1 + max(
            (e.id for e in self._entries), default=-1
        )
        self._graph: Optional[DependenceGraph] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(
        cls, trace: "KernelTrace | Sequence[KernelLaunch]"
    ) -> "LaunchProgram":
        """Wrap a flat trace; ids are assigned in program order."""
        return cls(
            [ProgramLaunch(i, launch) for i, launch in enumerate(trace)]
        )

    def to_trace(self) -> KernelTrace:
        """The flat trace in current program order."""
        return KernelTrace(e.launch for e in self._entries)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[ProgramLaunch, ...]:
        return tuple(self._entries)

    @property
    def launches(self) -> List[KernelLaunch]:
        return [e.launch for e in self._entries]

    def ids(self) -> List[int]:
        return [e.id for e in self._entries]

    def fresh_id(self) -> int:
        """Allocate a new stable id (for launches created by passes)."""
        nid = self._next_id
        self._next_id += 1
        return nid

    def replace(self, entries: Sequence[ProgramLaunch]) -> None:
        """Install a rewritten entry list (ids must stay unique)."""
        ids = [e.id for e in entries]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate launch ids after rewrite")
        self._entries = list(entries)
        self._next_id = max(self._next_id, 1 + max(ids, default=-1))
        self._graph = None

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DependenceGraph:
        """The dependence DAG of the current program (cached)."""
        if self._graph is None:
            self._graph = DependenceGraph.build(self.launches)
        return self._graph

    def summary(self) -> TraceSummary:
        return self.to_trace().summary()

    def serialized_us(
        self, device: DeviceSpec, precision: "Precision | str"
    ) -> float:
        return estimate_trace_us(self.to_trace(), device, precision)

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"LaunchProgram(launches={s.launches}, flops={s.flops:.3g}, "
            f"peak_ws={s.peak_workspace_bytes:.3g}B)"
        )


__all__ = ["LaunchProgram", "ProgramLaunch"]
