"""Launch-program optimization: IR, verified rewrite passes, and the
multi-stream scheduler.

The simulator's flat :class:`~repro.gpusim.trace.KernelTrace` becomes an
optimizable :class:`~repro.opt.program.LaunchProgram`; the passes in
:mod:`repro.opt.passes` rewrite it under conservation contracts checked
by the dependence analyzer, and :mod:`repro.opt.schedule` prices the
result on K virtual streams (``critical_path <= scheduled <=
serialized``).
"""

from repro.opt.passes import (
    DEFAULT_PIPELINE,
    PASSES,
    EliminateDeadLaunches,
    FuseGatherGemmScatter,
    HoistLoopInvariants,
    HoistMapBuilds,
    OptError,
    Pass,
    PassPipeline,
    PassResult,
    PassSoundnessError,
    PlanWorkspaceReuse,
    optimize_trace,
)
from repro.opt.program import LaunchProgram, ProgramLaunch
from repro.opt.schedule import (
    ScheduledLaunch,
    StreamSchedule,
    best_schedule,
    list_schedule,
    schedule_report_json,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "PASSES",
    "EliminateDeadLaunches",
    "FuseGatherGemmScatter",
    "HoistLoopInvariants",
    "HoistMapBuilds",
    "LaunchProgram",
    "OptError",
    "Pass",
    "PassPipeline",
    "PassResult",
    "PassSoundnessError",
    "PlanWorkspaceReuse",
    "ProgramLaunch",
    "ScheduledLaunch",
    "StreamSchedule",
    "best_schedule",
    "list_schedule",
    "optimize_trace",
    "schedule_report_json",
]
