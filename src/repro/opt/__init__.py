"""Launch-sequence optimization: verified rewrite passes and the
multi-stream scheduler.

The passes in :mod:`repro.opt.passes` are plain functions over the
simulator's launch list; :func:`optimize_trace` runs them on a
:class:`~repro.gpusim.trace.KernelTrace` under conservation contracts
checked by the dependence analyzer, and :mod:`repro.opt.schedule` prices
the result on K virtual streams (``critical_path <= scheduled <=
serialized``).
"""

from repro.opt.passes import (
    DEFAULT_PIPELINE,
    PASSES,
    OptError,
    Pass,
    PassResult,
    PassSoundnessError,
    optimize_trace,
)
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
    "OptError",
    "Pass",
    "PassResult",
    "PassSoundnessError",
    "ScheduledLaunch",
    "StreamSchedule",
    "best_schedule",
    "list_schedule",
    "optimize_trace",
    "schedule_report_json",
]
