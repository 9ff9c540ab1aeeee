"""Parallel multi-seed campaign sweeps.

Fans one experiment out over seeds and config grids across
shared-nothing worker subprocesses, with bounded crash retries and a
canonical-JSON aggregate report that is byte-identical between
``--jobs 1`` and ``--jobs N``.  See ``docs/sweep.md``.
"""

from .engine import (
    GRID_AXES,
    SweepResult,
    SweepRow,
    SweepSpec,
    SweepTask,
    campaign_result_from_row,
    run_sweep,
    run_sweep_task,
)
from .harvest import (
    HARVEST_VERSION,
    harvest_observations,
    harvest_report,
)
from .report import (
    SUMMARY_METRICS,
    report_digest,
    summarize,
    sweep_report,
)

__all__ = [
    "GRID_AXES",
    "HARVEST_VERSION",
    "SUMMARY_METRICS",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SweepTask",
    "campaign_result_from_row",
    "harvest_observations",
    "harvest_report",
    "report_digest",
    "run_sweep",
    "run_sweep_task",
    "summarize",
    "sweep_report",
]
