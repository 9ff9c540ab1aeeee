"""Process-pool parallel campaign sweeps over seeds and config grids.

The paper's headline evidence is statistical — population studies over
many chips, seeds and operating points (Section 3) — yet a single
campaign is one seed in one process.  This module fans one experiment
out over a *seed list* crossed with a *config grid* (chaos A/B arms,
``nodes``/``rate``/``intensity`` axes), exploiting two guarantees the
stack already provides:

* **determinism** — every campaign is a pure function of its
  :class:`~repro.persistence.campaign.CampaignConfig` (the rack, the
  arrival trace and the fault plan all derive from the seed), so a
  sweep's outcome is independent of worker scheduling; and
* **canonical reports** — results reduce to plain dicts whose
  canonical-JSON form is byte-stable, so ``--jobs 1`` and ``--jobs N``
  sweeps produce *byte-identical* aggregate reports (the regression the
  scaling bench enforces).

Workers are shared-nothing subprocesses from the shared
:func:`~repro.core.workers.farm`: each receives one picklable
:class:`SweepTask`, rebuilds the campaign world from config, and sends
back one picklable :class:`SweepRow` (the ``experiment`` drill-down
handle is stripped from :class:`~repro.resilience.campaign.CampaignResult`
before it crosses the process boundary).  Crashed workers and error
rows are retried a bounded number of times; permanent failures become
rows rather than aborting the sweep.

On platforms with ``fork`` the workers inherit the parent's interpreter
configuration, so jobs-1 and jobs-N sweeps agree byte-for-byte within
any single parent process.  Comparing reports *across* parent processes
additionally needs ``PYTHONHASHSEED`` pinned (the VM application-trace
seeds hash VM names), exactly as the kill/resume bench already does.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core.exceptions import ConfigurationError
from ..core.workers import Attempt, farm
from ..persistence.campaign import CampaignConfig

#: CLI-friendly grid axis name -> (CampaignConfig field, coercion).
GRID_AXES: Dict[str, Tuple[str, Callable]] = {
    "nodes": ("n_nodes", int),
    "duration": ("duration_s", float),
    "rate": ("rate_per_hour", float),
    "intensity": ("intensity", float),
    "base_rate": ("base_rate_per_hour", float),
    "step": ("step_s", float),
    "policies": ("policies", str),
}

#: Axes that shape the drawn fault plan; they cannot vary when the
#: sweep replays one explicit plan across its points.
_PLAN_SHAPING_AXES = ("nodes", "duration", "rate", "intensity")


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a campaign config plus its identity."""

    index: int
    point: str
    seed: int
    config: CampaignConfig
    snapshot_dir: Optional[str] = None
    #: Harvest ledger-labelled prediction observations in the worker
    #: (the experiment handle never crosses the process boundary, so
    #: harvesting must happen where the world still exists).
    harvest: bool = False


@dataclass
class SweepRow:
    """One picklable sweep outcome (a campaign without its world).

    ``result`` holds the plain-dict form of
    :class:`~repro.resilience.campaign.CampaignResult` minus the
    unpicklable ``experiment`` handle; ``metrics_sha256`` digests the
    full cross-layer metrics snapshot the worker saw, so sweep-level
    determinism checks cover every layer, not just the headline numbers.
    """

    index: int
    point: str
    seed: int
    ok: bool
    attempts: int = 1
    error: Optional[str] = None
    metrics_sha256: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    #: Ledger-labelled prediction observations (only when the task was
    #: expanded with ``harvest=True``); reported through the separate
    #: harvest report, never the aggregate sweep report.
    harvest: Optional[List[Dict[str, object]]] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for the aggregate report.

        The harvest payload is excluded: a sweep must produce the same
        aggregate report bytes with and without the harvest hook.
        """
        state = asdict(self)
        state.pop("harvest", None)
        return state


@dataclass
class SweepSpec:
    """One experiment fanned over seeds and a config grid.

    ``grid`` maps axis names (see :data:`GRID_AXES`) to value lists;
    the sweep runs every grid point for every seed.  ``plan`` replays
    one explicit serialized fault plan at every point (the A/B use
    case); without it, each task draws its plan from its own seed —
    note two arms differing only in ``policies`` draw the *same* plan
    for the same seed, because the draw does not depend on the arm.
    """

    seeds: Tuple[int, ...] = (0,)
    n_nodes: int = 4
    duration_s: float = 3600.0
    policies: str = "on"
    rate_per_hour: float = 6.0
    intensity: float = 0.6
    base_rate_per_hour: float = 12.0
    step_s: float = 60.0
    grid: Dict[str, List[object]] = field(default_factory=dict)
    plan: Optional[Dict[str, object]] = None
    #: Per-task crash-safe snapshot directories are created under here.
    snapshot_root: Optional[str] = None
    #: Attach ledger-labelled prediction observations to every row
    #: (``repro sweep --harvest-labels``).  Excluded from
    #: :meth:`as_dict` so the aggregate report is harvest-independent.
    harvest: bool = False

    def __post_init__(self) -> None:
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("sweep seeds must be unique")
        for axis, values in self.grid.items():
            if axis not in GRID_AXES:
                raise ConfigurationError(
                    f"unknown grid axis {axis!r}; known axes: "
                    f"{', '.join(sorted(GRID_AXES))}")
            if not values:
                raise ConfigurationError(f"grid axis {axis!r} is empty")
        if self.plan is not None:
            fixed = [a for a in self.grid if a in _PLAN_SHAPING_AXES]
            if fixed:
                raise ConfigurationError(
                    "an explicit plan fixes the fault schedule; axes "
                    f"{fixed} would redraw it — drop them or the plan")

    def as_dict(self) -> Dict[str, object]:
        """Job-count-independent spec record for the aggregate report.

        ``snapshot_root`` is deliberately excluded: it is a host-local
        path, and reports from equivalent sweeps must stay
        byte-identical wherever their snapshots land.
        """
        return {
            "seeds": list(self.seeds),
            "n_nodes": self.n_nodes,
            "duration_s": self.duration_s,
            "policies": self.policies,
            "rate_per_hour": self.rate_per_hour,
            "intensity": self.intensity,
            "base_rate_per_hour": self.base_rate_per_hour,
            "step_s": self.step_s,
            "grid": {axis: list(values)
                     for axis, values in self.grid.items()},
            "plan": self.plan,
        }

    def points(self) -> List[Tuple[str, Dict[str, object]]]:
        """The expanded grid: (label, config overrides) per point."""
        combos: List[List[Tuple[str, object]]] = [[]]
        for axis, values in self.grid.items():
            combos = [combo + [(axis, value)]
                      for combo in combos for value in values]
        expanded = []
        for combo in combos:
            label = "/".join(f"{axis}={value}" for axis, value in combo) \
                or "base"
            overrides = {
                GRID_AXES[axis][0]: GRID_AXES[axis][1](value)
                for axis, value in combo
            }
            expanded.append((label, overrides))
        return expanded

    def expand(self) -> List[SweepTask]:
        """Every task of the sweep, in deterministic order."""
        tasks: List[SweepTask] = []
        for label, overrides in self.points():
            base = {
                "n_nodes": self.n_nodes,
                "duration_s": self.duration_s,
                "policies": self.policies,
                "rate_per_hour": self.rate_per_hour,
                "intensity": self.intensity,
                "base_rate_per_hour": self.base_rate_per_hour,
                "step_s": self.step_s,
                "plan": self.plan,
            }
            base.update(overrides)
            for seed in self.seeds:
                index = len(tasks)
                snapshot_dir = None
                if self.snapshot_root is not None:
                    snapshot_dir = os.path.join(
                        self.snapshot_root, f"task-{index:04d}")
                tasks.append(SweepTask(
                    index=index, point=label, seed=seed,
                    config=CampaignConfig(seed=seed, label=label, **base),
                    snapshot_dir=snapshot_dir,
                    harvest=self.harvest))
        return tasks


@dataclass
class SweepResult:
    """Every row of one sweep, in task order."""

    spec: SweepSpec
    rows: List[SweepRow]

    @property
    def failures(self) -> List[SweepRow]:
        """Rows whose task failed permanently (after retries)."""
        return [row for row in self.rows if not row.ok]


def campaign_result_from_row(row: SweepRow):
    """Rebuild a :class:`CampaignResult` from a worker's row.

    The ``experiment`` drill-down handle stayed behind in the worker
    process, so it is ``None`` on the rebuilt result.
    """
    from ..resilience.campaign import CampaignResult

    if not row.ok or row.result is None:
        raise ConfigurationError(
            f"row {row.index} ({row.point} seed={row.seed}) carries no "
            f"result: {row.error}")
    return CampaignResult(**row.result)


def run_sweep_task(task: SweepTask) -> SweepRow:
    """Execute one campaign point in the current (worker) process.

    Exceptions become ``ok=False`` rows rather than propagating — the
    parent decides whether to retry.  With a ``snapshot_dir`` the task
    runs through the crash-safe :class:`PersistentCampaign` runtime
    (proven bit-equivalent to the direct path by the kill/resume
    bench); otherwise it runs the direct in-memory campaign.
    """
    from ..persistence import payload_checksum, run_persistent_campaign
    from ..resilience.campaign import run_chaos_campaign
    from ..resilience.chaos import FaultPlan
    from ..resilience.policies import DegradationConfig

    config = task.config.finalized()
    try:
        if task.snapshot_dir is not None:
            result = run_persistent_campaign(
                config, snapshot_dir=task.snapshot_dir)
        else:
            degradation = (DegradationConfig.on()
                           if config.policies == "on"
                           else DegradationConfig.off())
            result = run_chaos_campaign(
                n_nodes=config.n_nodes, duration_s=config.duration_s,
                seed=config.seed,
                plan=FaultPlan.from_dict(config.plan),  # type: ignore[arg-type]
                degradation=degradation,
                base_rate_per_hour=config.base_rate_per_hour,
                step_s=config.step_s, label=config.label)
    except Exception as exc:  # noqa: BLE001 — crossing a process boundary
        return SweepRow(index=task.index, point=task.point,
                        seed=task.seed, ok=False,
                        error=f"{type(exc).__name__}: {exc}")
    metrics_sha = payload_checksum(
        result.experiment.cloud.metrics_snapshot())
    harvest = None
    if task.harvest:
        from .harvest import harvest_observations
        harvest = harvest_observations(result.experiment)
    payload = asdict(replace(result, experiment=None))
    payload.pop("experiment", None)
    return SweepRow(index=task.index, point=task.point, seed=task.seed,
                    ok=True, metrics_sha256=metrics_sha, result=payload,
                    harvest=harvest)


def run_sweep(spec: SweepSpec, jobs: int = 1, max_retries: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              worker: Callable[[SweepTask], SweepRow] = run_sweep_task,
              ) -> SweepResult:
    """Run every task of ``spec`` across ``jobs`` worker subprocesses.

    All tasks — even at ``jobs=1`` — run in fresh worker subprocesses
    (:func:`~repro.core.workers.farm`), so the serial and parallel
    paths are numerically the same code.  A worker that crashes (dies
    without shipping a row) or ships an ``ok=False`` row is retried up
    to ``max_retries`` times; a task still failing after that is
    recorded as a failure row and the sweep continues.

    Rows come back in task order regardless of completion order, which
    is what makes the aggregate report independent of ``jobs``.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    tasks = spec.expand()
    finished = 0

    def _note(index: int, attempt: Attempt, retrying: bool) -> None:
        nonlocal finished
        task, row = tasks[index], attempt.result
        label = f"{task.point} seed={task.seed}"
        error = attempt.error or row.error
        if retrying:
            progress(f"[retry {attempt.attempts}/{max_retries + 1}] "
                     f"{label}: {error}")
            return
        finished += 1
        status = (f"ok availability="
                  f"{row.result['fleet_availability']:.4f} "
                  f"(attempt {attempt.attempts})"
                  if attempt.error is None and row.ok else
                  f"FAILED after {attempt.attempts} attempts: {error}")
        progress(f"[{finished}/{len(tasks)}] {label} {status}")

    attempts = farm(worker, tasks, jobs=jobs, max_retries=max_retries,
                    ok=lambda row: row.ok,
                    on_attempt=_note if progress is not None else None)
    rows = []
    for task, attempt in zip(tasks, attempts):
        row = attempt.result
        if attempt.error is None and row.ok:
            row.attempts = attempt.attempts
        else:
            row = SweepRow(index=task.index, point=task.point,
                           seed=task.seed, ok=False,
                           attempts=attempt.attempts,
                           error=attempt.error or row.error)
        rows.append(row)
    return SweepResult(spec=spec, rows=rows)
