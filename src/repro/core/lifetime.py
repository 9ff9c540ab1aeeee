"""Lifetime simulation: aging, margin drift and re-characterisation.

Section 3.D: the StressLog's new V-F-R values "may need to be updated
several times over the lifetime of a server due to the aging effects of
the machine or unexpected errors observed", on a periodic (2–3 month)
cadence or triggered by anomalies.

The :class:`LifetimeSimulator` runs a node through years of accelerated
operation: BTI aging raises every core's Vmin as a function of the
voltage/temperature it actually runs at, and the configured
re-characterisation policy decides whether the margins track that drift.
The headline comparison (ablation A5): a node that characterises once at
deployment and never again starts crashing as silicon ages past its
frozen margins; periodic re-characterisation keeps the failure rate flat
at a small energy cost (margins retreat as the part ages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..daemons.stresslog import StressLog, StressTargets
from ..hardware.aging import YEAR_S
from ..hardware.platform import ServerPlatform, build_uniserver_node
from ..workloads.base import WorkloadSuite
from .clock import SimClock
from .exceptions import ConfigurationError

#: Months, in seconds, for cadence arithmetic.
MONTH_S = YEAR_S / 12.0


@dataclass(frozen=True)
class EpochReport:
    """State of the node after one simulated epoch."""

    age_years: float
    mean_vmin_drift_mv: float
    mean_margin_headroom_mv: float
    crash_rate: float
    mean_relative_power: float
    recharacterizations: int


@dataclass
class LifetimeResult:
    """Full lifetime trajectory."""

    epochs: List[EpochReport] = field(default_factory=list)

    def final(self) -> EpochReport:
        """The last simulated epoch."""
        if not self.epochs:
            raise ConfigurationError("no epochs simulated")
        return self.epochs[-1]

    def first_unsafe_epoch(self, crash_rate_budget: float = 0.01,
                           ) -> Optional[EpochReport]:
        """The first epoch whose crash rate exceeds the budget."""
        for epoch in self.epochs:
            if epoch.crash_rate > crash_rate_budget:
                return epoch
        return None

    def total_recharacterizations(self) -> int:
        """StressLog cycles run over the lifetime."""
        return self.epochs[-1].recharacterizations if self.epochs else 0


class LifetimeSimulator:
    """Accelerated multi-year simulation of one node's margins."""

    def __init__(self, platform: Optional[ServerPlatform] = None,
                 recharacterize_every_months: Optional[float] = 3.0,
                 workload_suite: Optional[WorkloadSuite] = None,
                 operating_temperature_c: float = 65.0,
                 guard_margin_v: float = 0.010,
                 crash_trials_per_epoch: int = 200,
                 seed: int = 0) -> None:
        if recharacterize_every_months is not None \
                and recharacterize_every_months <= 0:
            raise ConfigurationError("cadence must be positive or None")
        if crash_trials_per_epoch < 10:
            raise ConfigurationError("need >= 10 crash trials per epoch")
        self.platform = platform or build_uniserver_node()
        self.cadence_s = (None if recharacterize_every_months is None
                          else recharacterize_every_months * MONTH_S)
        # Safety is defined against the stress suite (Section 3.B): the
        # epoch crash trials draw from the same worst-case kernels the
        # StressLog characterises with, so headroom below the guard
        # margin translates directly into observed failures.
        from ..workloads.viruses import virus_suite
        self.suite = workload_suite or virus_suite()
        self.temperature_c = operating_temperature_c
        self.guard_margin_v = guard_margin_v
        self.crash_trials = crash_trials_per_epoch
        self.clock = SimClock()
        self.stresslog = StressLog(
            self.platform, self.clock,
            targets=StressTargets(guard_margin_v=guard_margin_v),
        )
        self._rng = np.random.default_rng(seed)
        self._recharacterizations = 0

    # -- internals ---------------------------------------------------------------

    def _characterize_and_apply(self) -> None:
        """Run a StressLog cycle and adopt the core margins."""
        vector = self.stresslog.characterize()
        self._recharacterizations += 1
        for margin in vector.margins:
            if margin.component.startswith("core"):
                core_id = int(margin.component[len("core"):])
                old = self.platform.core_point(core_id)
                self.platform.set_core_point(
                    core_id,
                    margin.safe_point.with_refresh(old.refresh_interval_s))

    def _age_epoch(self, epoch_s: float) -> None:
        """Accrue aging at each core's current operating conditions."""
        for core in self.platform.chip.cores:
            point = self.platform.core_point(core.core_id)
            core.age(epoch_s, point.voltage_v, self.temperature_c)

    def _epoch_report(self, age_s: float) -> EpochReport:
        chip = self.platform.chip
        nominal = chip.spec.nominal
        drifts, headrooms, powers = [], [], []
        crashes = 0
        trials = 0
        workloads = list(self.suite)
        for core in chip.cores:
            point = self.platform.core_point(core.core_id)
            drifts.append(core.aging.vmin_drift_v())
            worst_crash = max(
                core.crash_voltage_v(w.profile) for w in workloads
            )
            headrooms.append(point.voltage_v - worst_crash)
            powers.append(
                chip.power.relative_dynamic_power(point, nominal))
            for _ in range(self.crash_trials // chip.n_cores):
                workload = workloads[
                    int(self._rng.integers(len(workloads)))]
                trials += 1
                if not core.check_run(point, workload.profile):
                    crashes += 1
        return EpochReport(
            age_years=age_s / YEAR_S,
            mean_vmin_drift_mv=float(np.mean(drifts)) * 1e3,
            mean_margin_headroom_mv=float(np.mean(headrooms)) * 1e3,
            crash_rate=crashes / max(1, trials),
            mean_relative_power=float(np.mean(powers)),
            recharacterizations=self._recharacterizations,
        )

    # -- the main loop --------------------------------------------------------------

    def run(self, years: float = 5.0,
            epoch_months: float = 3.0) -> LifetimeResult:
        """Simulate ``years`` of operation in ``epoch_months`` steps.

        The node is characterised once at deployment; afterwards it is
        re-characterised on the configured cadence (or never, when the
        cadence is ``None`` — the ablated configuration).
        """
        if years <= 0 or epoch_months <= 0:
            raise ConfigurationError("years and epoch must be positive")
        epoch_s = epoch_months * MONTH_S
        n_epochs = int(round(years * YEAR_S / epoch_s))

        self._characterize_and_apply()   # pre-deployment
        result = LifetimeResult()
        since_recharacterization = 0.0
        age_s = 0.0
        for _ in range(n_epochs):
            self._age_epoch(epoch_s)
            age_s += epoch_s
            since_recharacterization += epoch_s
            if (self.cadence_s is not None
                    and since_recharacterization >= self.cadence_s):
                self._characterize_and_apply()
                since_recharacterization = 0.0
            result.epochs.append(self._epoch_report(age_s))
        return result
