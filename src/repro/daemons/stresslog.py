"""StressLog daemon: offline stress testing producing new safe V-F-R margins.

Paper Section 3.D.  The StressLog takes the machine offline (periodically,
every 2–3 months, or on-demand when the HealthLog flags anomalous
behaviour), runs a workload suite of stress kernels, and wraps the new
safe operating margins into a vector for the higher layers.

Per-core characterisation: the crash voltage under the *worst* stress
kernel is located by repeated downward sweeps; the safe voltage adds a
guard margin above the worst observed crash.  Because viruses are
"a pathogenic worst case scenario that is unlikely to be encountered in
real-life workloads" (Section 3.B), margins that survive them bound every
real workload.

Per-domain characterisation: the refresh interval is set from the
retention model's BER inversion with a derating factor, then validated
with a pattern test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.clock import SimClock
from ..core.eop import (
    NOMINAL_REFRESH_INTERVAL_S,
    CharacterizedPoint,
    EOPTable,
)
from ..core.events import AnomalyEvent, EventBus, MarginUpdateEvent
from ..core.exceptions import ConfigurationError, StressTestError
from ..core.runtime import MetricsRegistry, NodeRuntime
from ..hardware.platform import ServerPlatform
from ..workloads.base import WorkloadSuite
from ..workloads.patterns import RANDOM
from ..workloads.viruses import virus_suite
from .infovector import ComponentMargin, MarginVector


@dataclass(frozen=True)
class StressTargets:
    """The "input stress target parameters" handed to the StressLog.

    Parameters
    ----------
    failure_budget:
        Acceptable per-run failure probability at the characterised point.
    guard_margin_v:
        Voltage added above the worst observed crash point.
    sweep_trials:
        Downward sweeps per (core, kernel) to sample crash-point noise.
    refresh_ber_target:
        BER ceiling for relaxed refresh domains (commercial target 1e-9).
    refresh_derating:
        Multiplier (<1) applied to the BER-inverted refresh interval.
    pattern_passes:
        Validation passes of the test pattern on each relaxed domain.
    temperature_c:
        Worst-case device temperature assumed for retention.
    """

    failure_budget: float = 1e-4
    guard_margin_v: float = 0.010
    sweep_trials: int = 5
    refresh_ber_target: float = 1e-9
    refresh_derating: float = 0.8
    pattern_passes: int = 4
    temperature_c: float = 45.0

    def __post_init__(self) -> None:
        if not 0 < self.failure_budget < 1:
            raise ConfigurationError("failure_budget must be in (0, 1)")
        if self.guard_margin_v < 0:
            raise ConfigurationError("guard margin must be non-negative")
        if self.sweep_trials < 1:
            raise ConfigurationError("sweep_trials must be >= 1")
        if not 0 < self.refresh_derating <= 1:
            raise ConfigurationError("refresh_derating must be in (0, 1]")


class StressLog:
    """The StressLog monitor for one platform.

    Preferred construction is ``StressLog(platform, runtime=runtime)``;
    the legacy ``(platform, clock, bus=...)`` form is kept for
    standalone campaigns (e.g. the lifetime simulator).
    """

    def __init__(self, platform: ServerPlatform,
                 clock: Optional[SimClock] = None,
                 bus: Optional[EventBus] = None,
                 suite: Optional[WorkloadSuite] = None,
                 targets: Optional[StressTargets] = None,
                 runtime: Optional[NodeRuntime] = None) -> None:
        if runtime is not None:
            clock = clock or runtime.clock
            bus = bus or runtime.bus
        if clock is None:
            raise ConfigurationError(
                "StressLog needs a runtime or an explicit clock")
        self.platform = platform
        self.clock = clock
        self.bus = bus
        self.metrics = (runtime.metrics if runtime is not None
                        else MetricsRegistry())
        self.suite = suite or virus_suite()
        self.targets = targets or StressTargets()
        self.eop_table = EOPTable()
        self.history: List[MarginVector] = []
        self._offline = False

    # -- triggering ------------------------------------------------------------

    @property
    def offline(self) -> bool:
        """Whether the machine is currently fenced for stress testing."""
        return self._offline

    def attach_anomaly_trigger(self, bus: EventBus) -> None:
        """Re-characterise whenever the HealthLog raises a critical anomaly."""

        def on_anomaly(event: AnomalyEvent) -> None:
            """Trigger a stress cycle on critical anomalies."""
            if event.severity == "critical":
                self.characterize(trigger="anomaly")

        bus.subscribe(AnomalyEvent, on_anomaly)

    def schedule_periodic(self, period_s: float) -> None:
        """Periodic re-characterisation (the paper's 2–3 month cadence)."""
        if period_s <= 0:
            raise ConfigurationError("period must be positive")

        def characterize_each(instants: Tuple[float, ...]) -> None:
            """One characterisation per due instant; the clock reads the
            last one, so all of one advance's share its timestamp."""
            for _ in instants:
                self.characterize(trigger="periodic")

        self.clock.schedule_every(period_s, characterize_each)

    # -- core characterisation ----------------------------------------------------

    def _characterize_core(self, core_id: int) -> ComponentMargin:
        """Find the safe V-F point of one core under the stress suite."""
        chip = self.platform.chip
        core = chip.core(core_id)
        nominal = chip.spec.nominal

        worst_crash_v = 0.0
        worst_kernel = ""
        for kernel in self.suite:
            observed = max(
                core.sample_crash_voltage_v(kernel.profile)
                for _ in range(self.targets.sweep_trials)
            )
            if observed > worst_crash_v:
                worst_crash_v = observed
                worst_kernel = kernel.name

        safe_voltage = min(
            nominal.voltage_v,
            worst_crash_v + self.targets.guard_margin_v,
        )
        safe_point = nominal.with_voltage(safe_voltage)
        worst_profile = self.suite.get(worst_kernel).profile
        failure_probability = core.crash_probability(safe_point, worst_profile)
        relative_power = chip.power.relative_dynamic_power(safe_point, nominal)
        return ComponentMargin(
            component=f"core{core_id}",
            safe_point=safe_point,
            failure_probability=failure_probability,
            relative_power=relative_power,
            stress_workload=worst_kernel,
            observed_crash_voltage_v=worst_crash_v,
            guard_margin=self.targets.guard_margin_v,
        )

    # -- memory characterisation ----------------------------------------------------

    def _characterize_domain(self, domain_name: str) -> ComponentMargin:
        """Find the safe refresh interval of one relaxable domain."""
        domain = self.platform.memory.domain(domain_name)
        if domain.reliable:
            raise StressTestError(
                f"domain {domain_name!r} is the reliable domain; it stays "
                "at nominal refresh by design"
            )
        retention = max(
            (d.retention for d in domain.dimms),
            key=lambda r: r.ber(NOMINAL_REFRESH_INTERVAL_S * 100,
                                self.targets.temperature_c),
        )
        raw_interval = retention.max_interval_for_ber(
            self.targets.refresh_ber_target, self.targets.temperature_c
        )
        safe_interval = max(
            NOMINAL_REFRESH_INTERVAL_S,
            raw_interval * self.targets.refresh_derating,
        )

        # Validation pattern test at the candidate interval.
        original = domain.refresh_interval_s
        try:
            domain.set_refresh_interval(safe_interval)
            coverage = RANDOM.cumulative_coverage(self.targets.pattern_passes)
            errors = domain.sample_pattern_errors(
                coverage=coverage, temperature_c=self.targets.temperature_c
            )
            while errors > 0 and safe_interval > NOMINAL_REFRESH_INTERVAL_S:
                safe_interval = max(
                    NOMINAL_REFRESH_INTERVAL_S, safe_interval / 2.0
                )
                domain.set_refresh_interval(safe_interval)
                errors = domain.sample_pattern_errors(
                    coverage=coverage,
                    temperature_c=self.targets.temperature_c,
                )
            ber = domain.ber(self.targets.temperature_c)
        finally:
            domain.set_refresh_interval(original)

        nominal_power = sum(
            d.total_power_w(NOMINAL_REFRESH_INTERVAL_S) for d in domain.dimms
        )
        relaxed_power = sum(
            d.total_power_w(safe_interval) for d in domain.dimms
        )
        chip_nominal = self.platform.chip.spec.nominal
        return ComponentMargin(
            component=domain_name,
            safe_point=chip_nominal.with_refresh(safe_interval),
            failure_probability=ber,
            relative_power=relaxed_power / nominal_power,
            stress_workload=RANDOM.name,
            observed_ber=ber,
            guard_margin=1.0 - self.targets.refresh_derating,
        )

    # -- the full cycle ---------------------------------------------------------------

    def characterize(self, trigger: str = "on-demand") -> MarginVector:
        """One full offline stress-test cycle over cores and domains.

        The machine is fenced (``offline``) for the duration; the margin
        vector is appended to history, folded into the EOP table, and
        published as a :class:`MarginUpdateEvent` when a bus is attached.
        """
        if self._offline:
            raise StressTestError("a stress-test cycle is already running")
        self._offline = True
        start = self.clock.now
        try:
            margins: List[ComponentMargin] = []
            for core in self.platform.chip.cores:
                margins.append(self._characterize_core(core.core_id))
            for domain in self.platform.memory.domains():
                if not domain.reliable:
                    margins.append(self._characterize_domain(domain.name))
        finally:
            self._offline = False

        vector = MarginVector(
            timestamp=self.clock.now,
            node=self.platform.name,
            margins=tuple(margins),
            stress_duration_s=self.clock.now - start,
            trigger=trigger,
        )
        self.history.append(vector)
        self.metrics.inc("daemons.stresslog.cycles")
        self.metrics.inc(f"daemons.stresslog.trigger.{trigger}")
        self.metrics.set_gauge("daemons.stresslog.characterized_components",
                               float(len(margins)))
        for margin in margins:
            self.eop_table.add(margin.component, CharacterizedPoint(
                point=margin.safe_point,
                failure_probability=margin.failure_probability,
                relative_power=margin.relative_power,
                stress_workload=margin.stress_workload,
            ))
        if self.bus is not None:
            for margin in margins:
                self.bus.publish(MarginUpdateEvent(
                    timestamp=self.clock.now, source="stresslog",
                    component=margin.component,
                    detail=margin.safe_point.describe(),
                ))
        return vector
