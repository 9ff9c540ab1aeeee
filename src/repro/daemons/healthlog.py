"""HealthLog daemon: runtime health monitoring and error logging.

Paper Section 3.C.  The HealthLog monitor provides two service classes:

* **Event-driven**: it subscribes to hardware error events (correctable,
  uncorrectable, crashes) and sensor anomalies on the node's event bus,
  recording every error in its fault ledger.  When the error count of
  a component rises above a threshold within a sliding window, it raises
  an :class:`~repro.core.events.AnomalyEvent` — the trigger that spawns an
  on-demand StressLog cycle (Section 3: "If the number of errors rises
  above a certain threshold a new stress-test cycle may be triggered").

* **On-demand**: higher layers (Predictor, Hypervisor, OpenStack) request
  the current :class:`~repro.daemons.infovector.InfoVector` snapshot.

The daemon also samples sensors periodically on the simulation clock,
mirroring the real daemon's polling loop; the samples due in one clock
advance are read as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.clock import SimClock
from ..core.events import (
    AnomalyEvent,
    CorrectableErrorEvent,
    CrashEvent,
    EventBus,
    SensorEvent,
    UncorrectableErrorEvent,
)
from ..core.exceptions import ConfigurationError
from ..core.runtime import MetricsRegistry, NodeRuntime
from ..hardware.faults import FaultClass, FaultLedger, FaultOrigin, FaultRecord
from ..hardware.platform import ServerPlatform
from .infovector import InfoVector

#: Ledger events the logfile view renders, newest last: enough for a
#: log-pattern predictor's training and scan windows.
LOGFILE_LINES = 256


@dataclass(frozen=True)
class HealthLogConfig:
    """Tunables of the HealthLog daemon."""

    #: Sensor sampling period (seconds of simulation time).
    sampling_period_s: float = 1.0
    #: Error-count threshold per component within the window that raises
    #: an anomaly (and thus a StressLog re-characterisation request).
    error_threshold: int = 10
    #: Sliding window for the threshold rule (seconds).
    error_window_s: float = 300.0

    def __post_init__(self) -> None:
        if self.sampling_period_s <= 0:
            raise ConfigurationError("sampling period must be positive")
        if self.error_threshold < 1:
            raise ConfigurationError("error threshold must be >= 1")
        if self.error_window_s <= 0:
            raise ConfigurationError("error window must be positive")


class HealthLog:
    """The HealthLog monitor for one platform.

    Preferred construction is ``HealthLog(platform, runtime=runtime)``,
    taking the bus, clock and metrics registry from the shared
    :class:`~repro.core.runtime.NodeRuntime`.  The legacy
    ``(platform, bus, clock)`` form is kept for standalone use.
    """

    def __init__(self, platform: ServerPlatform,
                 bus: Optional[EventBus] = None,
                 clock: Optional[SimClock] = None,
                 config: Optional[HealthLogConfig] = None,
                 runtime: Optional[NodeRuntime] = None) -> None:
        if runtime is not None:
            bus = bus or runtime.bus
            clock = clock or runtime.clock
        if bus is None or clock is None:
            raise ConfigurationError(
                "HealthLog needs a runtime or an explicit bus and clock")
        self.platform = platform
        self.bus = bus
        self.clock = clock
        self.metrics = (runtime.metrics if runtime is not None
                        else MetricsRegistry())
        self.config = config or HealthLogConfig()
        self.ledger = FaultLedger()
        self._last_snapshot_counts = {"ce": 0, "ue": 0, "crash": 0}
        self._sensor_cache: Dict[str, float] = {}
        self._counter_cache: Dict[str, float] = {}
        self._flagged: set = set()
        self._started = False
        #: Chaos/fault-injection switch: while set, the polling loop is
        #: wedged and info vectors stop refreshing (they age instead).
        self.stalled = False
        self._last_refresh_s = clock.now

        bus.subscribe(CorrectableErrorEvent, self._on_correctable)
        bus.subscribe(UncorrectableErrorEvent, self._on_uncorrectable)
        bus.subscribe(CrashEvent, self._on_crash)
        bus.subscribe(SensorEvent, self._on_sensor)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sensor sampling on the simulation clock."""
        if self._started:
            return
        self._started = True
        self.clock.schedule_every(self.config.sampling_period_s, self._sample)

    def _sample(self, instants: Tuple[float, ...]) -> None:
        """The periodic sampling ticks due in one clock advance: read chip
        sensors once per instant into the cache and power histogram.

        Nothing else runs inside an advance, so every instant reads the
        same core point and true chip state; only the noise differs.
        """
        n = len(instants)
        if self.stalled:
            self.metrics.inc("resilience.healthlog.stalled_ticks", n)
            return
        reads = self.platform.chip.read_sensors_many(
            n, self.platform.core_point(0))
        power = self.metrics.histogram("daemons.healthlog.power_w")
        for _, _, power_w in reads:
            power.observe(power_w)
        voltage_v, temperature_c, power_w = reads[-1]
        self._last_refresh_s = instants[-1]
        self._sensor_cache = {
            "voltage_v": voltage_v,
            "temperature_c": temperature_c,
            "power_w": power_w,
        }
        self.metrics.inc("daemons.healthlog.samples", n)
        self.metrics.set_gauge("daemons.healthlog.temperature_c",
                               temperature_c)

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable daemon state.

        ``_started`` is not saved: the periodic sampling callback lives in
        a clock series, which a restore target re-creates by calling
        :meth:`start` during rebuild.
        """
        return {
            "ledger": self.ledger.state_dict(),
            "last_snapshot_counts": dict(self._last_snapshot_counts),
            "sensor_cache": dict(self._sensor_cache),
            "counter_cache": dict(self._counter_cache),
            "flagged": sorted(self._flagged),
            "stalled": self.stalled,
            "last_refresh_s": self._last_refresh_s,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the state saved by :meth:`state_dict`.

        An older state's ``"logfile"`` copy of the ledger is not read.
        """
        self.ledger.load_state_dict(state["ledger"])  # type: ignore[arg-type]
        self._last_snapshot_counts = {
            str(k): int(v) for k, v
            in state["last_snapshot_counts"].items()}  # type: ignore[union-attr]
        self._sensor_cache = {str(k): float(v) for k, v
                              in state["sensor_cache"].items()}  # type: ignore[union-attr]
        self._counter_cache = {str(k): float(v) for k, v
                               in state["counter_cache"].items()}  # type: ignore[union-attr]
        self._flagged = {str(c) for c in state["flagged"]}  # type: ignore[union-attr]
        self.stalled = bool(state["stalled"])
        self._last_refresh_s = float(state["last_refresh_s"])  # type: ignore[arg-type]

    # -- event-driven services ---------------------------------------------------

    def _record(self, fault: FaultRecord) -> None:
        self.ledger.record(fault)
        self.metrics.inc("daemons.healthlog.events")
        self.metrics.inc(
            f"daemons.healthlog.{fault.fault_class.value}")
        self._check_threshold(fault.component, fault.timestamp)

    def _on_correctable(self, event: CorrectableErrorEvent) -> None:
        self._record(FaultRecord(
            timestamp=event.timestamp, fault_class=FaultClass.CORRECTABLE,
            origin=FaultOrigin.UNKNOWN, component=event.component,
            detail=event.detail,
        ))

    def _on_uncorrectable(self, event: UncorrectableErrorEvent) -> None:
        self._record(FaultRecord(
            timestamp=event.timestamp, fault_class=FaultClass.UNCORRECTABLE,
            origin=FaultOrigin.UNKNOWN, component=event.component,
            detail=event.detail,
        ))

    def _on_crash(self, event: CrashEvent) -> None:
        self._record(FaultRecord(
            timestamp=event.timestamp, fault_class=FaultClass.CRASH,
            origin=FaultOrigin.UNKNOWN, component=event.component,
            operating_point=event.operating_point,
        ))

    def _on_sensor(self, event: SensorEvent) -> None:
        self._sensor_cache[event.sensor] = event.value

    def _check_threshold(self, component: str, timestamp: float) -> None:
        """Raise an anomaly when a component exceeds the error budget."""
        since = timestamp - self.config.error_window_s
        count = self.ledger.count(component=component, since=since)
        if count >= self.config.error_threshold and component not in self._flagged:
            self._flagged.add(component)
            self.metrics.inc("daemons.healthlog.anomalies")
            self.bus.publish(AnomalyEvent(
                timestamp=timestamp, source="healthlog",
                description=(
                    f"component {component} logged {count} errors within "
                    f"{self.config.error_window_s:.0f}s; stress re-test advised"
                ),
                severity="critical",
                component=component,
            ))

    def clear_flag(self, component: str) -> None:
        """Re-arm the anomaly trigger (after a StressLog cycle handled it)."""
        self._flagged.discard(component)

    def update_counters(self, counters: Dict[str, float]) -> None:
        """Fold fresh performance counters into the next snapshot."""
        self._counter_cache.update(counters)

    # -- on-demand services --------------------------------------------------------

    def info_vector_age_s(self) -> float:
        """Age of the newest info-vector refresh (grows while stalled)."""
        return max(0.0, self.clock.now - self._last_refresh_s)

    def snapshot(self) -> InfoVector:
        """On-demand service: the current information vector.

        Error counts are deltas since the previous snapshot, matching a
        logfile reader consuming incremental vectors.
        """
        by_class = self.ledger.counts_by_class()
        totals = {
            "ce": by_class.get(FaultClass.CORRECTABLE, 0),
            "ue": by_class.get(FaultClass.UNCORRECTABLE, 0)
            + by_class.get(FaultClass.SILENT_DATA_CORRUPTION, 0),
            "crash": by_class.get(FaultClass.CRASH, 0),
        }
        delta = {k: totals[k] - self._last_snapshot_counts[k] for k in totals}
        self._last_snapshot_counts = totals

        configuration = {
            f"core{core.core_id}": self.platform.core_point(
                core.core_id).describe()
            for core in self.platform.chip.cores
        }
        for domain in self.platform.memory.domains():
            configuration[domain.name] = (
                f"refresh {domain.refresh_interval_s * 1e3:.0f} ms"
            )

        suspects = tuple(self.ledger.components_above_threshold(
            self.config.error_threshold,
            since=self.clock.now - self.config.error_window_s,
        ))
        return InfoVector(
            timestamp=self.clock.now,
            node=self.platform.name,
            configuration=configuration,
            correctable_errors=delta["ce"],
            uncorrectable_errors=delta["ue"],
            crashes=delta["crash"],
            sensors=dict(self._sensor_cache),
            counters=dict(self._counter_cache),
            suspect_components=suspects,
        )

    # -- logfile ---------------------------------------------------------------

    @property
    def logfile(self) -> List[str]:
        """The newest :data:`LOGFILE_LINES` ledger events as logfile
        lines, most recent last."""
        return [f"t={r.timestamp:.3f} {r.fault_class.value} "
                f"{r.component} {r.detail}"
                for r in self.ledger.records[-LOGFILE_LINES:]]
