"""Layered monitoring interfaces (paper innovation iv).

UniServer promises to "enable monitoring of the hardware status by all
layers of the system software by extending existing interfaces".  On a
real platform this is the EDAC/RAS/hwmon surface; here it is a typed
facade over one node's daemons with **scope-based access control**:

* ``HOST`` (hypervisor, daemons) — everything, raw;
* ``CLOUD`` (the resource manager) — node-level aggregates, no
  per-component raw sensors;
* ``GUEST`` (VMs) — coarse, quantised, delayed telemetry only, which is
  itself one of the security countermeasures (sensor side channels).

Every layer talks to the same node object through the scope it owns, so
the information-vector flow of Figure 2 has a single audited surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..daemons.healthlog import HealthLog
from ..daemons.infovector import InfoVector
from ..hardware.platform import ServerPlatform
from .exceptions import UniServerError


class Scope(Enum):
    """Who is asking."""

    HOST = "host"
    CLOUD = "cloud"
    GUEST = "guest"


class AccessDenied(UniServerError):
    """The requested view is not exposed to the caller's scope."""


@dataclass(frozen=True)
class NodeStatus:
    """Cloud-scope aggregate view of a node."""

    node: str
    correctable_errors: int
    uncorrectable_errors: int
    crashes: int
    mean_voltage_fraction: float
    worst_refresh_relaxation: float
    suspect_components: Tuple[str, ...]


@dataclass(frozen=True)
class GuestTelemetry:
    """Guest-scope telemetry: quantised and sanitised.

    Power is bucketed and temperature rounded, per the sensor-side-
    channel countermeasure; no per-component or per-tenant detail leaks.
    """

    node: str
    power_bucket_w: float
    temperature_band_c: float
    healthy: bool


class MonitoringInterface:
    """The node's single monitoring surface for all software layers."""

    #: Guest power readings snap to this bucket size (watts).
    GUEST_POWER_BUCKET_W = 10.0
    #: Guest temperature readings snap to this band (degrees C).
    GUEST_TEMPERATURE_BAND_C = 5.0
    #: EMA smoothing factor of the guest power view ("delayed" telemetry:
    #: fast co-tenant activity swings are smeared out before bucketing —
    #: the anti-side-channel half of the countermeasure).
    GUEST_POWER_EMA_ALPHA = 0.05

    def __init__(self, platform: ServerPlatform,
                 healthlog: HealthLog) -> None:
        self.platform = platform
        self.healthlog = healthlog
        self._audit: List[Tuple[float, Scope, str]] = []
        self._guest_power_ema: Optional[float] = None

    # -- audit ------------------------------------------------------------

    def _record(self, scope: Scope, what: str) -> None:
        self._audit.append((self.healthlog.clock.now, scope, what))

    @property
    def audit_log(self) -> List[Tuple[float, Scope, str]]:
        """(time, scope, query) rows of every access."""
        return list(self._audit)

    # -- host scope ----------------------------------------------------------

    def info_vector(self, scope: Scope) -> InfoVector:
        """The full HealthLog information vector (host only)."""
        if scope is not Scope.HOST:
            raise AccessDenied(
                f"info vectors are host-scope; {scope.value} denied"
            )
        self._record(scope, "info_vector")
        return self.healthlog.snapshot()

    def raw_sensor(self, scope: Scope, core_id: int) -> Dict[str, float]:
        """Raw per-core sensor readout (host only)."""
        if scope is not Scope.HOST:
            raise AccessDenied(
                f"raw sensors are host-scope; {scope.value} denied"
            )
        self._record(scope, f"raw_sensor core{core_id}")
        point = self.platform.core_point(core_id)
        reading = self.platform.chip.read_sensors(
            self.healthlog.clock.now, point)
        return {
            "voltage_v": reading.voltage_v,
            "temperature_c": reading.temperature_c,
            "power_w": reading.power_w,
            "frequency_hz": reading.frequency_hz,
        }

    # -- cloud scope ----------------------------------------------------------

    def node_status(self, scope: Scope) -> NodeStatus:
        """Node-level aggregates (host or cloud)."""
        if scope is Scope.GUEST:
            raise AccessDenied("node status is not exposed to guests")
        self._record(scope, "node_status")
        snapshot = self.healthlog.snapshot()
        nominal = self.platform.chip.spec.nominal
        fractions = [
            self.platform.core_point(c.core_id).voltage_v
            / nominal.voltage_v
            for c in self.platform.chip.cores
        ]
        relaxations = [
            d.refresh_interval_s / 0.064
            for d in self.platform.memory.domains()
        ]
        return NodeStatus(
            node=self.platform.name,
            correctable_errors=snapshot.correctable_errors,
            uncorrectable_errors=snapshot.uncorrectable_errors,
            crashes=snapshot.crashes,
            mean_voltage_fraction=sum(fractions) / len(fractions),
            worst_refresh_relaxation=max(relaxations),
            suspect_components=snapshot.suspect_components,
        )

    # -- guest scope -------------------------------------------------------------

    def guest_telemetry(self, scope: Scope,
                        activity: float = 0.5) -> GuestTelemetry:
        """Quantised, delayed node telemetry (any scope may call).

        ``activity`` is the node's current aggregate load (the hypervisor
        supplies it on real calls; the default models a half-loaded
        node).  The power view is EMA-smoothed before bucketing, so fast
        co-tenant activity swings — the side-channel signal — are smeared
        below the bucket resolution.
        """
        self._record(scope, "guest_telemetry")
        power = self.platform.total_power_w(activity=activity)
        alpha = self.GUEST_POWER_EMA_ALPHA
        if self._guest_power_ema is None:
            self._guest_power_ema = power
        else:
            self._guest_power_ema += alpha * (power - self._guest_power_ema)
        bucket = self.GUEST_POWER_BUCKET_W
        band = self.GUEST_TEMPERATURE_BAND_C
        temperature = self.platform.chip.thermal.temperature_c
        return GuestTelemetry(
            node=self.platform.name,
            power_bucket_w=math.floor(
                self._guest_power_ema / bucket) * bucket,
            temperature_band_c=math.floor(temperature / band) * band,
            healthy=self.platform.faults.count() == 0,
        )

    # -- capability discovery ------------------------------------------------------

    def capabilities(self, scope: Scope) -> List[str]:
        """Which queries the caller's scope may issue."""
        if scope is Scope.HOST:
            return ["info_vector", "raw_sensor", "node_status",
                    "guest_telemetry"]
        if scope is Scope.CLOUD:
            return ["node_status", "guest_telemetry"]
        return ["guest_telemetry"]
