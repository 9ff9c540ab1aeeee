"""Information-vector schemas exchanged between daemons and system software.

Section 3.C: the HealthLog "records runtime system metrics in the form of
an information vector, stored in a system logfile", combining error
reports with "system configuration values, sensor readings and performance
counters".  Section 3.D: the StressLog wraps its findings "into a vector
to be passed to the higher system layers".

Two vector types exist: the HealthLog's :class:`InfoVector` (runtime
status) and the StressLog's :class:`MarginVector` (new safe V-F-R values
per component).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..core.eop import OperatingPoint
from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class InfoVector:
    """One HealthLog information vector.

    Field groups map to the paper's enumeration: errors (correctable /
    uncorrectable / crashes since the last vector), configuration values
    (per-component operating points), sensor readings and performance
    counters.
    """

    timestamp: float
    node: str
    #: Per-component V-F-R configuration strings, e.g. {"core0": "..."}.
    configuration: Mapping[str, str]
    #: Error counts since the previous vector.
    correctable_errors: int
    uncorrectable_errors: int
    crashes: int
    #: Sensor readings, e.g. {"temperature_c": 54.2, "power_w": 38.1}.
    sensors: Mapping[str, float]
    #: Performance counters, e.g. {"ipc": 1.4, "cache_miss_rate": 0.02}.
    counters: Mapping[str, float]
    #: Components currently above the error threshold.
    suspect_components: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ComponentMargin:
    """StressLog verdict for one component.

    For cores ``safe_point`` carries the characterised V-F; for memory
    domains the refresh interval.  ``observed_crash_voltage_v`` (cores) or
    ``observed_ber`` (domains) records the evidence; ``guard_margin``
    states the safety buffer StressLog kept above the observed limit.
    """

    component: str
    safe_point: OperatingPoint
    failure_probability: float
    relative_power: float
    stress_workload: str
    observed_crash_voltage_v: Optional[float] = None
    observed_ber: Optional[float] = None
    guard_margin: float = 0.0


@dataclass(frozen=True)
class MarginVector:
    """The StressLog output vector: new safe V-F-R margins per component."""

    timestamp: float
    node: str
    margins: Tuple[ComponentMargin, ...]
    stress_duration_s: float = 0.0
    trigger: str = "periodic"

    def __post_init__(self) -> None:
        names = [m.component for m in self.margins]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate components in margin vector")

    def component_names(self) -> List[str]:
        """Components covered by this margin vector."""
        return [m.component for m in self.margins]

    def mean_power_saving(self) -> float:
        """Mean fractional power saving over all characterised components."""
        if not self.margins:
            return 0.0
        savings = [max(0.0, 1.0 - m.relative_power) for m in self.margins]
        return sum(savings) / len(savings)
