"""Workload abstraction and stress profiles.

A workload, as far as the hardware models are concerned, is a *stress
profile*: how much voltage noise it induces, how active it keeps the
pipeline, how hard it hits the caches and DRAM.  The same profile drives
four consumers:

* the CPU crash model (droop intensity moves the effective crash voltage),
* the cache/DRAM error models (activity scales exposure),
* the power model (activity factor), and
* the hypervisor/VM layer (cpu/memory/io demand over time).

Concrete suites live in :mod:`repro.workloads.spec` (SPEC CPU2006-like),
:mod:`repro.workloads.viruses` (hand-coded stress kernels),
:mod:`repro.workloads.genetic` (GA-evolved viruses) and
:mod:`repro.workloads.ldbc` (graph database workload).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class StressProfile:
    """How hard a workload stresses each hardware subsystem.

    All intensities are fractions of the worst the platform can
    experience; a hand-tuned power virus approaches 1.0 on its target
    subsystem, while an idle system sits near 0.

    Parameters
    ----------
    droop_intensity:
        Voltage-noise severity (di/dt events); scales the supply droop the
        crash model applies.
    core_sensitivity:
        How strongly the workload exposes core-to-core Vmin differences
        (0 = crash voltage identical on every core, 1 = full exposure).
        Control-heavy codes with shallow pipelines expose less variation
        than wide floating-point codes.
    activity_factor:
        Pipeline switching activity, used by the dynamic power model.
    cache_pressure:
        Cache utilisation/thrash level; scales SECDED error exposure.
    dram_pressure:
        DRAM bandwidth demand; scales retention-error exposure per access.
    """

    droop_intensity: float
    core_sensitivity: float
    activity_factor: float
    cache_pressure: float
    dram_pressure: float

    def __post_init__(self) -> None:
        for name in ("droop_intensity", "core_sensitivity", "activity_factor",
                     "cache_pressure", "dram_pressure"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    def overall_stress(self) -> float:
        """A scalar summary used to rank workloads by severity."""
        return (0.4 * self.droop_intensity + 0.3 * self.activity_factor
                + 0.2 * self.cache_pressure + 0.1 * self.dram_pressure)

    def blend(self, other: "StressProfile", weight: float) -> "StressProfile":
        """Linear blend with another profile (``weight`` toward ``other``)."""
        if not 0.0 <= weight <= 1.0:
            raise ConfigurationError("weight must be in [0, 1]")

        def mix(a: float, b: float) -> float:
            """Linear interpolation between the two values."""
            return a * (1 - weight) + b * weight

        return StressProfile(
            droop_intensity=mix(self.droop_intensity, other.droop_intensity),
            core_sensitivity=mix(self.core_sensitivity, other.core_sensitivity),
            activity_factor=mix(self.activity_factor, other.activity_factor),
            cache_pressure=mix(self.cache_pressure, other.cache_pressure),
            dram_pressure=mix(self.dram_pressure, other.dram_pressure),
        )


@dataclass(frozen=True)
class ResourceDemand:
    """Average resource demand of a workload when run inside a VM."""

    cpu_cores: float = 1.0
    memory_mb: float = 512.0
    disk_iops: float = 0.0
    network_mbps: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cpu_cores", "memory_mb", "disk_iops", "network_mbps"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Workload:
    """A named workload with its stress profile and resource demand.

    ``duration_cycles`` is the nominal amount of work one run represents,
    used by the power/energy models and the VM scheduler.
    """

    name: str
    profile: StressProfile
    demand: ResourceDemand = ResourceDemand()
    duration_cycles: float = 1e10
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload needs a name")
        if self.duration_cycles <= 0:
            raise ConfigurationError("duration_cycles must be positive")

    def scaled(self, factor: float) -> "Workload":
        """The same workload with ``factor``× the work (e.g. bigger input)."""
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return replace(self, duration_cycles=self.duration_cycles * factor)

    def profile_at(self, progress: float) -> StressProfile:
        """The stress profile at a completed-fraction of the run.

        Stationary workloads return their single profile; phased
        workloads (:mod:`repro.workloads.phases`) override this with the
        active phase's profile.
        """
        if not 0.0 <= progress <= 1.0:
            raise ConfigurationError("progress must be in [0, 1]")
        return self.profile


class WorkloadSuite:
    """An ordered, name-addressable collection of workloads."""

    def __init__(self, name: str, workloads: Iterable[Workload]) -> None:
        self.name = name
        self._workloads: Dict[str, Workload] = {}
        for w in workloads:
            if w.name in self._workloads:
                raise ConfigurationError(f"duplicate workload name {w.name!r}")
            self._workloads[w.name] = w
        if not self._workloads:
            raise ConfigurationError("a suite needs at least one workload")

    def __len__(self) -> int:
        return len(self._workloads)

    def __iter__(self):
        return iter(self._workloads.values())

    def __contains__(self, name: str) -> bool:
        return name in self._workloads

    def names(self) -> List[str]:
        """Workload names in suite order."""
        return list(self._workloads)

    def get(self, name: str) -> Workload:
        """Look up by identifier; raises KeyError when absent."""
        if name not in self._workloads:
            raise KeyError(
                f"workload {name!r} not in suite {self.name!r}; "
                f"available: {', '.join(self._workloads)}"
            )
        return self._workloads[name]

    def most_stressful(self) -> Workload:
        """The workload with the highest overall stress score."""
        return max(self._workloads.values(),
                   key=lambda w: w.profile.overall_stress())


#: A near-idle profile (background OS noise).
IDLE_PROFILE = StressProfile(
    droop_intensity=0.05, core_sensitivity=0.1, activity_factor=0.05,
    cache_pressure=0.05, dram_pressure=0.02,
)

IDLE = Workload(
    name="idle", profile=IDLE_PROFILE, duration_cycles=1e9,
    description="Background OS noise with no user workload.",
)
