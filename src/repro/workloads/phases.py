"""Phased workloads: stress profiles that change during execution.

Real programs are not stationary — SPEC-class codes alternate compute,
memory and I/O phases, and the paper's EOPs "may dynamically change
depending on the workload" (Section 4.A).  A phased workload carries a
sequence of (profile, duration-fraction) phases; the hypervisor samples
``profile_at(progress)`` each tick, so a guest that enters a droop-heavy
phase genuinely becomes riskier mid-run — exactly the dynamism the
Predictor and HealthLog exist to track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from .base import ResourceDemand, StressProfile, Workload


@dataclass(frozen=True)
class Phase:
    """One execution phase: a profile active for a fraction of the run."""

    profile: StressProfile
    fraction: float
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError("phase fraction must be in (0, 1]")


@dataclass(frozen=True)
class PhasedWorkload(Workload):
    """A workload whose stress profile varies over its execution.

    ``profile`` (the base-class field) holds the *duration-weighted
    average* profile, so every consumer that treats the workload as
    stationary (power estimates, scheduling heuristics) sees a sensible
    summary; phase-aware consumers call :meth:`profile_at`.
    """

    phases: Tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.phases:
            raise ConfigurationError("a phased workload needs phases")
        total = sum(p.fraction for p in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"phase fractions must sum to 1, got {total}"
            )

    def profile_at(self, progress: float) -> StressProfile:
        """The active profile at a completed-fraction in [0, 1]."""
        if not 0.0 <= progress <= 1.0:
            raise ConfigurationError("progress must be in [0, 1]")
        cumulative = 0.0
        for phase in self.phases:
            cumulative += phase.fraction
            if progress < cumulative or cumulative >= 1.0 - 1e-12:
                return phase.profile
        return self.phases[-1].profile

    def phase_at(self, progress: float) -> Phase:
        """The active phase object (for reporting)."""
        if not 0.0 <= progress <= 1.0:
            raise ConfigurationError("progress must be in [0, 1]")
        cumulative = 0.0
        for phase in self.phases:
            cumulative += phase.fraction
            if progress < cumulative:
                return phase
        return self.phases[-1]

    def worst_phase(self) -> Phase:
        """The most stressful phase — what a safe margin must survive."""
        return max(self.phases, key=lambda p: p.profile.overall_stress())


def _weighted_mean_profile(phases: Sequence[Phase]) -> StressProfile:
    def mean(attribute: str) -> float:
        """Current EWMA mean."""
        return sum(getattr(p.profile, attribute) * p.fraction
                   for p in phases)

    return StressProfile(
        droop_intensity=mean("droop_intensity"),
        core_sensitivity=mean("core_sensitivity"),
        activity_factor=mean("activity_factor"),
        cache_pressure=mean("cache_pressure"),
        dram_pressure=mean("dram_pressure"),
    )


def make_phased(name: str, phases: Sequence[Phase],
                duration_cycles: float = 2e10,
                demand: Optional[ResourceDemand] = None,
                description: str = "") -> PhasedWorkload:
    """Build a phased workload; the summary profile is duration-weighted."""
    if not phases:
        raise ConfigurationError("need at least one phase")
    return PhasedWorkload(
        name=name,
        profile=_weighted_mean_profile(phases),
        demand=demand or ResourceDemand(),
        duration_cycles=duration_cycles,
        description=description,
        phases=tuple(phases),
    )


def compress_style_workload(name: str = "phased_compress",
                            duration_cycles: float = 2e10,
                            ) -> PhasedWorkload:
    """A bzip2-like read/compress/write phase structure."""
    read = StressProfile(0.10, 0.45, 0.30, 0.60, 0.85)
    compress = StressProfile(0.55, 0.70, 0.85, 0.65, 0.30)
    write = StressProfile(0.15, 0.45, 0.35, 0.45, 0.80)
    return make_phased(
        name,
        [Phase(read, 0.2, "read"), Phase(compress, 0.6, "compress"),
         Phase(write, 0.2, "write")],
        duration_cycles=duration_cycles,
        description="Read / compress / write phase alternation.",
    )


def burst_style_workload(name: str = "phased_burst",
                         duration_cycles: float = 2e10,
                         quiet_fraction: float = 0.7,
                         cycles: int = 1) -> PhasedWorkload:
    """A mostly-quiet service with droop-heavy burst phases.

    The nasty case for static per-workload margins: the *average*
    profile looks benign, the burst phases do not.  ``cycles`` repeats
    the quiet/burst alternation, so bursts recur throughout the run
    rather than arriving once at the end.
    """
    if not 0.0 < quiet_fraction < 1.0:
        raise ConfigurationError("quiet_fraction must be in (0, 1)")
    if cycles < 1:
        raise ConfigurationError("cycles must be >= 1")
    quiet = StressProfile(0.08, 0.45, 0.20, 0.30, 0.25)
    burst = StressProfile(0.78, 0.88, 0.90, 0.55, 0.40)
    phases = []
    for i in range(cycles):
        phases.append(Phase(quiet, quiet_fraction / cycles,
                            f"quiet{i}"))
        phases.append(Phase(burst, (1.0 - quiet_fraction) / cycles,
                            f"burst{i}"))
    return make_phased(
        name, phases,
        duration_cycles=duration_cycles,
        description="Quiet service with periodic compute bursts.",
    )
