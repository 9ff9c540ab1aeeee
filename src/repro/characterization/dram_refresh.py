"""DRAM refresh-relaxation characterisation campaign (paper Section 6.B).

Mirrors the paper's instrumented framework: main memory split into
per-channel refresh domains; critical kernel code/stack pinned to a
reliable domain at nominal 64 ms refresh; the remaining domains swept
through relaxed refresh intervals under random test patterns while a
full-fledged (simulated) Linux keeps running.

Outputs reproduce the Section 6.B findings:

* errors observed per interval (none up to 1.5 s at server-room temp);
* cumulative BER per interval (≈1e-9 at 5 s = 78× nominal), compared
  against commercial DRAM BER targets and the SECDED 1e-6 capability;
* refresh-power savings at each relaxation, and the refresh share of
  total memory power as device density scales 2 Gb → 32 Gb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S
from ..core.exceptions import ConfigurationError
from ..hardware.dram import DramSystem
from ..hardware.ecc import SECDED_BER_CAPABILITY
from ..hardware.power import DramPowerModel
from ..workloads.patterns import RANDOM, TestPattern

#: BER targeted by commercial DRAM parts (paper: "within the BERs
#: targeted by commercial DRAMs", order 1e-9).
COMMERCIAL_DRAM_BER_TARGET = 1e-9

#: The paper's headline relaxation points: 1.5 s (error-free) and 5 s
#: (78× nominal, BER ≈ 1e-9).
PAPER_RELAXED_INTERVALS_S = (0.064, 0.128, 0.256, 0.512, 1.0, 1.5, 3.0, 5.0)


@dataclass(frozen=True)
class RefreshStepResult:
    """Observation at one refresh interval."""

    refresh_interval_s: float
    relaxation_factor: float
    observed_errors: int
    cumulative_ber: float
    refresh_power_w: float
    total_power_w: float

    @property
    def error_free(self) -> bool:
        """Whether this step observed zero errors."""
        return self.observed_errors == 0

    @property
    def within_secded_capability(self) -> bool:
        """BER at/below the SECDED 1e-6 capability."""
        return self.cumulative_ber <= SECDED_BER_CAPABILITY


@dataclass
class RefreshCampaignResult:
    """Full sweep results plus derived headline numbers."""

    domain_name: str
    capacity_gb: float
    temperature_c: float
    pattern_name: str
    steps: List[RefreshStepResult] = field(default_factory=list)

    def max_error_free_interval_s(self) -> float:
        """Longest tested interval with zero observed errors."""
        error_free = [s.refresh_interval_s for s in self.steps if s.error_free]
        if not error_free:
            raise ConfigurationError("no error-free interval observed")
        return max(error_free)

    def step_at(self, interval_s: float) -> RefreshStepResult:
        """The sweep step at an exact refresh interval."""
        for step in self.steps:
            if abs(step.refresh_interval_s - interval_s) < 1e-9:
                return step
        raise KeyError(f"no step at interval {interval_s} s")

    def refresh_power_saving_fraction(self, interval_s: float) -> float:
        """Refresh-power reduction at an interval relative to nominal."""
        nominal = self.step_at(NOMINAL_REFRESH_INTERVAL_S).refresh_power_w
        relaxed = self.step_at(interval_s).refresh_power_w
        if nominal == 0:
            return 0.0
        return 1.0 - relaxed / nominal


class RefreshRelaxationCampaign:
    """Sweeps a (non-reliable) memory domain through refresh intervals."""

    def __init__(self, memory: DramSystem, domain_name: str,
                 pattern: TestPattern = RANDOM, passes: int = 4,
                 temperature_c: float = 45.0,
                 intervals_s: Sequence[float] = PAPER_RELAXED_INTERVALS_S,
                 ) -> None:
        domain = memory.domain(domain_name)
        if domain.reliable:
            raise ConfigurationError(
                "characterise a relaxable domain, not the reliable one"
            )
        if passes < 1:
            raise ConfigurationError("passes must be >= 1")
        self.memory = memory
        self.domain = domain
        self.pattern = pattern
        self.passes = passes
        self.temperature_c = temperature_c
        self.intervals_s = sorted(intervals_s)

    def run(self) -> RefreshCampaignResult:
        """Sweep all intervals and restore nominal refresh afterwards."""
        result = RefreshCampaignResult(
            domain_name=self.domain.name,
            capacity_gb=self.domain.capacity_gb,
            temperature_c=self.temperature_c,
            pattern_name=self.pattern.name,
        )
        original_interval = self.domain.refresh_interval_s
        try:
            for interval in self.intervals_s:
                self.domain.set_refresh_interval(interval)
                coverage = self.pattern.cumulative_coverage(self.passes)
                errors = self.domain.sample_pattern_errors(
                    coverage=coverage, passes=1,
                    temperature_c=self.temperature_c,
                )
                result.steps.append(RefreshStepResult(
                    refresh_interval_s=interval,
                    relaxation_factor=interval / NOMINAL_REFRESH_INTERVAL_S,
                    observed_errors=errors,
                    cumulative_ber=self.domain.ber(self.temperature_c),
                    refresh_power_w=self.domain.refresh_power_w(),
                    total_power_w=self.domain.total_power_w(),
                ))
        finally:
            self.domain.set_refresh_interval(original_interval)
        return result


@dataclass(frozen=True)
class RefreshShareRow:
    """Refresh share of total device power at one density."""

    density_gbit: float
    refresh_share_nominal: float
    refresh_share_relaxed: float
    relaxed_interval_s: float


def refresh_share_vs_density(
        densities_gbit: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0),
        relaxed_interval_s: float = 1.5) -> List[RefreshShareRow]:
    """Refresh power share as device density scales (paper: 9 % → >34 %).

    The second column shows what relaxation to ``relaxed_interval_s``
    leaves of that share — the saving grows with density, which is the
    paper's argument that refresh relaxation matters *more* for future
    parts.
    """
    rows = []
    for density in densities_gbit:
        model = DramPowerModel(density_gbit=density)
        rows.append(RefreshShareRow(
            density_gbit=density,
            refresh_share_nominal=model.refresh_share(
                NOMINAL_REFRESH_INTERVAL_S),
            refresh_share_relaxed=model.refresh_share(relaxed_interval_s),
            relaxed_interval_s=relaxed_interval_s,
        ))
    return rows
