"""Two-dimensional V-F exploration and the energy/performance Pareto set.

The Table 2 campaign pins frequency at maximum and sweeps voltage; the
full EOP space of the paper is two-dimensional (plus refresh).  This
module explores the (voltage, frequency) plane per core:

* :class:`VFExplorer` finds, for a grid of frequencies, the deepest safe
  voltage under the worst stress kernel (with a guard margin) — the
  *V-F margin curve* of a core;
* :func:`pareto_front` extracts the energy/performance Pareto-optimal
  points, which is exactly the menu the Predictor's low-power mode
  chooses from and the Hypervisor exposes to OpenStack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.eop import OperatingPoint
from ..core.exceptions import ConfigurationError
from ..hardware.chip import ChipModel
from ..workloads.base import WorkloadSuite
from ..workloads.viruses import virus_suite


@dataclass(frozen=True)
class VFPoint:
    """One characterised (voltage, frequency) point of a core."""

    core_id: int
    point: OperatingPoint
    #: Performance relative to nominal (cycle-counted => f ratio).
    relative_performance: float
    #: Dynamic energy per unit work relative to nominal (V² ratio).
    relative_energy: float
    #: Total power relative to nominal (includes leakage).
    relative_power: float
    observed_crash_voltage_v: float

    def dominates(self, other: "VFPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = (self.relative_performance >= other.relative_performance
                    and self.relative_energy <= other.relative_energy)
        strictly = (self.relative_performance > other.relative_performance
                    or self.relative_energy < other.relative_energy)
        return no_worse and strictly


class VFExplorer:
    """Characterises a core's safe envelope over the V-F plane."""

    def __init__(self, chip: ChipModel,
                 suite: Optional[WorkloadSuite] = None,
                 guard_margin_v: float = 0.010,
                 sweep_trials: int = 3) -> None:
        if guard_margin_v < 0:
            raise ConfigurationError("guard margin must be >= 0")
        if sweep_trials < 1:
            raise ConfigurationError("sweep_trials must be >= 1")
        self.chip = chip
        self.suite = suite or virus_suite()
        self.guard_margin_v = guard_margin_v
        self.sweep_trials = sweep_trials

    def _worst_crash_voltage(self, core_id: int,
                             frequency_hz: float) -> float:
        core = self.chip.core(core_id)
        return max(
            core.sample_crash_voltage_v(kernel.profile, frequency_hz)
            for kernel in self.suite
            for _ in range(self.sweep_trials)
        )

    def explore_core(self, core_id: int,
                     frequency_fractions: Sequence[float]
                     = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
                     ) -> List[VFPoint]:
        """The V-F margin curve: deepest safe voltage per frequency."""
        nominal = self.chip.spec.nominal
        points = []
        for fraction in sorted(set(frequency_fractions), reverse=True):
            if not 0 < fraction <= 1:
                raise ConfigurationError(
                    "frequency fractions must be in (0, 1]"
                )
            frequency = nominal.frequency_hz * fraction
            crash_v = self._worst_crash_voltage(core_id, frequency)
            safe_v = min(nominal.voltage_v, crash_v + self.guard_margin_v)
            point = OperatingPoint(safe_v, frequency,
                                   nominal.refresh_interval_s)
            points.append(VFPoint(
                core_id=core_id,
                point=point,
                relative_performance=fraction,
                relative_energy=(safe_v / nominal.voltage_v) ** 2,
                relative_power=self.chip.power.total_power_w(point)
                / self.chip.power.total_power_w(nominal),
                observed_crash_voltage_v=crash_v,
            ))
        return points

    def explore_chip(self, frequency_fractions: Sequence[float]
                     = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
                     ) -> List[VFPoint]:
        """All cores' V-F curves, concatenated."""
        points: List[VFPoint] = []
        for core in self.chip.cores:
            points.extend(
                self.explore_core(core.core_id, frequency_fractions))
        return points


def pareto_front(points: Sequence[VFPoint]) -> List[VFPoint]:
    """The non-dominated subset, sorted by descending performance."""
    front = [
        candidate for candidate in points
        if not any(other.dominates(candidate) for other in points)
    ]
    return sorted(front, key=lambda p: p.relative_performance,
                  reverse=True)


def point_for_performance(front: Sequence[VFPoint],
                          min_performance: float) -> VFPoint:
    """Lowest-energy Pareto point meeting a performance floor.

    This is the query an SLA's ``min_frequency_fraction`` turns into.
    """
    if not front:
        raise ConfigurationError("empty Pareto front")
    feasible = [p for p in front
                if p.relative_performance >= min_performance]
    if not feasible:
        raise ConfigurationError(
            f"no Pareto point meets performance floor {min_performance}"
        )
    return min(feasible, key=lambda p: p.relative_energy)


def energy_performance_table(front: Sequence[VFPoint],
                             ) -> List[Tuple[float, float, float, float]]:
    """(freq fraction, voltage, relative energy, relative power) rows."""
    return [
        (p.relative_performance, p.point.voltage_v, p.relative_energy,
         p.relative_power)
        for p in front
    ]
