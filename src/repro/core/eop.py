"""Operating points and Extended Operating Point (EOP) tables.

The central abstraction of UniServer is the *operating point*: a
(voltage, frequency, refresh-interval) triple, abbreviated **V-F-R** in the
paper.  Conventional servers run a single conservative nominal point chosen
from worst-case guard-bands (paper Table 1); UniServer reveals per-component
*Extended Operating Points* that trade those guard-bands for measured,
component-specific margins.

This module provides:

* :class:`OperatingPoint` — an immutable V-F-R value object.
* :class:`GuardBandBreakdown` — the conservative margin decomposition of
  Table 1 (voltage droop ~20 %, Vmin ~15 %, core-to-core ~5 %).
* :class:`EOPTable` — the per-component table of characterised safe points
  produced by the StressLog daemon and consumed by the Hypervisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .exceptions import OperatingPointError

#: Nominal DRAM refresh interval mandated by JEDEC for DDR3 (seconds).
NOMINAL_REFRESH_INTERVAL_S = 0.064

#: Physically plausible bounds used for validation.
_MIN_VOLTAGE_V = 0.3
_MAX_VOLTAGE_V = 2.0
_MIN_FREQUENCY_HZ = 1e6
_MAX_FREQUENCY_HZ = 10e9
_MIN_REFRESH_S = 1e-3
_MAX_REFRESH_S = 60.0


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """An immutable V-F-R operating point.

    Parameters
    ----------
    voltage_v:
        Supply voltage in volts.
    frequency_hz:
        Clock frequency in hertz.
    refresh_interval_s:
        DRAM refresh interval in seconds.  For CPU-only points this keeps
        the JEDEC nominal value of 64 ms.
    """

    voltage_v: float
    frequency_hz: float
    refresh_interval_s: float = NOMINAL_REFRESH_INTERVAL_S

    def __post_init__(self) -> None:
        if not _MIN_VOLTAGE_V <= self.voltage_v <= _MAX_VOLTAGE_V:
            raise OperatingPointError(
                f"voltage {self.voltage_v} V outside plausible range "
                f"[{_MIN_VOLTAGE_V}, {_MAX_VOLTAGE_V}] V"
            )
        if not _MIN_FREQUENCY_HZ <= self.frequency_hz <= _MAX_FREQUENCY_HZ:
            raise OperatingPointError(
                f"frequency {self.frequency_hz} Hz outside plausible range"
            )
        if not _MIN_REFRESH_S <= self.refresh_interval_s <= _MAX_REFRESH_S:
            raise OperatingPointError(
                f"refresh interval {self.refresh_interval_s} s outside "
                f"plausible range"
            )

    # -- derived quantities ------------------------------------------------

    def voltage_offset_from(self, nominal: "OperatingPoint") -> float:
        """Signed fractional voltage offset from ``nominal``.

        Negative values mean undervolting; e.g. −0.10 is the "−10 %" of the
        paper's Table 2 crash points.
        """
        return (self.voltage_v - nominal.voltage_v) / nominal.voltage_v

    def refresh_relaxation_factor(self) -> float:
        """How many times longer than the JEDEC nominal refresh this is."""
        return self.refresh_interval_s / NOMINAL_REFRESH_INTERVAL_S

    def with_voltage(self, voltage_v: float) -> "OperatingPoint":
        """A copy of this point at a different voltage."""
        return OperatingPoint(voltage_v, self.frequency_hz, self.refresh_interval_s)

    def with_frequency(self, frequency_hz: float) -> "OperatingPoint":
        """A copy of this point at a different frequency."""
        return OperatingPoint(self.voltage_v, frequency_hz, self.refresh_interval_s)

    def with_refresh(self, refresh_interval_s: float) -> "OperatingPoint":
        """A copy of this point at a different refresh interval."""
        return OperatingPoint(self.voltage_v, self.frequency_hz, refresh_interval_s)

    def scaled(self, voltage_factor: float = 1.0, frequency_factor: float = 1.0,
               refresh_factor: float = 1.0) -> "OperatingPoint":
        """A copy with each knob multiplied by a factor."""
        return OperatingPoint(
            self.voltage_v * voltage_factor,
            self.frequency_hz * frequency_factor,
            self.refresh_interval_s * refresh_factor,
        )

    def describe(self) -> str:
        """Human-readable one-line description."""
        return (
            f"{self.voltage_v:.3f} V @ {self.frequency_hz / 1e9:.2f} GHz, "
            f"refresh {self.refresh_interval_s * 1e3:.0f} ms"
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for snapshots."""
        return {
            "voltage_v": self.voltage_v,
            "frequency_hz": self.frequency_hz,
            "refresh_interval_s": self.refresh_interval_s,
        }

    @staticmethod
    def from_dict(state: Dict[str, float]) -> "OperatingPoint":
        """Rebuild a point saved by :meth:`as_dict`."""
        return OperatingPoint(
            voltage_v=float(state["voltage_v"]),
            frequency_hz=float(state["frequency_hz"]),
            refresh_interval_s=float(state["refresh_interval_s"]),
        )


@dataclass(frozen=True)
class GuardBandBreakdown:
    """The conservative voltage guard-band decomposition of paper Table 1.

    Each field is the fractional voltage up-scaling the corresponding
    phenomenon forces on a conservatively designed part.
    """

    voltage_droop: float = 0.20
    vmin_reliability: float = 0.15
    core_to_core: float = 0.05

    def total(self) -> float:
        """Combined guard-band assuming additive worst-case stacking.

        Manufacturers stack worst-case margins additively, which is exactly
        the pessimism UniServer attacks.
        """
        return self.voltage_droop + self.vmin_reliability + self.core_to_core

    def rows(self) -> List[Tuple[str, float]]:
        """(reason, up-scaling) rows in the order of paper Table 1."""
        return [
            ("Voltage droops", self.voltage_droop),
            ("Vmin", self.vmin_reliability),
            ("Core-to-core variations", self.core_to_core),
        ]

    def guardbanded_voltage(self, true_vmin_v: float) -> float:
        """The nominal voltage a conservative vendor would ship.

        Given the true minimum operational voltage of a typical part, the
        vendor adds the stacked guard-bands on top.
        """
        return true_vmin_v * (1.0 + self.total())


@dataclass(frozen=True)
class CharacterizedPoint:
    """One characterised EOP with the evidence behind it.

    Produced by the StressLog daemon: the point itself, the measured
    failure probability under the worst stress virus, and the predicted
    power relative to nominal.
    """

    point: OperatingPoint
    failure_probability: float
    relative_power: float
    stress_workload: str = "virus"

    def is_safe(self, budget: float = 1e-4) -> bool:
        """Whether the measured failure probability fits the budget."""
        return self.failure_probability <= budget


class EOPTable:
    """Per-component table of characterised Extended Operating Points.

    Keys are component identifiers such as ``"core0"`` or ``"dimm1"``;
    values are lists of :class:`CharacterizedPoint` sorted by increasing
    relative power.  The Hypervisor queries this table when choosing a
    configuration for a given reliability budget.
    """

    def __init__(self) -> None:
        self._points: Dict[str, List[CharacterizedPoint]] = {}

    def __contains__(self, component: str) -> bool:
        return component in self._points

    def __len__(self) -> int:
        return len(self._points)

    def components(self) -> List[str]:
        """All component identifiers with at least one characterised point."""
        return sorted(self._points)

    def add(self, component: str, characterized: CharacterizedPoint) -> None:
        """Record a characterised point for ``component``."""
        points = self._points.setdefault(component, [])
        points.append(characterized)
        points.sort(key=lambda cp: cp.relative_power)

    def points_for(self, component: str) -> List[CharacterizedPoint]:
        """All characterised points for ``component`` (may be empty)."""
        return list(self._points.get(component, []))

    def best_point(self, component: str,
                   failure_budget: float = 1e-4) -> Optional[CharacterizedPoint]:
        """Lowest-power characterised point meeting the failure budget.

        Returns ``None`` when the component has no safe characterised point,
        in which case the caller should fall back to the nominal point.
        """
        for cp in self._points.get(component, []):
            if cp.is_safe(failure_budget):
                return cp
        return None

    def merge(self, other: "EOPTable") -> None:
        """Fold another table (e.g. a newer StressLog output) into this one."""
        for component in other.components():
            for cp in other.points_for(component):
                self.add(component, cp)

    def energy_saving_estimate(self, failure_budget: float = 1e-4) -> float:
        """Mean fractional power saving across characterised components.

        A component without a safe point contributes zero saving (it stays
        at nominal).
        """
        if not self._points:
            return 0.0
        savings = []
        for component in self._points:
            best = self.best_point(component, failure_budget)
            savings.append(0.0 if best is None else max(0.0, 1.0 - best.relative_power))
        return float(sum(savings) / len(savings))


def dvfs_ladder(nominal: OperatingPoint, steps: int = 8,
                min_voltage_fraction: float = 0.7,
                min_frequency_fraction: float = 0.5) -> List[OperatingPoint]:
    """A conventional DVFS ladder below a nominal point.

    Voltage and frequency are scaled together linearly from nominal down to
    the given fractions, producing the kind of P-state ladder a stock
    platform exposes.  UniServer's EOPs go *beyond* this ladder; benches use
    it as the conservative baseline.
    """
    if steps < 2:
        raise OperatingPointError("a DVFS ladder needs at least 2 steps")
    ladder = []
    for i in range(steps):
        t = i / (steps - 1)
        vf = 1.0 - t * (1.0 - min_voltage_fraction)
        ff = 1.0 - t * (1.0 - min_frequency_fraction)
        ladder.append(nominal.scaled(voltage_factor=vf, frequency_factor=ff))
    return ladder


def refresh_ladder(nominal: OperatingPoint,
                   factors: Iterable[float] = (1, 2, 4, 8, 16, 23.4, 46.9, 78.1),
                   ) -> List[OperatingPoint]:
    """Refresh-relaxation ladder used by the DRAM characterisation campaign.

    The default factors end at 78.1× ≈ 5 s, the most aggressive relaxation
    reported in the paper's Section 6.B.
    """
    return [nominal.with_refresh(NOMINAL_REFRESH_INTERVAL_S * f) for f in factors]


def voltage_sweep(nominal: OperatingPoint, max_offset: float = 0.25,
                  step_mv: float = 5.0) -> List[OperatingPoint]:
    """Descending voltage sweep below nominal in fixed millivolt steps.

    Mirrors the paper's CPU characterisation methodology: frequency pinned
    at maximum, voltage lowered step by step until the crash point.
    """
    if max_offset <= 0 or max_offset >= 1:
        raise OperatingPointError("max_offset must be in (0, 1)")
    points = []
    n_steps = int(math.floor(nominal.voltage_v * max_offset / (step_mv / 1e3)))
    for i in range(n_steps + 1):
        points.append(nominal.with_voltage(nominal.voltage_v - i * step_mv / 1e3))
    return points
