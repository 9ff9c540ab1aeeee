"""Synthetic datacenter arrival traces.

Section 4.B: the new scheduling policies must be "non-intrusive in
real-world scenarios where OpenStack would manage streams of incoming
and terminating VMs".  Exercising that requires an arrival process, not
a fixed fleet; this module generates diurnal VM-arrival traces — a
non-homogeneous Poisson process with a day/night cycle plus bursts —
with per-arrival workload and SLA-tier draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from .base import Workload
from .spec import SPEC_NAMES, spec_workload

DAY_S = 24 * 3600.0


@dataclass(frozen=True)
class ArrivalEvent:
    """One VM arrival."""

    timestamp: float
    vm_name: str
    workload: Workload
    tier: str
    lifetime_s: float


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the synthetic arrival process.

    ``base_rate_per_hour`` is the mean arrival rate; the diurnal factor
    swings the instantaneous rate between ``1 - diurnal_amplitude`` and
    ``1 + diurnal_amplitude`` over a day, and bursts multiply it for
    short windows (deploy storms).
    """

    base_rate_per_hour: float = 6.0
    diurnal_amplitude: float = 0.6
    peak_hour: float = 14.0
    burst_probability_per_hour: float = 0.05
    burst_multiplier: float = 5.0
    burst_duration_s: float = 900.0
    mean_lifetime_s: float = 2 * 3600.0
    tier_weights: Tuple[float, float, float] = (0.2, 0.5, 0.3)

    def __post_init__(self) -> None:
        if self.base_rate_per_hour <= 0:
            raise ConfigurationError("rate must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigurationError("diurnal amplitude must be in [0, 1)")
        if abs(sum(self.tier_weights) - 1.0) > 1e-9:
            raise ConfigurationError("tier weights must sum to 1")
        if self.mean_lifetime_s <= 0 or self.burst_duration_s <= 0:
            raise ConfigurationError("durations must be positive")

    def rate_at(self, t_s: float, in_burst: bool = False) -> float:
        """Instantaneous arrivals/second at absolute time ``t_s``."""
        hour = (t_s % DAY_S) / 3600.0
        phase = 2 * math.pi * (hour - self.peak_hour) / 24.0
        diurnal = 1.0 + self.diurnal_amplitude * math.cos(phase)
        rate = self.base_rate_per_hour / 3600.0 * diurnal
        if in_burst:
            rate *= self.burst_multiplier
        return rate


class TraceGenerator:
    """Generates deterministic arrival traces by thinning."""

    TIERS = ("gold", "silver", "bronze")

    def __init__(self, config: Optional[TraceConfig] = None,
                 seed: int = 0) -> None:
        self.config = config or TraceConfig()
        self._rng = np.random.default_rng(seed)

    def _draw_workload(self) -> Workload:
        name = SPEC_NAMES[int(self._rng.integers(len(SPEC_NAMES)))]
        # Lifetime is carried on the event; cycles scale with lifetime.
        return spec_workload(name)

    def generate(self, duration_s: float) -> List[ArrivalEvent]:
        """All arrivals within ``[0, duration_s)``.

        Uses Lewis thinning against the maximum possible rate, so the
        produced process has exactly the configured intensity profile.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        cfg = self.config
        max_rate = (cfg.base_rate_per_hour / 3600.0
                    * (1 + cfg.diurnal_amplitude) * cfg.burst_multiplier)
        events: List[ArrivalEvent] = []
        burst_until = -1.0
        t = 0.0
        index = 0
        while True:
            t += float(self._rng.exponential(1.0 / max_rate))
            if t >= duration_s:
                break
            # Burst windows open memorylessly.
            if t > burst_until and self._rng.random() < (
                    cfg.burst_probability_per_hour / 3600.0
                    / max_rate * 1.0):
                burst_until = t + cfg.burst_duration_s
            in_burst = t <= burst_until
            if self._rng.random() > cfg.rate_at(t, in_burst) / max_rate:
                continue
            tier = self.TIERS[int(self._rng.choice(
                3, p=list(cfg.tier_weights)))]
            lifetime = float(self._rng.exponential(cfg.mean_lifetime_s))
            events.append(ArrivalEvent(
                timestamp=t,
                vm_name=f"trace-vm{index}",
                workload=self._draw_workload(),
                tier=tier,
                lifetime_s=max(60.0, lifetime),
            ))
            index += 1
        return events


def arrivals_per_hour(events: Sequence[ArrivalEvent],
                      duration_s: float) -> List[int]:
    """Hourly arrival counts (for inspecting the diurnal shape)."""
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    n_hours = int(math.ceil(duration_s / 3600.0))
    counts = [0] * n_hours
    for event in events:
        counts[min(n_hours - 1, int(event.timestamp // 3600.0))] += 1
    return counts
