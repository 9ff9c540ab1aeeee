"""On-die sensors and performance counters.

The HealthLog information vector bundles "system configuration values,
sensor readings and performance counters" (Section 3.C).  This module
models the measurement side: noisy reads of voltage, temperature and
power, plus per-run performance-counter snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.eop import OperatingPoint
from ..core.exceptions import ConfigurationError
from ..workloads.base import Workload


@dataclass(frozen=True)
class SensorReadings:
    """One snapshot of a component's sensors."""

    timestamp: float
    voltage_v: float
    temperature_c: float
    power_w: float
    frequency_hz: float


@dataclass(frozen=True)
class PerfCounters:
    """Performance-counter snapshot for one executed interval."""

    cycles: float
    instructions: float
    cache_misses: float
    memory_accesses: float

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 when no cycles elapsed)."""
        return self.instructions / self.cycles if self.cycles else 0.0


class SensorBlock:
    """Noisy sensor frontend for one component.

    Measurement noise is Gaussian with per-quantity sigmas; reads are
    deterministic given the seed, keeping HealthLog traces reproducible.
    """

    def __init__(self, seed: int = 0, voltage_noise_v: float = 0.002,
                 temperature_noise_c: float = 0.5,
                 power_noise_fraction: float = 0.02) -> None:
        if voltage_noise_v < 0 or temperature_noise_c < 0:
            raise ConfigurationError("sensor noise must be non-negative")
        if power_noise_fraction < 0:
            raise ConfigurationError("power noise must be non-negative")
        self._rng = np.random.default_rng(seed)
        self._voltage_noise_v = voltage_noise_v
        self._temperature_noise_c = temperature_noise_c
        self._power_noise_fraction = power_noise_fraction

    def read(self, timestamp: float, point: OperatingPoint,
             true_temperature_c: float, true_power_w: float) -> SensorReadings:
        """Take one noisy snapshot of the component state."""
        (voltage_v, temperature_c, power_w), = self.read_many(
            1, point.voltage_v, true_temperature_c, true_power_w)
        return SensorReadings(
            timestamp=timestamp, voltage_v=voltage_v,
            temperature_c=temperature_c, power_w=power_w,
            frequency_hz=point.frequency_hz,
        )

    def read_many(self, n: int, true_voltage_v: float,
                  true_temperature_c: float, true_power_w: float,
                  ) -> List[Tuple[float, float, float]]:
        """``n`` noisy ``(voltage_v, temperature_c, power_w)`` reads of one
        component state, in read order.

        The noise is one ``standard_normal(3 n)`` draw in (v, t, p) order.
        Each value keeps ``Generator.normal``'s ``loc + scale * z`` with
        ``loc = 0.0``, so a batch equals ``3 n`` scalar
        ``normal(0.0, sigma)`` draws bit for bit and leaves the generator
        in the same state.
        """
        z = self._rng.standard_normal(3 * n).tolist()
        sigma_v = self._voltage_noise_v
        sigma_t = self._temperature_noise_c
        sigma_p = self._power_noise_fraction
        return [
            (true_voltage_v + (0.0 + sigma_v * z[i]),
             true_temperature_c + (0.0 + sigma_t * z[i + 1]),
             max(0.0, true_power_w * (1.0 + (0.0 + sigma_p * z[i + 2]))))
            for i in range(0, 3 * n, 3)
        ]

    def state_dict(self) -> dict:
        """Serializable mutable state (the noise RNG)."""
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore the RNG saved by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]

    def count_run(self, workload: Workload,
                  frequency_hz: float) -> PerfCounters:
        """Synthesize performance counters for one workload run.

        IPC tracks the activity factor; cache misses and memory accesses
        track the cache/DRAM pressure of the workload's stress profile.
        """
        cycles = workload.duration_cycles
        profile = workload.profile
        base_ipc = 0.4 + 2.2 * profile.activity_factor
        instructions = cycles * base_ipc * (
            1.0 + self._rng.normal(0.0, 0.01))
        memory_accesses = cycles * 0.3 * profile.dram_pressure
        cache_misses = memory_accesses * (0.02 + 0.25 * profile.cache_pressure)
        return PerfCounters(
            cycles=cycles,
            instructions=max(0.0, instructions),
            cache_misses=max(0.0, cache_misses),
            memory_accesses=max(0.0, memory_accesses),
        )
