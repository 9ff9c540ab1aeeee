"""Per-bank cache characterisation and low-voltage cache resizing.

Paper Section 3.A: "Heterogeneity exists among cores located on the same
chip, DRAM and cache memory banks. [...] for each cache memory bank
UniServer will reveal the minimum voltage that allows correct operation.
This information will be revealed to software and can be exploited
towards better energy-efficiency."

This module models a banked SRAM cache whose banks have individually
varying minimum voltages (SRAM cells are the first structures to fail
under voltage scaling).  Characterisation reveals each bank's Vmin; at a
given operating voltage the cache can *resize* — disable the banks that
cannot hold data — trading capacity (and therefore miss rate) for the
deeper voltage, the classical low-voltage cache trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class CacheBank:
    """One SRAM bank with its own minimum operational voltage."""

    bank_id: int
    capacity_kb: float
    vmin_v: float

    def works_at(self, voltage_v: float) -> bool:
        """Whether the bank retains data at ``voltage_v``."""
        return voltage_v >= self.vmin_v


@dataclass(frozen=True)
class BankCharacterization:
    """StressLog-style verdict for one bank."""

    bank_id: int
    revealed_vmin_v: float
    guard_margin_v: float

    @property
    def safe_voltage_v(self) -> float:
        """Revealed Vmin plus the guard margin."""
        return self.revealed_vmin_v + self.guard_margin_v


class BankedCache:
    """A cache organised as independently characterisable banks.

    Bank Vmins are sampled around a design Vmin with within-die
    variation, so every manufactured cache has a different
    capacity-vs-voltage curve.
    """

    def __init__(self, n_banks: int = 16, bank_kb: float = 128.0,
                 design_vmin_v: float = 0.72, vmin_sigma_v: float = 0.020,
                 seed: int = 0) -> None:
        if n_banks < 1:
            raise ConfigurationError("cache needs at least one bank")
        if bank_kb <= 0:
            raise ConfigurationError("bank capacity must be positive")
        if design_vmin_v <= 0 or vmin_sigma_v < 0:
            raise ConfigurationError("bad Vmin parameters")
        rng = np.random.default_rng(seed)
        vmins = design_vmin_v + rng.normal(0.0, vmin_sigma_v, n_banks)
        self.banks: List[CacheBank] = [
            CacheBank(bank_id=i, capacity_kb=bank_kb,
                      vmin_v=float(max(0.4, v)))
            for i, v in enumerate(vmins)
        ]
        self.design_vmin_v = design_vmin_v

    @property
    def n_banks(self) -> int:
        """Number of banks in the cache."""
        return len(self.banks)

    @property
    def total_capacity_kb(self) -> float:
        """Design capacity across all banks (KB)."""
        return sum(b.capacity_kb for b in self.banks)

    def worst_bank_vmin_v(self) -> float:
        """The conservative whole-cache Vmin (every bank must work)."""
        return max(b.vmin_v for b in self.banks)

    def best_bank_vmin_v(self) -> float:
        """The strongest bank's minimum voltage."""
        return min(b.vmin_v for b in self.banks)

    # -- characterisation -----------------------------------------------------

    def characterize(self, step_v: float = 0.005,
                     guard_margin_v: float = 0.010,
                     measurement_noise_v: float = 0.002,
                     seed: int = 0) -> List[BankCharacterization]:
        """Reveal each bank's minimum voltage by a march-test sweep.

        Mirrors the per-component StressLog methodology: descend in
        ``step_v`` steps until the bank's march test fails; the revealed
        Vmin is the last passing step (plus measurement noise), and the
        published safe voltage adds the guard margin.
        """
        if step_v <= 0:
            raise ConfigurationError("step must be positive")
        rng = np.random.default_rng(seed)
        results = []
        for bank in self.banks:
            observed = bank.vmin_v + rng.normal(0.0, measurement_noise_v)
            revealed = float(np.ceil(observed / step_v) * step_v)
            results.append(BankCharacterization(
                bank_id=bank.bank_id,
                revealed_vmin_v=revealed,
                guard_margin_v=guard_margin_v,
            ))
        return results

    # -- low-voltage operation ---------------------------------------------------

    def usable_banks(self, voltage_v: float) -> List[CacheBank]:
        """Banks that retain data at ``voltage_v``."""
        return [b for b in self.banks if b.works_at(voltage_v)]

    def capacity_at(self, voltage_v: float) -> float:
        """Usable cache capacity (KB) at a voltage."""
        return sum(b.capacity_kb for b in self.usable_banks(voltage_v))

    def capacity_fraction_at(self, voltage_v: float) -> float:
        """Fraction of the design capacity usable at a voltage."""
        return self.capacity_at(voltage_v) / self.total_capacity_kb

    def miss_rate_at(self, voltage_v: float,
                     base_miss_rate: float = 0.02,
                     working_set_sensitivity: float = 0.5) -> float:
        """Miss rate after resizing, via the power-law (√2) rule.

        The classical cache rule of thumb: miss rate scales with
        capacity**(-working_set_sensitivity).  Disabled banks shrink the
        effective capacity and raise the miss rate accordingly; with no
        usable banks the cache is bypassed entirely (miss rate 1).
        """
        if not 0 < base_miss_rate < 1:
            raise ConfigurationError("base_miss_rate must be in (0, 1)")
        fraction = self.capacity_fraction_at(voltage_v)
        if fraction == 0.0:
            return 1.0
        return min(1.0, base_miss_rate
                   * fraction ** (-working_set_sensitivity))

    def resize_curve(self, voltages_v: Sequence[float],
                     ) -> List[Tuple[float, float, float]]:
        """(voltage, capacity fraction, miss rate) across a sweep."""
        return [
            (v, self.capacity_fraction_at(v), self.miss_rate_at(v))
            for v in sorted(voltages_v, reverse=True)
        ]


@dataclass(frozen=True)
class ResizePolicy:
    """Chooses between whole-cache Vmin and resized operation.

    ``max_miss_rate`` caps the performance loss the policy accepts in
    exchange for deeper voltage.
    """

    max_miss_rate: float = 0.06
    base_miss_rate: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.max_miss_rate <= 1:
            raise ConfigurationError("max_miss_rate must be in (0, 1]")

    def min_voltage(self, cache: BankedCache,
                    candidate_voltages: Sequence[float]) -> float:
        """Deepest candidate voltage whose resized miss rate is accepted."""
        acceptable = [
            v for v in candidate_voltages
            if cache.miss_rate_at(v, self.base_miss_rate)
            <= self.max_miss_rate
        ]
        if not acceptable:
            return cache.worst_bank_vmin_v()
        return min(acceptable)
