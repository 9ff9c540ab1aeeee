"""Cache-bank model with SECDED protection.

Table 2's third row counts *cache ECC errors*: as the i5-4200U is
undervolted toward its crash point (frequency pinned at maximum), SRAM
cells in the caches start failing before the core logic does, and the
built-in SECDED corrects them.  The paper measures 1–17 corrected errors
per run, with the first errors appearing on average 15 mV above the crash
voltage.  The high-end i7-3970X exposed none (its reporting interface does
not surface them).

The model: the expected number of corrected errors in one run decays
exponentially with headroom above the crash voltage::

    E[errors](V) = amplitude · exp(-(V - V_crash) / tau) · pressure

calibrated so the onset (expected count crossing 1) sits ``onset_margin_v``
above the crash point.  Counts are Poisson-sampled.  A small fraction of
raw errors are double-bit and become uncorrectable, handled through the
real SECDED codec in :mod:`repro.hardware.ecc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..workloads.base import StressProfile
from . import ecc
from .faults import FaultClass, FaultOrigin, FaultRecord


@dataclass(frozen=True)
class CacheParameters:
    """Electrical/error parameters of a cache hierarchy.

    Parameters
    ----------
    ecc_reporting:
        Whether the platform exposes correctable-error counts to software
        (the i5 does; the i7 in the paper's setup does not).
    onset_margin_v:
        Headroom above the core crash voltage where the expected error
        count crosses 1 (the paper's ~15 mV).
    tau_v:
        Exponential decay constant of the error count with voltage
        headroom.  ~5.3 mV puts the expected count at ~17 right above the
        crash point and at 1 near the 15 mV onset, spanning Table 2's
        1..17 range.
    double_bit_fraction:
        Fraction of raw error events that hit two bits of the same word
        (uncorrectable after SECDED).
    max_errors_per_run:
        Reporting saturation of the error counters.
    """

    ecc_reporting: bool = True
    onset_margin_v: float = 0.011
    tau_v: float = 0.0042
    double_bit_fraction: float = 0.002
    max_errors_per_run: int = 1000

    def __post_init__(self) -> None:
        if self.onset_margin_v <= 0 or self.tau_v <= 0:
            raise ConfigurationError("onset margin and tau must be positive")
        if not 0.0 <= self.double_bit_fraction <= 1.0:
            raise ConfigurationError("double_bit_fraction is a probability")
        if self.max_errors_per_run < 1:
            raise ConfigurationError("max_errors_per_run must be >= 1")


@dataclass(frozen=True)
class CacheRunResult:
    """ECC outcome of one benchmark run on a cache."""

    correctable: int
    uncorrectable: int

    @property
    def total(self) -> int:
        """Number of claims checked."""
        return self.correctable + self.uncorrectable


class CacheModel:
    """A cache hierarchy whose SRAM error rate depends on voltage headroom."""

    def __init__(self, params: Optional[CacheParameters] = None,
                 seed: int = 0) -> None:
        self.params = params or CacheParameters()
        self._rng = np.random.default_rng(seed)
        # Amplitude so that expected count == 1 at onset_margin_v headroom.
        self._amplitude = math.exp(self.params.onset_margin_v / self.params.tau_v)

    def expected_errors(self, voltage_v: float, crash_voltage_v: float,
                        profile: Optional[StressProfile] = None) -> float:
        """Expected corrected-error count for one run at ``voltage_v``.

        ``crash_voltage_v`` is the core's crash voltage under the same
        workload; below it the run never completes, so the count is
        reported as the saturated maximum (the machine dies mid-run).
        """
        headroom = voltage_v - crash_voltage_v
        pressure = 1.0 if profile is None else 0.7 + 0.6 * profile.cache_pressure
        if headroom <= 0:
            return float(self.params.max_errors_per_run)
        lam = self._amplitude * math.exp(-headroom / self.params.tau_v) * pressure
        return min(lam, float(self.params.max_errors_per_run))

    def run(self, voltage_v: float, crash_voltage_v: float,
            profile: Optional[StressProfile] = None) -> CacheRunResult:
        """Sample the ECC outcome of one run.

        Returns zero counts when the platform does not report ECC events,
        matching the i7-3970X row of Table 2.
        """
        if not self.params.ecc_reporting:
            return CacheRunResult(correctable=0, uncorrectable=0)
        lam = self.expected_errors(voltage_v, crash_voltage_v, profile)
        raw = int(self._rng.poisson(lam))
        raw = min(raw, self.params.max_errors_per_run)
        double = int(self._rng.binomial(raw, self.params.double_bit_fraction)) \
            if raw else 0
        return CacheRunResult(correctable=raw - double, uncorrectable=double)

    def raw_error_counts(self, expected: np.ndarray,
                         n_rounds: int) -> np.ndarray:
        """Raw error counts of ``n_rounds`` rounds of runs, one run per
        expected count in ``expected``, as an ``(n_rounds, len(expected))``
        array.

        While every count is 0 the stream advances exactly as that many
        :meth:`run` calls, round by round, would: a non-zero count marks
        where :meth:`run` would go on to split off double-bit errors.
        Without ECC reporting nothing is drawn and every count is 0.
        """
        shape = (n_rounds, len(expected))
        if not self.params.ecc_reporting:
            return np.zeros(shape, dtype=np.int64)
        return self._rng.poisson(expected, size=shape)

    def state_dict(self) -> dict:
        """Serializable mutable state (the sampling RNG)."""
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore the RNG saved by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]

    def fault_records(self, result: CacheRunResult, timestamp: float,
                      component: str, operating_point: str = "",
                      ) -> List[FaultRecord]:
        """Expand a run result into HealthLog fault records."""
        records = []
        for _ in range(result.correctable):
            records.append(FaultRecord(
                timestamp=timestamp, fault_class=FaultClass.CORRECTABLE,
                origin=FaultOrigin.CACHE, component=component,
                operating_point=operating_point, detail="SECDED corrected",
            ))
        for _ in range(result.uncorrectable):
            records.append(FaultRecord(
                timestamp=timestamp, fault_class=FaultClass.UNCORRECTABLE,
                origin=FaultOrigin.CACHE, component=component,
                operating_point=operating_point, detail="double-bit",
            ))
        return records

    def demonstrate_secded(self, data_word: int,
                           flip_bits: Tuple[int, ...] = ()) -> ecc.DecodeResult:
        """Push one word through the real SECDED codec with injected flips.

        Used by tests and examples to show the correctable/uncorrectable
        boundary is a real code property, not a modelling assumption.
        """
        codeword = ecc.encode(data_word)
        corrupted = ecc.inject_bit_flips(codeword, list(flip_bits))
        return ecc.decode(corrupted)
