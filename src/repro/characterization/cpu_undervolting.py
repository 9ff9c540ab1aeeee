"""CPU undervolting characterisation campaign (paper Table 2).

Methodology, mirroring Section 6.A: frequency pinned at maximum, supply
voltage lowered from nominal in fixed (5 mV) steps; at each step the
benchmark runs once per sweep.  The *crash point* is the first voltage at
which the run dies; corrected cache ECC errors at surviving steps are
logged (the low-end part exposes them, the high-end part does not).

Each (benchmark, core) pair is swept ``runs_per_benchmark`` times (the
paper does 3 consecutive runs).  The summary reports exactly Table 2's
three rows:

1. *crash points below nominal VID* — min/max, across benchmarks, of the
   per-benchmark mean crash offset;
2. *core-to-core variation* — min/max, across benchmarks, of the spread
   between the best and worst core's mean crash offset;
3. *number of cache ECC errors* — min/max nonzero per-step corrected
   counts observed (only where the platform reports them), plus the mean
   voltage margin between first-error onset and crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.stats import quantize
from ..core.exceptions import ConfigurationError
from ..hardware.chip import ChipModel
from ..workloads.base import Workload, WorkloadSuite


@dataclass(frozen=True)
class SweepResult:
    """One downward voltage sweep on one core under one benchmark."""

    benchmark: str
    core_id: int
    run_index: int
    crash_voltage_v: float
    crash_offset: float
    #: (voltage, corrected-count) for each surviving step with errors.
    ecc_observations: Tuple[Tuple[float, int], ...]

    def onset_voltage_v(self) -> Optional[float]:
        """Lowest... highest voltage at which errors first appeared.

        Returns the maximum voltage with a nonzero count (errors begin
        there as the sweep descends), or ``None`` if the sweep saw none.
        """
        if not self.ecc_observations:
            return None
        return max(v for v, _ in self.ecc_observations)

    def onset_margin_v(self) -> Optional[float]:
        """Voltage gap between first ECC errors and the crash point."""
        onset = self.onset_voltage_v()
        if onset is None:
            return None
        return onset - self.crash_voltage_v


@dataclass
class CampaignResult:
    """All sweeps of one chip's characterisation campaign."""

    chip_name: str
    nominal_voltage_v: float
    step_v: float
    sweeps: List[SweepResult] = field(default_factory=list)

    # -- per-benchmark views -------------------------------------------------

    def benchmarks(self) -> List[str]:
        """Benchmark names present in the campaign, sorted."""
        return sorted({s.benchmark for s in self.sweeps})

    def cores(self) -> List[int]:
        """Core ids present in the campaign, sorted."""
        return sorted({s.core_id for s in self.sweeps})

    def mean_crash_offset(self, benchmark: str,
                          core_id: Optional[int] = None) -> float:
        """Mean crash offset over runs (and cores unless one is given)."""
        selected = [
            s.crash_offset for s in self.sweeps
            if s.benchmark == benchmark
            and (core_id is None or s.core_id == core_id)
        ]
        if not selected:
            raise ConfigurationError(
                f"no sweeps for benchmark {benchmark!r} core {core_id}"
            )
        return float(np.mean(selected))

    def core_to_core_spread(self, benchmark: str) -> float:
        """Spread between best and worst core's mean crash offset.

        Quantised to the sweep step (as a fraction of nominal): spreads
        below the measurement grid read as 0 %, which is how the paper's
        i5 shows a 0 % minimum variation.
        """
        per_core = [self.mean_crash_offset(benchmark, c) for c in self.cores()]
        raw = max(per_core) - min(per_core)
        step_fraction = self.step_v / self.nominal_voltage_v
        return quantize(raw, step_fraction)

    # -- Table 2 summary -------------------------------------------------------

    def crash_offset_range(self) -> Tuple[float, float]:
        """Min/max per-benchmark mean crash offset (Table 2 row 1)."""
        means = [self.mean_crash_offset(b) for b in self.benchmarks()]
        return min(means), max(means)

    def core_variation_range(self) -> Tuple[float, float]:
        """Min/max per-benchmark core-to-core spread (Table 2 row 2)."""
        spreads = [self.core_to_core_spread(b) for b in self.benchmarks()]
        return min(spreads), max(spreads)

    def ecc_error_counts(self) -> List[int]:
        """All nonzero per-step corrected counts (Table 2 row 3)."""
        counts = []
        for sweep in self.sweeps:
            counts.extend(c for _, c in sweep.ecc_observations if c > 0)
        return counts

    def ecc_count_range(self) -> Optional[Tuple[int, int]]:
        """Min/max corrected counts, or ``None`` when nothing was exposed."""
        counts = self.ecc_error_counts()
        if not counts:
            return None
        return min(counts), max(counts)

    def mean_ecc_onset_margin_v(self) -> Optional[float]:
        """Mean voltage gap between ECC onset and crash (paper: ~15 mV)."""
        margins = [
            m for m in (s.onset_margin_v() for s in self.sweeps)
            if m is not None
        ]
        if not margins:
            return None
        return float(np.mean(margins))

    def table2_rows(self) -> List[List]:
        """The three Table 2 rows as (label, min, max) for rendering."""
        cmin, cmax = self.crash_offset_range()
        vmin, vmax = self.core_variation_range()
        ecc = self.ecc_count_range()
        rows = [
            ["crash points below nominal VID",
             f"-{cmin * 100:.1f}%", f"-{cmax * 100:.1f}%"],
            ["core-to-core variation",
             f"{vmin * 100:.1f}%", f"{vmax * 100:.1f}%"],
            ["number of cache ECC errors",
             str(ecc[0]) if ecc else "-", str(ecc[1]) if ecc else "-"],
        ]
        return rows


class UndervoltingCampaign:
    """Drives the Table 2 characterisation on one chip."""

    def __init__(self, chip: ChipModel, suite: WorkloadSuite,
                 step_v: float = 0.005, runs_per_benchmark: int = 3,
                 max_offset: float = 0.30) -> None:
        if step_v <= 0:
            raise ConfigurationError("step must be positive")
        if runs_per_benchmark < 1:
            raise ConfigurationError("need at least one run per benchmark")
        if not 0 < max_offset < 1:
            raise ConfigurationError("max_offset must be in (0, 1)")
        self.chip = chip
        self.suite = suite
        self.step_v = step_v
        self.runs_per_benchmark = runs_per_benchmark
        self.max_offset = max_offset

    def _sweep(self, workload: Workload, core_id: int,
               run_index: int) -> SweepResult:
        """One downward sweep: step until the first crashing run."""
        nominal = self.chip.spec.nominal
        voltage = nominal.voltage_v
        floor = nominal.voltage_v * (1.0 - self.max_offset)
        observations: List[Tuple[float, int]] = []
        crash_voltage = floor

        while voltage >= floor:
            point = nominal.with_voltage(voltage)
            outcome = self.chip.run_benchmark(core_id, workload, point)
            if not outcome.survived:
                crash_voltage = voltage
                break
            if outcome.cache_result.correctable > 0:
                observations.append(
                    (voltage, outcome.cache_result.correctable)
                )
            voltage = round(voltage - self.step_v, 9)
        else:
            raise ConfigurationError(
                f"{self.chip.name} survived to the sweep floor on "
                f"{workload.name}/core{core_id}; raise max_offset"
            )

        offset = (nominal.voltage_v - crash_voltage) / nominal.voltage_v
        return SweepResult(
            benchmark=workload.name,
            core_id=core_id,
            run_index=run_index,
            crash_voltage_v=crash_voltage,
            crash_offset=offset,
            ecc_observations=tuple(observations),
        )

    def run(self) -> CampaignResult:
        """Run the full campaign: every benchmark × core × repetition."""
        result = CampaignResult(
            chip_name=self.chip.name,
            nominal_voltage_v=self.chip.spec.nominal.voltage_v,
            step_v=self.step_v,
        )
        for workload in self.suite:
            for core in self.chip.cores:
                for run_index in range(self.runs_per_benchmark):
                    result.sweeps.append(
                        self._sweep(workload, core.core_id, run_index)
                    )
        return result
