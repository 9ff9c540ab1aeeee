"""Chip (SoC) assembly and the catalog of modelled parts.

A :class:`ChipModel` composes cores, a cache hierarchy, a power model, a
thermal node and sensors into one undervoltable processor.  The catalog
provides the two parts characterised in the paper's Table 2 — the low-end
Intel Core i5-4200U and the high-end Intel Core i7-3970X — calibrated so a
full characterisation campaign reproduces the measured ranges, plus an
ARM 64-bit Server-on-Chip standing in for the UniServer main chassis.

Calibration notes (see DESIGN.md §6): crash voltages derive from a
chip-wide static Vmin, symmetric per-core deviations and workload droop.
The SPEC-like suite spans droop intensities ≈0.05–0.8 and core
sensitivities ≈0.45–0.9, leaving headroom above for stress viruses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..core.eop import OperatingPoint
from ..core.exceptions import ConfigurationError
from ..workloads.base import Workload
from .cache import CacheModel, CacheParameters, CacheRunResult
from .core_model import CoreModel, CoreParameters
from .power import CorePowerModel
from .sensors import PerfCounters, SensorBlock, SensorReadings
from .thermal import ThermalModel
from .variation import ChipSample


@dataclass(frozen=True)
class ChipSpec:
    """Static description of a chip design plus one specimen's silicon.

    ``core_deltas_v`` pins the per-core Vmin deviations of the *specific
    unit under test* (the paper characterises individual machines);
    population studies instead derive specs from
    :class:`~repro.hardware.variation.ChipSample` via
    :func:`spec_from_variation`.
    """

    name: str
    nominal: OperatingPoint
    vmin_base_v: float
    core_deltas_v: Tuple[float, ...]
    droop_span: float
    sensitivity_floor: float = 0.0
    cache: CacheParameters = field(default_factory=CacheParameters)
    tdp_w: float = 15.0
    leakage_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.core_deltas_v:
            raise ConfigurationError("chip needs at least one core delta")
        if self.vmin_base_v >= self.nominal.voltage_v:
            raise ConfigurationError(
                "static Vmin must be below the nominal voltage"
            )

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return len(self.core_deltas_v)


@dataclass(frozen=True)
class RunOutcome:
    """Result of one benchmark run on one core."""

    survived: bool
    crash_voltage_v: float
    cache_result: CacheRunResult
    power_w: float
    counters: Optional[PerfCounters] = None


class ChipModel:
    """One undervoltable processor: cores + caches + power/thermal/sensors."""

    def __init__(self, spec: ChipSpec, seed: int = 0) -> None:
        self.spec = spec
        self.cores: List[CoreModel] = []
        for core_id, delta in enumerate(spec.core_deltas_v):
            params = CoreParameters(
                vmin_base_v=spec.vmin_base_v,
                delta_v=delta,
                droop_span=spec.droop_span,
                sensitivity_floor=spec.sensitivity_floor,
                max_frequency_hz=spec.nominal.frequency_hz,
            )
            self.cores.append(CoreModel(core_id, params, seed=seed + core_id))
        self.cache = CacheModel(spec.cache, seed=seed + 1000)
        dynamic_w = spec.tdp_w * (1.0 - spec.leakage_fraction)
        ceff = dynamic_w / (
            spec.nominal.voltage_v ** 2 * spec.nominal.frequency_hz
        )
        self.power = CorePowerModel(
            effective_capacitance_f=ceff,
            leakage_at_nominal_w=spec.tdp_w * spec.leakage_fraction,
            nominal_voltage_v=spec.nominal.voltage_v,
        )
        self.thermal = ThermalModel()
        self.sensors = SensorBlock(seed=seed + 2000)

    @property
    def name(self) -> str:
        """The chip's catalog name."""
        return self.spec.name

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return len(self.cores)

    def core(self, core_id: int) -> CoreModel:
        """One core model by id."""
        if not 0 <= core_id < len(self.cores):
            raise ConfigurationError(
                f"core {core_id} out of range for {self.name}"
            )
        return self.cores[core_id]

    def active_cores(self) -> List[CoreModel]:
        """Cores not isolated by the hypervisor."""
        return [c for c in self.cores if not c.isolated]

    def run_benchmark(self, core_id: int, workload: Workload,
                      point: OperatingPoint,
                      with_counters: bool = False) -> RunOutcome:
        """Execute one run of ``workload`` on ``core_id`` at ``point``.

        A run either survives (possibly with corrected cache errors — the
        Table 2 ECC counts) or crashes when the supply dips below the
        core's workload-dependent crash voltage.
        """
        core = self.core(core_id)
        profile = workload.profile
        crash_v = core.sample_crash_voltage_v(profile, point.frequency_hz)
        survived = point.voltage_v >= crash_v
        cache_result = self.cache.run(point.voltage_v, crash_v, profile)
        power_w = self.power.total_power_w(
            point, activity=profile.activity_factor,
            temperature_c=self.thermal.temperature_c,
        )
        counters = None
        if with_counters and survived:
            counters = self.sensors.count_run(workload, point.frequency_hz)
        return RunOutcome(
            survived=survived,
            crash_voltage_v=crash_v,
            cache_result=cache_result,
            power_w=power_w,
            counters=counters,
        )

    def state_dict(self) -> dict:
        """Serializable mutable state of the whole chip."""
        return {
            "cores": [core.state_dict() for core in self.cores],
            "cache": self.cache.state_dict(),
            "sensors": self.sensors.state_dict(),
            "thermal": self.thermal.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        saved_cores = state["cores"]
        if len(saved_cores) != len(self.cores):
            raise ConfigurationError(
                f"chip restore mismatch: snapshot has {len(saved_cores)} "
                f"cores, chip has {len(self.cores)}")
        for core, core_state in zip(self.cores, saved_cores):
            core.load_state_dict(core_state)
        self.cache.load_state_dict(state["cache"])
        self.sensors.load_state_dict(state["sensors"])
        self.thermal.load_state_dict(state["thermal"])

    def _true_power_w(self, point: OperatingPoint, activity: float) -> float:
        """Noise-free chip power at an operating point and temperature."""
        return self.power.total_power_w(
            point, activity=activity,
            temperature_c=self.thermal.temperature_c,
        )

    def read_sensors(self, timestamp: float, point: OperatingPoint,
                     activity: float = 0.5) -> SensorReadings:
        """Snapshot the chip's sensors at an operating point."""
        return self.sensors.read(
            timestamp, point, self.thermal.temperature_c,
            self._true_power_w(point, activity),
        )

    def read_sensors_many(self, n: int, point: OperatingPoint,
                          activity: float = 0.5,
                          ) -> List[Tuple[float, float, float]]:
        """``n`` consecutive ``(voltage_v, temperature_c, power_w)`` reads
        of the chip in its current state (see
        :meth:`SensorBlock.read_many`)."""
        return self.sensors.read_many(
            n, point.voltage_v, self.thermal.temperature_c,
            self._true_power_w(point, activity),
        )


# ---------------------------------------------------------------------------
# Catalog: the parts the paper characterises, plus the UniServer chassis.
# ---------------------------------------------------------------------------

def intel_i5_4200u_spec() -> ChipSpec:
    """The low-end part of Table 2: 2 cores, 0.844 V @ 2.6 GHz.

    Calibration targets: benchmark-mean crash offsets −10 %…−11.2 %,
    core-to-core variation 0 %…2.7 %, cache ECC errors 1…17 with onset
    ≈15 mV above the crash point.
    """
    return ChipSpec(
        name="Intel Core i5-4200U",
        nominal=OperatingPoint(0.844, 2.6e9),
        vmin_base_v=0.74880,
        core_deltas_v=(-0.01373, 0.01373),
        droop_span=0.01777,
        sensitivity_floor=0.45,
        cache=CacheParameters(ecc_reporting=True),
        tdp_w=15.0,
    )


def intel_i7_3970x_spec() -> ChipSpec:
    """The high-end part of Table 2: 6 cores, 1.365 V @ 4.0 GHz.

    Calibration targets: benchmark-mean crash offsets −8.4 %…−15.4 %,
    core-to-core variation 3.7 %…8 %, no ECC visibility.
    """
    return ChipSpec(
        name="Intel Core i7-3970X",
        nominal=OperatingPoint(1.365, 4.0e9),
        vmin_base_v=1.1493,
        core_deltas_v=(-0.0558, -0.0335, -0.0112, 0.0112, 0.0335, 0.0558),
        droop_span=0.10,
        sensitivity_floor=0.0,
        cache=CacheParameters(ecc_reporting=False),
        tdp_w=150.0,
    )


def arm_server_soc_spec(n_cores: int = 8) -> ChipSpec:
    """A 64-bit ARM Server-on-Chip, the UniServer main chassis stand-in.

    Loosely X-Gene-class: 8 cores at 2.4 GHz, 0.98 V nominal, with the
    >30 % combined margins reported for 28 nm ARM parts [4].
    """
    if n_cores < 1:
        raise ConfigurationError("SoC needs at least one core")
    span = 0.060
    step = 2 * span / max(1, n_cores - 1)
    deltas = tuple(
        round(-span + i * step, 5) if n_cores > 1 else 0.0
        for i in range(n_cores)
    )
    return ChipSpec(
        name="ARM Server-on-Chip",
        nominal=OperatingPoint(0.98, 2.4e9),
        vmin_base_v=0.72,
        core_deltas_v=tuple(d * 0.5 for d in deltas),
        droop_span=0.08,
        sensitivity_floor=0.1,
        cache=CacheParameters(ecc_reporting=True),
        tdp_w=45.0,
    )


def spec_from_variation(base: ChipSpec, sample: ChipSample) -> ChipSpec:
    """Instantiate a design for one sampled manufactured specimen.

    The variation sample's per-core Vmin factors become per-core deltas on
    the base design, enabling population-scale studies (Figure 1, yield).
    """
    if sample.n_cores != base.n_cores:
        raise ConfigurationError(
            f"variation sample has {sample.n_cores} cores, "
            f"spec {base.name!r} has {base.n_cores}"
        )
    mean_factor = sum(sample.core_vmin_factor) / sample.n_cores
    vmin_base = base.vmin_base_v * mean_factor
    deltas = tuple(
        base.vmin_base_v * (f - mean_factor) + d
        for f, d in zip(sample.core_vmin_factor, base.core_deltas_v)
    )
    if vmin_base >= base.nominal.voltage_v:
        # A hopelessly weak specimen: clamp just below nominal so the
        # model stays constructible; binning will discard it anyway.
        vmin_base = base.nominal.voltage_v * 0.999
    return replace(base, name=f"{base.name} #chip{sample.chip_id}",
                   vmin_base_v=vmin_base, core_deltas_v=deltas)
