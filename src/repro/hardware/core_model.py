"""CPU core model: Vmin, voltage droop, and undervolting crash behaviour.

This is the silicon substitute for the paper's undervolted Intel parts
(Table 2).  Each core has a *static* minimum operational voltage composed
of a chip-wide base plus a core-specific deviation; a running workload
lowers the *effective* supply through di/dt voltage droop, so the observed
crash voltage is::

    V_crash(core, workload) =
        (vmin_base + delta_core · sens(workload) + aging_drift)
        / (1 - droop_span · droop_intensity(workload))

* ``delta_core`` is the core's static Vmin deviation (process variation).
* ``sens(workload)`` in [0, 1] is how strongly the workload exposes
  core-to-core differences — control-heavy codes exercise fewer critical
  paths and expose less variation than wide numeric codes, which is why
  the paper measures core-to-core variation from 0 % up to 8 % depending
  on the benchmark.
* ``droop_span`` is the chip's worst-case supply droop fraction, reached
  when a workload's droop intensity is 1.

Frequency scaling lowers Vmin along a linear timing-slack model, enabling
the EOP exploration the rest of the stack performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from ..core.eop import OperatingPoint
from ..core.exceptions import ConfigurationError, MachineCrash
from ..workloads.base import StressProfile
from .aging import AgingModel


@dataclass(frozen=True)
class CoreParameters:
    """Electrical parameters of one core.

    Parameters
    ----------
    vmin_base_v:
        Chip-wide static Vmin at maximum frequency (volts).
    delta_v:
        This core's Vmin deviation from the chip base (volts, signed).
    droop_span:
        Worst-case fractional supply droop of the chip's power-delivery
        network (reached at droop intensity 1).
    sensitivity_floor:
        Workload core-sensitivity below this value is not expressed at all
        by this design (measurement/critical-path masking); the remaining
        range is rescaled to [0, 1].
    frequency_vmin_slope:
        Fractional Vmin reduction when frequency halves (timing slack).
    max_frequency_hz:
        The frequency at which ``vmin_base_v`` holds.
    run_noise_sigma_v:
        Run-to-run Gaussian noise of the observed crash voltage (volts),
        modelling temperature wander and sporadic droop alignment.
    """

    vmin_base_v: float
    delta_v: float
    droop_span: float
    max_frequency_hz: float
    sensitivity_floor: float = 0.0
    frequency_vmin_slope: float = 0.25
    run_noise_sigma_v: float = 0.002

    def __post_init__(self) -> None:
        if self.vmin_base_v <= 0:
            raise ConfigurationError("vmin_base_v must be positive")
        if not 0.0 <= self.droop_span < 0.5:
            raise ConfigurationError("droop_span must be in [0, 0.5)")
        if not 0.0 <= self.sensitivity_floor < 1.0:
            raise ConfigurationError("sensitivity_floor must be in [0, 1)")
        if self.max_frequency_hz <= 0:
            raise ConfigurationError("max_frequency_hz must be positive")
        if self.run_noise_sigma_v < 0:
            raise ConfigurationError("run noise must be non-negative")


class CoreModel:
    """One CPU core with a workload-dependent crash voltage.

    The model is deterministic given its seed; run-to-run noise comes from
    a private :class:`numpy.random.Generator`.
    """

    def __init__(self, core_id: int, params: CoreParameters,
                 seed: int = 0, aging: Optional[AgingModel] = None) -> None:
        if core_id < 0:
            raise ConfigurationError("core_id must be non-negative")
        self.core_id = core_id
        self.params = params
        self.aging = aging or AgingModel(
            nominal_voltage_v=params.vmin_base_v * 1.2
        )
        self._rng = np.random.default_rng(seed)
        self._isolated = False

    # -- state -------------------------------------------------------------

    @property
    def isolated(self) -> bool:
        """Whether the hypervisor has fenced this core off."""
        return self._isolated

    def isolate(self) -> None:
        """Fence the core off from scheduling (hypervisor isolation)."""
        self._isolated = True

    def deisolate(self) -> None:
        """Return the core to service (e.g. after re-characterisation)."""
        self._isolated = False

    # -- physics -----------------------------------------------------------

    def expressed_sensitivity(self, profile: StressProfile) -> float:
        """Core-sensitivity after applying the design's masking floor."""
        floor = self.params.sensitivity_floor
        raw = profile.core_sensitivity
        if raw <= floor:
            return 0.0
        return (raw - floor) / (1.0 - floor)

    def static_vmin_v(self, frequency_hz: Optional[float] = None) -> float:
        """Static Vmin of this core at a frequency (no droop, no noise)."""
        p = self.params
        freq = p.max_frequency_hz if frequency_hz is None else frequency_hz
        if freq <= 0 or freq > p.max_frequency_hz * 1.001:
            raise ConfigurationError(
                f"frequency {freq} Hz outside (0, fmax] for core {self.core_id}"
            )
        slack = 1.0 - freq / p.max_frequency_hz
        relief = p.frequency_vmin_slope * 2.0 * slack  # halving => full slope
        base = p.vmin_base_v * max(0.5, 1.0 - relief)
        return base + self.aging.vmin_drift_v()

    def crash_voltage_v(self, profile: StressProfile,
                        frequency_hz: Optional[float] = None) -> float:
        """Expected crash voltage for a workload profile (no run noise)."""
        p = self.params
        vmin = (self.static_vmin_v(frequency_hz)
                + p.delta_v * self.expressed_sensitivity(profile))
        droop = p.droop_span * profile.droop_intensity
        return vmin / (1.0 - droop)

    def sample_crash_voltage_v(self, profile: StressProfile,
                               frequency_hz: Optional[float] = None) -> float:
        """One run's observed crash voltage (expected value + run noise)."""
        noise = self._rng.normal(0.0, self.params.run_noise_sigma_v)
        return self.crash_voltage_v(profile, frequency_hz) + noise

    def crash_probability(self, point: OperatingPoint,
                          profile: StressProfile) -> float:
        """Probability a run at ``point`` crashes (Gaussian noise CDF).

        This is the ground-truth quantity the Predictor daemon estimates
        from observations.
        """
        expected = self.crash_voltage_v(profile, point.frequency_hz)
        sigma = max(self.params.run_noise_sigma_v, 1e-6)
        return float(ndtr((expected - point.voltage_v) / sigma))

    def check_run(self, point: OperatingPoint, profile: StressProfile,
                  raise_on_crash: bool = False) -> bool:
        """Execute one run; returns ``True`` if the core survived.

        With ``raise_on_crash`` the simulated crash surfaces as
        :class:`MachineCrash`, mirroring how a real characterisation run
        ends (machine unresponsive, reboot required).
        """
        crash_v = self.sample_crash_voltage_v(profile, point.frequency_hz)
        survived = point.voltage_v >= crash_v
        if not survived and raise_on_crash:
            raise MachineCrash(
                f"core {self.core_id} crashed at {point.describe()} "
                f"(crash voltage {crash_v:.3f} V)",
                component=f"core{self.core_id}",
            )
        return survived

    def age(self, dt_s: float, voltage_v: float, temperature_c: float) -> None:
        """Accrue aging stress for ``dt_s`` seconds of operation."""
        self.aging.accrue(dt_s, voltage_v, temperature_c)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable mutable state: RNG, isolation flag, aging stress."""
        return {
            "rng": self._rng.bit_generator.state,
            "isolated": self._isolated,
            "effective_stress_s": self.aging._effective_stress_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self._isolated = bool(state["isolated"])
        self.aging._effective_stress_s = float(state["effective_stress_s"])
