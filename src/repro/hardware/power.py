"""Power and energy models for cores and DRAM.

Three models the rest of the stack relies on:

* :class:`CorePowerModel` — classical CMOS power: dynamic ``C·V²·f·a``
  plus voltage/temperature-dependent leakage.  Reproduces Section 6.D's
  arithmetic (50 % frequency at −30 % voltage ⇒ ~75 % less power and
  ~50 % less energy for the same work).
* :class:`DramPowerModel` — background + activity + refresh power, with the
  refresh share calibrated to Section 6.B (9 % of a 2 Gb device's power,
  >34 % projected for 32 Gb) and refresh power inversely proportional to
  the refresh interval.
* :func:`energy_for_work` — energy to complete a fixed amount of work at an
  operating point, the quantity SLAs and the TCO tool ultimately price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S, OperatingPoint
from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class CorePowerModel:
    """CMOS core power: ``P = C_eff·V²·f·activity + leakage(V, T)``.

    Parameters
    ----------
    effective_capacitance_f:
        Switched capacitance per cycle (farads); sets the dynamic scale.
    leakage_at_nominal_w:
        Leakage power at ``nominal_voltage_v`` and ``reference_temp_c``.
    nominal_voltage_v:
        Voltage at which ``leakage_at_nominal_w`` is specified.
    voltage_leakage_exponent:
        Exponential sensitivity of leakage to voltage (per volt).
    temp_leakage_exponent:
        Exponential sensitivity of leakage to temperature (per °C).
    reference_temp_c:
        Temperature at which leakage is specified.
    """

    effective_capacitance_f: float = 1.0e-9
    leakage_at_nominal_w: float = 2.0
    nominal_voltage_v: float = 1.0
    voltage_leakage_exponent: float = 3.0
    temp_leakage_exponent: float = 0.02
    reference_temp_c: float = 50.0

    def dynamic_power_w(self, point: OperatingPoint,
                        activity: float = 1.0) -> float:
        """Dynamic (switching) power at an operating point."""
        if not 0.0 <= activity <= 1.0:
            raise ConfigurationError("activity must be in [0, 1]")
        return (self.effective_capacitance_f * point.voltage_v ** 2
                * point.frequency_hz * activity)

    def leakage_power_w(self, point: OperatingPoint,
                        temperature_c: float = 50.0) -> float:
        """Static (leakage) power at an operating point and temperature."""
        v_term = math.exp(self.voltage_leakage_exponent
                          * (point.voltage_v - self.nominal_voltage_v))
        t_term = math.exp(self.temp_leakage_exponent
                          * (temperature_c - self.reference_temp_c))
        return self.leakage_at_nominal_w * v_term * t_term

    def total_power_w(self, point: OperatingPoint, activity: float = 1.0,
                      temperature_c: float = 50.0) -> float:
        """Dynamic plus leakage power."""
        return (self.dynamic_power_w(point, activity)
                + self.leakage_power_w(point, temperature_c))

    def relative_dynamic_power(self, point: OperatingPoint,
                               nominal: OperatingPoint) -> float:
        """Dynamic power of ``point`` relative to ``nominal`` (V²f ratio)."""
        return ((point.voltage_v / nominal.voltage_v) ** 2
                * (point.frequency_hz / nominal.frequency_hz))

    def relative_dynamic_energy(self, point: OperatingPoint,
                                nominal: OperatingPoint) -> float:
        """Dynamic energy per unit work relative to nominal (V² ratio).

        Work is cycle-counted, so the frequency cancels: running slower
        takes proportionally longer at proportionally lower power.
        """
        return (point.voltage_v / nominal.voltage_v) ** 2


def energy_for_work(model: CorePowerModel, point: OperatingPoint,
                    cycles: float, activity: float = 1.0,
                    temperature_c: float = 50.0) -> float:
    """Energy (joules) to execute ``cycles`` of work at ``point``.

    Leakage accrues over the (frequency-dependent) execution time, which is
    why aggressive undervolting at *reduced* frequency can still lose to a
    race-to-idle strategy when leakage dominates — one of the trade-offs the
    Predictor learns.
    """
    if cycles < 0:
        raise ConfigurationError("cycles must be non-negative")
    duration_s = cycles / point.frequency_hz
    return model.total_power_w(point, activity, temperature_c) * duration_s


@dataclass(frozen=True)
class DramPowerModel:
    """DRAM device power: background + activity + refresh.

    Calibrated to the paper's Section 6.B numbers via two anchor points:
    the refresh share of total device power is 9 % at 2 Gb density and
    ≈34 % at 32 Gb (at nominal 64 ms refresh).  Refresh power grows
    linearly with density (every row must be refreshed each interval, per
    RAIDR [26]) while non-refresh power grows sub-linearly
    (``density^0.4``), which reproduces both anchors.
    """

    density_gbit: float = 2.0
    #: Non-refresh (background + activity) power of a 2 Gb device in watts.
    base_power_2gbit_w: float = 0.30
    #: Sub-linear scaling exponent of non-refresh power with density.
    base_power_exponent: float = 0.4
    #: Refresh power coefficient (watts per Gbit at nominal refresh),
    #: solved from the 9 % anchor: r·2 / (r·2 + base) = 0.09.
    refresh_power_per_gbit_w: float = 0.30 * 0.09 / (0.91 * 2.0)

    def __post_init__(self) -> None:
        if self.density_gbit <= 0:
            raise ConfigurationError("density must be positive")

    def non_refresh_power_w(self) -> float:
        """Background plus activity power of the device."""
        return (self.base_power_2gbit_w
                * (self.density_gbit / 2.0) ** self.base_power_exponent)

    def refresh_power_w(self,
                        refresh_interval_s: float = NOMINAL_REFRESH_INTERVAL_S,
                        ) -> float:
        """Refresh power at a given interval (inverse in the interval)."""
        if refresh_interval_s <= 0:
            raise ConfigurationError("refresh interval must be positive")
        nominal = self.refresh_power_per_gbit_w * self.density_gbit
        return nominal * (NOMINAL_REFRESH_INTERVAL_S / refresh_interval_s)

    def total_power_w(self,
                      refresh_interval_s: float = NOMINAL_REFRESH_INTERVAL_S,
                      ) -> float:
        """Total device power at a refresh interval."""
        return self.non_refresh_power_w() + self.refresh_power_w(refresh_interval_s)

    def refresh_share(self,
                      refresh_interval_s: float = NOMINAL_REFRESH_INTERVAL_S,
                      ) -> float:
        """Fraction of total device power spent on refresh."""
        total = self.total_power_w(refresh_interval_s)
        return self.refresh_power_w(refresh_interval_s) / total

    def refresh_saving_w(self, relaxed_interval_s: float) -> float:
        """Power saved by relaxing refresh from nominal to the given interval."""
        return (self.refresh_power_w(NOMINAL_REFRESH_INTERVAL_S)
                - self.refresh_power_w(relaxed_interval_s))

    def at_density(self, density_gbit: float) -> "DramPowerModel":
        """The same model for a different device density."""
        return DramPowerModel(
            density_gbit=density_gbit,
            base_power_2gbit_w=self.base_power_2gbit_w,
            base_power_exponent=self.base_power_exponent,
            refresh_power_per_gbit_w=self.refresh_power_per_gbit_w,
        )
