"""Edge-vs-cloud latency and energy model (paper Section 6.D).

The paper's arithmetic: an IoT service with a 200 ms end-to-end budget
spends roughly half of it on the network round trip to a cloud
datacenter, leaving a tight compute budget; processing at the edge
eliminates most of the communication latency, so the *same* deadline can
be met at a much lower frequency and voltage — "operating at 50 % of the
peak frequency with 30 % less voltage translates to running with 50 %
less energy and 75 % less power".

:class:`EdgeServiceModel` turns a latency budget and deployment RTTs into
the minimum frequency that still meets the deadline, maps frequency to
voltage along a DVFS curve, and reports the energy/power savings through
the CMOS power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class DeploymentLatency:
    """Network characteristics of one deployment option."""

    name: str
    network_rtt_ms: float

    def __post_init__(self) -> None:
        if self.network_rtt_ms < 0:
            raise ConfigurationError("RTT must be non-negative")


#: The paper's round numbers: ~100 ms of a 200 ms budget goes to the
#: public network for a cloud round trip; the edge is effectively local.
CLOUD = DeploymentLatency("cloud", network_rtt_ms=100.0)
EDGE = DeploymentLatency("edge", network_rtt_ms=5.0)


@dataclass(frozen=True)
class DvfsCurve:
    """Linear voltage/frequency relation of a DVFS ladder.

    Voltage scales from ``min_voltage_fraction`` at ``min_frequency_fraction``
    up to 1.0 at full frequency.  The paper's example point (50 % f,
    −30 % V) lies on the default curve's lower end.
    """

    min_frequency_fraction: float = 0.5
    min_voltage_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0 < self.min_frequency_fraction <= 1:
            raise ConfigurationError("bad frequency fraction")
        if not 0 < self.min_voltage_fraction <= 1:
            raise ConfigurationError("bad voltage fraction")

    def voltage_fraction(self, frequency_fraction: float) -> float:
        """Voltage fraction needed at a frequency fraction."""
        if not 0 < frequency_fraction <= 1:
            raise ConfigurationError(
                "frequency fraction must be in (0, 1]"
            )
        f = max(frequency_fraction, self.min_frequency_fraction)
        t = (f - self.min_frequency_fraction) / (
            1.0 - self.min_frequency_fraction)
        return self.min_voltage_fraction + t * (1.0 - self.min_voltage_fraction)


@dataclass(frozen=True)
class ServicePoint:
    """The operating point a deployment allows for the service."""

    deployment: str
    frequency_fraction: float
    voltage_fraction: float
    compute_budget_ms: float
    #: Dynamic energy per request relative to full-speed execution.
    relative_energy: float
    #: Dynamic power relative to full-speed execution.
    relative_power: float

    @property
    def energy_saving(self) -> float:
        """One minus the relative energy."""
        return 1.0 - self.relative_energy

    @property
    def power_saving(self) -> float:
        """One minus the relative power."""
        return 1.0 - self.relative_power


class EdgeServiceModel:
    """Latency-budget arithmetic for one interactive service."""

    def __init__(self, end_to_end_budget_ms: float = 200.0,
                 compute_time_at_peak_ms: float = 95.0,
                 dvfs: Optional[DvfsCurve] = None) -> None:
        if end_to_end_budget_ms <= 0 or compute_time_at_peak_ms <= 0:
            raise ConfigurationError("budgets must be positive")
        self.end_to_end_budget_ms = end_to_end_budget_ms
        self.compute_time_at_peak_ms = compute_time_at_peak_ms
        self.dvfs = dvfs or DvfsCurve()

    def compute_budget_ms(self, deployment: DeploymentLatency) -> float:
        """Time left for computation after the network takes its share."""
        budget = self.end_to_end_budget_ms - deployment.network_rtt_ms
        if budget <= 0:
            raise ConfigurationError(
                f"deployment {deployment.name!r} leaves no compute budget"
            )
        return budget

    def required_frequency_fraction(self,
                                    deployment: DeploymentLatency) -> float:
        """Slowest clock that still meets the deadline (1.0 = peak)."""
        budget = self.compute_budget_ms(deployment)
        fraction = self.compute_time_at_peak_ms / budget
        if fraction > 1.0:
            raise ConfigurationError(
                f"service cannot meet its deadline on {deployment.name!r} "
                "even at peak frequency"
            )
        return max(fraction, self.dvfs.min_frequency_fraction)

    def service_point(self, deployment: DeploymentLatency) -> ServicePoint:
        """The (frequency, voltage) the deployment permits, with savings."""
        f = self.required_frequency_fraction(deployment)
        v = self.dvfs.voltage_fraction(f)
        return ServicePoint(
            deployment=deployment.name,
            frequency_fraction=f,
            voltage_fraction=v,
            compute_budget_ms=self.compute_budget_ms(deployment),
            relative_energy=v ** 2,          # E ∝ V² (work is fixed cycles)
            relative_power=v ** 2 * f,       # P ∝ V²·f
        )

    def compare(self, cloud: DeploymentLatency = CLOUD,
                edge: DeploymentLatency = EDGE) -> dict:
        """Cloud vs edge service points plus the headline deltas."""
        cloud_point = self.service_point(cloud)
        edge_point = self.service_point(edge)
        return {
            "cloud": cloud_point,
            "edge": edge_point,
            "energy_saving_vs_cloud": (
                1.0 - edge_point.relative_energy / cloud_point.relative_energy
            ),
            "power_saving_vs_cloud": (
                1.0 - edge_point.relative_power / cloud_point.relative_power
            ),
        }
