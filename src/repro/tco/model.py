"""Total-Cost-of-Ownership analytical model.

The paper plans "a tool for estimating the Total Cost of Ownership (TCO)
gains against other solutions" following the analytical framework of
Hardy et al. [31] (ISPASS 2013).  The model splits TCO into:

* **capex** — server acquisition (chip cost inflated by binning yield
  loss — the UniServer yield argument of Section 5.A — plus the rest of
  the BOM) and datacenter infrastructure (cost per provisioned watt,
  amortised over the facility lifetime);
* **opex** — energy (IT power × PUE × electricity price), maintenance and
  personnel.

Everything is normalised per server over the deployment lifetime, so TCO
ratios between configurations are directly the "×" improvements the
paper's Table 3 quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..core.exceptions import ConfigurationError

HOURS_PER_YEAR = 24 * 365.25


@dataclass(frozen=True)
class ServerSpec:
    """Cost/power description of one server configuration."""

    name: str
    chip_cost_usd: float = 600.0
    other_bom_usd: float = 1400.0
    #: Fraction of manufactured chips that survive binning; chip cost is
    #: amortised over sold parts, so cost scales with 1/yield.
    binning_yield: float = 0.85
    #: Average wall power of the micro-server under datacenter load.
    average_power_w: float = 90.0
    #: Provisioned (peak) power, which sizes the infrastructure.
    provisioned_power_w: float = 150.0

    def __post_init__(self) -> None:
        if not 0 < self.binning_yield <= 1:
            raise ConfigurationError("yield must be in (0, 1]")
        if min(self.chip_cost_usd, self.other_bom_usd,
               self.average_power_w, self.provisioned_power_w) < 0:
            raise ConfigurationError("costs and powers must be >= 0")

    def acquisition_cost_usd(self) -> float:
        """Server price: yield-adjusted silicon plus the rest of the BOM."""
        return self.chip_cost_usd / self.binning_yield + self.other_bom_usd


@dataclass(frozen=True)
class DatacenterSpec:
    """Facility and operations parameters."""

    name: str = "cloud"
    #: Power usage effectiveness: total facility power / IT power.
    pue: float = 1.7
    electricity_usd_per_kwh: float = 0.10
    #: Infrastructure (building, power, cooling) cost per provisioned watt.
    infrastructure_usd_per_w: float = 10.0
    #: Facility amortisation period (years).
    infrastructure_lifetime_y: float = 12.0
    #: Server refresh / deployment lifetime (years).
    server_lifetime_y: float = 4.0
    #: Annual maintenance as a fraction of acquisition cost.
    maintenance_fraction_per_y: float = 0.05
    #: Admin personnel cost per server per year (scales down with
    #: automation; edge sites share remote administrators).
    personnel_usd_per_server_y: float = 150.0

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ConfigurationError("PUE cannot be below 1")
        for name in ("electricity_usd_per_kwh", "infrastructure_usd_per_w",
                     "personnel_usd_per_server_y",
                     "maintenance_fraction_per_y"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.infrastructure_lifetime_y <= 0 or self.server_lifetime_y <= 0:
            raise ConfigurationError("lifetimes must be positive")


#: An edge deployment: no purpose-built facility (existing premises, free
#: cooling), pricier retail electricity, shared remote administration.
EDGE_SITE = DatacenterSpec(
    name="edge",
    pue=1.15,
    electricity_usd_per_kwh=0.14,
    infrastructure_usd_per_w=2.0,
    infrastructure_lifetime_y=8.0,
    server_lifetime_y=4.0,
    maintenance_fraction_per_y=0.06,
    personnel_usd_per_server_y=120.0,
)


@dataclass(frozen=True)
class TCOBreakdown:
    """Per-server TCO over the deployment lifetime, by component."""

    server_capex_usd: float
    infrastructure_capex_usd: float
    energy_opex_usd: float
    maintenance_opex_usd: float
    personnel_opex_usd: float

    @property
    def capex_usd(self) -> float:
        """Capital expenses (server plus infrastructure)."""
        return self.server_capex_usd + self.infrastructure_capex_usd

    @property
    def opex_usd(self) -> float:
        """Operating expenses (energy, maintenance, personnel)."""
        return (self.energy_opex_usd + self.maintenance_opex_usd
                + self.personnel_opex_usd)

    @property
    def total_usd(self) -> float:
        """Capex plus opex."""
        return self.capex_usd + self.opex_usd

    def energy_share(self) -> float:
        """Fraction of TCO spent on energy (the EE-gain leverage)."""
        return self.energy_opex_usd / self.total_usd if self.total_usd else 0.0

    def rows(self) -> List[tuple]:
        """(label, value) rows for table rendering."""
        return [
            ("server capex", self.server_capex_usd),
            ("infrastructure capex", self.infrastructure_capex_usd),
            ("energy opex", self.energy_opex_usd),
            ("maintenance opex", self.maintenance_opex_usd),
            ("personnel opex", self.personnel_opex_usd),
            ("total", self.total_usd),
        ]


class TCOModel:
    """Computes per-server lifetime TCO for a (server, facility) pair."""

    def __init__(self, datacenter: Optional[DatacenterSpec] = None) -> None:
        self.datacenter = datacenter or DatacenterSpec()

    def breakdown(self, server: ServerSpec) -> TCOBreakdown:
        """Full TCO breakdown for one server over its lifetime."""
        dc = self.datacenter
        lifetime_y = dc.server_lifetime_y

        server_capex = server.acquisition_cost_usd()
        infra_capex = (server.provisioned_power_w
                       * dc.infrastructure_usd_per_w
                       * lifetime_y / dc.infrastructure_lifetime_y)
        energy_kwh = (server.average_power_w / 1000.0 * dc.pue
                      * HOURS_PER_YEAR * lifetime_y)
        energy_opex = energy_kwh * dc.electricity_usd_per_kwh
        maintenance = (server_capex * dc.maintenance_fraction_per_y
                       * lifetime_y)
        personnel = dc.personnel_usd_per_server_y * lifetime_y
        return TCOBreakdown(
            server_capex_usd=server_capex,
            infrastructure_capex_usd=infra_capex,
            energy_opex_usd=energy_opex,
            maintenance_opex_usd=maintenance,
            personnel_opex_usd=personnel,
        )

    def total(self, server: ServerSpec) -> float:
        """Number of claims checked."""
        return self.breakdown(server).total_usd

    def improvement(self, baseline: ServerSpec,
                    improved: ServerSpec,
                    improved_datacenter: Optional[DatacenterSpec] = None,
                    ) -> float:
        """TCO improvement factor (baseline / improved, >1 is better)."""
        base = self.total(baseline)
        model = (self if improved_datacenter is None
                 else TCOModel(improved_datacenter))
        new = model.total(improved)
        if new <= 0:
            raise ConfigurationError("improved TCO must be positive")
        return base / new


def apply_energy_efficiency(server: ServerSpec, ee_factor: float,
                            name: Optional[str] = None) -> ServerSpec:
    """A server whose energy per unit work improved ``ee_factor``×.

    Serving the same load, its average power divides by the factor.
    Provisioned power is left unchanged: the facility is sized for the
    worst case at deployment time, and EOPs save *average* energy, not
    the rated envelope the infrastructure must still support.
    """
    if ee_factor <= 0:
        raise ConfigurationError("EE factor must be positive")
    return replace(
        server,
        name=name or f"{server.name}+ee{ee_factor:g}x",
        average_power_w=server.average_power_w / ee_factor,
    )


def apply_yield_recovery(server: ServerSpec, recovered_yield: float,
                         name: Optional[str] = None) -> ServerSpec:
    """A server built from silicon whose effective yield improved.

    UniServer's per-core EOPs make previously discarded parts sellable
    (Section 5.A), cutting the amortised chip cost.
    """
    if not 0 < recovered_yield <= 1:
        raise ConfigurationError("yield must be in (0, 1]")
    return replace(
        server,
        name=name or f"{server.name}+yield{recovered_yield:.2f}",
        binning_yield=recovered_yield,
    )
