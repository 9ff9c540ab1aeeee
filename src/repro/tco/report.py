"""Table 3 projection report: energy-efficiency and TCO improvements.

The paper's Table 3 lists the 2019 projection for an ARM-based UniServer
over a baseline ARM server platform, with four sources of energy-
efficiency improvement: technology scaling (FinFET adoption), software
maturity for ARM servers, running at the Edge ("Fog"), and operating at
EOP (the UniServer margins).  The scanned row reads "1.15 4 2 3 1.5 36";
we interpret the sources as Scaling = 1.15×, SW maturity = 4×, Fog = 2×,
Margins = 3× and report both the product of sources (27.6×) and the
paper's printed 36× overall; the prose separately states that the energy
gains alone yield a 1.15× TCO improvement, with the overall TCO factor
printed as 1.5× (see EXPERIMENTS.md for the ambiguity note).

This module computes the TCO consequences of those EE sources through
the actual cost model rather than restating constants: the EE-only TCO
improvement falls out of the energy share of the baseline TCO, and the
overall improvement adds the yield-recovery and edge-infrastructure
effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.exceptions import ConfigurationError
from .model import (
    DatacenterSpec,
    EDGE_SITE,
    ServerSpec,
    TCOModel,
    apply_energy_efficiency,
    apply_yield_recovery,
)


@dataclass(frozen=True)
class EnergyEfficiencySources:
    """The four multiplicative EE improvement sources of Table 3."""

    scaling: float = 1.15
    sw_maturity: float = 4.0
    fog: float = 2.0
    margins: float = 3.0

    def __post_init__(self) -> None:
        for name in ("scaling", "sw_maturity", "fog", "margins"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    def overall(self) -> float:
        """Product of the sources (the paper prints 36; ours is ≈27.6)."""
        return self.scaling * self.sw_maturity * self.fog * self.margins

    def rows(self) -> List[Tuple[str, float]]:
        """(label, value) rows for table rendering."""
        return [
            ("Scaling", self.scaling),
            ("Sw maturity", self.sw_maturity),
            ("Fog", self.fog),
            ("Margins", self.margins),
            ("Overall", self.overall()),
        ]


#: Baseline 2016-era ARM micro-server platform of the projection.
BASELINE_ARM_SERVER = ServerSpec(
    name="arm-server-2016",
    chip_cost_usd=600.0,
    other_bom_usd=1400.0,
    binning_yield=0.85,
    average_power_w=90.0,
    provisioned_power_w=150.0,
)


@dataclass(frozen=True)
class Table3Projection:
    """The computed Table 3: EE sources plus TCO factors."""

    sources: EnergyEfficiencySources
    ee_only_tco: float
    overall_tco: float

    def rows(self) -> List[Tuple[str, float]]:
        """(label, value) rows for table rendering."""
        return self.sources.rows() + [
            ("TCO (EE gains only)", self.ee_only_tco),
            ("TCO (overall)", self.overall_tco),
        ]


def project_table3(sources: Optional[EnergyEfficiencySources] = None,
                   baseline: ServerSpec = BASELINE_ARM_SERVER,
                   datacenter: Optional[DatacenterSpec] = None,
                   recovered_yield: float = 0.97,
                   edge_site: DatacenterSpec = EDGE_SITE,
                   ) -> Table3Projection:
    """Compute the Table 3 projection through the TCO model.

    * ``ee_only_tco``: same datacenter, same silicon — only the energy
      bill shrinks by the overall EE factor.
    * ``overall_tco``: additionally, per-core EOPs recover binning
      discards (cheaper silicon) and the deployment moves to an edge
      site (cheaper infrastructure, better PUE).
    """
    sources = sources or EnergyEfficiencySources()
    model = TCOModel(datacenter or DatacenterSpec())
    ee_factor = sources.overall()

    efficient = apply_energy_efficiency(baseline, ee_factor)
    ee_only_tco = model.improvement(baseline, efficient)

    recovered = apply_yield_recovery(efficient, recovered_yield)
    overall_tco = model.improvement(
        baseline, recovered, improved_datacenter=edge_site,
    )
    return Table3Projection(
        sources=sources,
        ee_only_tco=ee_only_tco,
        overall_tco=overall_tco,
    )
