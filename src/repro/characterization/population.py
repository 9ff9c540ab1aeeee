"""Chip-population binning study (paper Figure 1).

Figure 1's message: "each manufactured chip is intrinsically different in
terms of capabilities" — the population spreads across performance bins,
and conservative per-SKU margins waste everything above the worst part.

This campaign samples a manufactured population, bins it classically, and
quantifies what UniServer recovers:

* the Vmin/Fmax distribution and its bin populations (the figure);
* the classical binning yield and the fraction of discards recoverable
  with per-core EOPs (Section 5.A's yield argument);
* the mean per-chip voltage margin wasted by a one-size-fits-all nominal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..hardware.variation import (
    DEFAULT_BINS,
    Bin,
    ChipSample,
    VariationModel,
    VariationParameters,
    bin_population,
    binning_yield,
    per_core_recoverable_fraction,
)


@dataclass
class PopulationStudy:
    """Results of a population sampling + binning run."""

    population: List[ChipSample]
    binned: Dict[str, List[ChipSample]]
    bins: Tuple[Bin, ...]

    @property
    def n_chips(self) -> int:
        """Number of chips in the sampled population."""
        return len(self.population)

    def bin_counts(self) -> Dict[str, int]:
        """Chips per bin, in bin order then discard."""
        order = [b.name for b in self.bins] + ["discard"]
        return {name: len(self.binned.get(name, [])) for name in order}

    def classical_yield(self) -> float:
        """Fraction of parts surviving classical binning."""
        return binning_yield(self.binned)

    def recoverable_discard_fraction(self) -> float:
        """Fraction of discards usable under per-core EOPs."""
        worst_bin = max(b.max_vmin_factor for b in self.bins)
        return per_core_recoverable_fraction(self.population, worst_bin)

    def vmin_factor_histogram(self, n_bins: int = 12,
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of worst-core Vmin factors (Figure 1's x-axis)."""
        worst = [c.worst_vmin_factor() for c in self.population]
        counts, edges = np.histogram(worst, bins=n_bins)
        return counts, edges

    def per_core_margin_waste(self) -> float:
        """Mean fractional voltage wasted by worst-part provisioning.

        A conservative vendor sets nominal for the worst shipped part;
        every better core runs that much above its true requirement.
        UniServer reclaims this gap per core.
        """
        shipped = [
            chip for name, chips in self.binned.items() if name != "discard"
            for chip in chips
        ]
        if not shipped:
            return 0.0
        worst_shipped = max(c.worst_vmin_factor() for c in shipped)
        gaps = [
            worst_shipped - factor
            for chip in shipped
            for factor in chip.core_vmin_factor
        ]
        return float(np.mean(gaps))

    def core_spread_summary(self) -> Tuple[float, float, float]:
        """(mean, min, max) within-chip core-to-core Vmin spread."""
        spreads = [c.core_to_core_vmin_spread() for c in self.population]
        return float(np.mean(spreads)), float(min(spreads)), float(max(spreads))


def run_population_study(n_chips: int = 1000, n_cores: int = 8,
                         seed: int = 42,
                         params: Optional[VariationParameters] = None,
                         bins: Sequence[Bin] = DEFAULT_BINS,
                         ) -> PopulationStudy:
    """Sample and bin a manufactured population (Figure 1 driver)."""
    if n_chips < 10:
        raise ConfigurationError("population study needs >= 10 chips")
    model = VariationModel(params, seed=seed)
    population = model.sample_population(n_chips, n_cores)
    binned = bin_population(population, bins)
    return PopulationStudy(
        population=population, binned=binned, bins=tuple(bins)
    )
