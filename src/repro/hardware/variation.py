"""Process-variation models and chip-population sampling.

The paper's Figure 1 rests on one observation: *every manufactured chip is
intrinsically different*.  Each part lands in a distinct performance bin
because die-to-die (D2D) and within-die (WID) variation shift every core's
minimum operational voltage (Vmin) and maximum frequency (Fmax).

This module models that variation:

* :class:`VariationModel` — samples per-chip and per-core parameter
  deviations (D2D Gaussian + WID Gaussian + systematic gradient).
* :class:`ChipSample` — the variation outcome for one manufactured chip.
* :func:`sample_population` — draws a population of chips, from which
  Figure 1's performance bins and the binning-yield arguments of Section 5
  are reproduced.
* :func:`bin_population` — classical speed/voltage binning of a population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class VariationParameters:
    """Statistical parameters of the manufacturing process.

    Fractions are relative to the nominal design value; e.g.
    ``d2d_vmin_sigma = 0.03`` means die means deviate with a 3 % standard
    deviation.
    """

    d2d_vmin_sigma: float = 0.030
    wid_vmin_sigma: float = 0.012
    d2d_fmax_sigma: float = 0.040
    wid_fmax_sigma: float = 0.015
    #: Systematic within-die gradient peak-to-peak (fraction of Vmin);
    #: models the spatially correlated component of WID variation.
    wid_gradient_span: float = 0.010
    #: Correlation between a core's Vmin deviation and its Fmax deviation
    #: (slow cores need more voltage): negative by construction.
    vmin_fmax_correlation: float = -0.6

    def __post_init__(self) -> None:
        for name in ("d2d_vmin_sigma", "wid_vmin_sigma",
                     "d2d_fmax_sigma", "wid_fmax_sigma",
                     "wid_gradient_span"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not -1.0 <= self.vmin_fmax_correlation <= 1.0:
            raise ConfigurationError(
                "vmin_fmax_correlation must be a correlation coefficient"
            )


@dataclass(frozen=True)
class ChipSample:
    """Variation outcome for one manufactured chip.

    ``core_vmin_factor[i]`` multiplies the design Vmin of core ``i``;
    ``core_fmax_factor[i]`` multiplies the design Fmax.  A factor above 1 in
    Vmin means a *weak* core needing extra voltage; a factor above 1 in Fmax
    means a *fast* core.
    """

    chip_id: int
    core_vmin_factor: Tuple[float, ...]
    core_fmax_factor: Tuple[float, ...]

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return len(self.core_vmin_factor)

    def worst_vmin_factor(self) -> float:
        """The chip's binning-relevant Vmin factor (its weakest core)."""
        return max(self.core_vmin_factor)

    def worst_fmax_factor(self) -> float:
        """The chip's binning-relevant Fmax factor (its slowest core)."""
        return min(self.core_fmax_factor)

    def core_to_core_vmin_spread(self) -> float:
        """Peak-to-peak spread of core Vmin factors (fraction of nominal)."""
        return max(self.core_vmin_factor) - min(self.core_vmin_factor)


class VariationModel:
    """Samples manufacturing variation for chips of a given core count.

    The model composes three classical components:

    1. die-to-die: one Gaussian offset shared by all cores of a chip;
    2. within-die random: independent Gaussian per core;
    3. within-die systematic: a linear spatial gradient across the die.

    Vmin and Fmax deviations are drawn jointly with the configured negative
    correlation (slow silicon needs more voltage).
    """

    def __init__(self, params: Optional[VariationParameters] = None,
                 seed: int = 0) -> None:
        self.params = params or VariationParameters()
        self._rng = np.random.default_rng(seed)
        self._next_chip_id = 0

    def sample_chip(self, n_cores: int) -> ChipSample:
        """Draw the variation outcome for one chip with ``n_cores`` cores."""
        if n_cores < 1:
            raise ConfigurationError("a chip needs at least one core")
        p = self.params

        rho = p.vmin_fmax_correlation
        cov = np.array([[1.0, rho], [rho, 1.0]])
        chol = np.linalg.cholesky(cov)

        # Die-to-die component (shared by all cores).
        d2d = chol @ self._rng.standard_normal(2)
        d2d_vmin = d2d[0] * p.d2d_vmin_sigma
        d2d_fmax = d2d[1] * p.d2d_fmax_sigma

        # Within-die random component per core.
        wid = (chol @ self._rng.standard_normal((2, n_cores)))
        wid_vmin = wid[0] * p.wid_vmin_sigma
        wid_fmax = wid[1] * p.wid_fmax_sigma

        # Systematic gradient across the die (cores laid out in a row).
        if n_cores > 1:
            gradient = np.linspace(-0.5, 0.5, n_cores) * p.wid_gradient_span
        else:
            gradient = np.zeros(1)
        phase = self._rng.choice([-1.0, 1.0])
        gradient = gradient * phase

        vmin_factor = 1.0 + d2d_vmin + wid_vmin + gradient
        fmax_factor = 1.0 + d2d_fmax + wid_fmax - gradient * 0.5

        chip_id = self._next_chip_id
        self._next_chip_id += 1
        return ChipSample(
            chip_id=chip_id,
            core_vmin_factor=tuple(float(v) for v in vmin_factor),
            core_fmax_factor=tuple(float(f) for f in fmax_factor),
        )

    def sample_population(self, n_chips: int, n_cores: int) -> List[ChipSample]:
        """Draw a whole manufactured population (Figure 1's input)."""
        if n_chips < 1:
            raise ConfigurationError("population needs at least one chip")
        return [self.sample_chip(n_cores) for _ in range(n_chips)]


def sample_population(n_chips: int, n_cores: int, seed: int = 0,
                      params: Optional[VariationParameters] = None,
                      ) -> List[ChipSample]:
    """Convenience wrapper: sample ``n_chips`` chips deterministically."""
    return VariationModel(params, seed=seed).sample_population(n_chips, n_cores)


@dataclass(frozen=True)
class Bin:
    """One speed/voltage bin of a classical binning flow."""

    name: str
    max_vmin_factor: float


#: A typical 4-bin classification plus a discard bucket.  Parts whose
#: worst-core Vmin factor exceeds the last bin's limit are discarded —
#: the yield loss UniServer recovers (Section 5.A).
DEFAULT_BINS = (
    Bin("premium", 0.97),
    Bin("standard", 1.00),
    Bin("value", 1.03),
    Bin("economy", 1.06),
)


def bin_population(population: Sequence[ChipSample],
                   bins: Sequence[Bin] = DEFAULT_BINS,
                   ) -> Dict[str, List[ChipSample]]:
    """Classical product binning of a chip population.

    Each chip goes into the first bin whose Vmin ceiling its *worst* core
    satisfies — the conservative rule UniServer criticises, because one weak
    core drags the whole part down.  Chips failing every bin land in
    ``"discard"``.
    """
    ordered = sorted(bins, key=lambda b: b.max_vmin_factor)
    result: Dict[str, List[ChipSample]] = {b.name: [] for b in ordered}
    result["discard"] = []
    for chip in population:
        worst = chip.worst_vmin_factor()
        for b in ordered:
            if worst <= b.max_vmin_factor:
                result[b.name].append(chip)
                break
        else:
            result["discard"].append(chip)
    return result


def binning_yield(binned: Dict[str, List[ChipSample]]) -> float:
    """Fraction of parts that survive binning (everything but discard)."""
    total = sum(len(chips) for chips in binned.values())
    if total == 0:
        return 0.0
    return 1.0 - len(binned.get("discard", [])) / total


def per_core_recoverable_fraction(population: Sequence[ChipSample],
                                  discard_vmin_factor: float = 1.06) -> float:
    """Fraction of discarded chips usable under per-core characterisation.

    A discarded chip is *recoverable* in the UniServer model when at least
    half of its cores individually meet the discard ceiling: per-core EOPs
    let the good cores run even though the worst core condemned the part
    under classical binning.
    """
    discarded = [c for c in population
                 if c.worst_vmin_factor() > discard_vmin_factor]
    if not discarded:
        return 0.0
    recoverable = 0
    for chip in discarded:
        good = sum(1 for v in chip.core_vmin_factor
                   if v <= discard_vmin_factor)
        if good * 2 >= chip.n_cores:
            recoverable += 1
    return recoverable / len(discarded)
