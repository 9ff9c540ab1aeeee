"""Tests for process-variation models and population binning."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.variation import (
    DEFAULT_BINS,
    VariationModel,
    VariationParameters,
    bin_population,
    binning_yield,
    per_core_recoverable_fraction,
    sample_population,
)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_population(20, 4, seed=7)
        b = sample_population(20, 4, seed=7)
        assert [c.core_vmin_factor for c in a] == \
            [c.core_vmin_factor for c in b]

    def test_different_seeds_differ(self):
        a = sample_population(20, 4, seed=1)
        b = sample_population(20, 4, seed=2)
        assert [c.core_vmin_factor for c in a] != \
            [c.core_vmin_factor for c in b]

    def test_chip_ids_are_sequential(self):
        population = sample_population(10, 2, seed=0)
        assert [c.chip_id for c in population] == list(range(10))

    def test_factors_center_near_one(self):
        population = sample_population(500, 8, seed=3)
        all_vmin = [f for c in population for f in c.core_vmin_factor]
        assert np.mean(all_vmin) == pytest.approx(1.0, abs=0.01)

    def test_chips_are_heterogeneous(self):
        """Figure 1's premise: no two chips are alike."""
        population = sample_population(100, 4, seed=5)
        worst = {round(c.worst_vmin_factor(), 6) for c in population}
        assert len(worst) > 95

    def test_vmin_fmax_anticorrelation(self):
        """Slow silicon needs more voltage: the joint draw is negative."""
        population = sample_population(2000, 1, seed=9)
        vmin = np.array([c.core_vmin_factor[0] for c in population])
        fmax = np.array([c.core_fmax_factor[0] for c in population])
        rho = np.corrcoef(vmin, fmax)[0, 1]
        assert rho < -0.3

    def test_needs_at_least_one_core(self):
        with pytest.raises(ConfigurationError):
            VariationModel(seed=0).sample_chip(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            VariationParameters(d2d_vmin_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            VariationParameters(vmin_fmax_correlation=2.0)


class TestChipSample:
    def test_worst_and_spread(self):
        population = sample_population(1, 4, seed=0)
        chip = population[0]
        assert chip.worst_vmin_factor() == max(chip.core_vmin_factor)
        assert chip.core_to_core_vmin_spread() == pytest.approx(
            max(chip.core_vmin_factor) - min(chip.core_vmin_factor))
        assert chip.worst_fmax_factor() == min(chip.core_fmax_factor)


class TestBinning:
    def test_every_chip_lands_in_exactly_one_bin(self):
        population = sample_population(300, 8, seed=1)
        binned = bin_population(population)
        total = sum(len(chips) for chips in binned.values())
        assert total == 300

    def test_binning_uses_worst_core(self):
        population = sample_population(200, 8, seed=2)
        binned = bin_population(population)
        for b in DEFAULT_BINS:
            for chip in binned[b.name]:
                assert chip.worst_vmin_factor() <= b.max_vmin_factor

    def test_discards_exceed_last_bin(self):
        population = sample_population(500, 8, seed=3)
        binned = bin_population(population)
        ceiling = max(b.max_vmin_factor for b in DEFAULT_BINS)
        for chip in binned["discard"]:
            assert chip.worst_vmin_factor() > ceiling

    def test_yield_between_zero_and_one(self):
        population = sample_population(500, 8, seed=4)
        y = binning_yield(bin_population(population))
        assert 0.5 < y < 1.0

    def test_empty_population_yield(self):
        assert binning_yield({"discard": []}) == 0.0


class TestRecovery:
    def test_recoverable_fraction_bounds(self):
        population = sample_population(2000, 8, seed=6)
        fraction = per_core_recoverable_fraction(population)
        assert 0.0 <= fraction <= 1.0

    def test_most_discards_recoverable_with_many_cores(self):
        """With 8 cores, a discard is usually dragged down by 1-2 weak
        cores — per-core EOPs recover the part (Section 5.A)."""
        population = sample_population(3000, 8, seed=7)
        fraction = per_core_recoverable_fraction(population)
        assert fraction > 0.5

    def test_no_discards_means_zero(self):
        population = sample_population(10, 2, seed=8)
        assert per_core_recoverable_fraction(
            population, discard_vmin_factor=10.0) == 0.0
