"""Tests for per-bank cache characterisation and resizing."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.cache_banks import (
    BankedCache,
    ResizePolicy,
)


@pytest.fixture
def cache():
    return BankedCache(n_banks=16, bank_kb=128.0, design_vmin_v=0.72,
                       vmin_sigma_v=0.02, seed=2)


class TestBankStructure:
    def test_banks_have_distinct_vmins(self, cache):
        """The heterogeneity premise: every bank is different."""
        vmins = {b.vmin_v for b in cache.banks}
        assert len(vmins) == cache.n_banks

    def test_deterministic_given_seed(self):
        a = BankedCache(seed=5)
        b = BankedCache(seed=5)
        assert [x.vmin_v for x in a.banks] == [x.vmin_v for x in b.banks]

    def test_total_capacity(self, cache):
        assert cache.total_capacity_kb == pytest.approx(16 * 128.0)

    def test_worst_and_best_bracket_design(self, cache):
        assert cache.best_bank_vmin_v() < 0.72 < cache.worst_bank_vmin_v()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BankedCache(n_banks=0)
        with pytest.raises(ConfigurationError):
            BankedCache(bank_kb=0.0)


class TestCharacterisation:
    def test_revealed_vmin_at_or_above_true(self, cache):
        results = cache.characterize(measurement_noise_v=0.0, seed=1)
        for bank, verdict in zip(cache.banks, results):
            assert verdict.revealed_vmin_v >= bank.vmin_v - 1e-9

    def test_revealed_vmin_quantised_to_step(self, cache):
        step = 0.005
        results = cache.characterize(step_v=step,
                                     measurement_noise_v=0.0, seed=1)
        for verdict in results:
            ratio = verdict.revealed_vmin_v / step
            assert ratio == pytest.approx(round(ratio), abs=1e-6)

    def test_safe_voltage_adds_guard(self, cache):
        results = cache.characterize(guard_margin_v=0.015, seed=1)
        for verdict in results:
            assert verdict.safe_voltage_v == pytest.approx(
                verdict.revealed_vmin_v + 0.015)


class TestResizing:
    def test_full_capacity_at_high_voltage(self, cache):
        assert cache.capacity_fraction_at(0.90) == 1.0
        assert cache.miss_rate_at(0.90) == pytest.approx(0.02)

    def test_capacity_monotone_in_voltage(self, cache):
        fractions = [cache.capacity_fraction_at(v)
                     for v in (0.60, 0.68, 0.72, 0.78, 0.90)]
        assert fractions == sorted(fractions)

    def test_miss_rate_grows_as_banks_disable(self, cache):
        full = cache.miss_rate_at(0.90)
        resized = cache.miss_rate_at(0.71)
        assert resized > full

    def test_no_banks_means_bypass(self, cache):
        assert cache.capacity_fraction_at(0.50) == 0.0
        assert cache.miss_rate_at(0.50) == 1.0

    def test_resize_curve_rows(self, cache):
        curve = cache.resize_curve([0.90, 0.72, 0.60])
        assert len(curve) == 3
        assert curve[0][0] == 0.90  # descending voltage order

    def test_bad_miss_rate_rejected(self, cache):
        with pytest.raises(ConfigurationError):
            cache.miss_rate_at(0.8, base_miss_rate=0.0)


class TestResizePolicy:
    def test_policy_accepts_deeper_voltage_with_loose_cap(self, cache):
        strict = ResizePolicy(max_miss_rate=0.021)
        loose = ResizePolicy(max_miss_rate=0.5)
        candidates = [0.80, 0.76, 0.72, 0.70, 0.68]
        assert loose.min_voltage(cache, candidates) <= \
            strict.min_voltage(cache, candidates)

    def test_policy_falls_back_to_worst_bank(self, cache):
        policy = ResizePolicy(max_miss_rate=0.021)
        # Only hopeless candidates: fall back to whole-cache Vmin.
        assert policy.min_voltage(cache, [0.50]) == \
            cache.worst_bank_vmin_v()

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ResizePolicy(max_miss_rate=0.0)
