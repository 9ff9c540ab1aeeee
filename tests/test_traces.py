"""Tests for synthetic datacenter arrival traces."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.workloads.traces import (
    TraceConfig,
    TraceGenerator,
    arrivals_per_hour,
)

DAY_S = 24 * 3600.0


@pytest.fixture(scope="module")
def day_trace():
    return TraceGenerator(TraceConfig(base_rate_per_hour=20.0),
                          seed=9).generate(DAY_S)


class TestConfig:
    def test_rate_peaks_at_peak_hour(self):
        config = TraceConfig(peak_hour=14.0)
        peak = config.rate_at(14.0 * 3600.0)
        trough = config.rate_at(2.0 * 3600.0)
        assert peak > trough

    def test_burst_multiplies_rate(self):
        config = TraceConfig()
        t = 12 * 3600.0
        assert config.rate_at(t, in_burst=True) == pytest.approx(
            config.rate_at(t, in_burst=False) * config.burst_multiplier)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(base_rate_per_hour=0.0)
        with pytest.raises(ConfigurationError):
            TraceConfig(diurnal_amplitude=1.0)
        with pytest.raises(ConfigurationError):
            TraceConfig(tier_weights=(0.5, 0.5, 0.5))


class TestGeneration:
    def test_mean_rate_close_to_configured(self, day_trace):
        # 20/hour x 24 hours = 480 expected; bursts add a little.
        assert 380 <= len(day_trace) <= 650

    def test_arrivals_sorted_and_in_range(self, day_trace):
        times = [e.timestamp for e in day_trace]
        assert times == sorted(times)
        assert all(0 <= t < DAY_S for t in times)

    def test_names_unique(self, day_trace):
        names = [e.vm_name for e in day_trace]
        assert len(set(names)) == len(names)

    def test_deterministic_given_seed(self):
        a = TraceGenerator(seed=3).generate(3600.0 * 6)
        b = TraceGenerator(seed=3).generate(3600.0 * 6)
        assert [e.timestamp for e in a] == [e.timestamp for e in b]

    def test_all_tiers_appear(self, day_trace):
        tiers = {e.tier for e in day_trace}
        assert tiers == {"gold", "silver", "bronze"}

    def test_lifetimes_positive_with_floor(self, day_trace):
        assert all(e.lifetime_s >= 60.0 for e in day_trace)

    def test_diurnal_shape_visible(self, day_trace):
        """Peak-hour traffic should clearly exceed the small hours."""
        hourly = arrivals_per_hour(day_trace, DAY_S)
        peak_window = sum(hourly[12:17])
        night_window = sum(hourly[0:5])
        assert peak_window > 1.5 * night_window

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceGenerator().generate(0.0)


class TestHistogram:
    def test_counts_sum_to_events(self, day_trace):
        hourly = arrivals_per_hour(day_trace, DAY_S)
        assert sum(hourly) == len(day_trace)
        assert len(hourly) == 24

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            arrivals_per_hour([], 0.0)
