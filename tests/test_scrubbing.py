"""Tests for the ECC exposure (static weak cells + transients) model."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.dram import Dimm, MemoryDomain
from repro.hardware.scrubbing import (
    EccExposureModel,
    ScrubPolicy,
    expected_static_pairs,
    scrub_policy_table,
    transient_rate_per_bit_s,
)

YEAR_S = 365.25 * 24 * 3600.0


@pytest.fixture
def relaxed_domain():
    domain = MemoryDomain("d0", [Dimm(dimm_id=0)], seed=1)
    domain.set_refresh_interval(5.0)   # the paper's 78x point, BER ~1e-9
    return domain


class TestStaticPairing:
    def test_small_populations_never_pair(self):
        assert expected_static_pairs(0, 10 ** 10) == 0.0
        assert expected_static_pairs(1, 10 ** 10) == 0.0

    def test_pairs_grow_quadratically(self):
        small = expected_static_pairs(100, 10 ** 11)
        large = expected_static_pairs(200, 10 ** 11)
        assert large / small == pytest.approx(199 / 49.5, rel=0.05)

    def test_paper_point_is_statically_safe(self, relaxed_domain):
        """At BER 1e-9 over 8 GB: ~69 weak cells, ~2e-6 expected dead
        words — the pairing argument behind 'ECC can handle it'."""
        assessment = EccExposureModel().assess(relaxed_domain)
        assert 30 < assessment.weak_cells < 150
        assert assessment.static_pair_words < 1e-4
        assert assessment.statically_safe

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_static_pairs(-1, 100)
        with pytest.raises(ConfigurationError):
            expected_static_pairs(10, 0)


class TestMaxSafeBer:
    def test_sits_between_measured_and_quoted_capability(self,
                                                         relaxed_domain):
        """The domain-level static-BER ceiling lies orders above the
        5 s point's 1e-9 and below the per-word 1e-6 quote."""
        ceiling = EccExposureModel().max_safe_ber(
            relaxed_domain.capacity_bits)
        assert 1e-9 < ceiling < 1e-6

    def test_tighter_budget_lowers_ceiling(self, relaxed_domain):
        model = EccExposureModel()
        loose = model.max_safe_ber(relaxed_domain.capacity_bits, 0.1)
        tight = model.max_safe_ber(relaxed_domain.capacity_bits, 0.001)
        assert tight < loose

    def test_validation(self, relaxed_domain):
        with pytest.raises(ConfigurationError):
            EccExposureModel().max_safe_ber(0)
        with pytest.raises(ConfigurationError):
            EccExposureModel().max_safe_ber(100, max_expected_pairs=0.0)


class TestTransients:
    def test_fit_conversion(self):
        rate = transient_rate_per_bit_s(25.0)
        # 25 FIT/Mbit = 25 / (1e9 h * 2^20 bits) per bit.
        assert rate == pytest.approx(
            25.0 / (1e9 * 3600.0 * 1024 * 1024), rel=1e-9)
        with pytest.raises(ConfigurationError):
            transient_rate_per_bit_s(-1.0)

    def test_mttue_beyond_server_lifetime(self, relaxed_domain):
        """The paper's relaxed point survives: MTTUE >> 5 years even
        with daily scrubbing."""
        model = EccExposureModel(ScrubPolicy(scrub_interval_s=86400.0))
        assessment = model.assess(relaxed_domain)
        assert assessment.mean_time_to_ue_s() > 100 * YEAR_S

    def test_page_retirement_removes_static_term(self, relaxed_domain):
        base = EccExposureModel(
            ScrubPolicy(retire_weak_pages=False)).assess(relaxed_domain)
        retired = EccExposureModel(
            ScrubPolicy(retire_weak_pages=True)).assess(relaxed_domain)
        assert base.transient_on_static_rate_s > 0
        assert retired.transient_on_static_rate_s == 0.0
        assert retired.total_ue_rate_s < base.total_ue_rate_s

    def test_longer_scrub_window_raises_pair_rate(self, relaxed_domain):
        fast = EccExposureModel(
            ScrubPolicy(scrub_interval_s=600.0)).assess(relaxed_domain)
        slow = EccExposureModel(
            ScrubPolicy(scrub_interval_s=604800.0)).assess(relaxed_domain)
        assert slow.transient_pair_rate_s > fast.transient_pair_rate_s

    def test_nominal_refresh_domain_has_no_weak_cells(self):
        domain = MemoryDomain("d0", [Dimm(dimm_id=0)], seed=1)
        assessment = EccExposureModel().assess(domain)
        assert assessment.weak_cells < 1e-6
        assert assessment.transient_on_static_rate_s < 1e-20


class TestPolicyTable:
    def test_rows_ordered_by_exposure(self, relaxed_domain):
        rows = scrub_policy_table(relaxed_domain)
        assert len(rows) == 4
        ue_rates = [rate for _, rate, _ in rows]
        assert ue_rates == sorted(ue_rates)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ScrubPolicy(scrub_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ScrubPolicy(bandwidth_overhead=1.0)
