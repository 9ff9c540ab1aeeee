"""Tests for the DRAM retention model and refresh domains."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from repro.core.eop import NOMINAL_REFRESH_INTERVAL_S
from repro.core.exceptions import ConfigurationError
from repro.hardware.dram import (
    BITS_PER_GB,
    Dimm,
    DramSystem,
    MemoryDomain,
    RetentionModel,
    standard_server_memory,
)


class TestRetentionModel:
    def test_nominal_refresh_is_error_free(self):
        """At 64 ms the BER is astronomically small."""
        ber = RetentionModel().ber(NOMINAL_REFRESH_INTERVAL_S)
        assert ber < 1e-18

    def test_paper_five_second_ber(self):
        """Section 6.B: at 5 s (78x nominal) cumulative BER ~ 1e-9."""
        ber = RetentionModel().ber(5.0)
        assert 3e-10 < ber < 3e-9

    def test_paper_1500ms_unobservable(self):
        """At 1.5 s the expected errors over an 8 GB DIMM test are << 1."""
        ber = RetentionModel().ber(1.5)
        expected_errors = ber * 8 * BITS_PER_GB
        assert expected_errors < 0.2

    def test_ber_monotone_in_interval(self):
        model = RetentionModel()
        bers = [model.ber(t) for t in (0.064, 0.5, 1.5, 5.0, 20.0)]
        assert bers == sorted(bers)

    def test_temperature_shortens_retention(self):
        model = RetentionModel()
        cool = model.ber(5.0, temperature_c=35.0)
        hot = model.ber(5.0, temperature_c=55.0)
        assert hot > model.ber(5.0) > cool

    def test_max_interval_inversion_roundtrip(self):
        model = RetentionModel()
        interval = model.max_interval_for_ber(1e-9)
        assert model.ber(interval) == pytest.approx(1e-9, rel=0.01)
        assert 3.0 < interval < 8.0

    def test_max_interval_respects_temperature(self):
        model = RetentionModel()
        cool = model.max_interval_for_ber(1e-9, temperature_c=35.0)
        hot = model.max_interval_for_ber(1e-9, temperature_c=55.0)
        assert cool > hot

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            RetentionModel().ber(0.0)
        with pytest.raises(ConfigurationError):
            RetentionModel().max_interval_for_ber(0.0)


@pytest.fixture(scope="module")
def cdf_grid():
    """400k standard-normal CDF arguments: the bulk, both far tails,
    ±inf, ±0 and ±1e-300."""
    rng = np.random.default_rng(20181)
    specials = [np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300]
    return np.concatenate([
        rng.normal(0.0, 3.0, 200_000),
        rng.uniform(-40.0, 40.0, 200_000 - len(specials)),
        specials,
    ])


@pytest.fixture(scope="module")
def ppf_grid():
    """200k standard-normal quantile arguments from 1e-300 up to
    1 - 1e-16, plus 0, 1/2 and 1."""
    rng = np.random.default_rng(20182)
    edges = [0.0, 0.5, 1.0, 1e-300, 1.0 - 1e-16]
    return np.concatenate([
        10.0 ** rng.uniform(-300.0, 0.0, 80_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 60_000),
        rng.uniform(0.0, 1.0, 60_000 - len(edges)),
        edges,
    ])


class TestGaussianTailEquivalence:
    """``scipy.special`` returns exactly the bits ``scipy.stats.norm`` does,
    so the retention model can use it without moving any digest."""

    def test_ndtr_is_norm_cdf_bit_for_bit(self, cdf_grid):
        # Bit patterns, so -0.0 and 0.0 would compare unequal.
        np.testing.assert_array_equal(
            ndtr(cdf_grid).view(np.uint64), norm.cdf(cdf_grid).view(np.uint64))

    def test_ndtri_is_norm_ppf_bit_for_bit(self, ppf_grid):
        np.testing.assert_array_equal(
            ndtri(ppf_grid).view(np.uint64), norm.ppf(ppf_grid).view(np.uint64))

    @pytest.mark.parametrize("interval_s", [0.064, 1.5, 5.0, 40.0, 1e4])
    @pytest.mark.parametrize("temperature_c", [None, 25.0, 85.0])
    def test_ber_equals_norm_formula(self, interval_s, temperature_c):
        from repro.hardware.thermal import retention_temperature_factor

        model = RetentionModel()
        temp = (model.reference_temp_c if temperature_c is None
                else temperature_c)
        factor = retention_temperature_factor(temp, model.reference_temp_c)
        z = ((math.log(interval_s / factor) - model.mu_ln_s)
             / model.sigma_ln_s)
        expected = float(norm.cdf(z))
        assert model.ber(interval_s, temperature_c).hex() == expected.hex()

    @pytest.mark.parametrize("ber_target", [1e-300, 1e-12, 1e-9, 0.5,
                                            1.0 - 1e-16])
    @pytest.mark.parametrize("temperature_c", [None, 65.0])
    def test_max_interval_equals_norm_formula(self, ber_target,
                                              temperature_c):
        from repro.hardware.thermal import retention_temperature_factor

        model = RetentionModel()
        temp = (model.reference_temp_c if temperature_c is None
                else temperature_c)
        factor = retention_temperature_factor(temp, model.reference_temp_c)
        expected = float(math.exp(
            model.mu_ln_s + norm.ppf(ber_target) * model.sigma_ln_s)
            * factor)
        got = model.max_interval_for_ber(ber_target, temperature_c)
        assert got.hex() == expected.hex()


class TestMemoryDomain:
    def _domain(self, reliable=False):
        return MemoryDomain("d0", [Dimm(dimm_id=0)], reliable=reliable,
                            seed=1)

    def test_reliable_domain_refuses_relaxation(self):
        domain = self._domain(reliable=True)
        with pytest.raises(ConfigurationError):
            domain.set_refresh_interval(1.5)

    def test_reliable_domain_accepts_tightening(self):
        domain = self._domain(reliable=True)
        domain.set_refresh_interval(0.032)
        assert domain.refresh_interval_s == 0.032

    def test_relaxation_changes_power(self):
        domain = self._domain()
        nominal_power = domain.refresh_power_w()
        domain.set_refresh_interval(1.5)
        assert domain.refresh_power_w() < nominal_power / 20

    def test_pattern_test_clean_at_nominal(self):
        domain = self._domain()
        assert domain.sample_pattern_errors(coverage=1.0, passes=4) == 0

    def test_pattern_test_finds_errors_when_extreme(self):
        domain = self._domain()
        domain.set_refresh_interval(30.0)
        errors = domain.sample_pattern_errors(coverage=1.0, passes=2)
        assert errors > 0

    def test_expected_errors_scale_with_coverage(self):
        domain = self._domain()
        domain.set_refresh_interval(5.0)
        full = domain.expected_errors_per_pass(coverage=1.0)
        half = domain.expected_errors_per_pass(coverage=0.5)
        assert full == pytest.approx(2 * half)

    def test_needs_at_least_one_dimm(self):
        with pytest.raises(ConfigurationError):
            MemoryDomain("empty", [])


class TestDramSystem:
    def test_standard_layout(self):
        memory = standard_server_memory(n_channels=4, dimm_gb=8.0)
        assert memory.capacity_gb == pytest.approx(32.0)
        assert memory.reliable_domain().name == "channel0"
        assert len(memory.domains()) == 4

    def test_relax_all_spares_reliable(self):
        memory = standard_server_memory()
        changed = memory.relax_all(1.5)
        assert "channel0" not in changed
        assert len(memory.relaxed_domains()) == 3
        assert memory.reliable_domain().refresh_interval_s == \
            NOMINAL_REFRESH_INTERVAL_S

    def test_relax_all_can_override_reliable_for_ablation(self):
        memory = standard_server_memory()
        changed = memory.relax_all(1.5, keep_reliable_nominal=False)
        assert "channel0" in changed
        assert memory.domain("channel0").refresh_interval_s == 1.5

    def test_relaxation_reduces_total_power(self):
        memory = standard_server_memory()
        before = memory.total_power_w()
        memory.relax_all(1.5)
        assert memory.total_power_w() < before

    def test_duplicate_domain_names_rejected(self):
        d = [MemoryDomain("x", [Dimm(dimm_id=0)]),
             MemoryDomain("x", [Dimm(dimm_id=1)])]
        with pytest.raises(ConfigurationError):
            DramSystem(d)

    def test_unknown_domain_lookup(self):
        memory = standard_server_memory()
        with pytest.raises(KeyError):
            memory.domain("channel9")

    def test_contains(self):
        memory = standard_server_memory()
        assert "channel1" in memory
        assert "nope" not in memory


class TestDegenerateTopologies:
    def test_no_reliable_channel_layout(self):
        memory = standard_server_memory(reliable_channel=None, seed=2)
        assert memory.reliable_domain() is None
        memory.relax_all(5.0)
        assert len(memory.relaxed_domains()) == 4

    def test_all_reliable_layout_has_no_relaxed_domains(self):
        domains = [
            MemoryDomain(f"ch{i}", [Dimm(dimm_id=i)], reliable=True,
                         seed=i, tier="strong")
            for i in range(3)
        ]
        memory = DramSystem(domains)
        assert memory.reliable_domain() is not None
        assert memory.relaxed_domains() == []
        # relax_all spares every reliable domain: nothing changes.
        assert memory.relax_all(5.0) == []
        assert memory.tiers() == ["strong"]

    def test_reliable_channel_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            standard_server_memory(n_channels=4, reliable_channel=4)


class TestTieredLayout:
    def test_tier_matrix(self):
        from repro.hardware.dram import (
            DEFAULT_TIER_REFRESH_S,
            MEMORY_TIERS,
            tiered_server_memory,
        )
        memory = tiered_server_memory(seed=4)
        assert memory.tiers() == list(MEMORY_TIERS)
        assert memory.domain("channel0").tier == "strong"
        assert memory.domain("channel1").tier == "normal"
        for name in ("channel2", "channel3"):
            assert memory.domain(name).tier == "relaxed"
        for domain in memory.domains():
            assert domain.refresh_interval_s == pytest.approx(
                DEFAULT_TIER_REFRESH_S[domain.tier])
        # The verified ECC selection matrix.
        assert memory.domain("channel0").ecc.name == "secded"
        assert memory.domain("channel1").ecc.name == "sec-daec"
        assert memory.domain("channel2").ecc.name == "bch-dec"

    def test_strong_tier_is_the_reliable_domain(self):
        from repro.hardware.dram import tiered_server_memory
        memory = tiered_server_memory(seed=4)
        reliable = memory.reliable_domain()
        assert reliable is not None and reliable.name == "channel0"
        with pytest.raises(ConfigurationError):
            reliable.set_refresh_interval(5.0)

    def test_tier_accounting_sums_to_totals(self):
        from repro.hardware.dram import tiered_server_memory
        memory = tiered_server_memory(seed=4)
        assert sum(memory.tier_capacity_gb().values()) == pytest.approx(
            memory.capacity_gb)
        assert sum(memory.tier_refresh_power_w().values()) == pytest.approx(
            memory.refresh_power_w())

    def test_needs_two_channels(self):
        from repro.hardware.dram import tiered_server_memory
        with pytest.raises(ConfigurationError):
            tiered_server_memory(n_channels=1)

    def test_unknown_tier_rejected(self):
        memory = standard_server_memory(seed=1)
        with pytest.raises(ConfigurationError):
            memory.domains_in_tier("medium")
