"""Tests for the CPU core crash model."""

import pytest
from scipy.stats import norm

from repro.core.eop import OperatingPoint
from repro.core.exceptions import ConfigurationError, MachineCrash
from repro.hardware.core_model import CoreModel, CoreParameters
from repro.workloads.base import StressProfile


def params(**overrides):
    defaults = dict(
        vmin_base_v=0.75, delta_v=0.01, droop_span=0.05,
        max_frequency_hz=2.6e9, sensitivity_floor=0.0,
        run_noise_sigma_v=0.0,
    )
    defaults.update(overrides)
    return CoreParameters(**defaults)


def profile(droop=0.5, sens=0.5, activity=0.5):
    return StressProfile(
        droop_intensity=droop, core_sensitivity=sens,
        activity_factor=activity, cache_pressure=0.5, dram_pressure=0.5,
    )


class TestCrashVoltage:
    def test_gentle_workload_crashes_at_static_vmin(self):
        core = CoreModel(0, params(delta_v=0.0))
        v = core.crash_voltage_v(profile(droop=0.0, sens=0.0))
        assert v == pytest.approx(0.75)

    def test_droop_raises_crash_voltage(self):
        core = CoreModel(0, params())
        gentle = core.crash_voltage_v(profile(droop=0.1))
        harsh = core.crash_voltage_v(profile(droop=0.9))
        assert harsh > gentle

    def test_full_droop_matches_span(self):
        core = CoreModel(0, params(delta_v=0.0, droop_span=0.08))
        v = core.crash_voltage_v(profile(droop=1.0, sens=0.0))
        assert v == pytest.approx(0.75 / 0.92)

    def test_core_delta_expressed_by_sensitive_workloads(self):
        weak = CoreModel(0, params(delta_v=0.02))
        strong = CoreModel(1, params(delta_v=-0.02))
        w = profile(droop=0.0, sens=1.0)
        assert weak.crash_voltage_v(w) - strong.crash_voltage_v(w) == \
            pytest.approx(0.04)

    def test_sensitivity_floor_masks_low_exposure(self):
        core = CoreModel(0, params(delta_v=0.02, sensitivity_floor=0.5))
        low = core.crash_voltage_v(profile(droop=0.0, sens=0.4))
        base = core.crash_voltage_v(profile(droop=0.0, sens=0.0))
        assert low == pytest.approx(base)
        high = core.crash_voltage_v(profile(droop=0.0, sens=1.0))
        assert high > base

    def test_lower_frequency_lowers_vmin(self):
        core = CoreModel(0, params())
        full = core.static_vmin_v(2.6e9)
        half = core.static_vmin_v(1.3e9)
        assert half < full

    def test_frequency_above_fmax_rejected(self):
        core = CoreModel(0, params())
        with pytest.raises(ConfigurationError):
            core.static_vmin_v(3.0e9)

    def test_aging_raises_crash_voltage(self):
        core = CoreModel(0, params())
        before = core.crash_voltage_v(profile())
        core.age(3.2e8, voltage_v=1.1, temperature_c=85.0)  # ~10 harsh years
        after = core.crash_voltage_v(profile())
        assert after > before


class TestRunBehaviour:
    def test_run_above_crash_survives(self):
        core = CoreModel(0, params())
        point = OperatingPoint(0.9, 2.6e9)
        assert core.check_run(point, profile()) is True

    def test_run_below_crash_fails(self):
        core = CoreModel(0, params())
        point = OperatingPoint(0.5, 2.6e9)
        assert core.check_run(point, profile()) is False

    def test_raise_on_crash(self):
        core = CoreModel(0, params())
        with pytest.raises(MachineCrash) as excinfo:
            core.check_run(OperatingPoint(0.5, 2.6e9), profile(),
                           raise_on_crash=True)
        assert excinfo.value.component == "core0"

    def test_noise_makes_crash_point_vary(self):
        core = CoreModel(0, params(run_noise_sigma_v=0.003))
        samples = {round(core.sample_crash_voltage_v(profile()), 6)
                   for _ in range(20)}
        assert len(samples) > 10

    def test_noiseless_samples_equal_expected(self):
        core = CoreModel(0, params())
        assert core.sample_crash_voltage_v(profile()) == \
            core.crash_voltage_v(profile())


class TestCrashProbability:
    def test_probability_monotone_in_voltage(self):
        core = CoreModel(0, params(run_noise_sigma_v=0.003))
        w = profile()
        probs = [
            core.crash_probability(OperatingPoint(v, 2.6e9), w)
            for v in (0.74, 0.78, 0.82, 0.86)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_far_above_crash_is_near_zero(self):
        core = CoreModel(0, params(run_noise_sigma_v=0.002))
        p = core.crash_probability(OperatingPoint(0.95, 2.6e9), profile())
        assert p < 1e-9

    def test_far_below_crash_is_near_one(self):
        core = CoreModel(0, params(run_noise_sigma_v=0.002))
        p = core.crash_probability(OperatingPoint(0.6, 2.6e9), profile())
        assert p > 1 - 1e-9

    @pytest.mark.parametrize("voltage", [0.6, 0.74, 0.78, 0.8, 0.86, 0.95])
    @pytest.mark.parametrize("sigma", [0.0, 0.002, 0.003])
    def test_equals_norm_formula(self, voltage, sigma):
        core = CoreModel(0, params(run_noise_sigma_v=sigma))
        point = OperatingPoint(voltage, 2.2e9)
        w = profile(droop=0.7, sens=0.9)
        expected = float(norm.cdf(
            (core.crash_voltage_v(w, point.frequency_hz) - voltage)
            / max(sigma, 1e-6)))
        assert core.crash_probability(point, w).hex() == expected.hex()


class TestIsolation:
    def test_isolate_and_deisolate(self):
        core = CoreModel(0, params())
        assert not core.isolated
        core.isolate()
        assert core.isolated
        core.deisolate()
        assert not core.isolated


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            params(vmin_base_v=-0.1)
        with pytest.raises(ConfigurationError):
            params(droop_span=0.6)
        with pytest.raises(ConfigurationError):
            params(sensitivity_floor=1.0)

    def test_negative_core_id_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreModel(-1, params())
