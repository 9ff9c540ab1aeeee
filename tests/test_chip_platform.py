"""Tests for chip assembly, the part catalog and the server platform."""

import dataclasses

import numpy as np
import pytest

from repro.core.eop import NOMINAL_REFRESH_INTERVAL_S
from repro.core.exceptions import ConfigurationError
from repro.hardware import (
    ChipModel,
    SensorBlock,
    arm_server_soc_spec,
    build_uniserver_node,
    intel_i5_4200u_spec,
    intel_i7_3970x_spec,
    sample_population,
    spec_from_variation,
)
from repro.workloads import spec_workload


class TestCatalog:
    def test_i5_matches_paper_nominals(self):
        spec = intel_i5_4200u_spec()
        assert spec.nominal.voltage_v == pytest.approx(0.844)
        assert spec.nominal.frequency_hz == pytest.approx(2.6e9)
        assert spec.n_cores == 2
        assert spec.cache.ecc_reporting is True

    def test_i7_matches_paper_nominals(self):
        spec = intel_i7_3970x_spec()
        assert spec.nominal.voltage_v == pytest.approx(1.365)
        assert spec.nominal.frequency_hz == pytest.approx(4.0e9)
        assert spec.n_cores == 6
        assert spec.cache.ecc_reporting is False

    def test_core_deltas_are_mean_zero(self):
        """The calibration keeps benchmark-mean crash points unbiased."""
        for spec in (intel_i5_4200u_spec(), intel_i7_3970x_spec()):
            assert sum(spec.core_deltas_v) == pytest.approx(0.0, abs=1e-9)

    def test_arm_soc_has_requested_cores(self):
        assert arm_server_soc_spec(n_cores=4).n_cores == 4

    def test_vmin_must_be_below_nominal(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(intel_i5_4200u_spec(), vmin_base_v=0.9)


class TestChipModel:
    def test_run_survives_at_nominal(self, i5_chip):
        outcome = i5_chip.run_benchmark(
            0, spec_workload("bzip2"), i5_chip.spec.nominal)
        assert outcome.survived

    def test_run_crashes_far_below_nominal(self, i5_chip):
        point = i5_chip.spec.nominal.with_voltage(0.60)
        outcome = i5_chip.run_benchmark(0, spec_workload("zeusmp"), point)
        assert not outcome.survived

    def test_counters_only_on_survival(self, i5_chip):
        nominal = i5_chip.spec.nominal
        alive = i5_chip.run_benchmark(0, spec_workload("mcf"), nominal,
                                      with_counters=True)
        assert alive.counters is not None
        assert alive.counters.ipc > 0
        dead = i5_chip.run_benchmark(
            0, spec_workload("mcf"), nominal.with_voltage(0.55),
            with_counters=True)
        assert dead.counters is None

    def test_power_positive_and_voltage_sensitive(self, i7_chip):
        nominal = i7_chip.spec.nominal
        high = i7_chip.run_benchmark(0, spec_workload("namd"), nominal)
        low = i7_chip.run_benchmark(
            0, spec_workload("namd"), nominal.with_voltage(1.25))
        assert high.power_w > low.power_w > 0

    def test_core_out_of_range(self, i5_chip):
        with pytest.raises(ConfigurationError):
            i5_chip.core(5)

    def test_active_cores_respect_isolation(self, i5_chip):
        i5_chip.core(0).isolate()
        assert [c.core_id for c in i5_chip.active_cores()] == [1]

    def test_sensor_read_is_plausible(self, i5_chip):
        reading = i5_chip.read_sensors(1.0, i5_chip.spec.nominal)
        assert 0.8 < reading.voltage_v < 0.9
        assert reading.power_w > 0


class TestSensorBlock:
    @staticmethod
    def _scalar_reference(seed, n, voltage_v, temperature_c, power_w):
        """n reads drawn one ``Generator.normal`` call per value, in
        (v, t, p) order: the arithmetic of one read at a time."""
        rng = np.random.default_rng(seed)
        reads = []
        for _ in range(n):
            v = voltage_v + rng.normal(0.0, 0.002)
            t = temperature_c + rng.normal(0.0, 0.5)
            p = max(0.0, power_w * (1.0 + rng.normal(0.0, 0.02)))
            reads.append((v, t, p))
        return reads, rng.bit_generator.state

    @staticmethod
    def _hex(rows):
        return [tuple(float.hex(x) for x in row) for row in rows]

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_batch_equals_single_reads(self, n, i5_chip):
        point = i5_chip.spec.nominal
        batch_block, read_block = SensorBlock(seed=9), SensorBlock(seed=9)
        batch = batch_block.read_many(n, point.voltage_v, 47.25, 31.5)
        reads = [read_block.read(float(t), point, 47.25, 31.5)
                 for t in range(n)]
        expected, state = self._scalar_reference(
            9, n, point.voltage_v, 47.25, 31.5)
        assert self._hex(batch) == self._hex(expected)
        assert self._hex((r.voltage_v, r.temperature_c, r.power_w)
                         for r in reads) == self._hex(expected)
        assert batch_block.state_dict()["rng"] == state
        assert read_block.state_dict()["rng"] == state

    def test_chip_batch_reads_the_current_state(self, i5_chip):
        point = i5_chip.spec.nominal
        twin = ChipModel(intel_i5_4200u_spec(), seed=11)
        batch = i5_chip.read_sensors_many(3, point)
        reads = [twin.read_sensors(float(t), point) for t in range(3)]
        assert batch == [(r.voltage_v, r.temperature_c, r.power_w)
                         for r in reads]


class TestSpecFromVariation:
    def test_population_chip_constructs(self):
        base = arm_server_soc_spec()
        sample = sample_population(1, base.n_cores, seed=3)[0]
        spec = spec_from_variation(base, sample)
        chip = ChipModel(spec, seed=0)
        assert chip.n_cores == base.n_cores
        assert "chip0" in spec.name

    def test_core_count_mismatch_rejected(self):
        base = arm_server_soc_spec(n_cores=8)
        sample = sample_population(1, 4, seed=0)[0]
        with pytest.raises(ConfigurationError):
            spec_from_variation(base, sample)

    def test_weak_sample_raises_vmin(self):
        base = arm_server_soc_spec()
        weak = sample_population(200, base.n_cores, seed=1)
        weakest = max(weak, key=lambda c: c.worst_vmin_factor())
        strongest = min(weak, key=lambda c: c.worst_vmin_factor())
        weak_spec = spec_from_variation(base, weakest)
        strong_spec = spec_from_variation(base, strongest)
        assert weak_spec.vmin_base_v + max(weak_spec.core_deltas_v) > \
            strong_spec.vmin_base_v + max(strong_spec.core_deltas_v)


class TestPlatform:
    def test_default_node_layout(self):
        node = build_uniserver_node()
        assert node.memory.capacity_gb == pytest.approx(32.0)
        assert node.memory.reliable_domain() is not None
        assert node.chip.n_cores == 8

    def test_core_point_management(self):
        node = build_uniserver_node()
        new_point = node.chip.spec.nominal.with_voltage(0.9)
        node.set_core_point(2, new_point)
        assert node.core_point(2).voltage_v == pytest.approx(0.9)
        assert node.core_point(0) == node.chip.spec.nominal

    def test_unknown_core_rejected(self):
        node = build_uniserver_node()
        with pytest.raises(ConfigurationError):
            node.set_core_point(99, node.chip.spec.nominal)

    def test_reset_nominal_restores_everything(self):
        node = build_uniserver_node()
        node.set_all_core_points(node.chip.spec.nominal.with_voltage(0.85))
        node.memory.relax_all(1.5)
        node.reset_nominal()
        assert node.core_point(0) == node.chip.spec.nominal
        for domain in node.memory.domains():
            assert domain.refresh_interval_s == NOMINAL_REFRESH_INTERVAL_S

    def test_undervolting_reduces_power(self):
        node = build_uniserver_node()
        before = node.total_power_w()
        node.set_all_core_points(node.chip.spec.nominal.with_voltage(0.80))
        assert node.total_power_w() < before

    def test_describe_lists_components(self):
        node = build_uniserver_node()
        text = node.describe()
        assert "core0" in text and "channel0" in text and "[reliable]" in text
