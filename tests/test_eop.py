"""Tests for operating points, guard bands and EOP tables."""

import pytest

from repro.core.eop import (
    NOMINAL_REFRESH_INTERVAL_S,
    CharacterizedPoint,
    EOPTable,
    GuardBandBreakdown,
    OperatingPoint,
    dvfs_ladder,
    refresh_ladder,
    voltage_sweep,
)
from repro.core.exceptions import OperatingPointError


class TestOperatingPoint:
    def test_valid_point_constructs(self):
        p = OperatingPoint(0.9, 2.4e9)
        assert p.voltage_v == 0.9
        assert p.refresh_interval_s == NOMINAL_REFRESH_INTERVAL_S

    @pytest.mark.parametrize("voltage", [0.1, 2.5, -1.0])
    def test_rejects_implausible_voltage(self, voltage):
        with pytest.raises(OperatingPointError):
            OperatingPoint(voltage, 2.4e9)

    @pytest.mark.parametrize("freq", [0.0, 1e5, 2e10])
    def test_rejects_implausible_frequency(self, freq):
        with pytest.raises(OperatingPointError):
            OperatingPoint(0.9, freq)

    def test_rejects_implausible_refresh(self):
        with pytest.raises(OperatingPointError):
            OperatingPoint(0.9, 2.4e9, refresh_interval_s=120.0)

    def test_voltage_offset_sign_convention(self):
        nominal = OperatingPoint(1.0, 2.4e9)
        undervolted = nominal.with_voltage(0.9)
        assert undervolted.voltage_offset_from(nominal) == pytest.approx(-0.1)

    def test_refresh_relaxation_factor(self):
        p = OperatingPoint(0.9, 2.4e9, refresh_interval_s=1.5)
        assert p.refresh_relaxation_factor() == pytest.approx(1.5 / 0.064)

    def test_with_methods_do_not_mutate(self):
        p = OperatingPoint(0.9, 2.4e9)
        q = p.with_voltage(0.8)
        assert p.voltage_v == 0.9 and q.voltage_v == 0.8
        r = p.with_frequency(1.2e9)
        assert r.frequency_hz == 1.2e9 and p.frequency_hz == 2.4e9

    def test_scaled(self):
        p = OperatingPoint(1.0, 2.0e9)
        q = p.scaled(voltage_factor=0.7, frequency_factor=0.5)
        assert q.voltage_v == pytest.approx(0.7)
        assert q.frequency_hz == pytest.approx(1.0e9)

    def test_points_are_ordered_and_hashable(self):
        a = OperatingPoint(0.8, 2e9)
        b = OperatingPoint(0.9, 2e9)
        assert a < b
        assert len({a, b, OperatingPoint(0.8, 2e9)}) == 2

    def test_describe_mentions_all_knobs(self):
        text = OperatingPoint(0.844, 2.6e9).describe()
        assert "0.844" in text and "2.60" in text and "64" in text


class TestGuardBands:
    def test_table1_defaults(self):
        gb = GuardBandBreakdown()
        rows = dict((name, value) for name, value in gb.rows())
        assert rows["Voltage droops"] == pytest.approx(0.20)
        assert rows["Vmin"] == pytest.approx(0.15)
        assert rows["Core-to-core variations"] == pytest.approx(0.05)

    def test_total_is_additive_worst_case(self):
        assert GuardBandBreakdown().total() == pytest.approx(0.40)

    def test_guardbanded_voltage_exceeds_true_vmin(self):
        gb = GuardBandBreakdown()
        assert gb.guardbanded_voltage(0.7) == pytest.approx(0.7 * 1.4)


class TestEOPTable:
    def _cp(self, voltage, pfail, power):
        return CharacterizedPoint(
            point=OperatingPoint(voltage, 2.4e9),
            failure_probability=pfail,
            relative_power=power,
        )

    def test_best_point_respects_budget(self):
        table = EOPTable()
        table.add("core0", self._cp(0.8, 1e-3, 0.7))
        table.add("core0", self._cp(0.9, 1e-7, 0.85))
        best = table.best_point("core0", failure_budget=1e-4)
        assert best is not None
        assert best.point.voltage_v == pytest.approx(0.9)

    def test_best_point_prefers_lowest_power_safe(self):
        table = EOPTable()
        table.add("core0", self._cp(0.9, 1e-8, 0.85))
        table.add("core0", self._cp(0.82, 1e-6, 0.72))
        best = table.best_point("core0", failure_budget=1e-5)
        assert best.relative_power == pytest.approx(0.72)

    def test_best_point_none_when_nothing_safe(self):
        table = EOPTable()
        table.add("core0", self._cp(0.8, 0.5, 0.7))
        assert table.best_point("core0", failure_budget=1e-6) is None

    def test_merge_combines_components(self):
        a, b = EOPTable(), EOPTable()
        a.add("core0", self._cp(0.9, 1e-7, 0.8))
        b.add("dimm0", self._cp(0.9, 1e-9, 0.9))
        a.merge(b)
        assert a.components() == ["core0", "dimm0"]

    def test_energy_saving_estimate(self):
        table = EOPTable()
        table.add("core0", self._cp(0.85, 1e-9, 0.8))
        table.add("core1", self._cp(0.85, 0.9, 0.8))  # unsafe -> no saving
        assert table.energy_saving_estimate(1e-4) == pytest.approx(0.1)


class TestLadders:
    def test_dvfs_ladder_endpoints(self):
        nominal = OperatingPoint(1.0, 2.0e9)
        ladder = dvfs_ladder(nominal, steps=5)
        assert ladder[0] == nominal
        assert ladder[-1].voltage_v == pytest.approx(0.7)
        assert ladder[-1].frequency_hz == pytest.approx(1.0e9)

    def test_dvfs_ladder_needs_two_steps(self):
        with pytest.raises(OperatingPointError):
            dvfs_ladder(OperatingPoint(1.0, 2e9), steps=1)

    def test_refresh_ladder_ends_near_five_seconds(self):
        ladder = refresh_ladder(OperatingPoint(1.0, 2e9))
        assert ladder[-1].refresh_interval_s == pytest.approx(5.0, rel=0.01)

    def test_voltage_sweep_descends_in_fixed_steps(self):
        nominal = OperatingPoint(1.0, 2e9)
        points = voltage_sweep(nominal, max_offset=0.1, step_mv=10.0)
        voltages = [p.voltage_v for p in points]
        assert voltages[0] == pytest.approx(1.0)
        diffs = [voltages[i] - voltages[i + 1] for i in range(len(voltages) - 1)]
        assert all(d == pytest.approx(0.010) for d in diffs)
        assert min(voltages) >= 0.9 - 1e-9

    def test_voltage_sweep_rejects_bad_offset(self):
        with pytest.raises(OperatingPointError):
            voltage_sweep(OperatingPoint(1.0, 2e9), max_offset=1.5)
