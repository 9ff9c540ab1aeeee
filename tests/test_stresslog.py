"""Tests for the StressLog daemon."""

import pytest

from repro.core.clock import SimClock
from repro.core.eop import NOMINAL_REFRESH_INTERVAL_S
from repro.core.events import AnomalyEvent, EventBus, MarginUpdateEvent
from repro.core.exceptions import ConfigurationError
from repro.daemons.stresslog import StressLog, StressTargets
from repro.hardware import build_uniserver_node


@pytest.fixture
def stresslog():
    clock = SimClock()
    platform = build_uniserver_node()
    return StressLog(platform, clock)


class TestTargets:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StressTargets(failure_budget=0.0)
        with pytest.raises(ConfigurationError):
            StressTargets(guard_margin_v=-0.01)
        with pytest.raises(ConfigurationError):
            StressTargets(refresh_derating=1.5)


class TestCoreCharacterisation:
    def test_safe_point_sits_above_observed_crash(self, stresslog):
        vector = stresslog.characterize()
        for margin in vector.margins:
            if not margin.component.startswith("core"):
                continue
            assert margin.observed_crash_voltage_v is not None
            assert margin.safe_point.voltage_v >= \
                margin.observed_crash_voltage_v

    def test_safe_point_below_nominal(self, stresslog):
        """The whole point: EOPs reclaim margin below nominal."""
        nominal_v = stresslog.platform.chip.spec.nominal.voltage_v
        vector = stresslog.characterize()
        core_margins = [m for m in vector.margins
                        if m.component.startswith("core")]
        assert all(m.safe_point.voltage_v < nominal_v for m in core_margins)
        assert all(m.relative_power < 1.0 for m in core_margins)

    def test_per_core_margins_differ(self, stresslog):
        """Heterogeneity: each core gets its own characterised point."""
        vector = stresslog.characterize()
        voltages = {m.safe_point.voltage_v for m in vector.margins
                    if m.component.startswith("core")}
        assert len(voltages) > 1

    def test_failure_probability_is_small_at_safe_point(self, stresslog):
        vector = stresslog.characterize()
        for margin in vector.margins:
            if margin.component.startswith("core"):
                assert margin.failure_probability < 1e-2


class TestDomainCharacterisation:
    def test_relaxed_domains_characterised(self, stresslog):
        vector = stresslog.characterize()
        domain_margins = [m for m in vector.margins
                          if m.component.startswith("channel")]
        assert len(domain_margins) == 3  # reliable channel0 excluded
        for margin in domain_margins:
            assert margin.safe_point.refresh_interval_s > \
                NOMINAL_REFRESH_INTERVAL_S
            assert margin.observed_ber is not None
            assert margin.observed_ber <= stresslog.targets.refresh_ber_target * 1.01

    def test_reliable_domain_not_touched(self, stresslog):
        vector = stresslog.characterize()
        names = vector.component_names()
        assert "channel0" not in names
        assert stresslog.platform.memory.domain(
            "channel0").refresh_interval_s == NOMINAL_REFRESH_INTERVAL_S

    def test_characterisation_restores_current_settings(self, stresslog):
        """The offline campaign must not leave test settings applied."""
        stresslog.characterize()
        for domain in stresslog.platform.memory.domains():
            assert domain.refresh_interval_s == NOMINAL_REFRESH_INTERVAL_S


class TestCycleManagement:
    def test_history_and_eop_table_populate(self, stresslog):
        vector = stresslog.characterize()
        assert stresslog.history == [vector]
        assert len(stresslog.eop_table) == len(vector.margins)

    def test_margin_events_published(self):
        clock = SimClock()
        bus = EventBus()
        platform = build_uniserver_node()
        sl = StressLog(platform, clock, bus=bus)
        events = []
        bus.subscribe(MarginUpdateEvent, events.append)
        vector = sl.characterize()
        assert len(events) == len(vector.margins)

    def test_anomaly_trigger_runs_cycle(self):
        clock = SimClock()
        bus = EventBus()
        platform = build_uniserver_node()
        sl = StressLog(platform, clock, bus=bus)
        sl.attach_anomaly_trigger(bus)
        bus.publish(AnomalyEvent(timestamp=0.0, source="healthlog",
                                 description="x", severity="critical"))
        assert len(sl.history) == 1
        assert sl.history[0].trigger == "anomaly"

    def test_warning_anomalies_ignored(self):
        clock = SimClock()
        bus = EventBus()
        platform = build_uniserver_node()
        sl = StressLog(platform, clock, bus=bus)
        sl.attach_anomaly_trigger(bus)
        bus.publish(AnomalyEvent(timestamp=0.0, source="healthlog",
                                 description="x", severity="warning"))
        assert sl.history == []

    def test_periodic_schedule(self):
        clock = SimClock()
        platform = build_uniserver_node()
        sl = StressLog(platform, clock)
        sl.schedule_periodic(100.0)
        clock.advance_to(350.0)
        assert len(sl.history) == 3
        assert all(v.trigger == "periodic" for v in sl.history)

    def test_offline_flag_cleared_after_cycle(self, stresslog):
        stresslog.characterize()
        assert stresslog.offline is False

    def test_mean_power_saving_positive(self, stresslog):
        vector = stresslog.characterize()
        assert vector.mean_power_saving() > 0.05
