"""Tests for phased workloads."""

import pytest

from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError
from repro.hardware import build_uniserver_node
from repro.hypervisor import Hypervisor, VirtualMachine
from repro.workloads import spec_workload
from repro.workloads.base import StressProfile
from repro.workloads.phases import (
    Phase,
    burst_style_workload,
    compress_style_workload,
    make_phased,
)


def profile(droop):
    return StressProfile(droop, 0.5, 0.5, 0.5, 0.5)


class TestConstruction:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            make_phased("x", [Phase(profile(0.1), 0.5),
                              Phase(profile(0.9), 0.4)])

    def test_needs_phases(self):
        with pytest.raises(ConfigurationError):
            make_phased("x", [])

    def test_summary_profile_is_weighted_mean(self):
        workload = make_phased("x", [Phase(profile(0.0), 0.75),
                                     Phase(profile(1.0), 0.25)])
        assert workload.profile.droop_intensity == pytest.approx(0.25)

    def test_phase_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Phase(profile(0.5), 0.0)


class TestPhaseLookup:
    @pytest.fixture
    def workload(self):
        return make_phased("x", [
            Phase(profile(0.1), 0.2, "read"),
            Phase(profile(0.8), 0.6, "compute"),
            Phase(profile(0.2), 0.2, "write"),
        ])

    def test_profile_at_progress(self, workload):
        assert workload.profile_at(0.0).droop_intensity == 0.1
        assert workload.profile_at(0.5).droop_intensity == 0.8
        assert workload.profile_at(0.95).droop_intensity == 0.2
        assert workload.profile_at(1.0).droop_intensity == 0.2

    def test_phase_boundaries(self, workload):
        assert workload.phase_at(0.19).name == "read"
        assert workload.phase_at(0.21).name == "compute"
        assert workload.phase_at(0.81).name == "write"

    def test_worst_phase(self, workload):
        assert workload.worst_phase().name == "compute"

    def test_progress_validation(self, workload):
        with pytest.raises(ConfigurationError):
            workload.profile_at(1.5)

    def test_stationary_workload_is_phase_invariant(self):
        workload = spec_workload("mcf")
        assert workload.profile_at(0.0) == workload.profile_at(0.9)


class TestPrebuiltShapes:
    def test_compress_style_has_three_phases(self):
        workload = compress_style_workload()
        assert len(workload.phases) == 3
        assert workload.worst_phase().name == "compress"

    def test_burst_average_understates_burst(self):
        """The trap for static margins: the mean profile looks benign,
        the burst phase does not."""
        workload = burst_style_workload(quiet_fraction=0.8)
        mean_droop = workload.profile.droop_intensity
        burst_droop = workload.worst_phase().profile.droop_intensity
        assert burst_droop > 2 * mean_droop

    def test_burst_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            burst_style_workload(quiet_fraction=1.0)


class TestHypervisorIntegration:
    def test_burst_phase_crashes_a_margin_set_for_the_average(self):
        """A point safe for the workload's *average* profile fails when
        the burst phase arrives — the hypervisor samples phases."""
        clock = SimClock()
        platform = build_uniserver_node()
        hv = Hypervisor(platform, clock, seed=2)
        hv.boot()
        workload = burst_style_workload(duration_cycles=1e12,
                                        quiet_fraction=0.5)
        core = platform.chip.core(0)
        mean_crash = core.crash_voltage_v(workload.profile)
        burst_crash = core.crash_voltage_v(
            workload.worst_phase().profile)
        assert burst_crash > mean_crash
        # Margin set for the average: safe in quiet, fatal in burst.
        risky = platform.chip.spec.nominal.with_voltage(
            mean_crash + 0.005)
        platform.set_all_core_points(risky)
        vm = VirtualMachine(name="bursty", workload=workload)
        hv.create_vm(vm)
        for _ in range(300):
            hv.tick()
        assert hv.stats.vm_crashes_masked > 0

    def test_margin_for_worst_phase_survives(self):
        clock = SimClock()
        platform = build_uniserver_node()
        hv = Hypervisor(platform, clock, seed=2)
        hv.boot()
        workload = burst_style_workload(duration_cycles=1e12,
                                        quiet_fraction=0.5)
        core = platform.chip.core(0)
        safe_v = core.crash_voltage_v(
            workload.worst_phase().profile) + 0.015
        platform.set_all_core_points(
            platform.chip.spec.nominal.with_voltage(safe_v))
        vm = VirtualMachine(name="bursty", workload=workload)
        hv.create_vm(vm)
        for _ in range(300):
            hv.tick()
        assert hv.stats.vm_crashes_masked == 0
