"""Tests for the hypervisor engine."""

import dataclasses
import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudmgr.simulation import run_rack_experiment
from repro.core.clock import SimClock
from repro.core.eop import NOMINAL_REFRESH_INTERVAL_S
from repro.core.events import CrashEvent, Event
from repro.core.exceptions import ConfigurationError
from repro.daemons.infovector import ComponentMargin, MarginVector
from repro.eop import EOPGovernor
from repro.hardware import build_uniserver_node
from repro.hardware.cache import CacheParameters
from repro.hardware.chip import arm_server_soc_spec
from repro.hardware.faults import FaultClass, FaultOrigin
from repro.hypervisor import (
    Hypervisor,
    HypervisorConfig,
    VirtualMachine,
    VMState,
    make_vm_fleet,
)
from repro.hypervisor.memory import hypervisor_footprint_mb
from repro.persistence import canonical_json
from repro.workloads import burst_style_workload, ldbc_workload, spec_workload


@pytest.fixture
def hv():
    clock = SimClock()
    platform = build_uniserver_node()
    hypervisor = Hypervisor(platform, clock, seed=9)
    hypervisor.boot()
    return hypervisor


def margin(component, point, pfail=1e-9, power=0.8):
    return ComponentMargin(
        component=component, safe_point=point,
        failure_probability=pfail, relative_power=power,
        stress_workload="virus",
    )


class TestLifecycle:
    def test_boot_places_hypervisor_in_reliable_domain(self, hv):
        allocations = hv.placement.allocations
        assert len(allocations) == 1
        assert allocations[0].critical
        assert allocations[0].domain == "channel0"

    def test_vm_requires_boot(self):
        clock = SimClock()
        hypervisor = Hypervisor(build_uniserver_node(), clock)
        vm = VirtualMachine(name="vm0", workload=spec_workload("mcf"))
        with pytest.raises(ConfigurationError):
            hypervisor.create_vm(vm)

    def test_create_and_destroy_vm(self, hv):
        vm = VirtualMachine(name="vm0", workload=spec_workload("mcf"))
        hv.create_vm(vm)
        assert vm.state is VMState.RUNNING
        assert len(hv.placement.allocations) == 2
        hv.destroy_vm("vm0")
        assert len(hv.placement.allocations) == 1
        with pytest.raises(KeyError):
            hv.vm("vm0")

    def test_duplicate_vm_rejected(self, hv):
        vm = VirtualMachine(name="vm0", workload=spec_workload("mcf"))
        hv.create_vm(vm)
        with pytest.raises(ConfigurationError):
            hv.create_vm(VirtualMachine(name="vm0",
                                        workload=spec_workload("mcf")))

    def test_vms_spread_over_cores(self, hv):
        for vm in make_vm_fleet(spec_workload("mcf"), 4):
            hv.create_vm(vm)
        cores = set(hv._assignments.values())
        assert len(cores) == 4

    def test_affinity_mode_prefers_strong_cores(self):
        """With use_affinity, the first (stressful) guest lands on the
        core with the lowest crash voltage for its profile."""
        clock = SimClock()
        platform = build_uniserver_node()
        hv = Hypervisor(platform, clock,
                        config=HypervisorConfig(use_affinity=True))
        hv.boot()
        vm = VirtualMachine(name="stressy",
                            workload=spec_workload("zeusmp"))
        hv.create_vm(vm)
        chosen = hv._assignments["stressy"]
        crash_of = {
            core.core_id: core.crash_voltage_v(vm.workload.profile)
            for core in platform.chip.cores
        }
        assert crash_of[chosen] == min(crash_of.values())


class TestMarginApplication:
    """The hypervisor's ``apply_component`` setter, and the EOP
    governor's budget gate in front of it."""

    def test_safe_margins_adopted(self, hv):
        nominal = hv.platform.chip.spec.nominal
        undo = hv.apply_component("core0", nominal.with_voltage(0.85))
        assert undo is not None
        assert hv.platform.core_point(0).voltage_v == pytest.approx(0.85)
        undo()
        assert hv.platform.core_point(0) == nominal

    def test_unsafe_margins_skipped(self, hv):
        nominal = hv.platform.chip.spec.nominal
        vector = MarginVector(
            timestamp=0.0, node="n",
            margins=(margin("core0", nominal.with_voltage(0.75),
                            pfail=0.5),),
        )
        assert EOPGovernor(hv).adopt(vector).adopted == []
        assert hv.platform.core_point(0) == nominal

    def test_over_budget_skips_are_counted(self, hv):
        """Over-budget margins increment ``hypervisor.margin_skips``
        instead of vanishing silently."""
        nominal = hv.platform.chip.spec.nominal
        vector = MarginVector(
            timestamp=0.0, node="n",
            margins=(margin("core0", nominal.with_voltage(0.75),
                            pfail=0.5),
                     margin("core1", nominal.with_voltage(0.75),
                            pfail=0.2)),
        )
        EOPGovernor(hv).adopt(vector)
        assert hv.metrics.counter("hypervisor.margin_skips") == 2.0

    def test_domain_margin_relaxes_refresh(self, hv):
        nominal = hv.platform.chip.spec.nominal
        assert hv.apply_component(
            "channel1", nominal.with_refresh(1.5)) is not None
        assert hv.platform.memory.domain("channel1").refresh_interval_s \
            == 1.5

    def test_domain_margin_publishes_config_change(self, hv):
        """Memory-domain refresh changes announce themselves on the bus
        exactly like core V-F changes do."""
        from repro.core.events import ConfigChangeEvent

        seen = []
        hv.bus.subscribe(ConfigChangeEvent, seen.append)
        nominal = hv.platform.chip.spec.nominal
        hv.apply_component("channel1", nominal.with_refresh(1.5))
        assert [e.component for e in seen] == ["channel1"]
        assert "refresh" in seen[0].old_point
        assert "refresh" in seen[0].new_point

    def test_margin_preserves_core_refresh_field(self, hv):
        nominal = hv.platform.chip.spec.nominal
        hv.apply_component("core1",
                           nominal.with_voltage(0.9).with_refresh(5.0))
        assert hv.platform.core_point(1).refresh_interval_s == \
            NOMINAL_REFRESH_INTERVAL_S


class TestExecution:
    def test_vms_make_progress(self, hv):
        vm = VirtualMachine(name="vm0",
                            workload=spec_workload("mcf",
                                                   duration_cycles=1e11))
        hv.create_vm(vm)
        for _ in range(10):
            hv.tick()
        assert vm.executed_cycles > 0
        assert hv.stats.energy_j > 0

    def test_vm_completes(self, hv):
        vm = VirtualMachine(name="vm0",
                            workload=spec_workload("mcf",
                                                   duration_cycles=1e9))
        hv.create_vm(vm)
        hv.tick()
        assert vm.state is VMState.COMPLETED

    def test_masking_restarts_crashed_vms(self):
        """At a recklessly deep point every run crashes; masking keeps
        the VM population alive via restarts."""
        clock = SimClock()
        platform = build_uniserver_node()
        hv = Hypervisor(platform, clock, seed=1)
        hv.boot()
        deep = platform.chip.spec.nominal.with_voltage(0.6)
        platform.set_all_core_points(deep)
        vm = VirtualMachine(name="vm0", workload=spec_workload("zeusmp"))
        hv.create_vm(vm)
        for _ in range(5):
            hv.tick()
        assert hv.stats.vm_crashes_masked > 0
        assert vm.state is VMState.RUNNING
        assert vm.restarts > 0

    def test_no_restart_when_masking_disabled(self):
        clock = SimClock()
        platform = build_uniserver_node()
        hv = Hypervisor(platform, clock,
                        config=HypervisorConfig(restart_failed_vms=False),
                        seed=1)
        hv.boot()
        platform.set_all_core_points(
            platform.chip.spec.nominal.with_voltage(0.6))
        vm = VirtualMachine(name="vm0", workload=spec_workload("zeusmp"))
        hv.create_vm(vm)
        for _ in range(20):
            hv.tick()
        assert vm.state is VMState.FAILED

    def test_footprint_accounts_active_vms(self, hv):
        vms = make_vm_fleet(ldbc_workload(), 3)
        for vm in vms:
            hv.create_vm(vm)
        for _ in range(5):
            hv.tick()
        hv.destroy_vm(vms[0].name)
        state = json.dumps(hv.state_dict(), sort_keys=True)
        sample = hv.footprint()
        active = hv.active_vms()
        assert len(active) == 2
        assert sample.timestamp == hv.clock.now
        assert sample.hypervisor_mb == hypervisor_footprint_mb(len(active))
        assert sample.vm_mb == sum(vm.guest_os_mb for vm in active)
        assert sample.application_mb == sum(
            vm.memory_usage_mb() - vm.guest_os_mb for vm in active)
        # Answered on demand: asking leaves no trace in the state.
        assert json.dumps(hv.state_dict(), sort_keys=True) == state


def relaxed_hv(interval_s, use_reliable=True, seed=0):
    clock = SimClock()
    platform = build_uniserver_node()
    config = HypervisorConfig(use_reliable_domain=use_reliable)
    hv = Hypervisor(platform, clock, config=config, seed=seed)
    hv.boot()
    platform.memory.relax_all(interval_s, keep_reliable_nominal=use_reliable)
    return hv


class TestDramErrorHandling:

    def test_moderate_relaxation_is_quiet(self):
        hv = relaxed_hv(1.5)
        for vm in make_vm_fleet(ldbc_workload(), 2):
            hv.create_vm(vm)
        for _ in range(50):
            hv.tick()
        assert hv.stats.host_crashes == 0

    def test_extreme_relaxation_with_reliable_domain_hits_vms_not_host(self):
        hv = relaxed_hv(40.0, use_reliable=True, seed=3)
        for vm in make_vm_fleet(ldbc_workload(scale_factor=8.0), 3):
            hv.create_vm(vm)
        for _ in range(200):
            hv.tick()
        assert hv.stats.vm_sdc_events > 0
        assert hv.stats.host_crashes == 0

    def test_extreme_relaxation_without_reliable_domain_crashes_host(self):
        hv = relaxed_hv(40.0, use_reliable=False, seed=3)
        for vm in make_vm_fleet(ldbc_workload(scale_factor=8.0), 3):
            hv.create_vm(vm)
        for _ in range(400):
            hv.tick()
            if hv.crashed:
                break
        assert hv.stats.host_crashes > 0

    def test_reboot_recovers_host(self):
        hv = relaxed_hv(40.0, use_reliable=False, seed=3)
        for vm in make_vm_fleet(ldbc_workload(scale_factor=8.0), 3):
            hv.create_vm(vm)
        for _ in range(400):
            hv.tick()
            if hv.crashed:
                break
        assert hv.crashed
        hv.reboot()
        assert not hv.crashed
        assert all(vm.state is VMState.RUNNING for vm in hv.vms)


def scalar_dram_errors(hv, dt_s):
    """Reference retention-error loop: one draw per error, one record per
    SDC.  ``Hypervisor._handle_dram_errors`` must match it bit for bit."""
    for domain in hv.platform.memory.relaxed_domains():
        rate = hv._domain_error_rate_per_s(domain)
        n_errors = int(hv._rng.poisson(rate * dt_s))
        for _ in range(n_errors):
            if hv.placement.error_hits_critical(domain.name, hv._rng):
                hv._crashed = True
                hv.stats.host_crashes += 1
                hv._record_fault(FaultClass.CRASH, FaultOrigin.DRAM,
                                 domain.name, "critical state hit")
                hv.bus.publish(CrashEvent(
                    timestamp=hv.clock.now, source="hypervisor",
                    component=domain.name,
                    operating_point=(
                        f"refresh {domain.refresh_interval_s:.2f} s"),
                ))
                return
            hv.stats.vm_sdc_events += 1
            hv._record_fault(
                FaultClass.SILENT_DATA_CORRUPTION, FaultOrigin.DRAM,
                domain.name, "guest page",
            )


class TestBatchedDramErrors:
    """The batched retention-error loop against the scalar reference."""

    def run_both(self, interval_s, use_reliable, n_vms, ticks, seed=3):
        """Tick a hypervisor and its scalar-reference twin, rebooting after
        each host crash; assert equal end states and return the batched
        one with the fault records of each crashing tick."""
        sides = []
        for reference in (False, True):
            hv = relaxed_hv(interval_s, use_reliable=use_reliable, seed=seed)
            for vm in make_vm_fleet(ldbc_workload(scale_factor=8.0), n_vms):
                hv.create_vm(vm)
            if reference:
                hv._handle_dram_errors = functools.partial(
                    scalar_dram_errors, hv)
            crashes = []
            hv.bus.subscribe(CrashEvent, crashes.append)
            crash_ticks = []
            for _ in range(ticks):
                before = len(hv.platform.faults)
                hv.tick()
                if hv.crashed:
                    crash_ticks.append(hv.platform.faults.records[before:])
                    hv.reboot()
            sides.append((hv, crashes, crash_ticks))
        (batched, crashes, crash_ticks), (scalar, scalar_crashes, _) = sides
        assert batched.stats == scalar.stats
        # JSON text: key order and every float's exact repr count.
        for state in (lambda hv: hv.platform.faults.state_dict(),
                      lambda hv: hv.metrics.snapshot(),
                      lambda hv: hv._rng.bit_generator.state):
            assert json.dumps(state(batched)) == json.dumps(state(scalar))
        assert crashes == scalar_crashes
        return batched, crash_ticks

    def test_share_zero_every_error_is_an_sdc(self):
        hv, crash_ticks = self.run_both(10.0, use_reliable=True, n_vms=3,
                                        ticks=20)
        assert all(hv.placement.critical_share(d.name) == 0.0
                   for d in hv.platform.memory.relaxed_domains())
        assert hv.stats.vm_sdc_events > 1000
        assert hv.stats.host_crashes == 0 and crash_ticks == []

    def test_fractional_share_sdcs_precede_the_crash(self):
        hv, crash_ticks = self.run_both(5.0, use_reliable=False, n_vms=4,
                                        ticks=30)
        assert 0.0 < hv.placement.critical_share("channel0") < 1.0
        assert hv.stats.host_crashes == len(crash_ticks) > 0
        # In some crashing tick, guest-page SDCs drawn in the critical
        # domain came before the critical hit.
        preceded = [
            records for records in crash_ticks
            if len(records) > 1
            and records[-1].fault_class is FaultClass.CRASH
            and records[-2].fault_class is FaultClass.SILENT_DATA_CORRUPTION
            and records[-2].component == records[-1].component == "channel0"
        ]
        assert preceded

    def test_share_one_first_error_crashes(self):
        hv, crash_ticks = self.run_both(10.0, use_reliable=False, n_vms=3,
                                        ticks=10)
        assert hv.placement.critical_share("channel0") == 1.0
        assert hv.stats.host_crashes == len(crash_ticks) > 1
        for records in crash_ticks:
            assert records[-1].fault_class is FaultClass.CRASH
            assert records[-1].component == "channel0"
            assert not any(r.component == "channel0" for r in records[:-1])


class TestTickBits:
    """What a rack's hypervisor ticks leave behind, pinned bit for bit."""

    #: sha256 of the canonical JSON of every node's hypervisor, cache RNG
    #: and fault-ledger state, plus the rack's metrics, after a dense
    #: 4-node rack (4,800 arrivals/h for 900 s) and a characterized
    #: 2-node rack with adopted margins, relaxed refresh and correctable
    #: errors (1,800 s), both at seed 0.
    GOLDEN = ("6ff7c9663a3d3056863aafae32ea033e"
              "d3ddf94a90b13db7c178bbf04bc99850")

    @staticmethod
    def _state(cloud):
        return {
            "nodes": {
                node.name: {
                    "hypervisor": node.hypervisor.state_dict(),
                    "cache": node.platform.chip.cache.state_dict(),
                    "faults": node.platform.faults.state_dict(),
                }
                for node in cloud.node_list()},
            "metrics": cloud.metrics_snapshot(),
        }

    def test_rack_tick_state_is_pinned(self):
        dense = run_rack_experiment(n_nodes=4, duration_s=900.0, seed=0,
                                    base_rate_per_hour=4800.0)
        characterized = run_rack_experiment(n_nodes=2, duration_s=1800.0,
                                            seed=0, characterize=True)
        nodes = characterized.cloud.node_list()
        assert all(node.governor.adopted_count() > 0
                   and node.platform.memory.relaxed_domains()
                   and node.hypervisor.stats.correctable_errors > 0
                   for node in nodes)
        payload = {"dense": self._state(dense.cloud),
                   "characterized": self._state(characterized.cloud)}
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert digest == self.GOLDEN


class TestBulkTicks:
    """``run_ticks(n)`` against ``n`` calls of ``tick`` that stop at a
    host crash."""

    SPEC = ("mcf", "zeusmp", "hmmer", "bzip2", "namd", "milc")

    @classmethod
    def build(cls, seed, durations, headroom_mv, refresh_s, keep_reliable,
              isolate, phased, restart, ecc):
        """A hypervisor with ``len(durations)`` VMs, every core
        ``headroom_mv`` above its crash voltage under mcf, and the bus
        events it publishes."""
        spec = arm_server_soc_spec()
        if not ecc:
            spec = dataclasses.replace(
                spec, cache=CacheParameters(ecc_reporting=False))
        platform = build_uniserver_node(chip_spec=spec)
        hv = Hypervisor(platform, SimClock(), seed=seed,
                        config=HypervisorConfig(
                            restart_failed_vms=restart,
                            use_reliable_domain=keep_reliable))
        hv.boot()
        profile = spec_workload("mcf").profile
        for core in platform.chip.cores:
            platform.set_core_point(
                core.core_id, platform.core_point(core.core_id).with_voltage(
                    core.crash_voltage_v(profile) + headroom_mv * 1e-3))
        if refresh_s is not None:
            platform.memory.relax_all(refresh_s,
                                      keep_reliable_nominal=keep_reliable)
        for i, cycles in enumerate(durations):
            workload = (burst_style_workload(duration_cycles=cycles,
                                             cycles=3)
                        if phased and i == 0 else
                        spec_workload(cls.SPEC[i % len(cls.SPEC)],
                                      duration_cycles=cycles))
            hv.create_vm(VirtualMachine(name=f"vm{i}", workload=workload))
        if isolate and durations:
            # The last VM's core is fenced off under it: ``tick`` moves it.
            vm_name = f"vm{len(durations) - 1}"
            platform.chip.core(hv._assignments[vm_name]).isolate()
        events = []
        hv.bus.subscribe(Event, events.append)
        return hv, events

    @staticmethod
    def state(hv, events):
        return json.dumps({
            "hypervisor": hv.state_dict(),
            "cache": hv.platform.chip.cache.state_dict(),
            "ledger": hv.platform.faults.state_dict(),
            "metrics": hv.metrics.state_dict(),
            "events": [repr(event) for event in events],
        })

    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_ticks=st.integers(min_value=1, max_value=120),
           durations=st.lists(st.floats(min_value=1e9, max_value=3e11),
                              max_size=12),
           headroom_mv=st.floats(min_value=0.0, max_value=60.0),
           refresh_s=st.sampled_from([None, 1.5, 3.0, 5.0, 10.0]),
           keep_reliable=st.booleans(), isolate=st.booleans(),
           phased=st.booleans(), restart=st.booleans(), ecc=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bulk_ticks_equal_single_ticks(self, n_ticks, **params):
        bulk, bulk_events = self.build(**params)
        bulk.run_ticks(n_ticks)
        single, single_events = self.build(**params)
        for _ in range(n_ticks):
            if single.crashed:
                break
            single.tick()
        assert (self.state(bulk, bulk_events)
                == self.state(single, single_events))

    def test_quiet_ticks_skip_tick(self, monkeypatch):
        """A long run of quiet ticks never calls ``tick``, yet completes
        its VMs and counts every tick."""
        hv, _ = self.build(seed=0, durations=[5e10, 2e11],
                           headroom_mv=100.0, refresh_s=None,
                           keep_reliable=True, isolate=False, phased=False,
                           restart=True, ecc=True)
        calls = []
        tick = hv.tick
        monkeypatch.setattr(hv, "tick", lambda: calls.append(tick()))
        hv.run_ticks(120)
        assert calls == []
        assert [vm.state for vm in hv.vms] == [VMState.COMPLETED] * 2
        assert hv.stats.ticks == 120
        assert hv.metrics.counter("hypervisor.ticks") == 120.0

    def test_dense_events_draw_ahead_once(self, monkeypatch):
        """Once a bulk meets an event on its first tick, the rest of the
        call runs tick by tick instead of drawing ahead again."""
        hv, _ = self.build(seed=0, durations=[3e11], headroom_mv=0.0,
                           refresh_s=None, keep_reliable=True, isolate=False,
                           phased=False, restart=True, ecc=True)
        bulks = []
        run_quiet = hv._run_quiet
        monkeypatch.setattr(hv, "_run_quiet", lambda *args: bulks.append(
            run_quiet(*args)) or bulks[-1])
        hv.run_ticks(60)
        assert bulks == [(0, True)]
        assert hv.stats.ticks == 60
