"""The UniServer hypervisor: EOP control, error masking, VM management.

Paper Section 4.A.  The hypervisor (KVM-like, symmetric) is the layer that

* sets the system at a "just-right configuration" from the margins the
  StressLog characterised and the Predictor endorses, within the failure
  budget the SLAs allow;
* offers VMs "a reliable virtual execution environment on top of
  potentially unreliable hardware": correctable errors are logged,
  VM-killing faults are masked by restarting the victim VM, and the
  hypervisor's own state lives in the reliable memory domain so DRAM
  relaxation cannot wedge the host;
* isolates cores and domains with high error rates (via
  :class:`~repro.hypervisor.isolation.IsolationManager`).

The execution model is tick-based on the simulation clock: each tick runs
every active VM for a time slice on its assigned core at that core's
operating point, samples crash/ECC/DRAM-retention faults from the
hardware models, and applies the masking policy.  A node step runs its
quiet ticks in bulk (:meth:`Hypervisor.run_ticks`) and each tick that
holds a fault event through :meth:`Hypervisor.tick`, bit for bit as
one ``tick`` call per tick would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.clock import SimClock
from ..core.eop import OperatingPoint
from ..core.events import (
    ConfigChangeEvent,
    CorrectableErrorEvent,
    CrashEvent,
    EventBus,
)
from ..core.exceptions import ConfigurationError, SchedulingError
from ..core.runtime import MetricsRegistry, NodeRuntime
from ..hardware.faults import FaultClass, FaultOrigin, FaultRecord
from ..hardware.platform import ServerPlatform
from ..workloads.base import StressProfile
from ..workloads.phases import PhasedWorkload
from .memory import FootprintSample, PlacementPolicy, hypervisor_footprint_mb
from .vm import VirtualMachine, VMState

#: Fraction of a tick a VM effectively executes (scheduling overhead).
VM_EFFICIENCY = 0.95


@dataclass(frozen=True)
class HypervisorConfig:
    """Policy knobs of the hypervisor."""

    #: Per-run failure budget a characterised point must meet before the
    #: hypervisor adopts it.
    failure_budget: float = 1e-4
    #: Mask VM-fatal faults by restarting the victim VM.
    restart_failed_vms: bool = True
    #: Keep hypervisor state in the reliable memory domain.
    use_reliable_domain: bool = True
    #: Place VMs on cores EOP-aware (affinity planner) instead of
    #: least-loaded: strong cores take the stress-heavy guests.
    use_affinity: bool = False
    #: Scheduler time slice (seconds of simulated time per tick).
    tick_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.failure_budget < 1:
            raise ConfigurationError("failure budget must be in (0, 1)")
        if self.tick_s <= 0:
            raise ConfigurationError("tick must be positive")


@dataclass
class HypervisorStats:
    """Counters of hypervisor activity."""

    ticks: int = 0
    vm_crashes_masked: int = 0
    vm_sdc_events: int = 0
    correctable_errors: int = 0
    host_crashes: int = 0
    margin_applications: int = 0
    energy_j: float = 0.0


class _VMTerms(NamedTuple):
    """What one tick of a running VM risks, does and costs on its core."""

    core_id: int
    point: OperatingPoint
    profile: StressProfile
    crash_p: float
    crash_v: float
    cycles: float
    energy_j: float


class Hypervisor:
    """A symmetric, error-resilient hypervisor for one platform."""

    def __init__(self, platform: ServerPlatform,
                 clock: Optional[SimClock] = None,
                 bus: Optional[EventBus] = None,
                 config: Optional[HypervisorConfig] = None,
                 seed: int = 0,
                 runtime: Optional[NodeRuntime] = None) -> None:
        if runtime is not None:
            clock = clock or runtime.clock
            bus = bus or runtime.bus
        if clock is None:
            raise ConfigurationError(
                "Hypervisor needs a runtime or an explicit clock")
        self.platform = platform
        self.clock = clock
        self.bus = bus or EventBus()
        self.config = config or HypervisorConfig()
        self.metrics = (runtime.metrics if runtime is not None
                        else MetricsRegistry())
        self.placement = PlacementPolicy(
            platform.memory,
            use_reliable_domain=self.config.use_reliable_domain,
        )
        self.stats = HypervisorStats()
        self._vms: Dict[str, VirtualMachine] = {}
        self._assignments: Dict[str, int] = {}
        self._rng = (runtime.rng("hypervisor") if runtime is not None
                     else np.random.default_rng(seed))
        self._crashed = False
        self._booted = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        """Whether the host is down (critical state corrupted)."""
        return self._crashed

    def boot(self) -> None:
        """Bring the hypervisor up: place its own state in memory."""
        if self._booted:
            return
        self.placement.place("hypervisor", hypervisor_footprint_mb(0),
                             critical=True)
        self._booted = True

    def inject_crash(self) -> None:
        """Force a host crash (chaos / fault-injection entry point).

        Indistinguishable downstream from an organic critical-state hit:
        the fault is ledgered, the crash event published, and the host
        stops ticking until :meth:`reboot`.
        """
        if self._crashed:
            return
        self._crashed = True
        self.stats.host_crashes += 1
        self._record_fault(FaultClass.CRASH, FaultOrigin.UNKNOWN,
                           "hypervisor", "injected host crash")
        self.bus.publish(CrashEvent(
            timestamp=self.clock.now, source="hypervisor",
            component="hypervisor", operating_point="injected",
        ))

    def reboot(self) -> None:
        """Recover from a host crash; running VMs are lost and restarted."""
        if not self._crashed:
            return
        self._crashed = False
        for vm in self._vms.values():
            if vm.is_active:
                vm.fail()
            if vm.state is VMState.FAILED and self.config.restart_failed_vms:
                vm.restart()

    # -- VM management ---------------------------------------------------------

    @property
    def vms(self) -> List[VirtualMachine]:
        """All VMs known to the hypervisor."""
        return list(self._vms.values())

    def vm(self, name: str) -> VirtualMachine:
        """One VM by name."""
        if name not in self._vms:
            raise KeyError(f"no VM named {name!r}")
        return self._vms[name]

    def active_vms(self) -> List[VirtualMachine]:
        """VMs currently occupying resources."""
        return [vm for vm in self._vms.values() if vm.is_active]

    def _core_load(self) -> Dict[int, int]:
        active = self.platform.chip.active_cores()
        load: Dict[int, int] = {core.core_id: 0 for core in active}
        for vm_name, core_id in self._assignments.items():
            if core_id in load and self._vms[vm_name].is_active:
                load[core_id] += 1
        return load

    def _pick_core(self, vm: Optional[VirtualMachine] = None) -> int:
        """Choose a core for a VM.

        Default policy: least-loaded active core.  With
        ``config.use_affinity`` (and a VM to inspect), ties of load are
        broken EOP-aware: the core whose crash voltage under this VM's
        stress profile is lowest — the strongest core for this guest.
        """
        load = self._core_load()
        if not load:
            raise SchedulingError("no active cores available")
        if vm is None or not self.config.use_affinity:
            return min(load, key=lambda c: (load[c], c))
        profile = vm.workload.profile

        def affinity_key(core_id: int):
            """Sort key: load, then crash voltage, then id."""
            crash_v = self.platform.chip.core(core_id).crash_voltage_v(
                profile)
            return (load[core_id], crash_v, core_id)

        return min(load, key=affinity_key)

    def create_vm(self, vm: VirtualMachine) -> None:
        """Admit and start a VM: place memory, assign a core."""
        if not self._booted:
            raise ConfigurationError("boot the hypervisor first")
        if self._crashed:
            raise ConfigurationError("hypervisor is crashed")
        if vm.name in self._vms:
            raise ConfigurationError(f"VM {vm.name!r} already exists")
        total_mb = vm.guest_os_mb + vm.workload.demand.memory_mb
        self.placement.place(vm.name, total_mb)
        self._vms[vm.name] = vm
        self._assignments[vm.name] = self._pick_core(vm)
        vm.start()

    def destroy_vm(self, name: str) -> None:
        """Tear a VM down and free its memory."""
        vm = self.vm(name)
        if vm.state is VMState.RUNNING:
            vm.pause()
        self.placement.release(name)
        del self._vms[name]
        self._assignments.pop(name, None)

    def detach_vm(self, name: str) -> VirtualMachine:
        """Remove a VM without failing it (for migration to another host)."""
        vm = self.vm(name)
        self.placement.release(name)
        del self._vms[name]
        self._assignments.pop(name, None)
        return vm

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable mutable hypervisor state.

        VM objects are saved as overlays (name -> mutated fields); the
        restore side rebuilds the VM shells through a caller-supplied
        factory because workloads are regenerated, not serialized.
        Dict insertion order is behaviour (``tick`` iterates ``_vms``),
        so orderings are preserved as-is.
        """
        return {
            "stats": asdict(self.stats),
            "vms": {name: vm.state_dict()
                    for name, vm in self._vms.items()},
            "assignments": dict(self._assignments),
            "placement": self.placement.state_dict(),
            "rng": self._rng.bit_generator.state,
            "crashed": self._crashed,
            "booted": self._booted,
        }

    def load_state_dict(self, state: Dict[str, object],
                        vm_factory: Callable[[str], VirtualMachine]) -> None:
        """Restore state saved by :meth:`state_dict`.

        ``vm_factory`` must return a freshly built (PENDING) VM shell for
        a given name — same workload and resources as at admission time;
        the saved per-VM overlay is applied on top of it.
        """
        stats = state["stats"]
        self.stats = HypervisorStats(**stats)  # type: ignore[arg-type]
        self._vms = {}
        for name, vm_state in state["vms"].items():  # type: ignore[union-attr]
            vm = vm_factory(str(name))
            vm.load_state_dict(vm_state)
            self._vms[str(name)] = vm
        self._assignments = {str(k): int(v) for k, v
                             in state["assignments"].items()}  # type: ignore[union-attr]
        self.placement.load_state_dict(state["placement"])  # type: ignore[arg-type]
        self._rng.bit_generator.state = state["rng"]
        self._crashed = bool(state["crashed"])
        self._booted = bool(state["booted"])

    # -- EOP configuration --------------------------------------------------------

    @staticmethod
    def _core_id(component: str) -> Optional[int]:
        """Parse ``"core<N>"`` into N; None for anything else."""
        if not component.startswith("core"):
            return None
        try:
            return int(component[len("core"):])
        except ValueError:
            return None

    def apply_component(self, component: str,
                        point: OperatingPoint) -> Optional[Callable[[], None]]:
        """Reconfigure one component, returning a rollback closure.

        This is the hardware-facing transactional setter the EOP governor
        builds on: no budget gate, no batch bookkeeping.  Core components
        adopt the point's V-F (refresh stays per-domain); memory domains
        adopt only its refresh interval.  Returns ``None`` when the
        component is unknown, the domain is reliability-hardened, or the
        configuration would not change.
        """
        core_id = self._core_id(component)
        if core_id is not None and 0 <= core_id < self.platform.chip.n_cores:
            old = self.platform.core_point(core_id)
            new = point.with_refresh(old.refresh_interval_s)
            if new == old:
                return None
            self._set_core_point(component, core_id, old, new)
            return lambda: self._set_core_point(component, core_id, new, old)
        if component in self.platform.memory:
            domain = self.platform.memory.domain(component)
            if domain.reliable:
                return None
            old_interval = domain.refresh_interval_s
            new_interval = point.refresh_interval_s
            if new_interval == old_interval:
                return None
            self._set_refresh(component, old_interval, new_interval)
            return lambda: self._set_refresh(
                component, new_interval, old_interval)
        return None

    def _set_core_point(self, component: str, core_id: int,
                        old: OperatingPoint, new: OperatingPoint) -> None:
        self.platform.set_core_point(core_id, new)
        self.bus.publish(ConfigChangeEvent(
            timestamp=self.clock.now, source="hypervisor",
            component=component, old_point=old.describe(),
            new_point=new.describe(),
        ))

    def _set_refresh(self, component: str, old_interval: float,
                     new_interval: float) -> None:
        domain = self.platform.memory.domain(component)
        domain.set_refresh_interval(new_interval)
        self.bus.publish(ConfigChangeEvent(
            timestamp=self.clock.now, source="hypervisor",
            component=component,
            old_point=f"refresh {old_interval * 1e3:.0f} ms",
            new_point=f"refresh {domain.refresh_interval_s * 1e3:.0f} ms",
        ))

    # -- the execution engine --------------------------------------------------------

    def _record_fault(self, fault_class: FaultClass, origin: FaultOrigin,
                      component: str, detail: str = "",
                      count: int = 1) -> None:
        self.platform.faults.record(FaultRecord(
            timestamp=self.clock.now, fault_class=fault_class,
            origin=origin, component=component, detail=detail,
        ), count)
        # Counters start at 0.0, so one increment by ``count`` is exactly
        # ``count`` increments by one.
        self.metrics.inc(f"hardware.faults.{fault_class.value}", count)

    def _domain_error_rate_per_s(self, domain) -> float:
        """Consumed retention-error rate of a relaxed domain.

        Weak cells flip once per refresh interval; an error only matters
        when the affected page is allocated and its data actually read.
        """
        ber = domain.ber()
        if ber <= 0:
            return 0.0
        used_mb = sum(a.size_mb for a in self.placement.allocations
                      if a.domain == domain.name)
        occupancy = min(1.0, used_mb / (domain.capacity_gb * 1024.0))
        consumed_fraction = 0.5 * occupancy   # vulnerable + actually read
        weak_cells = ber * domain.capacity_bits
        return weak_cells * consumed_fraction / domain.refresh_interval_s

    def _first_critical_hit(self, domain_name: str,
                            n_errors: int) -> Optional[int]:
        """Index of the first of ``n_errors`` retention errors that lands on
        critical state, or ``None`` when none does.

        Consumes exactly the uniforms one draw per error up to the hit
        would: ``random(n)`` yields the same doubles as ``n`` scalar
        draws, so on a hit the stream is rewound and ``hit + 1`` redrawn.
        An unused domain draws nothing.
        """
        share = self.placement.critical_share(domain_name)
        if share is None:
            return None
        bit_generator = self._rng.bit_generator
        saved = bit_generator.state
        critical = self._rng.random(n_errors) < share
        if not critical.any():
            return None
        hit = int(critical.argmax())
        bit_generator.state = saved
        self._rng.random(hit + 1)
        return hit

    def _handle_dram_errors(self, dt_s: float) -> None:
        for domain in self.platform.memory.relaxed_domains():
            rate = self._domain_error_rate_per_s(domain)
            n_errors = int(self._rng.poisson(rate * dt_s))
            if n_errors == 0:
                continue
            hit = self._first_critical_hit(domain.name, n_errors)
            n_sdc = n_errors if hit is None else hit
            if n_sdc:
                # VM data hits: silent corruptions inside guests.
                self.stats.vm_sdc_events += n_sdc
                self._record_fault(
                    FaultClass.SILENT_DATA_CORRUPTION, FaultOrigin.DRAM,
                    domain.name, "guest page", count=n_sdc,
                )
            if hit is not None:
                # Retention error in hypervisor/kernel state: host down.
                self._crashed = True
                self.stats.host_crashes += 1
                self._record_fault(FaultClass.CRASH, FaultOrigin.DRAM,
                                   domain.name, "critical state hit")
                self.bus.publish(CrashEvent(
                    timestamp=self.clock.now, source="hypervisor",
                    component=domain.name,
                    operating_point=(
                        f"refresh {domain.refresh_interval_s:.2f} s"),
                ))
                return

    def _vm_terms(self, vm: VirtualMachine) -> _VMTerms:
        """A running VM's per-tick terms on its assigned core."""
        dt = self.config.tick_s
        core_id = self._assignments[vm.name]
        core = self.platform.chip.core(core_id)
        point = self.platform.core_point(core_id)
        # Phase-aware: a guest entering a droop-heavy phase becomes
        # riskier mid-run (stationary workloads return their single
        # profile).
        profile = vm.workload.profile_at(vm.progress)
        return _VMTerms(
            core_id=core_id, point=point, profile=profile,
            crash_p=core.crash_probability(point, profile),
            crash_v=core.crash_voltage_v(profile, point.frequency_hz),
            cycles=dt * point.frequency_hz * VM_EFFICIENCY,
            energy_j=self.platform.chip.power.total_power_w(
                point, activity=profile.activity_factor,
                temperature_c=self.platform.chip.thermal.temperature_c,
            ) * dt,
        )

    def _set_gauges(self) -> None:
        """Publish the hypervisor's point-in-time gauges."""
        self.metrics.set_gauge("hypervisor.energy_j", self.stats.energy_j)
        self.metrics.set_gauge("hypervisor.active_vms",
                               float(len(self.active_vms())))
        self.metrics.set_gauge("hardware.faults.total",
                               float(len(self.platform.faults)))

    def tick(self) -> None:
        """Advance the machine by one scheduler tick."""
        if not self._booted:
            raise ConfigurationError("boot the hypervisor first")
        if self._crashed:
            return
        dt = self.config.tick_s
        self.stats.ticks += 1
        self.metrics.inc("hypervisor.ticks")

        for vm in list(self._vms.values()):
            if vm.state is not VMState.RUNNING:
                continue
            if self.platform.chip.core(self._assignments[vm.name]).isolated:
                self._assignments[vm.name] = self._pick_core(vm)
            terms = self._vm_terms(vm)
            core_id = terms.core_id
            if self._rng.random() < terms.crash_p:
                # The core glitched under this VM's stress: kill and mask.
                vm.fail()
                self.stats.vm_crashes_masked += 1
                self.metrics.inc("hypervisor.vm_crashes_masked")
                self._record_fault(FaultClass.CRASH, FaultOrigin.CPU_CORE,
                                   f"core{core_id}", f"vm {vm.name}")
                self.bus.publish(CrashEvent(
                    timestamp=self.clock.now, source="hypervisor",
                    component=f"core{core_id}",
                    operating_point=terms.point.describe(),
                ))
                if self.config.restart_failed_vms:
                    vm.restart()
                continue

            cache_result = self.platform.chip.cache.run(
                terms.point.voltage_v, terms.crash_v, terms.profile)
            if cache_result.correctable:
                self.stats.correctable_errors += cache_result.correctable
                self.metrics.inc("hypervisor.correctable_errors",
                                 cache_result.correctable)
                self._record_fault(FaultClass.CORRECTABLE, FaultOrigin.CACHE,
                                   f"core{core_id}",
                                   f"{cache_result.correctable} corrected")
                self.bus.publish(CorrectableErrorEvent(
                    timestamp=self.clock.now, source="hypervisor",
                    component=f"core{core_id}",
                    detail=f"{cache_result.correctable} SECDED corrections",
                ))

            vm.execute(terms.cycles)
            self.stats.energy_j += terms.energy_j

        self._handle_dram_errors(dt)
        self._set_gauges()

    def run_ticks(self, n_ticks: int) -> None:
        """Advance by ``n_ticks`` scheduler ticks, stopping at a host crash.

        Every bit as ``n_ticks`` calls of :meth:`tick` would leave it.
        Until a fault event fires, nothing a tick reads can change, so
        quiet ticks run in bulk (:meth:`_run_quiet`) and the first tick
        that holds an event runs through :meth:`tick`.  Ticks with a
        running VM on an isolated core (:meth:`tick` re-picks its core)
        or with a phased workload (its profile moves with progress) run
        through :meth:`tick` too.  A bulk whose first tick holds an event
        drew ahead for nothing: events are dense here, so the rest of the
        call runs tick by tick.
        """
        if not self._booted:
            raise ConfigurationError("boot the hypervisor first")
        left = n_ticks
        bulk = True
        while left > 0 and not self._crashed:
            running = [vm for vm in self._vms.values()
                       if vm.state is VMState.RUNNING]
            if bulk and not any(
                    isinstance(vm.workload, PhasedWorkload)
                    or self.platform.chip.core(
                        self._assignments[vm.name]).isolated
                    for vm in running):
                quiet, event = self._run_quiet(running, left)
                left -= quiet
                bulk = quiet > 0
                if not event:
                    continue
            self.tick()
            left -= 1

    def _run_quiet(self, running: List[VirtualMachine],
                   n_ticks: int) -> Tuple[int, bool]:
        """Run the quiet ticks among the next ``n_ticks`` of the
        ``running`` VMs in bulk; returns how many ran and whether the
        tick after them holds an event.

        Each VM's terms are computed once, and the ticks' variates are
        drawn as arrays in the order :meth:`tick` draws them.  The bulk
        ends with the first tick in which a VM completes.  Every tick
        before the first one that holds an event (a crash, a raw cache
        error or a retention error) is committed; at that event tick both
        streams are rewound and exactly the quiet ticks are redrawn, so
        the event tick can run through :meth:`tick`.
        """
        dt = self.config.tick_s
        cache = self.platform.chip.cache
        terms = [self._vm_terms(vm) for vm in running]
        crash_p = np.array([t.crash_p for t in terms])
        expected = np.array([
            cache.expected_errors(t.point.voltage_v, t.crash_v, t.profile)
            for t in terms])
        # poisson(0.0) draws nothing, so error-free domains drop out.
        rates = [rate for rate in (
            self._domain_error_rate_per_s(domain) * dt
            for domain in self.platform.memory.relaxed_domains())
            if rate > 0]
        # Executed cycles after each tick, summed in tick order as
        # ``VirtualMachine.execute`` sums them.
        progress = np.add.accumulate(np.vstack((
            [vm.executed_cycles for vm in running],
            np.tile([t.cycles for t in terms], (n_ticks, 1)))), axis=0)
        completes = (progress[1:]
                     >= [vm.total_cycles for vm in running]).any(axis=1)
        if completes.any():
            n_ticks = int(completes.argmax()) + 1

        rng_state = self._rng.bit_generator.state
        cache_state = cache.state_dict()
        quiet = self._draw_quiet(n_ticks, crash_p, expected, rates)
        if quiet < n_ticks:
            self._rng.bit_generator.state = rng_state
            cache.load_state_dict(cache_state)
            self._draw_quiet(quiet, crash_p, expected, rates)
        if quiet:
            for i, vm in enumerate(running):
                # The last quiet tick runs through ``execute``, which
                # completes the VM when its work is done.
                vm.executed_cycles = float(progress[quiet - 1, i])
                vm.execute(terms[i].cycles)
            # Energy adds up per (tick, VM), tick-major, as in ``tick``.
            self.stats.energy_j = float(np.add.accumulate(np.concatenate((
                [self.stats.energy_j],
                np.tile([t.energy_j for t in terms], quiet))))[-1])
            self.stats.ticks += quiet
            self.metrics.inc("hypervisor.ticks", quiet)
            self._set_gauges()
        return quiet, quiet < n_ticks

    def _draw_quiet(self, n_ticks: int, crash_p: np.ndarray,
                    expected: np.ndarray, rates: Sequence[float]) -> int:
        """Draw up to ``n_ticks`` ticks' variates as :meth:`tick` draws them
        in quiet ticks; returns how many ticks come before the first one
        that holds an event (``n_ticks`` when none does).

        Per tick, the hypervisor stream draws one uniform per running VM
        (its crash test), then one Poisson count per relaxed domain; the
        cache stream draws one raw error count per VM.  Drawing may stop
        within the first event tick; the caller then rewinds both streams.
        """
        events = self.platform.chip.cache.raw_error_counts(
            expected, n_ticks).any(axis=1)
        if not rates:
            events |= (self._rng.random((n_ticks, len(crash_p)))
                       < crash_p).any(axis=1)
        else:
            # Each tick's uniforms precede its Poisson counts on the one
            # stream, so these ticks draw one by one.
            for row in range(n_ticks):
                if not events[row]:
                    events[row] = (
                        (self._rng.random(len(crash_p)) < crash_p).any()
                        or any(self._rng.poisson(rate) for rate in rates))
                if events[row]:
                    break
        return int(events.argmax()) if events.any() else n_ticks

    def footprint(self) -> FootprintSample:
        """The hypervisor/VM/application memory split right now (Figure 3)."""
        active = self.active_vms()
        return FootprintSample(
            timestamp=self.clock.now,
            hypervisor_mb=hypervisor_footprint_mb(len(active)),
            vm_mb=sum(vm.guest_os_mb for vm in active),
            application_mb=sum(vm.memory_usage_mb() - vm.guest_os_mb
                               for vm in active),
        )
