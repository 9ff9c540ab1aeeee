"""Cross-layer coordinator: the full UniServer node (paper Figure 2).

:class:`UniServerNode` assembles the complete ecosystem on one platform —
event bus, HealthLog, StressLog, Predictor, Hypervisor — and drives the
information-vector flow of Figure 2:

1. **pre-deployment**: StressLog stress-tests every component and emits a
   margin vector of Extended Operating Points;
2. **deployment**: the Hypervisor adopts the EOPs that fit the failure
   budget, VMs run, the HealthLog records everything;
3. **runtime adaptation**: the Predictor trains on the accumulated
   evidence and advises execution modes; HealthLog anomalies trigger
   StressLog re-characterisation; the isolation manager fences failing
   resources.

The :meth:`energy_report` compares the node's energy at EOP against the
conservative-nominal baseline — the headline UniServer saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..daemons.healthlog import HealthLog, HealthLogConfig
from ..daemons.infovector import InfoVector, MarginVector
from ..daemons.predictor import Predictor
from ..daemons.stresslog import StressLog
from ..eop.governor import EOPGovernor
from ..eop.policy import EOPPolicy
from ..hardware.platform import ServerPlatform, build_uniserver_node
from ..hypervisor.hypervisor import Hypervisor, HypervisorConfig
from ..hypervisor.isolation import IsolationManager
from ..hypervisor.qos import QoSGuard
from ..hypervisor.vm import VirtualMachine
from .clock import SimClock
from .exceptions import ConfigurationError
from .runtime import NodeRuntime

#: Simulated seconds between two isolation reviews (and, in a standalone
#: :meth:`UniServerNode.run`, two governor supervision steps).
ISOLATION_REVIEW_S = 60.0


@dataclass
class EnergyReport:
    """EOP-vs-nominal energy comparison for one node."""

    nominal_power_w: float
    eop_power_w: float

    @property
    def saving_fraction(self) -> float:
        """Fractional power saving of EOP vs nominal."""
        if self.nominal_power_w <= 0:
            return 0.0
        return 1.0 - self.eop_power_w / self.nominal_power_w


class UniServerNode:
    """The full cross-layer stack on a single micro-server.

    All per-node plumbing (clock, bus, RNG streams, metrics) lives in one
    :class:`~repro.core.runtime.NodeRuntime`; every layer of the node —
    HealthLog, StressLog, Predictor, Hypervisor, IsolationManager,
    QoSGuard — is built on it, so single-node benches and the rack
    simulator exercise exactly the same stack.  Pass ``runtime=`` to
    embed the node in a rack (shared clock, spawned seed family); the
    ``clock``/``seed`` parameters remain for standalone use.
    """

    def __init__(self, platform: Optional[ServerPlatform] = None,
                 clock: Optional[SimClock] = None,
                 hypervisor_config: Optional[HypervisorConfig] = None,
                 seed: int = 0,
                 runtime: Optional[NodeRuntime] = None,
                 healthlog_config: Optional[HealthLogConfig] = None,
                 eop_policy: Optional[EOPPolicy] = None) -> None:
        if runtime is None:
            runtime = NodeRuntime(name="uniserver0", clock=clock, seed=seed)
        elif clock is not None and clock is not runtime.clock:
            raise ConfigurationError(
                "pass either a runtime or a clock, not a conflicting pair")
        self.runtime = runtime
        self.clock = runtime.clock
        self.bus = runtime.bus
        self.platform = platform or build_uniserver_node(name=runtime.name)
        self.healthlog = HealthLog(self.platform, runtime=runtime,
                                   config=healthlog_config)
        self.stresslog = StressLog(self.platform, runtime=runtime)
        self.predictor = Predictor(self.platform.chip.spec.nominal,
                                   runtime=runtime)
        self.hypervisor = Hypervisor(
            self.platform, runtime=runtime, config=hypervisor_config,
        )
        self.isolation = IsolationManager(self.platform, runtime=runtime)
        self.qos = QoSGuard(self.hypervisor, runtime=runtime)
        self.governor = EOPGovernor(
            self.hypervisor, qos=self.qos, healthlog=self.healthlog,
            policy=eop_policy or EOPPolicy.adopt_within_budget(),
            runtime=runtime)
        self.margin_history: List[MarginVector] = []
        self._deployed = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def deployed(self) -> bool:
        """Whether the node has been brought into service."""
        return self._deployed

    def pre_deploy(self) -> MarginVector:
        """Pre-deployment characterisation: the first StressLog cycle."""
        margins = self.stresslog.characterize(trigger="pre-deployment")
        self.margin_history.append(margins)
        return margins

    def deploy(self, policy: Optional[EOPPolicy] = None) -> List[str]:
        """Bring the node into service under an EOP policy.

        Returns the components whose configuration changed.  ``policy``
        overrides the governor's stance for the rest of the node's life;
        with :meth:`EOPPolicy.conservative` the node deploys at nominal —
        the baseline configuration of the benches — and no prior
        characterisation is required.
        """
        if policy is not None:
            self.governor.policy = policy
        adopting = self.governor.policy.adopt
        if adopting and not self.margin_history:
            raise ConfigurationError("run pre_deploy() before deploy()")
        self.hypervisor.boot()
        self.healthlog.start()
        self.stresslog.attach_anomaly_trigger(self.bus)
        self._deployed = True
        if not self.margin_history:
            return []
        return self.governor.adopt(self.margin_history[-1]).adopted

    def launch_vm(self, vm: VirtualMachine) -> None:
        """Admit one VM onto the node."""
        if not self._deployed:
            raise ConfigurationError("deploy() the node before launching VMs")
        self.hypervisor.create_vm(vm)

    def run(self, duration_s: float) -> None:
        """Run the node: hypervisor ticks plus periodic isolation review."""
        if not self._deployed:
            raise ConfigurationError("deploy() the node before running")
        tick = self.hypervisor.config.tick_s
        elapsed = 0.0
        since_review = 0.0
        while elapsed < duration_s and not self.hypervisor.crashed:
            self.hypervisor.tick()
            self.clock.advance_by(tick)
            elapsed += tick
            since_review += tick
            if since_review >= ISOLATION_REVIEW_S:
                self.governor.step()
                self.isolation.review(self.platform.faults, self.clock.now)
                since_review = 0.0

    # -- the runtime feedback loop ------------------------------------------------

    def train_predictor(self, benchmark_suite=None,
                        include_campaign: bool = True) -> None:
        """Train the Predictor from StressLog evidence plus benchmarks.

        Two evidence sources, mirroring the StressLog's workload suite of
        "benchmarks and kernels that either represent real-life
        applications or are hand-coded to stress specific components":

        * every characterised virus point contributes survival evidence
          at the safe point and crash evidence at the observed crash
          voltage;
        * an undervolting campaign with ``benchmark_suite`` (the
          SPEC-like suite by default) teaches the model how workload
          characteristics move the crash point.  Rack simulations with
          many nodes can skip it (``include_campaign=False``) and train
          on the stress evidence alone.
        """
        from ..characterization.cpu_undervolting import UndervoltingCampaign
        from ..daemons.predictor import dataset_from_campaign
        from ..workloads.spec import spec_suite

        nominal = self.platform.chip.spec.nominal
        suite = self.stresslog.suite
        for vector in self.margin_history:
            for margin in vector.margins:
                if not margin.component.startswith("core"):
                    continue
                profile = suite.get(margin.stress_workload).profile
                self.predictor.observe(margin.safe_point, profile,
                                       crashed=False)
                if margin.observed_crash_voltage_v is not None:
                    crash_point = nominal.with_voltage(
                        min(nominal.voltage_v,
                            margin.observed_crash_voltage_v))
                    self.predictor.observe(crash_point, profile,
                                           crashed=True)
                # Nominal always survives the stress suite.
                self.predictor.observe(nominal, profile, crashed=False)

        if include_campaign:
            benchmark_suite = benchmark_suite or spec_suite()
            campaign = UndervoltingCampaign(
                self.platform.chip, benchmark_suite, runs_per_benchmark=1,
            ).run()
            self.predictor.ingest(dataset_from_campaign(
                campaign, benchmark_suite, nominal))
        self.predictor.train()

    def recharacterize(self) -> MarginVector:
        """An on-demand StressLog cycle (e.g. after aging or anomalies)."""
        margins = self.stresslog.characterize(trigger="on-demand")
        self.margin_history.append(margins)
        return margins

    def snapshot(self) -> InfoVector:
        """The HealthLog's on-demand information vector."""
        return self.healthlog.snapshot()

    # -- reporting --------------------------------------------------------------

    def energy_report(self, activity: float = 0.5) -> EnergyReport:
        """Current power versus the conservative-nominal configuration."""
        eop_power = self.platform.total_power_w(activity=activity)
        current_points = {
            core.core_id: self.platform.core_point(core.core_id)
            for core in self.platform.chip.cores
        }
        current_refresh = {
            d.name: d.refresh_interval_s
            for d in self.platform.memory.domains()
        }
        try:
            self.platform.reset_nominal()
            nominal_power = self.platform.total_power_w(activity=activity)
        finally:
            for core_id, point in current_points.items():
                self.platform.set_core_point(core_id, point)
            for name, interval in current_refresh.items():
                domain = self.platform.memory.domain(name)
                if not domain.reliable:
                    domain.set_refresh_interval(interval)
        return EnergyReport(nominal_power_w=nominal_power,
                            eop_power_w=eop_power)
