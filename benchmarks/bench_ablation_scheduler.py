"""Bench A8 — scheduling policies under a live arrival stream.

Section 4.B: UniServer's reliability-aware scheduling must hold up in
"real-world scenarios where OpenStack would manage streams of incoming
and terminating VMs".  This bench drives a 6-node rack — two of its
nodes running degraded (deep undervolts) — with a 12-hour diurnal
arrival trace, comparing:

* the UniServer **filter/weigh** scheduler (reliability-aware), vs
* a **round-robin** baseline that only checks capacity.

The reliability-aware scheduler steers work away from the degraded
nodes, masking far fewer crashes and holding higher fleet availability
at the same admission rate.
"""

from conftest import run_once

from repro.analysis import render_table
from repro.cloudmgr import CloudController, RoundRobinScheduler, build_rack
from repro.cloudmgr.simulation import TraceDrivenSimulation
from repro.core.clock import SimClock
from repro.eop import EOPPolicy
from repro.workloads.traces import TraceConfig, TraceGenerator

DURATION_S = 12 * 3600.0
N_NODES = 6
N_DEGRADED = 2


def _run(scheduler_factory, trace_seed=17):
    clock = SimClock()
    # Full UniServer nodes (Predictor + IsolationManager active),
    # deployed at nominal; degradation is applied by hand below.
    nodes = build_rack(N_NODES, clock=clock, seed=300,
                       characterize=True,
                       eop_policy=EOPPolicy.conservative())
    cloud = CloudController(clock, nodes, proactive_migration=False)
    if scheduler_factory is not None:
        cloud.scheduler = scheduler_factory()
        cloud.migrations.scheduler = cloud.scheduler
    # Two degraded nodes: margins deep enough to crash stressy guests
    # now and then, but not hopeless — the interesting regime.
    for node in nodes[:N_DEGRADED]:
        nominal = node.platform.chip.spec.nominal
        node.platform.set_all_core_points(
            nominal.with_voltage(nominal.voltage_v * 0.76))
    events = TraceGenerator(
        TraceConfig(base_rate_per_hour=10.0, mean_lifetime_s=3600.0),
        seed=trace_seed).generate(DURATION_S)
    simulation = TraceDrivenSimulation(cloud, events, step_s=120.0)
    # VMs resident on each node, summed over steps: the ground truth
    # behind "VM time on degraded nodes".
    vm_steps = dict.fromkeys(cloud.nodes, 0)
    while simulation.now < DURATION_S:
        simulation.step_once()
        for name, node in cloud.nodes.items():
            vm_steps[name] += len(node.hypervisor.active_vms())
    degraded = sum(vm_steps[node.name] for node in nodes[:N_DEGRADED])
    total = sum(vm_steps.values())
    return cloud, simulation.stats, degraded / total if total else 0.0


def test_ablation_scheduler_policies(benchmark, emit):
    def both():
        smart = _run(None)                       # default FilterScheduler
        naive = _run(RoundRobinScheduler)
        return smart, naive

    smart, naive = run_once(benchmark, both)
    smart_cloud, smart_stats, smart_degraded = smart
    naive_cloud, naive_stats, naive_degraded = naive

    def crashes(cloud):
        return sum(n.hypervisor.stats.vm_crashes_masked
                   for n in cloud.node_list())

    table = render_table(
        f"A8: schedulers under a 12 h diurnal VM stream "
        f"({N_NODES} nodes, {N_DEGRADED} degraded)",
        ["metric", "filter/weigh (UniServer)", "round-robin"],
        [
            ["arrivals", smart_stats.arrivals, naive_stats.arrivals],
            ["admission rate",
             f"{smart_stats.admission_rate * 100:.1f}%",
             f"{naive_stats.admission_rate * 100:.1f}%"],
            ["VM time on degraded nodes",
             f"{smart_degraded * 100:.1f}%",
             f"{naive_degraded * 100:.1f}%"],
            ["VM crashes masked", crashes(smart_cloud),
             crashes(naive_cloud)],
            ["fleet availability",
             f"{smart_cloud.fleet_availability():.4f}",
             f"{naive_cloud.fleet_availability():.4f}"],
            ["SLA violations",
             smart_cloud.tracker.violations_total(),
             naive_cloud.tracker.violations_total()],
        ],
    )
    emit("ablation_scheduler", table)

    assert smart_stats.arrivals == naive_stats.arrivals
    assert smart_degraded < naive_degraded
    assert crashes(smart_cloud) < crashes(naive_cloud)
    assert smart_cloud.fleet_availability() >= \
        naive_cloud.fleet_availability()
