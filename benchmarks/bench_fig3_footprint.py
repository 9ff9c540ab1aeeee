"""Bench F3 — paper Figure 3: hypervisor memory footprint under 4 LDBC VMs.

Repeatedly executes four LDBC-SNB VM instances on one hypervisor
(completed instances are immediately replaced, per the paper's
"repeatedly executing four instances") and plots hypervisor / VM /
application footprints over time.  Paper claim: the hypervisor footprint
is *always less than 7 %* of total utilized memory — which justifies
pinning the whole hypervisor into the reliable memory domain.
"""

from conftest import run_once

from repro.analysis import render_series, render_table
from repro.core.clock import SimClock
from repro.hardware import build_uniserver_node
from repro.hypervisor import Hypervisor, VMState, make_vm_fleet
from repro.hypervisor.vm import VirtualMachine
from repro.workloads import ldbc_workload

GUEST_OS_MB = 1024.0
DURATION_TICKS = 240


def _run_fleet():
    """Run the fleet; the footprint each tick starts from, in order."""
    clock = SimClock()
    hypervisor = Hypervisor(build_uniserver_node(), clock, seed=5)
    hypervisor.boot()
    workload = ldbc_workload(scale_factor=2.0)
    for vm in make_vm_fleet(workload, 4, guest_os_mb=GUEST_OS_MB):
        hypervisor.create_vm(vm)
    generation = 4
    samples = []
    for _ in range(DURATION_TICKS):
        # Account memory at the slice start, while completed-last-tick VMs
        # have already been replaced.
        samples.append(hypervisor.footprint())
        hypervisor.tick()
        clock.advance_by(1.0)
        for vm in list(hypervisor.vms):
            if vm.state is VMState.COMPLETED:
                hypervisor.destroy_vm(vm.name)
                replacement = VirtualMachine(
                    name=f"vm{generation}", workload=workload,
                    guest_os_mb=GUEST_OS_MB,
                    _memory_seed=generation * 97)
                generation += 1
                hypervisor.create_vm(replacement)
    return samples


def test_fig3_hypervisor_footprint(benchmark, emit):
    samples = run_once(benchmark, _run_fleet)
    fractions = [s.hypervisor_fraction for s in samples]
    max_fraction = max(fractions)
    mean_fraction = sum(fractions) / len(fractions)

    # Downsample the series for readable output.
    series = [
        (s.timestamp, s.hypervisor_fraction * 100)
        for s in samples[::20]
    ]
    chart = render_series(
        "Figure 3: hypervisor footprint as % of utilized memory over "
        "repeated 4-VM LDBC executions",
        "t (s)", "hypervisor share (%)", series,
        fmt_y="{:.2f}%",
    )
    mid = samples[len(samples) // 2]
    summary = render_table(
        "Footprint summary (paper: hypervisor always < 7 %)",
        ["metric", "value"],
        [
            ["samples", len(samples)],
            ["hypervisor footprint (steady state)",
             f"{mid.hypervisor_mb:.0f} MB"],
            ["VM footprint (steady state)", f"{mid.vm_mb:.0f} MB"],
            ["application footprint (steady state)",
             f"{mid.application_mb:.0f} MB"],
            ["max hypervisor share", f"{max_fraction * 100:.2f}%"],
            ["mean hypervisor share", f"{mean_fraction * 100:.2f}%"],
        ],
    )
    emit("fig3_footprint", chart + "\n\n" + summary)

    assert max_fraction < 0.07, "paper: hypervisor share always < 7 %"
    assert len(samples) == DURATION_TICKS
