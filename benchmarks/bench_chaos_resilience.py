"""Bench — chaos campaign: graceful degradation on vs off.

One seeded :class:`~repro.resilience.FaultPlan` is replayed twice
against the same trace-driven rack: once with the full degradation
ladder (heartbeat suspicion ladder, retry policy, circuit breaker,
stale-info fallback, failover escalation), once with a naive controller
(hair-trigger DOWN declarations, single-shot migrations, no breaker, no
fallback, no failover).  The headline claim: under an identical lying,
lossy, failing control path, the policies-on arm achieves strictly
higher fleet availability and strictly lower MTTR.

Scale knobs (for the CI smoke step) come from the environment:

``CHAOS_BENCH_NODES``     rack size           (default 4)
``CHAOS_BENCH_DURATION``  campaign seconds    (default 3600)
``CHAOS_BENCH_SMOKE``     set to 1 to relax the strict A/B win to a
                          sanity check (tiny campaigns are too short
                          for the ladder to pay for itself)
"""

import os

from conftest import run_once

from repro.analysis import render_table
from repro.persistence import CampaignConfig, PersistentCampaign, StateAuditor
from repro.resilience import run_chaos_ab

NODES = int(os.environ.get("CHAOS_BENCH_NODES", "4"))
DURATION_S = float(os.environ.get("CHAOS_BENCH_DURATION", "3600"))
SMOKE = os.environ.get("CHAOS_BENCH_SMOKE", "") not in ("", "0")
SEED = 0
RATE_PER_HOUR = 8.0
INTENSITY = 0.7


def _fmt_mttr(mttr_s):
    return f"{mttr_s:.0f} s" if mttr_s is not None else "n/a"


def test_chaos_policies_ab(benchmark, emit):
    def campaign():
        return run_chaos_ab(
            n_nodes=NODES, duration_s=DURATION_S, seed=SEED,
            rate_per_hour=RATE_PER_HOUR, intensity=INTENSITY)

    comparison = run_once(benchmark, campaign)
    on, off = comparison.on, comparison.off

    # Both arms must end in an invariant-clean state: strict mode
    # raises on the first cross-layer inconsistency.
    for arm in (on, off):
        auditor = StateAuditor(strict=True)
        auditor.audit(arm.experiment.cloud, context=arm.label)
        assert auditor.violation_count == 0

    rows = [
        ["fleet availability", f"{on.fleet_availability:.4f}",
         f"{off.fleet_availability:.4f}"],
        ["MTTR", _fmt_mttr(on.mttr_s), _fmt_mttr(off.mttr_s)],
        ["SLA violations", on.sla_violations, off.sla_violations],
        ["evacuation success rate",
         f"{on.evacuation_success_rate:.2f}",
         f"{off.evacuation_success_rate:.2f}"],
        ["node crash episodes", on.node_crashes, off.node_crashes],
        ["recoveries", on.recoveries, off.recoveries],
        ["failovers", on.failovers, off.failovers],
        ["breaker trips", on.breaker_trips, off.breaker_trips],
        ["flaps", on.flaps, off.flaps],
        ["heartbeats missed", on.heartbeats_missed,
         off.heartbeats_missed],
        ["VMs admitted", on.admitted, off.admitted],
    ]
    table = render_table(
        f"Chaos campaign A/B: {NODES} nodes, {DURATION_S:.0f} s, "
        f"seed {SEED}, {on.plan_faults} planned control-plane faults",
        ["metric", "policies ON", "policies OFF"],
        rows,
    )
    table += (f"\navailability recovered: "
              f"{comparison.availability_gain:+.4f}")
    if comparison.mttr_reduction_s is not None:
        table += f"\nMTTR reduction: {comparison.mttr_reduction_s:.0f} s"
    emit("chaos_resilience", table)

    # Both arms replay the identical plan: same faults scheduled.
    assert on.plan_faults == off.plan_faults > 0
    assert 0.0 < on.fleet_availability <= 1.0
    assert 0.0 < off.fleet_availability <= 1.0
    if SMOKE:
        # Tiny CI campaigns: only sanity, not the strict win.
        assert on.fleet_availability >= off.fleet_availability - 0.05
        return
    # The headline claim: the degradation ladder strictly wins both.
    assert on.fleet_availability > off.fleet_availability
    assert on.mttr_s is not None and off.mttr_s is not None
    assert on.mttr_s < off.mttr_s


def test_chaos_campaign_is_reproducible(benchmark, emit):
    config = CampaignConfig(
        n_nodes=NODES, duration_s=min(DURATION_S, 1800.0), seed=SEED,
        rate_per_hour=RATE_PER_HOUR, intensity=INTENSITY)

    def twice():
        first = PersistentCampaign(config).run()
        second = PersistentCampaign(config).run()
        return first, second

    first, second = run_once(benchmark, twice)
    emit("chaos_reproducibility",
         f"same-seed chaos campaigns replay bit-for-bit: "
         f"{first == second}\n\n{first.describe()}")
    # CampaignResult equality covers every headline number and the
    # injection counts; the attached experiment is excluded.
    assert first == second
    assert first.injections == second.injections
