"""The risk-aware migration A/B: trained predictor vs. threshold baseline.

One pinned chaos plan, two controller arms:

* **baseline** — every node runs the default
  :class:`~repro.cloudmgr.failure_prediction.ThresholdFailurePredictor`
  and the stock weigher set;
* **risk_aware** — every node runs a trained
  :class:`~repro.cloudmgr.failure_prediction.MultiHorizonPredictor`
  (typically trained on sweep-harvested labels) and the scheduler is
  armed with the horizon-report weigher
  (:data:`~repro.cloudmgr.scheduler.RISK_AWARE_WEIGHERS`).

Both arms replay the *same* fault schedule on same-seed racks, so the
deltas in availability and SLA violations are attributable to the
prediction/actuation path alone.  Shared by ``repro predict --ab`` and
``benchmarks/bench_failure_prediction.py``; the payload is
canonical-JSON serializable and deterministic, so same-seed reports are
byte-identical.

The default pinned plan is a *storm composition*
(:func:`storm_plan`): background random chaos plus one long crash-loop
storm per node.  Re-crash storms are the fault mode prediction can act
on — a node that just crashed and recovered inside a storm window will
crash again, and its dented reliability says so — whereas isolated
exogenous crashes are irreducible noise no predictor beats.  The A/B
pins a plan that contains the predictable mode rather than one that is
noise end to end.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def storm_plan(nodes: Sequence[str], duration_s: float, seed: int,
               background_rate_per_hour: float = 4.0,
               intensity: float = 0.9,
               storm_duration_s: float = 1800.0):
    """Background random chaos plus one crash-loop storm per node.

    The storms are staggered deterministically across the campaign so
    at most one node is storming at a time — the fleet always has
    healthy targets to evacuate toward, which is the regime where
    acting on a prediction can actually help.
    """
    from ..resilience.chaos import FaultKind, FaultPlan, FaultSpec

    base = FaultPlan.random(
        nodes, duration_s, rate_per_hour=background_rate_per_hour,
        seed=seed, intensity=intensity)
    storms = []
    span = max(0.0, duration_s - storm_duration_s)
    for i, node in enumerate(sorted(nodes)):
        start = span * (i + 1) / (len(nodes) + 1)
        storms.append(FaultSpec(
            kind=FaultKind.CRASH_LOOP, node=node, start_s=float(start),
            duration_s=storm_duration_s, magnitude=intensity))
    return FaultPlan(tuple(base.specs) + tuple(storms))


def run_prediction_ab(predictor, n_nodes: int = 5,
                      duration_s: float = 7200.0, seed: int = 42,
                      rate_per_hour: float = 4.0,
                      intensity: float = 0.9,
                      base_rate_per_hour: float = 12.0,
                      step_s: float = 60.0,
                      storm_duration_s: float = 1800.0,
                      plan: Optional[Dict[str, object]] = None,
                      ) -> Dict[str, object]:
    """Run both arms under one pinned plan; returns the A/B payload.

    ``predictor`` is the trained multi-horizon predictor the risk-aware
    arm installs on every node (its serving path is read-only, so one
    instance is safely shared across nodes and repeated runs).
    ``plan`` replays an explicit serialized fault plan; without it a
    storm plan (``rate_per_hour`` of background chaos plus one
    ``storm_duration_s`` crash loop per node) is drawn —
    deterministically — from ``seed``.
    """
    from ..resilience.chaos import FaultPlan
    from .scheduler import FilterScheduler, RISK_AWARE_WEIGHERS
    from .simulation import run_rack_experiment

    if plan is None:
        node_names = [f"node{i}" for i in range(n_nodes)]
        plan = storm_plan(
            node_names, duration_s, seed,
            background_rate_per_hour=rate_per_hour,
            intensity=intensity,
            storm_duration_s=storm_duration_s).as_dict()

    arm_setups = {
        "baseline": (None, None),
        "risk_aware": (FilterScheduler(weighers=RISK_AWARE_WEIGHERS),
                       predictor),
    }
    arms: Dict[str, Dict[str, object]] = {}
    for arm in ("baseline", "risk_aware"):
        scheduler, arm_predictor = arm_setups[arm]
        experiment = run_rack_experiment(
            n_nodes=n_nodes, duration_s=duration_s, seed=seed,
            proactive_migration=True,
            base_rate_per_hour=base_rate_per_hour, step_s=step_s,
            # Every arm rebuilds the plan from its dict form so one
            # arm's chaos engine cannot leak state into the next.
            fault_plan=FaultPlan.from_dict(plan),
            scheduler=scheduler, predictor=arm_predictor)
        cloud = experiment.cloud
        arms[arm] = {
            "availability": cloud.fleet_availability(),
            "sla_violations": cloud.tracker.violations_total(),
            "mttr_s": cloud.mttr_s(),
            "evacuations": cloud.stats.evacuations,
            "node_crashes": cloud.stats.node_crashes,
            "failovers": cloud.stats.failovers,
            "admitted": experiment.stats.admitted,
            "completed": cloud.stats.completed,
        }
    baseline, risk_aware = arms["baseline"], arms["risk_aware"]
    return {
        "config": {
            "n_nodes": n_nodes, "duration_s": duration_s, "seed": seed,
            "rate_per_hour": rate_per_hour, "intensity": intensity,
            "base_rate_per_hour": base_rate_per_hour, "step_s": step_s,
            "storm_duration_s": storm_duration_s,
        },
        "plan_faults": len(plan["specs"]),  # type: ignore[arg-type]
        "arms": arms,
        "deltas": {
            "availability": (risk_aware["availability"]
                             - baseline["availability"]),
            "sla_violations": (risk_aware["sla_violations"]
                               - baseline["sla_violations"]),
        },
    }
