"""Canonical fleet reports and energy-proportionality metrics.

:func:`fleet_campaign_report` is the vectorized campaign surface,
invariant to ``shards``/``jobs`` because its inputs already are (the
campaign layer guarantees that; the report only orders and rounds
nothing).

The energy-proportionality block follows the Barroso/Hölzle framing
the PAPERS.md subsystem-level power-management line builds on:
``dynamic_range`` is the idle-to-peak power spread, and the
``proportionality_index`` scores how closely observed power tracked
utilization between those anchors (1.0 = perfectly proportional).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..persistence import payload_checksum
from .state import FleetConfig
from .vectors import FleetVectors


# -- energy proportionality --------------------------------------------------


def energy_proportionality(
        series: Sequence[Dict[str, float]],
        idle_power_w: float,
        peak_power_w: float) -> Dict[str, object]:
    """Fleet energy-proportionality metrics from a telemetry series.

    ``dynamic_range`` is ``1 - idle/peak`` (how much of peak power the
    fleet can shed when idle); ``proportionality_index`` is one minus
    the mean absolute gap between normalized power and utilization over
    the sampled series (1.0 when power tracks load perfectly, lower
    when the fleet burns idle power at low load).
    """
    span = peak_power_w - idle_power_w
    gaps: List[float] = []
    for entry in series:
        if span <= 0:
            break
        normalized = (float(entry["mean_power_w"]) - idle_power_w) / span
        gaps.append(abs(normalized - float(entry["mean_util"])))
    index = (1.0 - math.fsum(sorted(gaps)) / len(gaps)) if gaps else None
    return {
        "idle_power_w": idle_power_w,
        "peak_power_w": peak_power_w,
        "dynamic_range": (1.0 - idle_power_w / peak_power_w
                          if peak_power_w > 0 else 0.0),
        "proportionality_index": index,
        "samples": len(gaps),
    }


# -- the vectorized campaign report ------------------------------------------


def fleet_campaign_report(config_echo: Dict[str, object],
                          fleet_config: FleetConfig,
                          totals: Dict[str, object],
                          series: Sequence[Dict[str, float]],
                          quarantine: Optional[Dict[str, object]] = None,
                          fault_domains: Optional[Dict[str, object]] = None,
                          ) -> Dict[str, object]:
    """Canonical report of one vectorized fleet campaign.

    ``config_echo`` must already exclude execution-only knobs (shards,
    jobs) — the report is the identity surface those knobs must not
    perturb.  The EP anchors are deterministic fixed points of
    the config alone, so every execution of the same campaign reports
    the same proportionality block.

    ``quarantine`` (shards frozen after a worker exhausted its restart
    budget) is only included when non-empty: a campaign whose worker
    deaths were all absorbed by deterministic replay must stay
    byte-identical to a clean run.  ``fault_domains`` (the correlated
    plan summary and topology) likewise only appears when a correlated
    plan exists.
    """
    vectors = FleetVectors(fleet_config)
    # Per-node anchors, matching the series' ``mean_power_w`` scale
    # (both are fleet totals divided by n, so the index is the same
    # either way — per-node keeps the numbers human-sized).
    idle_w = vectors.equilibrium_power_w(
        0.0, margin_on=bool(fleet_config.adopt_margins))
    peak_w = vectors.equilibrium_power_w(
        1.0, margin_on=bool(fleet_config.adopt_margins))
    report = {
        "config": dict(config_echo),
        "totals": dict(totals),
        "energy_proportionality": energy_proportionality(
            series, idle_w, peak_w),
        "series": list(series),
    }
    if quarantine:
        report["quarantine"] = dict(quarantine)
    if fault_domains:
        report["fault_domains"] = dict(fault_domains)
    report["report_sha256"] = payload_checksum(
        {k: v for k, v in report.items()})
    return report
