"""Canonical aggregate reports for sweep results.

The report is the sweep's contract surface: rows in task order, plus
per-grid-point summary statistics over seeds (reusing the
bounded-memory :class:`~repro.core.runtime.HistogramStats` moments).
Serialized through :func:`~repro.persistence.snapshot.canonical_json`,
two equivalent sweeps — whatever their ``--jobs`` — produce
byte-identical report files; :func:`report_digest` is the sha256 the CI
smoke compares.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.runtime import HistogramStats
from ..persistence import payload_checksum
from .engine import SweepResult, SweepRow

#: CampaignResult fields summarized per grid point.  ``mttr_s`` may be
#: None for a given row (no outage); such rows are skipped for that
#: metric only, and the histogram count says how many contributed.
SUMMARY_METRICS = (
    "fleet_availability",
    "mttr_s",
    "sla_violations",
    "evacuation_success_rate",
    "node_crashes",
    "recoveries",
    "failovers",
    "breaker_trips",
    "flaps",
    "heartbeats_missed",
    "admitted",
    "rejected",
    "completed",
    "plan_faults",
)


def summarize(rows: List[SweepRow]) -> Dict[str, Dict[str, Dict]]:
    """Per-point, per-metric summary stats over the successful rows."""
    groups: Dict[str, Dict[str, HistogramStats]] = {}
    for row in rows:
        if not row.ok or row.result is None:
            continue
        table = groups.setdefault(row.point, {})
        for metric in SUMMARY_METRICS:
            value = row.result.get(metric)
            if value is None:
                continue
            table.setdefault(metric, HistogramStats()).observe(
                float(value))
    return {
        point: {metric: stats.as_dict()
                for metric, stats in sorted(table.items())}
        for point, table in sorted(groups.items())
    }


def sweep_report(result: SweepResult) -> Dict[str, object]:
    """The aggregate report payload (canonical-JSON serializable)."""
    return {
        "sweep": result.spec.as_dict(),
        "rows": [row.as_dict() for row in result.rows],
        "summary": summarize(result.rows),
        "failures": [
            {"index": row.index, "point": row.point, "seed": row.seed,
             "attempts": row.attempts, "error": row.error}
            for row in result.failures
        ],
    }


def report_digest(report: Dict[str, object]) -> str:
    """SHA-256 over the canonical-JSON form of a report."""
    return payload_checksum(report)
