"""In-memory ``perf_counter`` spans wrapped around each layer's entry points.

The wrappers are installed at run time from the benchmark's own files;
nothing under ``src/`` is edited.  A span records its name, start, end
and the span that was open when it started.  A layer's *self* time is
its span's duration minus the time of the wrapped spans nested inside
it, so the self times of all layers partition the traced wall time
without double counting.

Tracing never touches simulated state: a traced campaign must produce
the same report digest as an untraced one (``test_e2e.py`` pins this).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span name -> entry points it wraps, as ``(module, attribute path)``.
#: A dotted attribute path names a method on a class; a bare name is a
#: module-level function, which is replaced in *every* loaded ``repro``
#: module that binds it by name (``from .vectors import counter_bits``).
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "hardware.core_model": (
        ("repro.hardware.core_model", "CoreModel.crash_probability"),
        ("repro.hardware.core_model", "CoreModel.crash_voltage_v")),
    "hardware.cache": (("repro.hardware.cache", "CacheModel.run"),),
    "hardware.dram": (("repro.hardware.dram", "MemoryDomain.ber"),),
    "hardware.faults.record": (
        ("repro.hardware.faults", "FaultLedger.record"),),
    "hardware.faults.count": (
        ("repro.hardware.faults", "FaultLedger.count"),),
    "hypervisor.tick": (("repro.hypervisor.hypervisor", "Hypervisor.tick"),),
    "hypervisor.memory": (
        ("repro.hypervisor.memory", "PlacementPolicy.error_hits_critical"),),
    "daemons.clock": (("repro.core.clock", "SimClock.advance_by"),),
    "eop.governor": (("repro.eop.governor", "EOPGovernor.step"),),
    "cloudmgr.simulation": (
        ("repro.cloudmgr.simulation", "TraceDrivenSimulation.step_once"),
        ("repro.persistence.campaign", "PersistentCampaign.step")),
    "cloudmgr.controller": (("repro.cloudmgr.cloud", "CloudController.step"),),
    "cloudmgr.node": (("repro.cloudmgr.node", "ComputeNode.step"),),
    "cloudmgr.heartbeat": (("repro.cloudmgr.node", "ComputeNode.heartbeat"),),
    "cloudmgr.migration": (
        ("repro.cloudmgr.migration", "MigrationManager.migrate"),),
    "cloudmgr.scheduler": (
        ("repro.cloudmgr.scheduler", "FilterScheduler.schedule"),),
    "resilience.chaos": (
        ("repro.resilience.chaos", "ChaosEngine.apply"),
        ("repro.resilience.chaos", "ChaosEngine.filter_heartbeat")),
    "persistence.snapshot": (
        ("repro.persistence.snapshot", "SnapshotStore.save"),),
    "persistence.state_dict": (
        ("repro.persistence.campaign", "PersistentCampaign.state_dict"),),
    "persistence.audit": (
        ("repro.persistence.auditor", "StateAuditor.audit"),),
    "persistence.journal": (
        ("repro.persistence.snapshot", "Journal.append"),),
    "workloads.trace": (
        ("repro.workloads.traces", "TraceGenerator.generate"),),
    "fleet.setup.keys": (("repro.fleet.vectors", "fleet_counter_keys"),),
    "fleet.setup.chaos": (
        ("repro.fleet.campaign", "FleetCampaignConfig.build_chaos"),),
    "fleet.kernels": (("repro.fleet.vectors", "FleetVectors.step"),),
    "fleet.rng": (
        ("repro.fleet.vectors", "counter_bits"),
        ("repro.fleet.vectors", "counter_uniform"),
        ("repro.fleet.vectors", "counter_gaussian")),
    "fleet.chaos": tuple(
        ("repro.fleet.chaos", f"FleetChaos.{method}") for method in (
            "crash_mask", "down_mask", "wedge_mask", "dropout_magnitude",
            "dropout_mask", "brownout_depth", "brownout_crash_mask",
            "cooling_delta_c", "partition_mask", "at_risk_mask",
            "guard_demote_mask", "guard_probation")),
    "fleet.executor": tuple(
        ("repro.fleet.campaign", f"_ProcessExecutor.{method}")
        for method in ("step", "step_and_sample", "gather")),
    "fleet.report": (("repro.fleet.campaign", "FleetCampaign.report"),),
}

#: The span the benchmark opens itself around each one-step
#: ``FleetCampaign.run(until_step=t+1)`` call.  Its self time is the
#: parent-side admission, evacuation and telemetry reduction.
FLEET_STEP = "fleet.step"

#: Spans whose outermost durations are kept as latency samples.
SAMPLED = ("cloudmgr.simulation", FLEET_STEP)


#: Columns of ``SpanRecorder.totals`` rows.
CALLS, TOTAL_S, SELF_S, FAILED = range(4)


class SpanRecorder:
    """Collects spans in memory and totals them per name.

    ``totals[name]`` is ``[calls, total_s, self_s, failed]``.  With
    ``keep=True`` every span is also kept as
    ``(id, parent_id, name, start, end)`` for :meth:`write_jsonl`.
    """

    def __init__(self, keep: bool = False) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        self.spans: Optional[List[Tuple[int, int, str, float, float]]] = (
            [] if keep else None)
        #: Bytes of every snapshot generation ``SnapshotStore.save`` wrote.
        self.snapshot_bytes = 0
        #: Open spans, innermost last: ``[name, child_s, span_id]``.
        self._stack: List[list] = []
        self._next_id = 0

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [name, 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float,
               failed: bool) -> None:
        stack = self._stack
        stack.pop()
        name, child_s, span_id = frame
        duration = end - start
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0, 0]
        row[CALLS] += 1
        row[TOTAL_S] += duration
        row[SELF_S] += duration - child_s
        row[FAILED] += failed
        if stack:
            stack[-1][1] += duration
        samples = self.samples.get(name)
        if samples is not None and all(f[0] != name for f in stack):
            samples.append(duration)
        if self.spans is not None:
            parent = stack[-1][2] if stack else 0
            self.spans.append((span_id, parent, name, start, end))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside one span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = recorder._open(name)
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                recorder._close(frame, start, perf_counter(), failed)

        return traced

    def write_jsonl(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans or ():
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end}) + "\n")


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point in :data:`LAYERS`, and count the bytes each
    snapshot save writes; returns the undo."""
    undo: List[Tuple[object, str, object]] = []
    for name, entry_points in LAYERS.items():
        for module_name, path in entry_points:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, recorder.wrap(name, original))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            traced = recorder.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    setattr(loaded, attr, traced)
                    undo.append((loaded, attr, original))

    from repro.persistence.snapshot import SnapshotStore

    traced_save = SnapshotStore.save

    def save(store, step, payload):
        path = traced_save(store, step, payload)
        recorder.snapshot_bytes += os.path.getsize(path)
        return path

    SnapshotStore.save = save
    undo.append((SnapshotStore, "save", traced_save))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- roll-up into per-layer metrics ---------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, 100 cut points)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(part: float, base: float) -> float:
    """``part / base``; 0 over an empty base (the base is reported too)."""
    return part / base if base else 0.0


def since(totals: Dict[str, List[float]],
          earlier: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-name totals accrued after ``earlier`` (a copy of ``totals``)."""
    zero = [0, 0.0, 0.0, 0]
    return {name: [now - before for now, before
                   in zip(row, earlier.get(name, zero))]
            for name, row in totals.items()}


def layer_metrics(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer metrics from span totals (``SpanRecorder.totals``).

    Latency percentiles and the ratios of workload outcomes are added by
    the caller, which pools samples across repetitions.
    """
    def col(name: str, column: int) -> float:
        return totals.get(name, (0, 0.0, 0.0, 0))[column]

    metrics: Dict[str, float] = {}
    for name in ("hardware.core_model", "hardware.cache", "hardware.dram",
                 "hypervisor.tick", "hypervisor.memory", "eop.governor",
                 "cloudmgr.heartbeat", "cloudmgr.scheduler",
                 "resilience.chaos", "persistence.snapshot", "fleet.kernels",
                 "fleet.rng", "fleet.chaos"):
        metrics[f"{name}.calls"] = col(name, CALLS)
        metrics[f"{name}.self_s"] = col(name, SELF_S)
    for name in ("daemons.clock", "cloudmgr.controller", "cloudmgr.node",
                 "persistence.state_dict", "persistence.audit",
                 "persistence.journal", "workloads.trace", "fleet.report"):
        metrics[f"{name}.self_s"] = col(name, SELF_S)
    metrics["hardware.faults.records"] = col("hardware.faults.record", CALLS)
    metrics["hardware.faults.count_s"] = col("hardware.faults.count", SELF_S)
    metrics["cloudmgr.migration.calls"] = col("cloudmgr.migration", CALLS)
    metrics["cloudmgr.scheduler.failed"] = col("cloudmgr.scheduler", FAILED)
    metrics["fleet.setup.keys_s"] = col("fleet.setup.keys", TOTAL_S)
    metrics["fleet.setup.chaos_s"] = col("fleet.setup.chaos", TOTAL_S)
    metrics["fleet.admission.self_s"] = col(FLEET_STEP, SELF_S)
    metrics["fleet.executor.calls"] = col("fleet.executor", CALLS)
    metrics["fleet.executor.wait_s"] = col("fleet.executor", TOTAL_S)
    return metrics
