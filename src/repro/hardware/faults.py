"""Fault taxonomy shared by the hardware models and the daemons.

The HealthLog records errors "(correctable or uncorrectable)"; the
hypervisor fault-injection campaign of Figure 4 injects Silent Data
Corruptions.  This module defines the shared fault record that every layer
exchanges, plus counters used to build HealthLog information vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional


class FaultClass(Enum):
    """How a fault manifests to the system."""

    CORRECTABLE = "correctable"           # detected and corrected (e.g. SECDED)
    UNCORRECTABLE = "uncorrectable"       # detected, not correctable
    SILENT_DATA_CORRUPTION = "sdc"        # escaped detection entirely
    CRASH = "crash"                       # machine/component became unresponsive


class FaultOrigin(Enum):
    """Which physical component produced the fault."""

    CPU_CORE = "cpu_core"
    CACHE = "cache"
    DRAM = "dram"
    INTERCONNECT = "interconnect"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FaultRecord:
    """One observed fault, as logged by the HealthLog.

    ``operating_point`` is the V-F-R description active when the fault hit;
    the StressLog and Predictor correlate faults with it.
    """

    timestamp: float
    fault_class: FaultClass
    origin: FaultOrigin
    component: str
    operating_point: str = ""
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots."""
        return {
            "timestamp": self.timestamp,
            "fault_class": self.fault_class.value,
            "origin": self.origin.value,
            "component": self.component,
            "operating_point": self.operating_point,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FaultRecord":
        """Rebuild a record saved by :meth:`as_dict`."""
        return FaultRecord(
            timestamp=float(state["timestamp"]),  # type: ignore[arg-type]
            fault_class=FaultClass(state["fault_class"]),
            origin=FaultOrigin(state["origin"]),
            component=str(state["component"]),
            operating_point=str(state["operating_point"]),
            detail=str(state["detail"]),
        )


class FaultLedger:
    """Accumulates fault records and summarises them per component.

    This is the bookkeeping behind the HealthLog's "number of errors rises
    above a certain threshold → trigger a new stress-test cycle" rule
    (Section 3).
    """

    def __init__(self) -> None:
        self._records: List[FaultRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, fault: FaultRecord, count: int = 1) -> None:
        """Append ``count`` occurrences of one fault record."""
        self._records.extend([fault] * count)

    @property
    def records(self) -> List[FaultRecord]:
        """All recorded faults, in order."""
        return list(self._records)

    def count(self, fault_class: Optional[FaultClass] = None,
              component: Optional[str] = None,
              since: float = float("-inf")) -> int:
        """Count records matching the given filters."""
        return sum(
            1 for r in self._records
            if (fault_class is None or r.fault_class is fault_class)
            and (component is None or r.component == component)
            and r.timestamp >= since
        )

    def counts_by_class(self) -> Dict[FaultClass, int]:
        """Total fault count per fault class."""
        return dict(Counter(r.fault_class for r in self._records))

    def components_above_threshold(self, threshold: int,
                                   since: float = float("-inf"),
                                   ) -> List[str]:
        """Components whose fault count meets/exceeds ``threshold``.

        These are the "problematic processing and memory resources" the
        hypervisor isolates (Section 4.A).
        """
        counts: Counter = Counter(
            r.component for r in self._records if r.timestamp >= since
        )
        return sorted(c for c, n in counts.items() if n >= threshold)

    def clear(self) -> None:
        """Forget all records (e.g. after re-characterisation)."""
        self._records.clear()

    def state_dict(self) -> Dict[str, object]:
        """Serializable ledger state (every record, in order)."""
        return {"records": [r.as_dict() for r in self._records]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace the ledger contents with the saved records."""
        self._records = [FaultRecord.from_dict(r)
                         for r in state["records"]]  # type: ignore[union-attr]
