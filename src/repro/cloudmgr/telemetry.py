"""Node-local health telemetry for the failure-risk predictor.

Paper Section 4.B: the resource manager monitors nodes "at a finer
granularity than the existing state-of-the-art" so it can predict
failures and act on them.  Here each node keeps a bounded ring of its own
recent health samples; its risk predictor reads that ring (the recent
correctable-error rate is a feature) and ships only the resulting
verdict in its heartbeat.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class NodeSample:
    """Per-node health sample."""

    timestamp: float
    node: str
    utilization: float
    power_w: float
    reliability: float
    correctable_errors: int
    temperature_c: float = 50.0


class TelemetryService:
    """Bounded per-node health-sample history.

    Each node series keeps at most ``retention`` samples, newest last, so
    neither resident memory nor :meth:`state_dict` size grows with
    campaign duration.
    """

    def __init__(self, retention: int = 120) -> None:
        if retention < 1:
            raise ConfigurationError("retention must be >= 1")
        self._retention = retention
        self._node_samples: Dict[str, Deque[NodeSample]] = {}

    @property
    def retention(self) -> int:
        """Maximum samples retained per node series."""
        return self._retention

    def record_node(self, sample: NodeSample) -> None:
        """Ingest one per-node sample."""
        series = self._node_samples.get(sample.node)
        if series is None:
            series = self._node_samples[sample.node] = deque(
                maxlen=self._retention)
        series.append(sample)

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable service state."""
        return {
            "node_samples": {name: [asdict(s) for s in samples]
                             for name, samples in self._node_samples.items()},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the service saved by :meth:`state_dict`.

        Only ``node_samples`` is read, so states that also carry the
        per-VM series, EWMA windows and anomaly log of older versions
        still load.  Series longer than the retention cap keep their
        newest samples.
        """
        self._node_samples = {
            str(name): deque((NodeSample(**s) for s in samples),
                             maxlen=self._retention)
            for name, samples in state["node_samples"].items()}  # type: ignore[union-attr]

    # -- queries ------------------------------------------------------------

    def node_history(self, node: str) -> List[NodeSample]:
        """All retained samples of a node, oldest first."""
        return list(self._node_samples.get(node, []))

    def recent_error_rate(self, node: str, samples: int = 10) -> float:
        """Mean correctable-error count over the last ``samples`` samples."""
        history = self._node_samples.get(node)
        if not history:
            return 0.0
        recent = list(history)[-samples:]
        return sum(s.correctable_errors for s in recent) / len(recent)
