"""Telemetry side-channel analysis: inferring co-tenant activity.

The threat catalog's ``telemetry side channel`` entry states that
fine-grained power/temperature sensors exposed to guests leak co-tenant
activity.  This module makes the attack concrete and measurable:

* the attacker records a power-signal trace while a victim executes a
  phased workload (bursts vs quiet);
* :class:`PhaseInferenceAttack` recovers the victim's phase schedule
  from the trace with a self-calibrating threshold classifier;
* :func:`attack_accuracy` scores the recovery against ground truth,
  label-invariantly (the attacker does not know which cluster is
  "burst").

The sensor-quantisation countermeasure is then evaluated by running the
same attack against the coarse guest-scope telemetry of
:class:`~repro.core.interfaces.MonitoringInterface` — the accuracy drop
is the countermeasure's measured value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError


def threshold_classify(samples: Sequence[float]) -> List[int]:
    """Two-cluster 1-D classification by iterative midpoint (1-D k-means).

    Returns a 0/1 label per sample.  Converges in a handful of
    iterations for bimodal traces; for unimodal traces the split is
    arbitrary, which is exactly what a defender wants.
    """
    if len(samples) < 2:
        raise ConfigurationError("need at least two samples to classify")
    values = np.asarray(samples, dtype=float)
    threshold = float(values.mean())
    for _ in range(32):
        low = values[values <= threshold]
        high = values[values > threshold]
        if len(low) == 0 or len(high) == 0:
            break
        new_threshold = (low.mean() + high.mean()) / 2.0
        if abs(new_threshold - threshold) < 1e-12:
            break
        threshold = float(new_threshold)
    return [1 if v > threshold else 0 for v in values]


def attack_accuracy(predicted: Sequence[int],
                    truth: Sequence[int]) -> float:
    """Label-invariant agreement between prediction and ground truth.

    The attacker's clusters carry no names, so both labelings are tried
    and the better one scored; 0.5 is chance for balanced traces.
    """
    if len(predicted) != len(truth) or not predicted:
        raise ConfigurationError("prediction/truth length mismatch")
    pred = np.asarray(predicted)
    actual = np.asarray(truth)
    direct = float(np.mean(pred == actual))
    flipped = float(np.mean((1 - pred) == actual))
    return max(direct, flipped)


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one side-channel attack run."""

    signal_name: str
    accuracy: float
    n_samples: int
    signal_spread: float

    @property
    def effective(self) -> bool:
        """Whether the attack recovers meaningfully more than chance."""
        return self.accuracy >= 0.8


class PhaseInferenceAttack:
    """Recovers a victim's phase schedule from a power-signal trace."""

    def __init__(self, signal_name: str = "power") -> None:
        self.signal_name = signal_name
        self._samples: List[float] = []
        self._truth: List[int] = []

    def observe(self, signal: float, truth_phase: int) -> None:
        """Record one (signal sample, ground-truth phase) pair.

        The ground truth is only used for *scoring*; the classifier
        never sees it.
        """
        if truth_phase not in (0, 1):
            raise ConfigurationError("truth phase must be 0 or 1")
        self._samples.append(float(signal))
        self._truth.append(truth_phase)

    @property
    def n_samples(self) -> int:
        """Number of recorded observations."""
        return len(self._samples)

    def run(self) -> AttackResult:
        """Classify the trace and score against the ground truth."""
        if len(self._samples) < 10:
            raise ConfigurationError(
                "need at least 10 observations to attack"
            )
        predicted = threshold_classify(self._samples)
        values = np.asarray(self._samples)
        return AttackResult(
            signal_name=self.signal_name,
            accuracy=attack_accuracy(predicted, self._truth),
            n_samples=len(self._samples),
            signal_spread=float(values.max() - values.min()),
        )
