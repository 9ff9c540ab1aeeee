"""Log-message-pattern failure prediction.

Section 5.B surveys techniques that "use the pattern of the system log
messages to predict a failure by classifying the messages by their
similarities in real-time" (Watanabe et al. [25]) and links resource
anomalies with failures from cluster logs (Chuah et al. [23]).
UniServer's HealthLog produces exactly such a log stream; this module
implements an online pattern learner over it:

1. each log line is reduced to a *template* (numbers and identifiers
   masked out);
2. template transition statistics are learned online during healthy
   operation;
3. a sliding window is scored by how surprising its templates and
   transitions are; windows past a threshold raise a failure warning.

The learner is deliberately unsupervised — no failure labels are needed,
matching the cited techniques — and integrates with the cloud layer as a
third predictor option.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence

from ..core.exceptions import ConfigurationError

#: Tokens that are run-specific and must be masked to form templates.
_NUMBER = re.compile(r"\b\d+(\.\d+)?(e[+-]?\d+)?\b", re.IGNORECASE)
_HEX = re.compile(r"0x[0-9a-f]+", re.IGNORECASE)
_COMPONENT_INDEX = re.compile(r"\b(core|channel|vm|node|dimm)\d+\b")


def template_of(line: str) -> str:
    """Reduce a log line to its message template.

    Masks numbers, hex constants and component indices so that
    ``"t=3.2 correctable core5 2 corrected"`` and
    ``"t=9.7 correctable core1 4 corrected"`` share one template.
    """
    masked = _COMPONENT_INDEX.sub(lambda m: m.group(0).rstrip("0123456789")
                                  + "#", line)
    masked = _HEX.sub("<hex>", masked)
    masked = _NUMBER.sub("<n>", masked)
    return " ".join(masked.split())


@dataclass
class PatternStats:
    """Learned healthy-operation statistics."""

    template_counts: Counter = field(default_factory=Counter)
    transition_counts: Counter = field(default_factory=Counter)
    total_lines: int = 0

    def template_probability(self, template: str) -> float:
        """Laplace-smoothed template probability."""
        vocabulary = max(1, len(self.template_counts))
        return ((self.template_counts.get(template, 0) + 1)
                / (self.total_lines + vocabulary))

    def transition_probability(self, prev: str, cur: str) -> float:
        """Laplace-smoothed transition probability."""
        vocabulary = max(1, len(self.template_counts))
        from_count = sum(
            count for (a, _), count in self.transition_counts.items()
            if a == prev
        )
        return ((self.transition_counts.get((prev, cur), 0) + 1)
                / (from_count + vocabulary))


@dataclass(frozen=True)
class WindowScore:
    """Anomaly verdict for one log window."""

    surprisal: float
    threshold: float
    novel_templates: int

    @property
    def anomalous(self) -> bool:
        """Whether the window's surprisal exceeds the threshold."""
        return self.surprisal > self.threshold


class LogPatternPredictor:
    """Online, unsupervised log-pattern failure predictor."""

    def __init__(self, window: int = 20,
                 threshold_sigma: float = 3.0) -> None:
        if window < 2:
            raise ConfigurationError("window must be >= 2")
        if threshold_sigma <= 0:
            raise ConfigurationError("threshold_sigma must be positive")
        self.window = window
        self.threshold_sigma = threshold_sigma
        self.stats = PatternStats()
        self._recent: Deque[str] = deque(maxlen=window)
        self._surprisal_history: List[float] = []
        self._frozen = False

    # -- learning --------------------------------------------------------------

    def learn(self, lines: Sequence[str]) -> None:
        """Fold healthy-operation log lines into the baseline."""
        if self._frozen:
            raise ConfigurationError(
                "the baseline is frozen; create a new predictor to relearn"
            )
        prev: Optional[str] = None
        for line in lines:
            template = template_of(line)
            self.stats.template_counts[template] += 1
            self.stats.total_lines += 1
            if prev is not None:
                self.stats.transition_counts[(prev, template)] += 1
            prev = template

    def freeze(self) -> None:
        """Stop learning: subsequent lines are only scored."""
        if self.stats.total_lines < self.window:
            raise ConfigurationError(
                "learn at least one window of healthy lines first"
            )
        self._frozen = True

    @property
    def is_trained(self) -> bool:
        """Whether the model is ready to score/predict."""
        return self._frozen

    # -- scoring ---------------------------------------------------------------

    def _window_surprisal(self, templates: Sequence[str]) -> float:
        """Mean negative log-probability of the window's content."""
        total = 0.0
        prev: Optional[str] = None
        for template in templates:
            total -= math.log(self.stats.template_probability(template))
            if prev is not None:
                total -= math.log(
                    self.stats.transition_probability(prev, template))
            prev = template
        return total / max(1, len(templates))

    def _threshold(self) -> float:
        """Adaptive threshold: mean + k·sigma of past window surprisals."""
        history = self._surprisal_history
        if len(history) < 5:
            # Cold start: anything within 3x the first observations is ok.
            return (max(history) * 2.0 if history else float("inf"))
        mean = sum(history) / len(history)
        var = sum((s - mean) ** 2 for s in history) / len(history)
        return mean + self.threshold_sigma * math.sqrt(var)

    def observe(self, line: str) -> Optional[WindowScore]:
        """Score one incoming log line; returns a verdict per full window."""
        if not self._frozen:
            raise ConfigurationError("freeze() the baseline before scoring")
        template = template_of(line)
        self._recent.append(template)
        if len(self._recent) < self.window:
            return None
        surprisal = self._window_surprisal(list(self._recent))
        threshold = self._threshold()
        novel = sum(
            1 for t in self._recent
            if t not in self.stats.template_counts
        )
        self._surprisal_history.append(surprisal)
        if len(self._surprisal_history) > 500:
            del self._surprisal_history[:250]
        return WindowScore(surprisal=surprisal, threshold=threshold,
                           novel_templates=novel)

    def scan(self, lines: Sequence[str]) -> List[WindowScore]:
        """Score a batch of lines; returns every full-window verdict."""
        verdicts = []
        for line in lines:
            verdict = self.observe(line)
            if verdict is not None:
                verdicts.append(verdict)
        return verdicts

    def any_anomaly(self, lines: Sequence[str]) -> bool:
        """Whether any window in the batch scored anomalous."""
        return any(v.anomalous for v in self.scan(lines))
