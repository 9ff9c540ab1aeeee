"""Reproduction validation: paper-vs-measured scoring.

EXPERIMENTS.md records every paper claim next to its measured value;
this module gives that matrix an executable form.  Each
:class:`PaperClaim` states the paper value, a tolerance policy, and how
to extract the measured value; :func:`validate` runs the whole set and
renders a pass/fail table — the artifact regenerated by
``bench_validation_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Sequence

from ..core.exceptions import ConfigurationError
from .tables import render_table


class Tolerance(Enum):
    """How close the measured value must land."""

    ABSOLUTE = "absolute"       # |measured - paper| <= bound
    RELATIVE = "relative"       # |measured - paper| <= bound * |paper|
    AT_MOST = "at_most"         # measured <= paper (bound ignored)
    AT_LEAST = "at_least"       # measured >= paper (bound ignored)
    ORDER_OF_MAGNITUDE = "oom"  # within 10**bound of the paper value


@dataclass(frozen=True)
class PaperClaim:
    """One quantified paper claim to check."""

    experiment: str
    description: str
    paper_value: float
    measure: Callable[[], float]
    tolerance: Tolerance = Tolerance.RELATIVE
    bound: float = 0.1
    unit: str = ""

    def check(self) -> "ClaimResult":
        """Measure the value and judge it against the tolerance."""
        measured = float(self.measure())
        if self.tolerance is Tolerance.ABSOLUTE:
            passed = abs(measured - self.paper_value) <= self.bound
        elif self.tolerance is Tolerance.RELATIVE:
            passed = (abs(measured - self.paper_value)
                      <= self.bound * abs(self.paper_value))
        elif self.tolerance is Tolerance.AT_MOST:
            passed = measured <= self.paper_value
        elif self.tolerance is Tolerance.AT_LEAST:
            passed = measured >= self.paper_value
        elif self.tolerance is Tolerance.ORDER_OF_MAGNITUDE:
            if measured <= 0 or self.paper_value <= 0:
                passed = False
            else:
                import math
                passed = abs(math.log10(measured / self.paper_value)) \
                    <= self.bound
        else:  # pragma: no cover - enum is closed
            raise ConfigurationError(f"unknown tolerance {self.tolerance}")
        return ClaimResult(claim=self, measured=measured, passed=passed)


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one claim."""

    claim: PaperClaim
    measured: float
    passed: bool


@dataclass
class ValidationReport:
    """All claim results plus rendering."""

    results: List[ClaimResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of claims checked."""
        return len(self.results)

    @property
    def passed(self) -> int:
        """Number of claims that hold."""
        return sum(1 for r in self.results if r.passed)

    @property
    def all_passed(self) -> bool:
        """Whether every claim holds."""
        return self.passed == self.total

    def failures(self) -> List[ClaimResult]:
        """The claims that did not hold."""
        return [r for r in self.results if not r.passed]

    def render(self, title: str = "Reproduction validation") -> str:
        """ASCII table of every claim with its verdict."""
        rows = []
        for result in self.results:
            claim = result.claim
            rows.append([
                claim.experiment,
                claim.description,
                f"{claim.paper_value:.4g}{claim.unit}",
                f"{result.measured:.4g}{claim.unit}",
                "PASS" if result.passed else "FAIL",
            ])
        summary = f"{title} — {self.passed}/{self.total} claims hold"
        return render_table(summary,
                            ["exp", "claim", "paper", "measured", "ok"],
                            rows)


def validate(claims: Sequence[PaperClaim]) -> ValidationReport:
    """Check every claim; measurement exceptions count as failures."""
    if not claims:
        raise ConfigurationError("no claims to validate")
    report = ValidationReport()
    for claim in claims:
        try:
            report.results.append(claim.check())
        except Exception:
            report.results.append(ClaimResult(
                claim=claim, measured=float("nan"), passed=False))
    return report
