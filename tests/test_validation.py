"""Tests for the paper-claim validation helpers."""

import pytest

from repro.analysis.validation import (
    PaperClaim,
    Tolerance,
    validate,
)
from repro.core.exceptions import ConfigurationError


def claim(paper, measured, tolerance=Tolerance.RELATIVE, bound=0.1):
    return PaperClaim(
        experiment="X", description="test claim", paper_value=paper,
        measure=lambda: measured, tolerance=tolerance, bound=bound,
    )


class TestTolerances:
    def test_relative_pass_and_fail(self):
        assert claim(10.0, 10.5).check().passed
        assert not claim(10.0, 12.0).check().passed

    def test_absolute(self):
        assert claim(0.15, 0.152, Tolerance.ABSOLUTE, 0.005).check().passed
        assert not claim(0.15, 0.20, Tolerance.ABSOLUTE, 0.005).check().passed

    def test_at_most(self):
        assert claim(1.0, 0.9, Tolerance.AT_MOST).check().passed
        assert not claim(1.0, 1.1, Tolerance.AT_MOST).check().passed

    def test_at_least(self):
        assert claim(1.0, 1.1, Tolerance.AT_LEAST).check().passed
        assert not claim(1.0, 0.9, Tolerance.AT_LEAST).check().passed

    def test_order_of_magnitude(self):
        assert claim(1e-9, 3e-9, Tolerance.ORDER_OF_MAGNITUDE,
                     0.5).check().passed
        assert not claim(1e-9, 1e-7, Tolerance.ORDER_OF_MAGNITUDE,
                         0.5).check().passed

    def test_oom_rejects_nonpositive(self):
        assert not claim(1e-9, -1.0, Tolerance.ORDER_OF_MAGNITUDE,
                         0.5).check().passed


class TestReport:
    def test_counts_and_failures(self):
        report = validate([claim(1.0, 1.0), claim(1.0, 5.0)])
        assert report.total == 2
        assert report.passed == 1
        assert not report.all_passed
        assert len(report.failures()) == 1

    def test_measurement_exception_is_failure(self):
        def boom():
            raise RuntimeError("campaign failed")

        bad = PaperClaim("X", "exploding claim", 1.0, boom)
        report = validate([bad])
        assert not report.all_passed

    def test_render_contains_verdicts(self):
        report = validate([claim(1.0, 1.0), claim(1.0, 5.0)])
        text = report.render()
        assert "PASS" in text and "FAIL" in text
        assert "1/2" in text

    def test_empty_claims_rejected(self):
        with pytest.raises(ConfigurationError):
            validate([])
