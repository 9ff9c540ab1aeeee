"""Tests for the multi-horizon failure predictor and its harvest path."""

import numpy as np
import pytest

from repro.cloudmgr import (
    ComputeNode,
    HorizonRisk,
    HorizonRiskReport,
    MultiHorizonPredictor,
    ThresholdFailurePredictor,
    node_features,
    score_harvest,
    train_from_observations,
)
from repro.cloudmgr.scheduler import risk_aware_weigher
from repro.cloudmgr.telemetry import TelemetryService
from repro.core.clock import SimClock
from repro.core.exceptions import PredictionError
from repro.resilience.health import (
    heartbeat_from_dict,
    heartbeat_to_dict,
)


def _report(at_risk_15m=False, probability=0.7, confidence=0.8):
    return HorizonRiskReport(
        node="n0",
        horizons=(
            HorizonRisk(horizon="15m", horizon_s=900.0,
                        probability=probability, confidence=confidence,
                        at_risk=at_risk_15m,
                        contributors=("reliability",)),
            HorizonRisk(horizon="1h", horizon_s=3600.0,
                        probability=0.2, confidence=0.4, at_risk=False),
            HorizonRisk(horizon="4h", horizon_s=14400.0,
                        probability=0.1, confidence=0.2, at_risk=False),
        ),
    )


#: ``heartbeat_to_dict`` of a fresh node's first heartbeat, as older
#: formats wrote it: with the scalar ``risk`` verdict plus six other
#: fields heartbeats no longer carry (the node's health sample, its
#: per-VM samples, the info-vector age, margin applications and the
#: governor's demoted and quarantined counts).
_OLDER_FORMAT_HEARTBEAT = {
    "timestamp": 0.0, "node": "n0",
    "metrics": {"node": "n0", "availability": 1.0, "utilization": 0.0,
                "power_w": 38.04737102066822, "reliability": 1.0,
                "free_vcpus": 16, "free_memory_mb": 32568.0,
                "frequency_fraction": 1.0},
    "sample": {"timestamp": 0.0, "node": "n0", "utilization": 0.0,
               "power_w": 38.04737102066822, "reliability": 1.0,
               "correctable_errors": 0, "temperature_c": 25.0},
    "vm_samples": [],
    "risk": {"node": "n0", "risk": 0, "at_risk": False,
             "reason": "healthy"},
    "info_vector_age_s": 0.0,
    "active_vms": [],
    "margin_applications": 0,
    "failure_budget": 0.0001,
    "eop_adopted": 0,
    # The dropped governor counts, one key per demoted/quarantined state.
    **{f"eop_{state}": 0 for state in ("demoted", "quarantined")},
    "horizon_report": {
        "node": "n0",
        "horizons": [
            {"horizon": name, "horizon_s": horizon_s, "probability": 0,
             "confidence": confidence, "at_risk": False,
             "contributors": []}
            for name, horizon_s, confidence in (
                ("15m", 900.0, 0.6), ("1h", 3600.0, 0.45),
                ("4h", 14400.0, 0.3))],
        "domains": [{"domain": f"channel{i}", "probability": 0.0,
                     "at_risk": False} for i in range(4)],
    },
}


def _observation(node, timestamp, reliability, labels, lead_s=None):
    full = {"15m": None, "1h": None, "4h": None}
    full.update(labels)
    return {
        "node": node,
        "timestamp": timestamp,
        "features": [0.0, reliability, 0.5, 0.5, 0.0],
        "labels": full,
        "lead_s": lead_s,
        "domains": {},
    }


class TestNodeFeatureRegressions:
    def test_all_cores_parked_is_not_max_margin(self):
        """An idle chip spends no margin (the empty-cores regression)."""
        clock = SimClock()
        node = ComputeNode("n0", clock)
        for core in node.platform.chip.cores:
            core.isolate()
        assert not node.platform.chip.active_cores()
        features = node_features(node, TelemetryService())
        assert features[2] == 0.0  # voltage_margin_used
        report = ThresholdFailurePredictor().report(
            node, TelemetryService())
        assert all("voltage_margin_used" not in h.contributors
                   for h in report.horizons)

    def test_zero_dram_domains_does_not_raise(self):
        """max() over no domains raised ValueError (the empty-domains
        regression)."""
        clock = SimClock()
        node = ComputeNode("n0", clock)
        node.platform.memory.domains = lambda: []
        features = node_features(node, TelemetryService())
        assert features[3] == 0.0  # refresh_relaxation


class TestHorizonThresholds:
    def test_farther_horizons_demand_near_certainty(self):
        predictor = MultiHorizonPredictor(threshold=0.5)
        assert predictor.horizon_threshold(900.0) == pytest.approx(0.5)
        assert predictor.horizon_threshold(3600.0) == pytest.approx(0.875)
        assert predictor.horizon_threshold(14400.0) == \
            pytest.approx(0.96875)

    def test_nearest_at_risk_and_urgency(self):
        report = _report(at_risk_15m=True, probability=0.7)
        nearest = report.nearest_at_risk()
        assert nearest is not None and nearest.horizon == "15m"
        assert report.urgency() == (900.0, -0.7)
        calm = _report(at_risk_15m=False)
        assert calm.nearest_at_risk() is None
        assert calm.urgency()[0] == float("inf")


class TestCensoredLabels:
    def test_censored_horizon_keeps_fallback(self):
        """A horizon whose labels are all censored must not train."""
        predictor = MultiHorizonPredictor(min_observations=10)
        for i in range(20):
            predictor.observe(
                np.array([0.0, 1.0 - 0.04 * i, 0.5, 0.5, 0.0]),
                {"15m": i % 2 == 0, "1h": i % 2 == 0, "4h": None})
        outcome = predictor.train()
        assert outcome["15m"] and outcome["1h"]
        assert not outcome["4h"]
        assert "4h" not in predictor.trained_horizons()

    def test_censored_rows_are_dropped_per_horizon(self):
        """Rows censored at one horizon still train the others."""
        predictor = MultiHorizonPredictor(min_observations=10)
        for _ in range(9):
            predictor.observe(
                np.array([0.0, 0.2, 0.5, 0.5, 0.0]),
                {"15m": True, "1h": None, "4h": None})
        for _ in range(9):
            predictor.observe(
                np.array([0.0, 1.0, 0.5, 0.5, 0.0]),
                {"15m": False, "1h": None, "4h": None})
        # 18 rows at 15m, but only 9 uncensored would remain at 1h —
        # below min_observations, so 1h must refuse to train.
        outcome = predictor.train()
        assert outcome["15m"]
        assert not outcome["1h"]

    def test_training_needs_enough_rows(self):
        predictor = MultiHorizonPredictor(min_observations=10)
        predictor.observe(np.zeros(5), {"15m": True})
        with pytest.raises(PredictionError):
            predictor.train()


class TestScoreHarvest:
    def test_confusion_counts_and_lead_math(self):
        """Hand-checkable scoring against the untrained fallback.

        The fallback hazard for reliability r < 0.9 is (0.9 - r), so at
        threshold 0.35 a row with r=0.3 predicts positive (hazard 0.6)
        and a row with r=1.0 predicts negative.
        """
        predictor = MultiHorizonPredictor(threshold=0.35)
        observations = [
            _observation("a", 0.0, 0.3, {"15m": True}, lead_s=600.0),
            _observation("a", 60.0, 0.3, {"15m": False}),
            _observation("a", 120.0, 1.0, {"15m": True}, lead_s=120.0),
            _observation("a", 180.0, 1.0, {"15m": False}),
            _observation("a", 240.0, 0.3, {"15m": None}),  # censored
        ]
        scores = score_harvest(predictor, observations)
        near = scores["horizons"]["15m"]
        assert (near["tp"], near["fp"], near["fn"], near["tn"]) \
            == (1, 1, 1, 1)
        assert near["censored"] == 1
        assert near["precision"] == pytest.approx(0.5)
        assert near["recall"] == pytest.approx(0.5)
        # Two distinct ledger events; only the low-reliability one was
        # detected, with its full 600 s of warning.
        assert near["events"] == 2
        assert near["detected"] == 1
        assert near["mean_lead_s"] == pytest.approx(600.0)

    def test_scoring_uses_horizon_scaled_thresholds(self):
        predictor = MultiHorizonPredictor(threshold=0.35)
        scores = score_harvest(
            predictor, [_observation("a", 0.0, 0.3,
                                     {"15m": True, "1h": True})])
        assert scores["horizons"]["15m"]["at_risk_threshold"] == \
            pytest.approx(0.35)
        assert scores["horizons"]["1h"]["at_risk_threshold"] == \
            pytest.approx(predictor.horizon_threshold(3600.0))
        # hazard 0.6 passes the 15m threshold but not the scaled 1h one.
        assert scores["horizons"]["15m"]["tp"] == 1
        assert scores["horizons"]["1h"]["fn"] == 1


class TestTrainedPredictor:
    def _trained(self, threshold=0.35):
        observations = []
        # Low reliability precedes a crash; high reliability does not.
        for i in range(30):
            observations.append(_observation(
                "a", 60.0 * i, 0.25,
                {"15m": True, "1h": True, "4h": None}, lead_s=300.0))
            observations.append(_observation(
                "a", 60.0 * i + 30.0, 1.0,
                {"15m": False, "1h": False, "4h": None}))
        return train_from_observations(observations, threshold=threshold)

    def test_learns_low_reliability_hazard(self):
        predictor = self._trained()
        risky = predictor.probabilities(
            np.array([0.0, 0.25, 0.5, 0.5, 0.0]))
        healthy = predictor.probabilities(
            np.array([0.0, 1.0, 0.5, 0.5, 0.0]))
        assert risky["15m"][0] > healthy["15m"][0]
        assert risky["15m"][0] >= 0.35

    def test_report_flags_only_scaled_horizons(self):
        predictor = self._trained()
        features = np.array([0.0, 0.25, 0.5, 0.5, 0.0])
        probabilities = predictor.probabilities(features)
        # The same probability that alarms at 15m must clear a much
        # higher bar at 4h (untrained there -> fallback, conf 0.25).
        assert probabilities["15m"][0] >= \
            predictor.horizon_threshold(900.0)
        assert probabilities["4h"][0] < \
            predictor.horizon_threshold(14400.0)


class TestHeartbeatRoundTrip:
    def test_report_survives_heartbeat_serialization(self):
        clock = SimClock()
        node = ComputeNode("n0", clock)
        beat = node.heartbeat()
        assert beat is not None and beat.horizon_report is not None
        rebuilt = heartbeat_from_dict(heartbeat_to_dict(beat))
        assert rebuilt.horizon_report == beat.horizon_report

    def test_legacy_heartbeat_dict_without_report(self):
        clock = SimClock()
        node = ComputeNode("n0", clock)
        state = heartbeat_to_dict(node.heartbeat())
        del state["horizon_report"]
        assert heartbeat_from_dict(state).horizon_report is None

    def test_older_format_heartbeat_dict_loads(self):
        """Keys the heartbeat no longer carries are ignored on load."""
        node = ComputeNode("n0", SimClock())
        assert heartbeat_from_dict(_OLDER_FORMAT_HEARTBEAT) == \
            node.heartbeat()


class TestRiskAwareWeigher:
    class _FakeNode:
        def __init__(self, report):
            self._report = report

        def risk_report(self):
            return self._report

    def test_no_report_scores_neutral(self):
        assert risk_aware_weigher(self._FakeNode(None), None, None) \
            == pytest.approx(0.5)

    def test_calm_report_scores_clean(self):
        """Below-threshold probabilities must not perturb placement."""
        node = self._FakeNode(_report(at_risk_15m=False,
                                      probability=0.49))
        assert risk_aware_weigher(node, None, None) == pytest.approx(1.0)

    def test_at_risk_report_is_penalized(self):
        node = self._FakeNode(_report(at_risk_15m=True, probability=0.7,
                                      confidence=0.8))
        assert risk_aware_weigher(node, None, None) == \
            pytest.approx(1.0 - 0.7 * 0.8)
