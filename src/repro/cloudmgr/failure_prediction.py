"""Node-failure prediction integrated with the resource manager.

Paper Section 5.B: "UniServer's approach is to extend OpenStack framework
and have an integrated fault tolerance component, by adapting existing or
developing new techniques to efficiently predict the system level
failures and proactively migrate the running workloads on the healthy
nodes."

Two predictors are provided, and both answer with a
:class:`HorizonRiskReport` — the one verdict heartbeats ship to the
controller:

* :class:`ThresholdFailurePredictor` — unsupervised, in the spirit of the
  log-analysis detectors the paper surveys [19]–[25]: a risk score from
  recent error rates, reliability trend and refresh/voltage aggression.
* :class:`MultiHorizonPredictor` — the full Section 5.B shape: one
  supervised model per prediction horizon (15 min / 1 h / 4 h), trained
  on telemetry harvested from sweep campaigns
  (:mod:`repro.sweep.harvest`), emitting a confidence-scored report per
  node and per DRAM domain.

Every predictor round-trips through ``state_dict``/``load_state_dict``
(the PR 3 crash-safe invariant), so a trained on-node model survives
SIGKILL + resume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S
from ..core.exceptions import ConfigurationError, PredictionError
from ..daemons.predictor import LogisticModel
from ..hardware.faults import FaultClass
from .node import ComputeNode
from .telemetry import NodeSample, TelemetryService

NODE_FEATURES = (
    "ce_rate",              # recent correctable errors per sample
    "reliability",          # UniServer reliability metric
    "voltage_margin_used",  # how deep below nominal the cores sit
    "refresh_relaxation",   # log2 of the worst refresh relaxation factor
    "utilization",
)

#: The prediction horizons, nearest first: (name, seconds).
HORIZONS: Tuple[Tuple[str, float], ...] = (
    ("15m", 900.0),
    ("1h", 3600.0),
    ("4h", 14400.0),
)

#: Features harvestable from a retained :class:`NodeSample` — the
#: telemetry-only feature set the multi-horizon models train and score
#: on (sweep campaigns retain samples, not live platform registers).
HARVEST_FEATURES = (
    "ce_count",          # cumulative corrected-error counter
    "reliability",
    "utilization",
    "power_norm",        # power_w / 100
    "temperature_norm",  # (T - 50) / 50
)


def node_features(node: ComputeNode,
                  telemetry: TelemetryService) -> np.ndarray:
    """Feature row describing a node's current risk posture."""
    nominal_v = node.platform.chip.spec.nominal.voltage_v
    active = node.platform.chip.active_cores()
    if active:
        margins = [
            1.0 - node.platform.core_point(c.core_id).voltage_v / nominal_v
            for c in active
        ]
        margin_used = max(margins)
    else:
        # A fully parked chip spends no voltage margin at all; treating
        # "no active cores" as margin 1.0 made the threshold predictor
        # flag a healthy idle node as maximally at-risk.
        margin_used = 0.0
    relaxations = [
        d.refresh_interval_s / NOMINAL_REFRESH_INTERVAL_S
        for d in node.platform.memory.domains()
    ]
    # No DRAM domains means no refresh relaxation; max() on the empty
    # list raised ValueError here.
    refresh_log2 = (float(np.log2(max(relaxations)))
                    if relaxations else 0.0)
    return np.array([
        telemetry.recent_error_rate(node.name),
        node.reliability(),
        margin_used,
        refresh_log2,
        node.utilization(),
    ])


def sample_features(sample: NodeSample) -> np.ndarray:
    """The :data:`HARVEST_FEATURES` row of one retained node sample.

    Shared by the harvest hook (training time) and
    :class:`MultiHorizonPredictor` (serving time), so the model scores
    exactly the representation it was fitted on.
    """
    return np.array([
        float(sample.correctable_errors),
        float(sample.reliability),
        float(sample.utilization),
        float(sample.power_w) / 100.0,
        (float(sample.temperature_c) - 50.0) / 50.0,
    ])


@dataclass(frozen=True)
class HorizonRisk:
    """One horizon's slice of a node's risk report."""

    horizon: str
    horizon_s: float
    probability: float
    confidence: float
    at_risk: bool
    #: Feature names contributing most to the verdict, strongest first.
    contributors: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (all leaves JSON primitives)."""
        return {
            "horizon": self.horizon,
            "horizon_s": self.horizon_s,
            "probability": self.probability,
            "confidence": self.confidence,
            "at_risk": self.at_risk,
            "contributors": list(self.contributors),
        }

    @staticmethod
    def from_dict(state: Mapping[str, object]) -> "HorizonRisk":
        """Rebuild a slice saved by :meth:`as_dict`."""
        return HorizonRisk(
            horizon=str(state["horizon"]),
            horizon_s=float(state["horizon_s"]),  # type: ignore[arg-type]
            probability=float(state["probability"]),  # type: ignore[arg-type]
            confidence=float(state["confidence"]),  # type: ignore[arg-type]
            at_risk=bool(state["at_risk"]),
            contributors=tuple(str(c) for c in state["contributors"]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class DomainRisk:
    """Failure risk of one DRAM domain (retention-stress hazard)."""

    domain: str
    probability: float
    at_risk: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form."""
        return {"domain": self.domain, "probability": self.probability,
                "at_risk": self.at_risk}

    @staticmethod
    def from_dict(state: Mapping[str, object]) -> "DomainRisk":
        """Rebuild a domain risk saved by :meth:`as_dict`."""
        return DomainRisk(
            domain=str(state["domain"]),
            probability=float(state["probability"]),  # type: ignore[arg-type]
            at_risk=bool(state["at_risk"]),
        )


@dataclass(frozen=True)
class HorizonRiskReport:
    """A node's full multi-horizon risk report, as heartbeats ship it."""

    node: str
    horizons: Tuple[HorizonRisk, ...]
    domains: Tuple[DomainRisk, ...] = ()

    def horizon(self, name: str) -> HorizonRisk:
        """One horizon's slice by name."""
        for slice_ in self.horizons:
            if slice_.horizon == name:
                return slice_
        raise KeyError(f"no horizon named {name!r} in report")

    def nearest_at_risk(self) -> Optional[HorizonRisk]:
        """The at-risk horizon with the shortest lead, if any."""
        flagged = [h for h in self.horizons if h.at_risk]
        if not flagged:
            return None
        return min(flagged, key=lambda h: h.horizon_s)

    def urgency(self) -> Tuple[float, float]:
        """Sort key for evacuation ordering: nearest at-risk horizon
        first, then higher probability first.  Nodes with no at-risk
        horizon sort last (infinite lead)."""
        nearest = self.nearest_at_risk()
        if nearest is not None:
            return (nearest.horizon_s, -nearest.probability)
        worst = max((h.probability for h in self.horizons), default=0.0)
        return (math.inf, -worst)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (all leaves JSON primitives)."""
        return {
            "node": self.node,
            "horizons": [h.as_dict() for h in self.horizons],
            "domains": [d.as_dict() for d in self.domains],
        }

    @staticmethod
    def from_dict(state: Mapping[str, object]) -> "HorizonRiskReport":
        """Rebuild a report saved by :meth:`as_dict`."""
        return HorizonRiskReport(
            node=str(state["node"]),
            horizons=tuple(HorizonRisk.from_dict(h)
                           for h in state["horizons"]),  # type: ignore[union-attr]
            domains=tuple(DomainRisk.from_dict(d)
                          for d in state["domains"]),  # type: ignore[union-attr]
        )


def domain_risks(node: ComputeNode, threshold: float,
                 window_s: float = 3600.0) -> Tuple[DomainRisk, ...]:
    """Per-DRAM-domain hazard from refresh aggression and fault history.

    A domain is hazardous when its refresh interval sits deep beyond
    nominal *and* the ledger shows recent uncorrectable/corrected
    faults attributed to it (faults carry ``component=domain.name``).
    """
    now = node.clock.now
    since = now - window_s
    ledger = node.platform.faults
    risks = []
    for domain in node.platform.memory.domains():
        relaxation = domain.refresh_interval_s / NOMINAL_REFRESH_INTERVAL_S
        relax_log2 = math.log2(relaxation) if relaxation > 0 else 0.0
        ue = ledger.count(fault_class=FaultClass.UNCORRECTABLE,
                          component=domain.name, since=since)
        sdc = ledger.count(fault_class=FaultClass.SILENT_DATA_CORRUPTION,
                           component=domain.name, since=since)
        ce = ledger.count(fault_class=FaultClass.CORRECTABLE,
                          component=domain.name, since=since)
        probability = min(1.0, 0.1 * max(0.0, relax_log2 - 5.0)
                          + 0.2 * (ue + sdc) + 0.01 * ce)
        risks.append(DomainRisk(domain=domain.name,
                                probability=probability,
                                at_risk=probability >= threshold))
    return tuple(sorted(risks, key=lambda r: r.domain))


def _hazard_terms(features: np.ndarray) -> List[Tuple[str, float]]:
    """The threshold predictor's additive hazard terms.

    Returns ``(feature_name, term)`` pairs for the terms that fired over
    a :data:`NODE_FEATURES` row.  (The multi-horizon fallback scores
    :data:`HARVEST_FEATURES` rows with its own terms.)
    """
    ce_rate, reliability, margin_used, refresh_log2, _util = features
    terms: List[Tuple[str, float]] = []
    if ce_rate > 0:
        terms.append(("ce_rate", min(0.5, 0.08 * ce_rate)))
    if reliability < 0.9:
        terms.append(("reliability", 0.9 - reliability))
    if margin_used > 0.15:
        terms.append(("voltage_margin_used", (margin_used - 0.15) * 2.0))
    if refresh_log2 > 5:  # beyond 32x nominal refresh
        terms.append(("refresh_relaxation", 0.1 * (refresh_log2 - 5)))
    return terms


class ThresholdFailurePredictor:
    """Unsupervised risk scoring from error rates and margin aggression.

    The score composes additive hazard terms; ``threshold`` divides
    healthy from at-risk.  Deliberately simple: this is the baseline arm
    the :class:`MultiHorizonPredictor` is compared against in the
    risk-aware migration A/B.
    """

    KIND = "threshold"

    #: Heuristic confidence per horizon of the degenerate report: one
    #: instantaneous score says progressively less about longer leads.
    HORIZON_CONFIDENCE = {"15m": 0.6, "1h": 0.45, "4h": 0.3}

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0 < threshold < 1:
            raise ConfigurationError("threshold must be in (0, 1)")
        self.threshold = threshold

    def report(self, node: ComputeNode,
               telemetry: TelemetryService) -> HorizonRiskReport:
        """A degenerate horizon report from the single hazard score.

        The same instantaneous score is replicated across horizons with
        confidence decaying as the lead grows — the honest shape of a
        detector that knows nothing about time-to-failure.
        """
        features = node_features(node, telemetry)
        terms = _hazard_terms(features)
        risk = min(1.0, sum((term for _, term in terms), 0.0))
        contributors = tuple(
            name for name, _ in
            sorted(terms, key=lambda t: (-t[1], t[0]))[:2])
        horizons = tuple(
            HorizonRisk(
                horizon=name, horizon_s=h_s, probability=risk,
                confidence=self.HORIZON_CONFIDENCE.get(name, 0.3),
                at_risk=risk >= self.threshold,
                contributors=contributors)
            for name, h_s in HORIZONS
        )
        return HorizonRiskReport(
            node=node.name, horizons=horizons,
            domains=domain_risks(node, self.threshold))

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable predictor state."""
        return {"threshold": self.threshold}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self.threshold = float(state["threshold"])  # type: ignore[arg-type]


#: Label sentinel for a censored observation (window ran past the end
#: of the campaign, so the true outcome is unknowable).
_CENSORED = -1


class MultiHorizonPredictor:
    """Confidence-scored multi-horizon health predictor.

    One :class:`LogisticModel` per horizon, trained on
    :data:`HARVEST_FEATURES` rows labelled against the ground-truth
    fault ledger (see :mod:`repro.sweep.harvest`).  A horizon whose
    model is still untrained falls back to the threshold hazard terms at
    low confidence, so the predictor never raises mid-campaign — the
    degradation rung is "less confident", not "dead".
    """

    KIND = "multi_horizon"

    #: Confidence of an untrained horizon's heuristic fallback.
    FALLBACK_CONFIDENCE = 0.25

    #: The nearest horizon's lead, anchoring the threshold scaling.
    NEAREST_HORIZON_S = HORIZONS[0][1]

    def __init__(self, threshold: float = 0.5,
                 min_observations: int = 10) -> None:
        if not 0 < threshold < 1:
            raise ConfigurationError("threshold must be in (0, 1)")
        if min_observations < 2:
            raise ConfigurationError("min_observations must be >= 2")
        self.threshold = threshold
        self.min_observations = min_observations
        self._models: Dict[str, LogisticModel] = {
            name: LogisticModel(epochs=300) for name, _ in HORIZONS
        }
        self._features: List[np.ndarray] = []
        self._labels: Dict[str, List[int]] = {
            name: [] for name, _ in HORIZONS
        }

    # -- training ----------------------------------------------------------

    @property
    def n_observations(self) -> int:
        """Number of labelled feature rows collected."""
        return len(self._features)

    def observe(self, features: np.ndarray,
                failed_within: Mapping[str, Optional[bool]]) -> None:
        """Record one labelled feature row (one label per horizon).

        A horizon mapped to ``None`` (or absent) is *censored* for this
        row — the campaign ended before its window closed, so the true
        label is unknowable.  Censored rows are excluded from that
        horizon's training set but still train the other horizons.
        """
        self._features.append(np.asarray(features, dtype=float))
        for name, _ in HORIZONS:
            label = failed_within.get(name)
            self._labels[name].append(
                _CENSORED if label is None else int(bool(label)))

    def ingest(self, observations: Sequence[Mapping[str, object]]) -> None:
        """Fold harvested observations (see :mod:`repro.sweep.harvest`) in.

        Each observation is a mapping with ``features`` (a
        :data:`HARVEST_FEATURES` row) and ``labels`` (horizon name →
        failed-within-horizon bool, or None where censored).
        """
        for obs in observations:
            self.observe(
                np.array([float(x) for x in obs["features"]]),  # type: ignore[union-attr]
                {str(k): (None if v is None else bool(v))
                 for k, v in obs["labels"].items()})  # type: ignore[union-attr]

    def train(self) -> Dict[str, bool]:
        """Fit every horizon model that has enough of both classes.

        Returns horizon name → whether its model is (now) trained; a
        horizon without both label classes after dropping its censored
        rows keeps its fallback.
        """
        if len(self._features) < self.min_observations:
            raise PredictionError(
                f"need at least {self.min_observations} observations to "
                f"train the multi-horizon predictor "
                f"(have {len(self._features)})")
        features = np.vstack(self._features)
        outcome = {}
        for name, _ in HORIZONS:
            labels = np.array(self._labels[name], dtype=float)
            mask = labels != _CENSORED
            kept = labels[mask]
            if (kept.size < self.min_observations
                    or len(np.unique(kept)) < 2):
                outcome[name] = self._models[name].is_trained
                continue
            self._models[name].fit(features[mask], kept)
            outcome[name] = True
        return outcome

    def trained_horizons(self) -> Tuple[str, ...]:
        """Names of horizons whose models are trained."""
        return tuple(name for name, _ in HORIZONS
                     if self._models[name].is_trained)

    # -- scoring -----------------------------------------------------------

    def probabilities(self, features: np.ndarray,
                      ) -> Dict[str, Tuple[float, float]]:
        """Per-horizon ``(probability, confidence)`` for one feature row.

        Trained horizons score through their logistic model; confidence
        grows with training-set size and decision sharpness.  Untrained
        horizons fall back to the threshold hazard terms over the
        sample features at :data:`FALLBACK_CONFIDENCE`.
        """
        features = np.asarray(features, dtype=float)
        n = self.n_observations
        obs_term = n / (n + 50.0)
        out: Dict[str, Tuple[float, float]] = {}
        for name, _ in HORIZONS:
            model = self._models[name]
            if model.is_trained:
                p = float(model.predict_proba(features)[0])
                confidence = obs_term * (0.5 + abs(p - 0.5))
            else:
                p, confidence = self._fallback(features)
            out[name] = (p, confidence)
        return out

    def horizon_threshold(self, horizon_s: float) -> float:
        """The at-risk probability threshold for one horizon.

        The base threshold applies to the nearest horizon; farther
        horizons demand progressively higher probability before they
        flag.  In a fault-dense fleet "some crash within 4 h" is close
        to certain for every node, so actuating a distant horizon at
        the base threshold would evacuate the whole rack continuously —
        acting *early* is only justified by near-certainty.
        """
        nearness = min(1.0, self.NEAREST_HORIZON_S / horizon_s)
        return 1.0 - (1.0 - self.threshold) * nearness

    def _fallback(self, features: np.ndarray) -> Tuple[float, float]:
        """Heuristic hazard over a :data:`HARVEST_FEATURES` row."""
        ce, reliability, _util, _power, temperature_norm = features
        hazard = 0.0
        if ce > 0:
            hazard += min(0.5, 0.08 * ce)
        if reliability < 0.9:
            hazard += 0.9 - reliability
        if temperature_norm > 0.6:  # beyond 80 C
            hazard += 0.2 * (temperature_norm - 0.6)
        return min(1.0, hazard), self.FALLBACK_CONFIDENCE

    def _contributors(self, name: str,
                      features: np.ndarray) -> Tuple[str, ...]:
        """Top contributing features of one horizon's verdict."""
        model = self._models[name]
        if not model.is_trained:
            ce, reliability, _u, _p, temperature_norm = features
            scores = {"ce_count": min(0.5, 0.08 * ce) if ce > 0 else 0.0,
                      "reliability": max(0.0, 0.9 - reliability),
                      "temperature_norm": max(
                          0.0, 0.2 * (temperature_norm - 0.6))}
            ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            return tuple(k for k, v in ranked[:2] if v > 0)
        contributions = model.contributions(features)
        order = sorted(range(len(HARVEST_FEATURES)),
                       key=lambda i: (-abs(contributions[i]),
                                      HARVEST_FEATURES[i]))
        return tuple(HARVEST_FEATURES[i] for i in order[:2])

    def _current_sample(self, node: ComputeNode,
                        telemetry: TelemetryService) -> NodeSample:
        """The newest retained sample (synthesized if none yet)."""
        history = telemetry.node_history(node.name)
        if history:
            return history[-1]
        metrics = node.metrics()
        return NodeSample(
            timestamp=node.clock.now, node=node.name,
            utilization=metrics.utilization, power_w=metrics.power_w,
            reliability=metrics.reliability,
            correctable_errors=node.hypervisor.stats.correctable_errors,
            temperature_c=node.platform.chip.thermal.temperature_c,
        )

    def report(self, node: ComputeNode,
               telemetry: TelemetryService) -> HorizonRiskReport:
        """The full per-node, per-DRAM-domain horizon report."""
        features = sample_features(self._current_sample(node, telemetry))
        scored = self.probabilities(features)
        horizons = tuple(
            HorizonRisk(
                horizon=name, horizon_s=h_s,
                probability=scored[name][0],
                confidence=scored[name][1],
                at_risk=scored[name][0] >= self.horizon_threshold(h_s),
                contributors=self._contributors(name, features))
            for name, h_s in HORIZONS
        )
        return HorizonRiskReport(
            node=node.name, horizons=horizons,
            domains=domain_risks(node, self.threshold))

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable predictor state: every model plus observations."""
        return {
            "threshold": self.threshold,
            "min_observations": self.min_observations,
            "models": {name: self._models[name].state_dict()
                       for name, _ in HORIZONS},
            "features": [[float(x) for x in row]
                         for row in self._features],
            "labels": {name: list(self._labels[name])
                       for name, _ in HORIZONS},
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self.threshold = float(state["threshold"])  # type: ignore[arg-type]
        self.min_observations = int(state["min_observations"])  # type: ignore[arg-type]
        for name, _ in HORIZONS:
            self._models[name].load_state_dict(
                state["models"][name])  # type: ignore[index]
        self._features = [np.array([float(x) for x in row])
                          for row in state["features"]]  # type: ignore[union-attr]
        self._labels = {name: [int(v) for v in state["labels"][name]]  # type: ignore[index]
                        for name, _ in HORIZONS}


def train_from_observations(observations: Sequence[Mapping[str, object]],
                            threshold: float = 0.5,
                            ) -> MultiHorizonPredictor:
    """A :class:`MultiHorizonPredictor` trained on harvested labels."""
    predictor = MultiHorizonPredictor(threshold=threshold)
    predictor.ingest(observations)
    predictor.train()
    return predictor


def score_harvest(predictor: MultiHorizonPredictor,
                  observations: Sequence[Mapping[str, object]],
                  ) -> Dict[str, object]:
    """Score a predictor against ledger-labelled observations.

    Per horizon: the confusion counts, precision/recall, and the mean
    lead time (seconds of warning before the fault) over *failure
    events* — an event is one ledger fault, detected when any labelled
    observation ahead of it predicted positive; its lead is the
    earliest such warning.  Predictions are thresholded at the same
    per-horizon at-risk threshold actuation uses
    (:meth:`MultiHorizonPredictor.horizon_threshold`), so the scores
    describe the deployed alarm, not a detached operating point.
    Censored labels (None) are skipped.  The payload is canonical-JSON
    serializable and deterministic in the observation order.
    """
    horizons_out: Dict[str, Dict[str, object]] = {}
    for name, h_s in HORIZONS:
        at_risk_threshold = predictor.horizon_threshold(h_s)
        tp = fp = fn = tn = 0
        censored = 0
        events = set()
        detected: Dict[Tuple[str, float], float] = {}
        for obs in observations:
            label = obs["labels"][name]  # type: ignore[index]
            if label is None:
                censored += 1
                continue
            features = np.array([float(x) for x in obs["features"]])  # type: ignore[union-attr]
            probability, _ = predictor.probabilities(features)[name]
            predicted = probability >= at_risk_threshold
            actual = bool(label)
            if actual and predicted:
                tp += 1
            elif actual:
                fn += 1
            elif predicted:
                fp += 1
            else:
                tn += 1
            if actual and obs.get("lead_s") is not None:
                lead = float(obs["lead_s"])  # type: ignore[arg-type]
                event = (str(obs["node"]),
                         round(float(obs["timestamp"]) + lead, 6))  # type: ignore[arg-type]
                events.add(event)
                if predicted:
                    # Earliest warning = largest lead seen for the event.
                    detected[event] = max(detected.get(event, 0.0), lead)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        mean_lead = (sum(detected.values()) / len(detected)
                     if detected else None)
        horizons_out[name] = {
            "horizon_s": h_s,
            "at_risk_threshold": at_risk_threshold,
            "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "censored": censored,
            "precision": precision, "recall": recall,
            "events": len(events), "detected": len(detected),
            "mean_lead_s": mean_lead,
        }
    return {
        "threshold": predictor.threshold,
        "n_observations": len(observations),
        "trained_horizons": list(predictor.trained_horizons()),
        "horizons": horizons_out,
    }


#: Predictor kinds rebuildable from a persisted state envelope.
_PREDICTOR_KINDS = {
    "threshold": lambda: ThresholdFailurePredictor(),
    "multi_horizon": lambda: MultiHorizonPredictor(),
}


def predictor_state(predictor) -> Optional[Dict[str, object]]:
    """A ``(kind, state)`` envelope for any persistable risk predictor.

    ``None`` for an absent predictor (the node will lazily default to
    the threshold predictor, exactly as before the snapshot).
    """
    if predictor is None or not hasattr(predictor, "state_dict"):
        return None
    kind = getattr(predictor, "KIND", None)
    if kind not in _PREDICTOR_KINDS:
        return None
    return {"kind": kind, "state": predictor.state_dict()}


def predictor_from_state(envelope: Optional[Mapping[str, object]]):
    """Rebuild a risk predictor saved by :func:`predictor_state`."""
    if envelope is None:
        return None
    kind = str(envelope["kind"])
    if kind not in _PREDICTOR_KINDS:
        raise ConfigurationError(f"unknown risk-predictor kind {kind!r}")
    predictor = _PREDICTOR_KINDS[kind]()
    predictor.load_state_dict(envelope["state"])  # type: ignore[arg-type]
    return predictor
