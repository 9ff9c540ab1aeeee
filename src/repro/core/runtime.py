"""Per-node runtime context: clock, bus, RNG streams and metrics.

Every layer of the UniServer stack — hardware fault models, the HealthLog
and StressLog daemons, the Predictor, the hypervisor and the cloud
manager — used to receive its simulation plumbing piecemeal: a
``SimClock`` here, an ``EventBus`` there, an ad-hoc ``seed: int``
everywhere.  :class:`NodeRuntime` bundles that plumbing into one object
per node so that

* every layer shares the same time base and event bus,
* every stochastic component draws from an *independent, named* RNG
  stream derived from one root :class:`numpy.random.SeedSequence`
  (so adding a new consumer never perturbs existing streams), and
* every layer reports into one :class:`MetricsRegistry`, giving the
  rack-level manager a uniform telemetry surface (the prerequisite for
  fleet-scale failure prediction).

Two identically seeded runtimes driving the same code produce
bit-identical traces; the determinism regression tests rely on this.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .clock import SimClock
from .events import EventBus
from .exceptions import ConfigurationError


@dataclass
class HistogramStats:
    """Bounded-memory summary of an observed value series.

    Stores moments rather than raw samples so that long rack simulations
    cannot grow without bound; the snapshot is still bit-reproducible
    because updates are applied in simulation order.
    """

    count: int = 0
    total: float = 0.0
    sum_sq: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form used in snapshots."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
        }

    def state_dict(self) -> Dict[str, float]:
        """Lossless serializable form (keeps the raw moments).

        ``min_value``/``max_value`` are +/-inf for an empty histogram;
        they are encoded as ``None`` so the payload stays strict-JSON.
        """
        return {
            "count": self.count,
            "total": self.total,
            "sum_sq": self.sum_sq,
            "min_value": None if self.count == 0 else self.min_value,
            "max_value": None if self.count == 0 else self.max_value,
        }

    def load_state_dict(self, state: Dict[str, float]) -> None:
        """Restore the raw moments saved by :meth:`state_dict`."""
        self.count = int(state["count"])
        self.total = float(state["total"])
        self.sum_sq = float(state["sum_sq"])
        self.min_value = (float("inf") if state["min_value"] is None
                          else float(state["min_value"]))
        self.max_value = (float("-inf") if state["max_value"] is None
                          else float(state["max_value"]))


class MetricsRegistry:
    """Counters, gauges and histograms shared by every layer of a node.

    Series names are dotted strings namespaced by layer, e.g.
    ``hardware.faults.crash``, ``daemons.healthlog.events``,
    ``hypervisor.ticks``, ``cloudmgr.scheduler.placements``.  The
    :meth:`snapshot` is a plain nested dict with sorted keys, so two
    identical runs compare equal bit-for-bit.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStats] = {}

    # -- counters ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> float:
        """Increment (and return) a monotonically growing counter."""
        if amount < 0:
            raise ConfigurationError("counters only grow; use a gauge")
        value = self._counters.get(name, 0.0) + amount
        self._counters[name] = value
        return value

    def counter(self, name: str) -> float:
        """Current counter value (0 when never incremented)."""
        return self._counters.get(name, 0.0)

    # -- gauges ------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time metric."""
        self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        """Latest gauge value, or None when never set."""
        return self._gauges.get(name)

    # -- histograms --------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into a histogram series."""
        self.histogram(name).observe(value)

    def histogram(self, name: str) -> HistogramStats:
        """The live summary of a histogram series.

        A never-observed series is registered on first access, so
        observations folded into the returned instance are never lost
        (returning a detached ``HistogramStats`` silently dropped them).
        """
        stats = self._histograms.get(name)
        if stats is None:
            stats = self._histograms[name] = HistogramStats()
        return stats

    # -- introspection -----------------------------------------------------

    def series_names(self) -> List[str]:
        """All series names across the three kinds, sorted."""
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    def layers(self) -> List[str]:
        """Distinct top-level namespaces reporting into this registry."""
        return sorted({name.split(".", 1)[0]
                       for name in self.series_names()})

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic plain-dict dump of every series."""
        return {
            "counters": {k: self._counters[k]
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].as_dict()
                           for k in sorted(self._histograms)},
        }

    def clear(self) -> None:
        """Drop every series (between experiments)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable registry state, preserving insertion order.

        Insertion order is part of the behaviour (snapshots sort, but
        iteration elsewhere may not), so keys are saved in their current
        dict order rather than sorted.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: stats.state_dict()
                           for name, stats in self._histograms.items()},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace every series with the saved ones, in saved order."""
        self._counters = {str(k): float(v) for k, v
                          in state["counters"].items()}  # type: ignore[union-attr]
        self._gauges = {str(k): float(v) for k, v
                        in state["gauges"].items()}  # type: ignore[union-attr]
        self._histograms = {}
        for name, hist_state in state["histograms"].items():  # type: ignore[union-attr]
            stats = HistogramStats()
            stats.load_state_dict(hist_state)
            self._histograms[str(name)] = stats


def _stream_key(name: str) -> int:
    """Stable 64-bit key for a stream name (independent of hash seeds)."""
    return int.from_bytes(
        hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


class NodeRuntime:
    """The shared per-node context bundling clock, bus, RNG and metrics.

    Parameters
    ----------
    name:
        Node name; also used as the default platform name.
    clock:
        Shared simulation clock.  A rack passes one clock to every node
        runtime; a standalone node gets a fresh one.
    bus:
        Per-node event bus (fresh by default — nodes do not share buses).
    seed:
        Root entropy for this node's RNG streams.  Ignored when
        ``seed_sequence`` is given.
    seed_sequence:
        Explicit root :class:`numpy.random.SeedSequence`, e.g. one child
        of a fleet-level ``SeedSequence.spawn`` so every node in a rack
        gets an independent stream family from one experiment seed.
    metrics:
        Shared registry; fresh by default.
    """

    def __init__(self, name: str = "node0",
                 clock: Optional[SimClock] = None,
                 bus: Optional[EventBus] = None,
                 seed: int = 0,
                 seed_sequence: Optional[np.random.SeedSequence] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.seed_sequence = (seed_sequence if seed_sequence is not None
                              else np.random.SeedSequence(seed))
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def now(self) -> float:
        """Current simulation time (convenience passthrough)."""
        return self.clock.now

    def stream_sequence(self, stream: str) -> np.random.SeedSequence:
        """The child ``SeedSequence`` backing one named stream.

        Children are derived the same way ``SeedSequence.spawn`` derives
        its own children — by extending ``spawn_key`` — but keyed by a
        stable hash of the stream *name* instead of a spawn counter, so
        stream identity does not depend on the order in which layers
        first ask for their stream.
        """
        return np.random.SeedSequence(
            entropy=self.seed_sequence.entropy,
            spawn_key=(*self.seed_sequence.spawn_key,
                       _stream_key(stream)),
        )

    def rng(self, stream: str) -> np.random.Generator:
        """The named RNG stream, created on first use and cached.

        Repeated calls with the same name return the *same* generator
        (state advances as the consumer draws); different names return
        statistically independent streams.
        """
        generator = self._streams.get(stream)
        if generator is None:
            generator = np.random.default_rng(
                self.stream_sequence(stream))
            self._streams[stream] = generator
        return generator

    def state_dict(self) -> Dict[str, object]:
        """Serializable runtime state: the named RNG stream generators.

        The clock, bus and metrics registry are shared objects persisted by
        their owners; what is unique to the runtime is which named streams
        exist and where each generator's bit stream currently stands.
        """
        return {
            "streams": {name: generator.bit_generator.state
                        for name, generator in self._streams.items()},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore every saved RNG stream bit-exactly.

        Streams that did not exist yet on this (rebuilt) runtime are
        created through :meth:`rng` first, so consumers that lazily ask
        for them later receive the restored generator.
        """
        saved = state["streams"]
        for name, generator_state in saved.items():  # type: ignore[union-attr]
            self.rng(str(name)).bit_generator.state = generator_state

    def spawn_child(self, name: str) -> "NodeRuntime":
        """A child runtime sharing this runtime's clock.

        The child gets its own bus, metrics registry and an independent
        seed family (derived from the child name), which is what a rack
        builder needs for per-node runtimes on one shared clock.
        """
        return NodeRuntime(
            name=name, clock=self.clock,
            seed_sequence=self.stream_sequence(f"child.{name}"),
        )


def spawn_runtimes(n: int, seed: int = 0,
                   clock: Optional[SimClock] = None) -> List[NodeRuntime]:
    """Per-node runtimes for a rack, on one shared clock.

    One root :class:`numpy.random.SeedSequence` is spawned into ``n``
    independent children (``SeedSequence.spawn``), so a single experiment
    seed reproducibly fans out into per-node stream families.
    """
    if n < 1:
        raise ConfigurationError("need at least one runtime")
    shared_clock = clock if clock is not None else SimClock()
    root = np.random.SeedSequence(seed)
    return [
        NodeRuntime(name=f"node{i}", clock=shared_clock,
                    seed_sequence=child)
        for i, child in enumerate(root.spawn(n))
    ]
