"""Event bus connecting hardware, daemons and system software.

The paper's HealthLog monitor offers two service types: *event-driven*
(errors and anomalies pushed up as they occur) and *on-demand* (higher
layers pull specific information).  The event-driven half rides on this
bus: hardware components publish typed events, daemons subscribe.

Events are plain frozen dataclasses; subscribers are callables keyed by
event type.  Publication is synchronous and ordered, which keeps the
simulation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type, TypeVar


@dataclass(frozen=True)
class Event:
    """Base class for all bus events."""

    timestamp: float
    source: str


@dataclass(frozen=True)
class CorrectableErrorEvent(Event):
    """A detected-and-corrected hardware error (e.g. cache SECDED fix)."""

    component: str = ""
    detail: str = ""


@dataclass(frozen=True)
class UncorrectableErrorEvent(Event):
    """A detected but uncorrectable hardware error."""

    component: str = ""
    detail: str = ""


@dataclass(frozen=True)
class CrashEvent(Event):
    """A component (or the machine) crashed."""

    component: str = ""
    operating_point: str = ""


@dataclass(frozen=True)
class SensorEvent(Event):
    """A periodic sensor reading (temperature, voltage, power)."""

    sensor: str = ""
    value: float = 0.0
    unit: str = ""


@dataclass(frozen=True)
class ConfigChangeEvent(Event):
    """The system configuration (an operating point) changed."""

    component: str = ""
    old_point: str = ""
    new_point: str = ""


@dataclass(frozen=True)
class AnomalyEvent(Event):
    """A daemon flagged anomalous behaviour (triggers StressLog re-test).

    ``component`` names the offending component when the anomaly is
    attributable (the EOP governor keys demotions on it); empty for
    system-wide anomalies.
    """

    description: str = ""
    severity: str = "warning"
    component: str = ""


@dataclass(frozen=True)
class MarginUpdateEvent(Event):
    """StressLog published new safe V-F-R margins."""

    component: str = ""
    detail: str = ""


@dataclass(frozen=True)
class EOPTransitionEvent(Event):
    """The EOP governor moved a component between lifecycle states."""

    component: str = ""
    from_state: str = ""
    to_state: str = ""
    reason: str = ""


E = TypeVar("E", bound=Event)
Handler = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe bus with type-based routing.

    Subscribing to a base event type receives all subclasses, so a
    HealthLog subscribing to :class:`Event` sees everything while the
    Hypervisor may subscribe only to :class:`UncorrectableErrorEvent`.
    """

    def __init__(self) -> None:
        self._subscribers: Dict[Type[Event], List[Handler]] = {}

    def subscribe(self, event_type: Type[E],
                  handler: Callable[[E], None]) -> Callable[[], None]:
        """Register ``handler`` for ``event_type`` and its subclasses.

        Returns an unsubscribe callable.
        """
        handlers = self._subscribers.setdefault(event_type, [])
        handlers.append(handler)  # type: ignore[arg-type]

        def unsubscribe() -> None:
            """Remove this handler from the bus."""
            try:
                handlers.remove(handler)  # type: ignore[arg-type]
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: Event) -> int:
        """Deliver ``event`` to every matching subscriber.

        Returns the number of handlers invoked.  Handlers run synchronously
        in subscription order; a handler raising propagates to the
        publisher, which models a fault taking down its observer chain.
        """
        delivered = 0
        for event_type, handlers in list(self._subscribers.items()):
            if isinstance(event, event_type):
                for handler in list(handlers):
                    handler(event)
                    delivered += 1
        return delivered

    def clear(self) -> None:
        """Drop all subscribers (between experiments)."""
        self._subscribers.clear()
