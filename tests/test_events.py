"""Tests for the event bus."""

import pytest

from repro.core.events import (
    AnomalyEvent,
    CorrectableErrorEvent,
    CrashEvent,
    Event,
    EventBus,
    SensorEvent,
)


def ce(t=0.0, component="core0"):
    return CorrectableErrorEvent(timestamp=t, source="test",
                                 component=component)


class TestRouting:
    def test_exact_type_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe(CorrectableErrorEvent, seen.append)
        bus.publish(ce())
        bus.publish(CrashEvent(timestamp=1.0, source="test"))
        assert len(seen) == 1
        assert isinstance(seen[0], CorrectableErrorEvent)

    def test_base_class_subscription_sees_subclasses(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Event, seen.append)
        bus.publish(ce())
        bus.publish(SensorEvent(timestamp=1.0, source="t", sensor="temp",
                                value=50.0))
        assert len(seen) == 2

    def test_publish_returns_delivery_count(self):
        bus = EventBus()
        bus.subscribe(Event, lambda e: None)
        bus.subscribe(CorrectableErrorEvent, lambda e: None)
        assert bus.publish(ce()) == 2

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe(CorrectableErrorEvent, seen.append)
        bus.publish(ce())
        unsub()
        bus.publish(ce())
        assert len(seen) == 1

    def test_unsubscribe_twice_is_harmless(self):
        bus = EventBus()
        unsub = bus.subscribe(Event, lambda e: None)
        unsub()
        unsub()

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(CorrectableErrorEvent, lambda e: order.append(1))
        bus.subscribe(CorrectableErrorEvent, lambda e: order.append(2))
        bus.publish(ce())
        assert order == [1, 2]


class TestHistory:
    """What the bus retains: its subscribers, until cleared."""

    def test_clear_drops_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Event, seen.append)
        bus.publish(ce())
        bus.clear()
        assert bus.publish(ce()) == 0
        assert len(seen) == 1


class TestEventTypes:
    def test_events_are_frozen(self):
        event = ce()
        with pytest.raises(AttributeError):
            event.component = "core1"

    def test_anomaly_defaults(self):
        event = AnomalyEvent(timestamp=0.0, source="healthlog",
                             description="errors above threshold")
        assert event.severity == "warning"
