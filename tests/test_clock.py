"""Tests for the simulation clock and its periodic series."""

import pytest

from repro.core.clock import SimClock, step_count
from repro.core.exceptions import ConfigurationError, PersistenceError


class TestScheduling:
    def test_advance_executes_due_events_in_order(self):
        clock = SimClock()
        seen = []
        clock.schedule_every(1.0, seen.append)
        clock.advance_to(2.5)
        assert seen == [(1.0, 2.0)]
        assert clock.now == 2.5

    def test_same_time_events_run_in_insertion_order(self):
        clock = SimClock()
        seen = []
        for tag in "xyz":
            clock.schedule_every(
                1.0, lambda instants, t=tag: seen.append((t, instants)))
        clock.advance_to(2.0)
        assert seen == [("x", (1.0, 2.0)), ("y", (1.0, 2.0)),
                        ("z", (1.0, 2.0))]

    def test_each_series_fires_all_its_instants_before_the_next(self):
        clock = SimClock()
        seen = []
        clock.schedule_every(
            3.0, lambda instants: seen.append(("slow", instants, clock.now)))
        clock.schedule_every(
            2.0, lambda instants: seen.append(("fast", instants, clock.now)))
        clock.advance_to(7.0)
        assert seen == [("slow", (3.0, 6.0), 6.0),
                        ("fast", (2.0, 4.0, 6.0), 6.0)]
        assert clock.now == 7.0

    def test_series_starts_one_interval_after_registration(self):
        clock = SimClock()
        clock.advance_to(10.0)
        fired = []
        clock.schedule_every(5.0, fired.append)
        clock.advance_by(5.0)
        assert fired == [(15.0,)]

    def test_cannot_advance_backwards(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(4.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock().schedule_every(-1.0, lambda instants: None)


class TestPeriodic:
    def test_periodic_fires_at_interval(self):
        clock = SimClock()
        calls = []
        clock.schedule_every(2.0, calls.append)
        clock.advance_to(7.0)
        assert calls == [(2.0, 4.0, 6.0)]

    def test_instants_accumulate_from_the_previous_one(self):
        clock = SimClock()
        seen = []
        clock.schedule_every(0.1, seen.extend)
        clock.advance_to(1.0)
        expected, t = [], 0.0
        for _ in range(10):
            t += 0.1
            expected.append(t)
        assert seen == expected
        # Accumulated, not k * interval: the tenth instant is just short
        # of 1.0.
        assert seen[-1] == 0.9999999999999999

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock().schedule_every(0.0, lambda instants: None)


class TestState:
    @staticmethod
    def _clock(seen):
        clock = SimClock()
        clock.schedule_every(2.0, lambda instants: seen.append(("a", instants)))
        clock.schedule_every(3.0, lambda instants: seen.append(("b", instants)))
        return clock

    def test_round_trip_resumes_every_series(self):
        seen, seen_twin = [], []
        clock = self._clock(seen)
        clock.advance_to(5.0)
        state = clock.state_dict()
        assert state == {"now": 5.0, "pending": [6.0, 6.0]}
        twin = self._clock(seen_twin)
        twin.load_state_dict(state)
        assert twin.state_dict() == state
        seen.clear()
        clock.advance_to(9.0)
        twin.advance_to(9.0)
        assert seen_twin == seen == [("a", (6.0, 8.0)), ("b", (6.0, 9.0))]
        assert twin.state_dict() == clock.state_dict()

    def test_restore_retimes_series_by_next_instant(self):
        clock = SimClock()
        seen = []
        clock.schedule_every(5.0, lambda instants: seen.append(("a", instants)))
        clock.schedule_every(1.0, lambda instants: seen.append(("b", instants)))
        clock.load_state_dict({"now": 10.0, "pending": [11.0, 14.0]})
        clock.advance_to(14.0)
        assert seen == [("a", (14.0,)), ("b", (11.0, 12.0, 13.0, 14.0))]

    def test_restore_rejects_a_series_count_mismatch(self):
        clock = SimClock()
        clock.schedule_every(1.0, lambda instants: None)
        with pytest.raises(PersistenceError):
            clock.load_state_dict({"now": 0.0, "pending": [1.0, 2.0]})


class TestStepCount:
    def test_exact_ratio(self):
        assert step_count(10.0, 1.0) == 10
        assert step_count(0.0, 1.0) == 0

    def test_float_error_does_not_drop_a_step(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floats; naive int() loses
        # a step.
        assert step_count(0.3, 0.1) == 3
        assert step_count(3600.0, 0.1) == 36000
        assert step_count(1.0, 1.0 / 3.0) == 3

    def test_non_integral_ratio_truncates(self):
        assert step_count(10.0, 3.0) == 3
        assert step_count(5.5, 2.0) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            step_count(10.0, 0.0)
        with pytest.raises(ConfigurationError):
            step_count(-1.0, 1.0)
