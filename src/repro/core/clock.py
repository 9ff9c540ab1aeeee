"""Simulation clock.

Everything in the simulated ecosystem — daemons sampling sensors, VMs
executing, refresh timers expiring — shares one time base.  Periodic
daemons register series on the clock; an advance hands each series all
of its due instants in one call.

The design intentionally avoids wall-clock time (``time.time``) so that
simulations are deterministic and fast.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .exceptions import ConfigurationError, PersistenceError

#: A series callback: receives the tuple of its due instants.
Callback = Callable[[Tuple[float, ...]], None]


def step_count(duration_s: float, dt_s: float,
               tolerance: float = 1e-9) -> int:
    """Whole steps of ``dt_s`` that fit in ``duration_s``.

    Plain ``int(duration_s / dt_s)`` loses a step whenever the quotient
    lands one float ulp below an integer (``0.3 / 0.1 -> 2``).  Snap to
    the nearest integer when within a relative ``tolerance`` of it;
    otherwise truncate (a genuinely partial trailing step is not run).
    """
    if dt_s <= 0:
        raise ConfigurationError("dt must be positive")
    if duration_s < 0:
        raise ConfigurationError("duration must be non-negative")
    ratio = duration_s / dt_s
    nearest = round(ratio)
    if abs(ratio - nearest) <= tolerance * max(1.0, abs(nearest)):
        return int(nearest)
    return int(ratio)


class SimClock:
    """A deterministic simulation clock driving periodic series.

    Time is a float in seconds starting at 0.  Each series is
    ``[next_s, interval_s, callback]``: its instants are one interval
    after registration and then one interval after the previous instant.
    An advance visits the series in registration order and hands each
    one all of its due instants in a single ``callback(instants)`` call,
    so a series never interleaves with another inside one advance.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._series: List[list] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_every(self, interval: float, callback: Callback) -> None:
        """Register a periodic series starting one interval from now.

        ``callback`` receives the tuple of the series' due instants once
        per advance that reaches at least one of them.  Periodic daemons
        (HealthLog sampling, StressLog scheduling) use this.
        """
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        self._series.append([self._now + interval, interval, callback])

    def advance_to(self, when: float) -> None:
        """Fire every series' instants up to and including ``when``.

        While a series' callback runs, :attr:`now` reads its last due
        instant.  The clock ends exactly at ``when`` even if nothing
        fires there.
        """
        if when < self._now:
            raise ConfigurationError("cannot advance the clock backwards")
        for series in self._series:
            due = series[0]
            if due > when:
                continue
            interval = series[1]
            instants = []
            while due <= when:
                instants.append(due)
                due += interval
            series[0] = due
            self._now = instants[-1]
            series[2](tuple(instants))
        self._now = when

    def advance_by(self, delta: float) -> None:
        """Fire every series' instants within the next ``delta`` seconds."""
        self.advance_to(self._now + delta)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable clock state: current time and next instants.

        Callbacks are closures and cannot be serialized; a restore target
        must therefore be a freshly built twin of the saved simulation,
        holding the *same* series in the same registration order.  Only
        the series' next instants (sorted) and the clock reading are
        persisted.
        """
        return {
            "now": self._now,
            "pending": sorted(series[0] for series in self._series),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore clock time and re-time the series.

        The series of this (freshly rebuilt) clock are kept and re-timed
        by position: ordered by next instant, then registration order,
        the k-th takes the k-th saved instant.  The number of series must
        match the snapshot — a mismatch means the restore target was not
        built from the same configuration.
        """
        pending = list(state["pending"])  # type: ignore[arg-type]
        if len(pending) != len(self._series):
            raise PersistenceError(
                f"clock restore mismatch: snapshot has {len(pending)} "
                f"pending series, rebuilt clock has {len(self._series)}")
        # sorted() is stable: series due together keep registration order.
        by_next = sorted(self._series, key=lambda series: series[0])
        for series, when in zip(by_next, pending):
            series[0] = float(when)
        self._now = float(state["now"])  # type: ignore[arg-type]
