"""Exception hierarchy for the UniServer reproduction.

All library-specific errors derive from :class:`UniServerError` so callers
can catch a single base class.  Hardware-level failures that the *simulated*
machine experiences (crashes, uncorrectable errors) are modelled as
exceptions too, because they abort the simulated execution in the same way a
real crash aborts a benchmark run.
"""

from __future__ import annotations


class UniServerError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(UniServerError):
    """An invalid configuration value or combination was supplied."""


class OperatingPointError(ConfigurationError):
    """An operating point lies outside the physically meaningful range."""


class HardwareFault(UniServerError):
    """Base class for faults experienced by the simulated hardware."""

    def __init__(self, message: str, component: str = "unknown"):
        super().__init__(message)
        self.component = component


class MachineCrash(HardwareFault):
    """The simulated machine crashed (e.g. undervolted below its Vmin).

    Mirrors the "system crash" outcome observed in the paper's Table 2
    characterisation campaign: a run aborted by a non-responsive machine.
    """


class IsolationError(UniServerError):
    """A resource could not be isolated (e.g. the last remaining core)."""


class SchedulingError(UniServerError):
    """The resource manager could not place a VM."""


class MigrationError(UniServerError):
    """A VM migration failed or was rejected."""


class CheckpointError(UniServerError):
    """A checkpoint could not be created or restored."""


class PredictionError(UniServerError):
    """The failure predictor was used before being trained, or misused."""


class StressTestError(UniServerError):
    """A stress-test campaign was misconfigured or aborted."""


class PersistenceError(UniServerError):
    """A snapshot, journal or state restore operation failed."""


class SweepError(UniServerError):
    """A sweep worker failed permanently after its bounded retries."""


class WorkerError(UniServerError):
    """A supervised worker process died, closed its pipe, or missed its
    reply deadline (see :mod:`repro.core.workers`)."""


class FleetWorkerError(WorkerError):
    """A fleet shard worker died, wedged, or broke protocol.

    Carries enough context for the supervisor (and for error reports
    when supervision is exhausted): which worker failed, which shards
    it owned, and the last step it acknowledged — ``None`` when it
    never acked at all.
    """

    def __init__(self, message: str, worker: int = -1,
                 shards=(), last_acked_step=None):
        super().__init__(message)
        self.worker = worker
        self.shards = tuple(shards)
        self.last_acked_step = last_acked_step


class InvariantViolation(PersistenceError):
    """A cross-layer state invariant did not hold (strict auditor mode)."""
