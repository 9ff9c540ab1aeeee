"""Tests for SLAs and their tracking."""

import pytest

from repro.cloudmgr.sla import BRONZE, GOLD, SILVER, SLA, SLATracker
from repro.core.exceptions import ConfigurationError


class TestTiers:
    def test_tier_ordering(self):
        assert GOLD.priority > SILVER.priority > BRONZE.priority
        assert GOLD.failure_budget < SILVER.failure_budget < \
            BRONZE.failure_budget
        assert GOLD.availability_target > BRONZE.availability_target

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLA("x", availability_target=0.0, failure_budget=1e-3)
        with pytest.raises(ConfigurationError):
            SLA("x", availability_target=0.99, failure_budget=0.0)
        with pytest.raises(ConfigurationError):
            SLA("x", availability_target=0.99, failure_budget=1e-3,
                min_frequency_fraction=0.0)


class TestTracker:
    def test_register_and_account(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        tracker.account("vm0", 99.0, up=True)
        tracker.account("vm0", 1.0, up=False)
        record = tracker.record("vm0")
        assert record.availability == pytest.approx(0.99)

    def test_tracks_registered_vms_only(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        assert tracker.tracks("vm0")
        assert not tracker.tracks("vm1")

    def test_duplicate_registration_rejected(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        with pytest.raises(ConfigurationError):
            tracker.register("vm0", GOLD)

    def test_unknown_vm_rejected(self):
        with pytest.raises(KeyError):
            SLATracker().record("ghost")

    def test_violation_counted_when_target_missed(self):
        tracker = SLATracker()
        tracker.register("vm0", GOLD)  # needs 0.9999
        tracker.account("vm0", 10.0, up=True)
        tracker.account("vm0", 10.0, up=False)
        assert tracker.record("vm0").violations >= 1
        assert not tracker.record("vm0").meets_target

    def test_no_violation_within_target(self):
        tracker = SLATracker()
        tracker.register("vm0", BRONZE)  # needs 0.99
        tracker.account("vm0", 1000.0, up=True)
        tracker.account("vm0", 1.0, up=False)
        assert tracker.record("vm0").violations == 0
        assert tracker.fleet_meets_targets()

    def test_availability_defaults_to_one(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        assert tracker.record("vm0").availability == 1.0

    def test_migration_noted(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        tracker.note_migration("vm0")
        assert tracker.record("vm0").migrations == 1

    def test_summary_covers_all_vms(self):
        tracker = SLATracker()
        tracker.register("a", SILVER)
        tracker.register("b", BRONZE)
        summary = tracker.availability_summary()
        assert set(summary) == {"a", "b"}

    def test_negative_time_rejected(self):
        tracker = SLATracker()
        tracker.register("vm0", SILVER)
        with pytest.raises(ConfigurationError):
            tracker.account("vm0", -1.0, up=True)
