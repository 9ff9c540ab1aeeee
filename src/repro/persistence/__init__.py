"""Crash-safe execution substrate for rack/chaos campaigns.

Durable checksummed snapshots (:class:`SnapshotStore`), a write-ahead
step journal (:class:`Journal`), cross-layer invariant auditing
(:class:`StateAuditor`) and the resumable campaign runtime
(:class:`PersistentCampaign`).  See ``docs/persistence.md``.
"""

from .auditor import StateAuditor
from .campaign import CampaignConfig, PersistentCampaign
from .snapshot import (
    SNAPSHOT_VERSION,
    Journal,
    SnapshotStore,
    canonical_json,
    payload_checksum,
    shard_entries,
    verify_shard_entries,
    write_canonical,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "CampaignConfig",
    "Journal",
    "PersistentCampaign",
    "SnapshotStore",
    "StateAuditor",
    "canonical_json",
    "payload_checksum",
    "shard_entries",
    "verify_shard_entries",
    "write_canonical",
]
