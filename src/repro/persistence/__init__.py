"""Crash-safe execution substrate for rack/chaos campaigns.

Durable checksummed snapshots (:class:`SnapshotStore`), a write-ahead
step journal (:class:`Journal`), cross-layer invariant auditing
(:class:`StateAuditor`) and the resumable campaign runtime
(:class:`PersistentCampaign`).  See ``docs/persistence.md``.
"""

import importlib
from typing import TYPE_CHECKING

from .auditor import StateAuditor
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

if TYPE_CHECKING:
    from .campaign import CampaignConfig, PersistentCampaign

#: Names imported on first use: the campaign runtime loads the rack's
#: object stack, which the vector fleet's snapshots never need.
_LAZY = {"CampaignConfig": ".campaign", "PersistentCampaign": ".campaign"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


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
