"""Selective checkpointing of critical hypervisor structures.

Paper Section 5.B: "The UniServer Hypervisor seeks resilience through a
careful characterization of the criticality and sensitivity of Hypervisor
data structures and code, and educated checking and selective
checkpointing mechanisms, driven by this analysis."

The fault-injection analysis (Figure 4) identifies the sensitive
categories (fs, kernel, net, mm); the :class:`CheckpointManager`
checkpoints exactly those objects.  A corruption consumed from a
checkpointed object is repaired by restore instead of wedging the
hypervisor — at a memory and time cost proportional to the protected
bytes, which is why selectivity matters (protecting everything would eat
the EOP energy gains; see the resilience ablation A3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ..core.exceptions import CheckpointError, ConfigurationError
from .objects import ObjectCatalog, SENSITIVE_CATEGORIES


@dataclass(frozen=True)
class CheckpointCostModel:
    """Costs of maintaining and using checkpoints."""

    #: Time to snapshot one megabyte of protected state (seconds).
    snapshot_s_per_mb: float = 0.002
    #: Time to restore one object from its checkpoint (seconds).
    restore_s_per_object: float = 0.0005
    #: Memory overhead: checkpoint copies are this fraction of the
    #: protected bytes (1.0 = a full shadow copy).
    memory_overhead_factor: float = 1.0

    def __post_init__(self) -> None:
        if min(self.snapshot_s_per_mb, self.restore_s_per_object,
               self.memory_overhead_factor) < 0:
            raise ConfigurationError("checkpoint costs must be >= 0")


@dataclass
class CheckpointStats:
    """Counters of checkpoint activity."""

    snapshots: int = 0
    restores: int = 0
    snapshot_time_s: float = 0.0
    restore_time_s: float = 0.0


class CheckpointManager:
    """Maintains checkpoints for a selected set of object categories."""

    def __init__(self, catalog: ObjectCatalog,
                 protected_categories: Iterable[str] = SENSITIVE_CATEGORIES,
                 cost_model: Optional[CheckpointCostModel] = None) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CheckpointCostModel()
        self._protected: Set[str] = set(protected_categories)
        for category in self._protected:
            catalog.profile(category)  # validate names early
        self._valid: Set[int] = set()
        self.stats = CheckpointStats()

    # -- configuration -----------------------------------------------------

    @property
    def protected_categories(self) -> List[str]:
        """Categories currently under checkpoint, sorted."""
        return sorted(self._protected)

    def protected_bytes(self) -> int:
        """Total size of all protected objects."""
        return sum(
            self.catalog.total_size_bytes(category)
            for category in self._protected
        )

    def memory_overhead_mb(self) -> float:
        """Checkpoint shadow-copy memory cost in MB."""
        return (self.protected_bytes() / (1024.0 ** 2)
                * self.cost_model.memory_overhead_factor)

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable manager state."""
        return {
            "protected": sorted(self._protected),
            "valid": sorted(self._valid),
            "stats": {
                "snapshots": self.stats.snapshots,
                "restores": self.stats.restores,
                "snapshot_time_s": self.stats.snapshot_time_s,
                "restore_time_s": self.stats.restore_time_s,
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self._protected = {str(c) for c in state["protected"]}  # type: ignore[union-attr]
        self._valid = {int(i) for i in state["valid"]}  # type: ignore[union-attr]
        stats = state["stats"]
        self.stats = CheckpointStats(
            snapshots=int(stats["snapshots"]),  # type: ignore[index]
            restores=int(stats["restores"]),  # type: ignore[index]
            snapshot_time_s=float(stats["snapshot_time_s"]),  # type: ignore[index]
            restore_time_s=float(stats["restore_time_s"]),  # type: ignore[index]
        )

    # -- operation -----------------------------------------------------------

    def snapshot(self) -> float:
        """Take a checkpoint of every protected object.

        Returns the time the snapshot cost; all protected objects become
        restorable until their next corruption-restore.
        """
        self._valid = {
            o.object_id for o in self.catalog if o.category in self._protected
        }
        cost = (self.protected_bytes() / (1024.0 ** 2)
                * self.cost_model.snapshot_s_per_mb)
        self.stats.snapshots += 1
        self.stats.snapshot_time_s += cost
        return cost

    def can_restore(self, object_id: int) -> bool:
        """Whether a valid checkpoint exists for the object."""
        return object_id in self._valid

    def restore(self, object_id: int) -> float:
        """Restore one corrupted object from its checkpoint.

        Returns the restore time.  Raises :class:`CheckpointError` when no
        valid checkpoint covers the object — the caller must then treat
        the corruption as fatal.
        """
        if object_id not in self._valid:
            raise CheckpointError(
                f"object {object_id} has no valid checkpoint"
            )
        cost = self.cost_model.restore_s_per_object
        self.stats.restores += 1
        self.stats.restore_time_s += cost
        return cost

    def handle_corruption(self, object_id: int) -> bool:
        """Attempt recovery of a corrupted object.

        Returns ``True`` when the corruption was repaired from a
        checkpoint, ``False`` when the object is unprotected (or its
        checkpoint is unavailable) and the corruption stands.
        """
        if self.can_restore(object_id):
            self.restore(object_id)
            return True
        return False

    def coverage_fraction(self) -> float:
        """Fraction of *crucial* objects covered by protection.

        The selectivity metric: the paper's clustering means a small set
        of categories covers most crucial objects.
        """
        crucial_total = self.catalog.crucial_count()
        if crucial_total == 0:
            return 0.0
        covered = sum(
            self.catalog.crucial_count(category)
            for category in self._protected
        )
        return covered / crucial_total
