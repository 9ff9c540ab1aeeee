"""Durable snapshots and the write-ahead step journal.

The crash-safe campaign runtime persists two artifacts:

* **Snapshots** — the full ``state_dict`` of every stateful layer,
  wrapped in a checksummed envelope and written with the classical
  atomic-rename protocol (write to a temp file, ``fsync``, then
  ``os.replace``), so a crash mid-write can never leave a half-written
  snapshot masquerading as a good one.  The store keeps the last
  ``keep`` generations; a reader falls back a generation when the
  newest fails its checksum.

* **A write-ahead journal** — one append-only JSONL file per snapshot
  generation.  Before each campaign step executes, its *intent* is
  journalled; after it commits, a *commit* record carries a digest of
  the post-step world.  Because the simulator is deterministic, resume
  is snapshot + re-execution: the digests let the replay prove it is
  re-deriving the exact world the crashed process saw, and a trailing
  intent with no commit (the crash step) is simply re-run.

Every journal line carries its own checksum so a torn final write —
the expected result of a SIGKILL mid-append — truncates cleanly
instead of poisoning the replay.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import ConfigurationError, PersistenceError

logger = logging.getLogger(__name__)

#: Bump when the snapshot envelope layout changes incompatibly.
SNAPSHOT_VERSION = 1

_SNAPSHOT_PREFIX = "snapshot-"
_JOURNAL_PREFIX = "journal-"


def _coerce(value):
    """JSON fallback for numpy scalars (``np.int64`` is not ``int``)."""
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def canonical_json(payload: object) -> str:
    """Key-sorted, whitespace-free JSON — the checksum input form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_coerce)


def write_canonical(path, payload: object) -> None:
    """Write ``payload`` to ``path`` as canonical JSON plus a newline —
    the form of every ``--report-json`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
        handle.write("\n")


def payload_checksum(payload: object) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def shard_entries(shards) -> List[Dict[str, object]]:
    """Wrap per-shard states in individually checksummed entries.

    ``shards`` is an iterable of ``(lo, hi, state)`` node-range pieces.
    Each entry carries its own digest so a damaged shard inside an
    otherwise-intact snapshot is detected (and named) at resume time —
    the per-shard granularity the supervised fleet executor rebuilds
    crashed workers from.
    """
    return [{"lo": int(lo), "hi": int(hi), "state": state,
             "sha256": payload_checksum(state)}
            for lo, hi, state in shards]


def verify_shard_entries(entries) -> List[Tuple[int, int, Dict[str, object]]]:
    """Checksum-verify entries written by :func:`shard_entries`.

    Returns the ``(lo, hi, state)`` pieces; raises
    :class:`PersistenceError` naming the first damaged shard.
    """
    shards: List[Tuple[int, int, Dict[str, object]]] = []
    for entry in entries:
        lo, hi = int(entry["lo"]), int(entry["hi"])
        state = entry["state"]
        if entry.get("sha256") != payload_checksum(state):
            raise PersistenceError(
                f"shard [{lo}, {hi}) failed its checksum")
        shards.append((lo, hi, state))
    return shards


class SnapshotStore:
    """Versioned, checksummed, atomically-written snapshot directory."""

    def __init__(self, directory, keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError("must keep at least one generation")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    # -- paths ---------------------------------------------------------------

    def snapshot_path(self, step: int) -> Path:
        """Snapshot file for the generation starting at ``step``."""
        return self.directory / f"{_SNAPSHOT_PREFIX}{step:08d}.json"

    def journal_path(self, step: int) -> Path:
        """Journal file for the generation starting at ``step``."""
        return self.directory / f"{_JOURNAL_PREFIX}{step:08d}.jsonl"

    def generations(self) -> List[int]:
        """Steps of all on-disk snapshot generations, oldest first."""
        steps = []
        for path in self.directory.glob(f"{_SNAPSHOT_PREFIX}*.json"):
            stem = path.name[len(_SNAPSHOT_PREFIX):-len(".json")]
            try:
                steps.append(int(stem))
            except ValueError:
                continue
        return sorted(steps)

    # -- writing -------------------------------------------------------------

    def save(self, step: int, payload: Dict[str, object]) -> Path:
        """Atomically write one snapshot generation and prune old ones."""
        body = {"version": SNAPSHOT_VERSION, "step": step,
                "payload": payload}
        envelope = {"checksum": payload_checksum(body), "body": body}
        path = self.snapshot_path(step)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, default=_coerce)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._prune(survivor=step)
        return path

    def _prune(self, survivor: int) -> None:
        """Keep the newest ``keep`` generations (and their journals)."""
        steps = [s for s in self.generations() if s != survivor]
        excess = len(steps) + 1 - self.keep
        for step in steps[:max(0, excess)]:
            self.snapshot_path(step).unlink(missing_ok=True)
            self.journal_path(step).unlink(missing_ok=True)

    # -- reading -------------------------------------------------------------

    def load_generation(self, step: int) -> Dict[str, object]:
        """Load and checksum-verify one generation; raises on damage."""
        path = self.snapshot_path(step)
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError) as exc:
            # ValueError covers both malformed JSON and bit-flips that
            # break the UTF-8 decoding itself.
            raise PersistenceError(
                f"snapshot {path.name} is unreadable: {exc}") from exc
        body = envelope.get("body")
        if body is None or envelope.get("checksum") != payload_checksum(body):
            raise PersistenceError(
                f"snapshot {path.name} failed its checksum")
        if body.get("version") != SNAPSHOT_VERSION:
            raise PersistenceError(
                f"snapshot {path.name} has version {body.get('version')}, "
                f"expected {SNAPSHOT_VERSION}")
        return body["payload"]

    def load_newest(self) -> Optional[Tuple[int, Dict[str, object]]]:
        """The newest generation that verifies, falling back on damage.

        A corrupted or truncated newest snapshot is logged and skipped —
        crash-safety means degrading to the previous generation, not
        crashing the resume.
        """
        for step in reversed(self.generations()):
            try:
                return step, self.load_generation(step)
            except PersistenceError as exc:
                logger.warning(
                    "snapshot generation %d is damaged (%s); "
                    "falling back to the previous generation", step, exc)
        return None


class Journal:
    """Append-only write-ahead journal with per-line checksums."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (checksum + flush + fsync)."""
        line = canonical_json(record)
        checksum = hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]
        self._handle.write(f"{checksum} {line}\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    @staticmethod
    def read(path) -> List[Dict[str, object]]:
        """All intact records; truncates at the first damaged line.

        A torn final line is the normal signature of a crash mid-append
        and is dropped with a warning, not an error.
        """
        path = Path(path)
        if not path.exists():
            return []
        records: List[Dict[str, object]] = []
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                checksum, _, line = raw.partition(" ")
                digest = hashlib.sha256(
                    line.encode("utf-8")).hexdigest()[:16]
                if checksum != digest:
                    logger.warning(
                        "journal %s: line %d failed its checksum "
                        "(torn write); truncating replay there",
                        path.name, lineno)
                    break
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    logger.warning(
                        "journal %s: line %d is not valid JSON; "
                        "truncating replay there", path.name, lineno)
                    break
        return records
