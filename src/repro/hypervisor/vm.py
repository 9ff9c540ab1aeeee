"""Virtual machines and their lifecycle.

VMs are the unit of work the hypervisor schedules, the resource manager
places, and the paper's SLAs are written against.  Each VM wraps a
workload, a memory demand and a progress counter (in executed cycles);
its footprint over time follows the workload's memory trace so that four
LDBC VMs reproduce Figure 3's dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..workloads.base import Workload
from ..workloads.ldbc import memory_trace_mb


class VMState(Enum):
    """Lifecycle states of a virtual machine."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    MIGRATING = "migrating"
    COMPLETED = "completed"
    FAILED = "failed"

#: States in which a VM occupies host resources.
ACTIVE_STATES = (VMState.RUNNING, VMState.PAUSED, VMState.MIGRATING)

_MASK64 = (1 << 64) - 1


def _rotl64(x: int, bits: int) -> int:
    return ((x << bits) | (x >> (64 - bits))) & _MASK64


def _sip_round(v0: int, v1: int, v2: int,
               v3: int) -> Tuple[int, int, int, int]:
    v0 = (v0 + v1) & _MASK64
    v2 = (v2 + v3) & _MASK64
    v1 = _rotl64(v1, 13) ^ v0
    v3 = _rotl64(v3, 16) ^ v2
    v0 = _rotl64(v0, 32)
    v2 = (v2 + v1) & _MASK64
    v0 = (v0 + v3) & _MASK64
    v1 = _rotl64(v1, 17) ^ v2
    v3 = _rotl64(v3, 21) ^ v0
    return v0, v1, _rotl64(v2, 32), v3


def _stable_name_hash(name: str) -> int:
    """A VM name's hash, the same in every process.

    SipHash-1-3 with a zero key over the string's compact form
    (Latin-1, UCS-2 or UCS-4, little-endian), as a signed 64-bit value:
    exactly CPython's ``hash(name)`` from 3.11 on under
    ``PYTHONHASHSEED=0``, including ``hash("") == 0`` and -1 mapping to
    -2.  Unlike ``hash``, it does not change with the hash seed or the
    interpreter, so memory traces seeded from it do not either.
    """
    if not name:
        return 0
    widest = max(map(ord, name))
    data = name.encode("latin-1" if widest < 0x100
                       else "utf-16-le" if widest < 0x10000
                       else "utf-32-le", "surrogatepass")
    v0, v1, v2, v3 = (0x736F6D6570736575, 0x646F72616E646F6D,
                      0x6C7967656E657261, 0x7465646279746573)
    body = len(data) - len(data) % 8
    words = [int.from_bytes(data[i:i + 8], "little")
             for i in range(0, body, 8)]
    words.append(int.from_bytes(data[body:], "little")
                 | (len(data) & 0xFF) << 56)
    for word in words:
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3 ^ word)
        v0 ^= word
    v2 ^= 0xFF
    for _ in range(3):
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    digest = v0 ^ v1 ^ v2 ^ v3
    if digest >= 1 << 63:
        digest -= 1 << 64
    return -2 if digest == -1 else digest


@dataclass
class VirtualMachine:
    """One VM: workload, resources, and execution progress.

    ``guest_os_mb`` is the guest kernel/userland baseline on top of which
    the application footprint grows.
    """

    name: str
    workload: Workload
    vcpus: int = 1
    guest_os_mb: float = 300.0
    state: VMState = VMState.PENDING
    executed_cycles: float = 0.0
    restarts: int = 0
    _memory_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("VM needs a name")
        if self.vcpus < 1:
            raise ConfigurationError("VM needs at least one vCPU")
        if self.guest_os_mb < 0:
            raise ConfigurationError("guest_os_mb must be non-negative")
        self._app_trace: Optional[np.ndarray] = None

    # -- progress ----------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        """The workload's full cycle count."""
        return self.workload.duration_cycles

    @property
    def progress(self) -> float:
        """Completed fraction of the workload in [0, 1]."""
        return min(1.0, self.executed_cycles / self.total_cycles)

    @property
    def is_active(self) -> bool:
        """Whether the VM occupies host resources."""
        return self.state in ACTIVE_STATES

    def start(self) -> None:
        """Transition PENDING -> RUNNING."""
        if self.state is not VMState.PENDING:
            raise ConfigurationError(
                f"VM {self.name} cannot start from state {self.state.value}"
            )
        self.state = VMState.RUNNING

    def execute(self, cycles: float) -> bool:
        """Advance execution; returns True when the workload completed."""
        if self.state is not VMState.RUNNING:
            raise ConfigurationError(
                f"VM {self.name} is not running (state {self.state.value})"
            )
        if cycles < 0:
            raise ConfigurationError("cycles must be non-negative")
        self.executed_cycles += cycles
        if self.executed_cycles >= self.total_cycles:
            self.state = VMState.COMPLETED
            return True
        return False

    def pause(self) -> None:
        """Transition RUNNING -> PAUSED."""
        if self.state is not VMState.RUNNING:
            raise ConfigurationError("only a running VM can pause")
        self.state = VMState.PAUSED

    def resume(self) -> None:
        """Transition PAUSED -> RUNNING."""
        if self.state is not VMState.PAUSED:
            raise ConfigurationError("only a paused VM can resume")
        self.state = VMState.RUNNING

    def fail(self) -> None:
        """Mark the VM as killed by an unrecoverable fault."""
        if self.state in (VMState.COMPLETED, VMState.FAILED):
            return
        self.state = VMState.FAILED

    def restart(self) -> None:
        """Restart a failed VM from scratch (the hypervisor masks the error)."""
        if self.state is not VMState.FAILED:
            raise ConfigurationError("only a failed VM can restart")
        self.state = VMState.RUNNING
        self.executed_cycles = 0.0
        self.restarts += 1

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable mutable state (the workload itself is rebuilt)."""
        return {
            "vcpus": self.vcpus,
            "guest_os_mb": self.guest_os_mb,
            "state": self.state.value,
            "executed_cycles": self.executed_cycles,
            "restarts": self.restarts,
            "memory_seed": self._memory_seed,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Overlay runtime-mutated state onto a rebuilt VM."""
        self.vcpus = int(state["vcpus"])  # type: ignore[arg-type]
        self.guest_os_mb = float(state["guest_os_mb"])  # type: ignore[arg-type]
        self.state = VMState(state["state"])
        self.executed_cycles = float(state["executed_cycles"])  # type: ignore[arg-type]
        self.restarts = int(state["restarts"])  # type: ignore[arg-type]
        self._memory_seed = int(state["memory_seed"])  # type: ignore[arg-type]
        self._app_trace = None

    # -- memory ------------------------------------------------------------

    def application_memory_mb(self, n_steps: int = 100) -> np.ndarray:
        """The application footprint trace across this VM's execution."""
        if self._app_trace is None or len(self._app_trace) != n_steps:
            database_mb = max(64.0, self.workload.demand.memory_mb / 1.3)
            self._app_trace = memory_trace_mb(
                database_mb, n_steps, seed=self._memory_seed + _stable_name_hash(self.name) % 1000,
            )
        return self._app_trace

    def memory_usage_mb(self, progress: Optional[float] = None) -> float:
        """Current VM memory: guest OS plus application working set."""
        p = self.progress if progress is None else progress
        p = min(1.0, max(0.0, p))
        trace = self.application_memory_mb()
        index = min(len(trace) - 1, int(p * len(trace)))
        return self.guest_os_mb + float(trace[index])


def make_vm_fleet(workload: Workload, count: int, vcpus: int = 1,
                  prefix: str = "vm",
                  guest_os_mb: float = 300.0) -> List[VirtualMachine]:
    """A fleet of identical VMs (e.g. the four LDBC VMs of Figure 3)."""
    if count < 1:
        raise ConfigurationError("fleet needs at least one VM")
    return [
        VirtualMachine(
            name=f"{prefix}{i}", workload=workload, vcpus=vcpus,
            guest_os_mb=guest_os_mb, _memory_seed=i * 97,
        )
        for i in range(count)
    ]
