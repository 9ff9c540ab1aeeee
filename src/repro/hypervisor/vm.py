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
from typing import Dict, List, Optional

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
    #: Declared memory-criticality mix: fraction of this VM's memory per
    #: reliability tier (e.g. ``{"normal": 0.1, "relaxed": 0.9}``).
    #: ``None`` means the VM declares nothing and tier-aware scheduling
    #: treats it neutrally.
    criticality_mix: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("VM needs a name")
        if self.vcpus < 1:
            raise ConfigurationError("VM needs at least one vCPU")
        if self.guest_os_mb < 0:
            raise ConfigurationError("guest_os_mb must be non-negative")
        if self.criticality_mix is not None:
            if not self.criticality_mix:
                raise ConfigurationError("criticality_mix cannot be empty")
            for fraction in self.criticality_mix.values():
                if fraction < 0:
                    raise ConfigurationError(
                        "criticality_mix fractions must be >= 0")
            if sum(self.criticality_mix.values()) <= 0:
                raise ConfigurationError(
                    "criticality_mix must sum to a positive fraction")
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
                database_mb, n_steps, seed=self._memory_seed + hash(self.name) % 1000,
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
