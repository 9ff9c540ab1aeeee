"""Server platform: one chip plus main memory, the unit UniServer manages.

A :class:`ServerPlatform` is what a single micro-server node looks like to
the daemons and the hypervisor: an undervoltable processor, a set of DRAM
refresh domains (one reliable), a fault ledger, and the current V-F-R
configuration of every component.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S, OperatingPoint
from ..core.exceptions import ConfigurationError
from .chip import ChipModel, ChipSpec, arm_server_soc_spec
from .dram import DramSystem, standard_server_memory
from .faults import FaultLedger


class ServerPlatform:
    """One micro-server node: chip + DRAM domains + fault ledger."""

    def __init__(self, chip: ChipModel, memory: DramSystem,
                 name: str = "node0") -> None:
        self.name = name
        self.chip = chip
        self.memory = memory
        self.faults = FaultLedger()
        self._core_points: Dict[int, OperatingPoint] = {
            core.core_id: chip.spec.nominal for core in chip.cores
        }

    # -- configuration -------------------------------------------------------

    def core_point(self, core_id: int) -> OperatingPoint:
        """Current operating point of a core."""
        if core_id not in self._core_points:
            raise ConfigurationError(f"unknown core {core_id}")
        return self._core_points[core_id]

    def set_core_point(self, core_id: int, point: OperatingPoint) -> None:
        """Set a core's V-F point (refresh field ignored for cores)."""
        if core_id not in self._core_points:
            raise ConfigurationError(f"unknown core {core_id}")
        self._core_points[core_id] = point

    def set_all_core_points(self, point: OperatingPoint) -> None:
        """Set every core to the same operating point."""
        for core_id in self._core_points:
            self._core_points[core_id] = point

    def reset_nominal(self) -> None:
        """Return every component to its conservative nominal point."""
        self.set_all_core_points(self.chip.spec.nominal)
        for domain in self.memory.domains():
            if not domain.reliable:
                domain.set_refresh_interval(NOMINAL_REFRESH_INTERVAL_S)

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable mutable platform state."""
        return {
            "chip": self.chip.state_dict(),
            "memory": self.memory.state_dict(),
            "faults": self.faults.state_dict(),
            "core_points": {str(core_id): point.as_dict()
                            for core_id, point in self._core_points.items()},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore onto a platform rebuilt from the same configuration."""
        self.chip.load_state_dict(state["chip"])  # type: ignore[arg-type]
        self.memory.load_state_dict(state["memory"])  # type: ignore[arg-type]
        self.faults.load_state_dict(state["faults"])  # type: ignore[arg-type]
        saved_points = state["core_points"]
        for core_id_str, point in saved_points.items():  # type: ignore[union-attr]
            core_id = int(core_id_str)
            if core_id not in self._core_points:
                raise ConfigurationError(
                    f"platform restore mismatch: unknown core {core_id}")
            self._core_points[core_id] = OperatingPoint.from_dict(point)

    # -- aggregate views ------------------------------------------------------

    def total_power_w(self, activity: float = 0.5) -> float:
        """Platform power: chip (averaged over per-core points) + DRAM."""
        chip_power = 0.0
        for core in self.chip.cores:
            point = self._core_points[core.core_id]
            chip_power += self.chip.power.total_power_w(
                point, activity=activity,
                temperature_c=self.chip.thermal.temperature_c,
            ) / self.chip.n_cores
        return chip_power + self.memory.total_power_w()

    def describe(self) -> str:
        """Multi-line summary of the platform configuration."""
        lines = [f"platform {self.name}: {self.chip.name}, "
                 f"{self.memory.capacity_gb:.0f} GB DRAM"]
        for core in self.chip.cores:
            point = self._core_points[core.core_id]
            tag = " [isolated]" if core.isolated else ""
            lines.append(f"  core{core.core_id}: {point.describe()}{tag}")
        for domain in self.memory.domains():
            tag = " [reliable]" if domain.reliable else ""
            lines.append(
                f"  {domain.name}: {domain.capacity_gb:.0f} GB, refresh "
                f"{domain.refresh_interval_s * 1e3:.0f} ms{tag}"
            )
        return "\n".join(lines)


def build_uniserver_node(chip_spec: Optional[ChipSpec] = None,
                         name: str = "node0") -> ServerPlatform:
    """Assemble a standard UniServer node (ARM SoC + 4-channel memory)."""
    chip = ChipModel(chip_spec or arm_server_soc_spec(), seed=0)
    return ServerPlatform(chip, standard_server_memory(seed=7), name=name)
