"""UniServer reproduction: an energy-efficient, error-resilient server
ecosystem exceeding conservative scaling limits.

Reproduction of Tovletoglou et al., "An Energy-Efficient and
Error-Resilient Server Ecosystem Exceeding Conservative Scaling Limits"
(UniServer project overview).  The package builds the full cross-layer
stack on a simulated hardware substrate:

* :mod:`repro.hardware` — calibrated silicon models: per-core Vmin and
  voltage droop, cache SECDED, DRAM retention and refresh domains, power,
  thermal and aging models.
* :mod:`repro.workloads` — SPEC-CPU2006-like benchmarks, hand-coded and
  GA-evolved stress viruses, DRAM test patterns, an LDBC-SNB-like graph
  workload.
* :mod:`repro.daemons` — HealthLog (runtime monitoring), StressLog
  (offline characterisation of Extended Operating Points), Predictor
  (learned failure models).
* :mod:`repro.hypervisor` — KVM-like error-resilient hypervisor: EOP
  adoption, error masking, reliable-domain placement, isolation,
  selective checkpointing, and the Figure 4 fault-injection campaign.
* :mod:`repro.cloudmgr` — OpenStack-like resource management with a node
  reliability metric, failure prediction and proactive migration.
* :mod:`repro.tco` — total-cost-of-ownership tool and the edge-vs-cloud
  latency/energy model.
* :mod:`repro.security` — EOP threat analysis and countermeasures.
* :mod:`repro.characterization` — the Section 6 experiment drivers.

Quickstart::

    from repro import UniServerNode
    node = UniServerNode()
    node.pre_deploy()          # StressLog reveals the real margins
    node.deploy()              # Hypervisor adopts the safe EOPs
    print(node.energy_report().saving_fraction)
"""

import importlib
from typing import TYPE_CHECKING

from .core import EOPTable, GuardBandBreakdown, OperatingPoint, SimClock

if TYPE_CHECKING:
    from .core import EnergyReport, UniServerNode

__version__ = "1.0.0"

#: Names imported on first use: they load the hardware stack and scipy,
#: which ``import repro.fleet`` never needs.
_LAZY = {"EnergyReport": ".core", "UniServerNode": ".core"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "EnergyReport", "EOPTable", "GuardBandBreakdown", "OperatingPoint",
    "SimClock", "UniServerNode", "__version__",
]
