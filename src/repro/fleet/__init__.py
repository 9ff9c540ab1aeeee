"""Fleet-scale stepping: vectorized shards under one campaign.

Five pieces (see ``docs/fleet.md``):

* :mod:`repro.fleet.state` — struct-of-arrays fleet state and configs;
* :mod:`repro.fleet.domains` — the physical fault-domain topology
  (node -> rack -> PDU / cooling zone) correlated chaos travels along;
* :mod:`repro.fleet.vectors` — counter-based RNG and numpy batch
  models, byte-identical to per-node stepping on any shard split;
* :mod:`repro.fleet.chaos` — seeded fault plans compiled to
  slice-invariant per-step mask kernels;
* :mod:`repro.fleet.campaign` — one campaign over supervised parallel
  shard workers with a deterministic per-step barrier, replay-on-crash
  recovery, quarantine escalation, and snapshot/resume.
"""

from .campaign import (
    FleetCampaign,
    FleetCampaignConfig,
    run_fleet_campaign,
)
from .chaos import (
    CH_BROWNOUT_CRASH,
    CH_FLEET_DROPOUT,
    CH_PDU_BROWNOUT,
    CORRELATED_FAULT_KINDS,
    FLEET_FAULT_KINDS,
    FleetChaos,
    fleet_correlated_plan,
    fleet_fault_plan,
    fleet_node_index,
    fleet_node_name,
)
from .domains import (
    FaultDomainTopology,
    cooling_zone_name,
    pdu_name,
    rack_name,
)
from .report import (
    energy_proportionality,
    fleet_campaign_report,
)
from .state import DYNAMIC_FIELDS, FleetConfig, FleetState, shard_bounds
from .vectors import (
    ARRIVAL_STREAM,
    VECTOR_STREAM,
    FleetVectors,
    arrival_counter_key,
    build_fleet_state,
    counter_bits,
    counter_gaussian,
    counter_uniform,
    fleet_counter_keys,
    runtime_counter_key,
    splitmix64,
    stream_counter_key,
)

__all__ = [
    "ARRIVAL_STREAM",
    "CH_BROWNOUT_CRASH",
    "CH_FLEET_DROPOUT",
    "CH_PDU_BROWNOUT",
    "CORRELATED_FAULT_KINDS",
    "DYNAMIC_FIELDS",
    "FLEET_FAULT_KINDS",
    "VECTOR_STREAM",
    "FaultDomainTopology",
    "FleetCampaign",
    "FleetCampaignConfig",
    "FleetChaos",
    "FleetConfig",
    "FleetState",
    "FleetVectors",
    "arrival_counter_key",
    "build_fleet_state",
    "cooling_zone_name",
    "counter_bits",
    "counter_gaussian",
    "counter_uniform",
    "energy_proportionality",
    "fleet_campaign_report",
    "fleet_correlated_plan",
    "fleet_counter_keys",
    "fleet_fault_plan",
    "fleet_node_index",
    "fleet_node_name",
    "pdu_name",
    "rack_name",
    "run_fleet_campaign",
    "runtime_counter_key",
    "shard_bounds",
    "splitmix64",
    "stream_counter_key",
]
