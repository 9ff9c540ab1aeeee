"""Simulated hardware substrate: chips, caches, DRAM, power and faults.

This package replaces the physical machines of the paper's evaluation —
undervoltable Intel CPUs and refresh-configurable DDR3 DIMMs — with
calibrated statistical models exposing the same knobs and failure modes
(see DESIGN.md §2 for the substitution rationale).
"""

from .aging import AgingModel, YEAR_S
from .cache import CacheModel, CacheParameters, CacheRunResult
from .chip import (
    ChipModel,
    ChipSpec,
    RunOutcome,
    arm_server_soc_spec,
    intel_i5_4200u_spec,
    intel_i7_3970x_spec,
    spec_from_variation,
)
from .core_model import CoreModel, CoreParameters
from .dram import (
    BITS_PER_GB,
    DEFAULT_TIER_REFRESH_S,
    DEFAULT_TIER_UE_TARGETS,
    MEMORY_TIERS,
    TIER_NORMAL,
    TIER_RELAXED,
    TIER_STRONG,
    Dimm,
    DramSystem,
    MemoryDomain,
    RetentionModel,
    standard_server_memory,
    tiered_server_memory,
)
from .ecc import (
    BCH_DEC,
    BCH_TEC,
    CODEWORD_BITS,
    DATA_BITS,
    ECC_SCHEMES,
    SEC_DAEC,
    SECDED,
    SECDED_BER_CAPABILITY,
    DecodeResult,
    DecodeStatus,
    EccScheme,
    EccSelector,
    decode,
    encode,
    inject_bit_flips,
    scheme_by_name,
    secded_word_failure_probability,
)
from .faults import FaultClass, FaultLedger, FaultOrigin, FaultRecord
from .platform import ServerPlatform, build_uniserver_node
from .power import CorePowerModel, DramPowerModel, energy_for_work
from .sensors import PerfCounters, SensorBlock, SensorReadings
from .thermal import ThermalModel, retention_temperature_factor
from .variation import (
    DEFAULT_BINS,
    Bin,
    ChipSample,
    VariationModel,
    VariationParameters,
    bin_population,
    binning_yield,
    per_core_recoverable_fraction,
    sample_population,
)
from .cache_banks import (
    BankCharacterization,
    BankedCache,
    CacheBank,
    ResizePolicy,
)
from .pdn import BurstWaveform, PdnModel, PdnParameters
from .raidr import (
    MultirateRefresh,
    RefreshBin,
    bin_rows,
    raidr_comparison,
    row_failure_probability,
)

from .scrubbing import (
    DEFAULT_TRANSIENT_FIT_PER_MBIT,
    EccExposureModel,
    ExposureAssessment,
    ScrubPolicy,
    expected_static_pairs,
    scrub_policy_table,
    transient_rate_per_bit_s,
)

__all__ = [
    "DEFAULT_TRANSIENT_FIT_PER_MBIT", "EccExposureModel", "ExposureAssessment", "ScrubPolicy", "expected_static_pairs", "scrub_policy_table", "transient_rate_per_bit_s",
    "BankCharacterization", "BankedCache", "CacheBank", "ResizePolicy", "BurstWaveform", "PdnModel", "PdnParameters", "MultirateRefresh", "RefreshBin", "bin_rows", "raidr_comparison", "row_failure_probability",
    "AgingModel", "YEAR_S",
    "CacheModel", "CacheParameters", "CacheRunResult",
    "ChipModel", "ChipSpec", "RunOutcome",
    "arm_server_soc_spec", "intel_i5_4200u_spec", "intel_i7_3970x_spec",
    "spec_from_variation",
    "CoreModel", "CoreParameters",
    "BITS_PER_GB", "Dimm", "DramSystem", "MemoryDomain", "RetentionModel",
    "standard_server_memory", "tiered_server_memory",
    "DEFAULT_TIER_REFRESH_S", "DEFAULT_TIER_UE_TARGETS", "MEMORY_TIERS",
    "TIER_NORMAL", "TIER_RELAXED", "TIER_STRONG",
    "CODEWORD_BITS", "DATA_BITS", "SECDED_BER_CAPABILITY",
    "DecodeResult", "DecodeStatus", "decode", "encode", "inject_bit_flips",
    "secded_word_failure_probability",
    "BCH_DEC", "BCH_TEC", "ECC_SCHEMES", "SEC_DAEC", "SECDED",
    "EccScheme", "EccSelector", "scheme_by_name",
    "FaultClass", "FaultLedger", "FaultOrigin", "FaultRecord",
    "ServerPlatform", "build_uniserver_node",
    "CorePowerModel", "DramPowerModel", "energy_for_work",
    "PerfCounters", "SensorBlock", "SensorReadings",
    "ThermalModel", "retention_temperature_factor",
    "DEFAULT_BINS", "Bin", "ChipSample", "VariationModel",
    "VariationParameters", "bin_population", "binning_yield",
    "per_core_recoverable_fraction", "sample_population",
]
