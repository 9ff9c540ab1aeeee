"""Workload substrate: SPEC-like benchmarks, stress viruses, graph workloads.

Every consumer of a workload — crash models, power models, the hypervisor
and the scheduler — sees the same :class:`~repro.workloads.base.Workload`
abstraction carrying a stress profile and a resource demand.
"""

from .base import (
    IDLE,
    IDLE_PROFILE,
    ResourceDemand,
    StressProfile,
    Workload,
    WorkloadSuite,
)
from .genetic import (
    GAConfig,
    GAResult,
    GENE_NAMES,
    GENOME_LENGTH,
    VirusEvolver,
    crash_voltage_fitness,
    evolve_virus_for_chip,
    genome_to_profile,
    genome_to_workload,
    physical_genome_to_profile,
)
from .ldbc import (
    InteractiveDriver,
    LDBC_PROFILE,
    QueryStats,
    SocialGraph,
    generate_social_graph,
    ldbc_workload,
    memory_trace_mb,
)
from .patterns import (
    ALL_PATTERNS,
    ALL_ONES,
    ALL_ZEROS,
    CHECKERBOARD,
    MARCHING,
    RANDOM,
    TestPattern,
    generate_pattern_data,
    pattern_by_name,
)
from .spec import SPEC_NAMES, spec_suite, spec_workload
from .viruses import (
    ALL_VIRUSES,
    CACHE_THRASH_VIRUS,
    CPU_POWER_VIRUS,
    DRAM_HAMMER_VIRUS,
    DROOP_RESONANCE_VIRUS,
    virus_suite,
)
from .traces import (
    ArrivalEvent,
    TraceConfig,
    TraceGenerator,
    arrivals_per_hour,
)

from .phases import (
    Phase,
    PhasedWorkload,
    burst_style_workload,
    compress_style_workload,
    make_phased,
)

__all__ = [
    "Phase", "PhasedWorkload", "burst_style_workload", "compress_style_workload", "make_phased",
    "ArrivalEvent", "TraceConfig", "TraceGenerator", "arrivals_per_hour",
    "IDLE", "IDLE_PROFILE", "ResourceDemand", "StressProfile", "Workload",
    "WorkloadSuite",
    "GAConfig", "GAResult", "GENE_NAMES", "GENOME_LENGTH", "VirusEvolver",
    "crash_voltage_fitness", "evolve_virus_for_chip", "genome_to_profile",
    "genome_to_workload", "physical_genome_to_profile",
    "InteractiveDriver", "LDBC_PROFILE", "QueryStats", "SocialGraph",
    "generate_social_graph", "ldbc_workload", "memory_trace_mb",
    "ALL_PATTERNS", "ALL_ONES", "ALL_ZEROS", "CHECKERBOARD", "MARCHING",
    "RANDOM", "TestPattern", "generate_pattern_data", "pattern_by_name",
    "SPEC_NAMES", "spec_suite", "spec_workload",
    "ALL_VIRUSES", "CACHE_THRASH_VIRUS", "CPU_POWER_VIRUS",
    "DRAM_HAMMER_VIRUS", "DROOP_RESONANCE_VIRUS", "virus_suite",
]
