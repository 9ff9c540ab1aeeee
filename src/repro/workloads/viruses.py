"""Hand-coded diagnostic stress viruses.

Section 3.B: stress tests use "diagnostic viruses" that "cause maximum
voltage noise, power consumption and error rates", representing "a
pathogenic worst case scenario that is unlikely to be encountered in
real-life workloads".  The StressLog runs them during pre-deployment and
periodic re-characterisation, because margins that survive a virus are
safe (with headroom) for real workloads.

Three classic hand-coded kernels are modelled; the GA of
:mod:`repro.workloads.genetic` evolves stronger ones from these seeds.
"""

from __future__ import annotations

from .base import ResourceDemand, StressProfile, Workload, WorkloadSuite

#: Power virus: saturates every execution port — maximum activity and
#: near-worst droop (dI/dt steps as execution bursts align).
CPU_POWER_VIRUS = Workload(
    name="cpu_power_virus",
    profile=StressProfile(
        droop_intensity=0.92, core_sensitivity=0.93, activity_factor=0.98,
        cache_pressure=0.30, dram_pressure=0.10,
    ),
    demand=ResourceDemand(cpu_cores=1.0, memory_mb=64.0),
    duration_cycles=5e9,
    description="Hand-coded dI/dt power virus saturating execution ports.",
)

#: Resonance virus: alternates compute bursts with stalls at the power
#: delivery network's resonant frequency — the worst droop generator.
DROOP_RESONANCE_VIRUS = Workload(
    name="droop_resonance_virus",
    profile=StressProfile(
        droop_intensity=0.97, core_sensitivity=0.90, activity_factor=0.80,
        cache_pressure=0.20, dram_pressure=0.05,
    ),
    demand=ResourceDemand(cpu_cores=1.0, memory_mb=64.0),
    duration_cycles=5e9,
    description="Burst/stall kernel tuned to the PDN resonant frequency.",
)

#: Cache thrash virus: maximum SRAM toggling for ECC-error exposure.
CACHE_THRASH_VIRUS = Workload(
    name="cache_thrash_virus",
    profile=StressProfile(
        droop_intensity=0.70, core_sensitivity=0.80, activity_factor=0.75,
        cache_pressure=0.98, dram_pressure=0.60,
    ),
    demand=ResourceDemand(cpu_cores=1.0, memory_mb=256.0),
    duration_cycles=5e9,
    description="Pointer-walk kernel thrashing every cache level.",
)

#: DRAM hammer virus: maximum row activations and bandwidth.
DRAM_HAMMER_VIRUS = Workload(
    name="dram_hammer_virus",
    profile=StressProfile(
        droop_intensity=0.50, core_sensitivity=0.60, activity_factor=0.55,
        cache_pressure=0.80, dram_pressure=0.98,
    ),
    demand=ResourceDemand(cpu_cores=1.0, memory_mb=2048.0),
    duration_cycles=5e9,
    description="Streaming kernel maximising DRAM activations.",
)

ALL_VIRUSES = (
    CPU_POWER_VIRUS,
    DROOP_RESONANCE_VIRUS,
    CACHE_THRASH_VIRUS,
    DRAM_HAMMER_VIRUS,
)


def virus_suite() -> WorkloadSuite:
    """The hand-coded stress-virus suite used as the StressLog default."""
    return WorkloadSuite("hand_coded_viruses", list(ALL_VIRUSES))
