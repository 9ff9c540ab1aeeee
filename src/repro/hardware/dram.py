"""DRAM retention model, refresh domains and DIMMs.

Substitute for the paper's Section 6.B framework: real 8 GB DDR3 DIMMs on
a commodity server, with main memory split into *domains* (per channel)
whose refresh rate is set independently so critical kernel code/stack can
stay on a reliable (nominal 64 ms) domain while the rest is relaxed.

The physics: each DRAM cell holds charge for a *retention time*; if the
refresh interval exceeds it, the cell leaks and the stored bit flips.
Retention times across a device follow a heavy lower tail, modelled here
as a lognormal calibrated to the paper's observations:

* relaxing 64 ms → 1.5 s introduces no observable errors,
* at 5 s (78× nominal) the cumulative BER is ≈ 1e-9 — within commercial
  DRAM targets, and three orders below the 1e-6 SECDED capability.

Retention roughly halves per 10 °C (Liu et al. [32]), exposed through
:func:`repro.hardware.thermal.retention_temperature_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S
from ..core.exceptions import ConfigurationError
from .ecc import (
    RETENTION_ADJACENT_FRACTION,
    SECDED,
    EccScheme,
    EccSelector,
    scheme_by_name,
)
from .power import DramPowerModel
from .thermal import retention_temperature_factor

#: Bits per gigabyte.
BITS_PER_GB = 8 * 1024 ** 3

#: Heterogeneous-reliability memory tier labels, strongest first.  A
#: *strong* tier runs nominal refresh with the reliability interlock; a
#: *normal* tier relaxes moderately behind mid-strength ECC; a *relaxed*
#: tier chases refresh energy with the weakest acceptable protection.
TIER_STRONG = "strong"
TIER_NORMAL = "normal"
TIER_RELAXED = "relaxed"
MEMORY_TIERS: Tuple[str, ...] = (TIER_STRONG, TIER_NORMAL, TIER_RELAXED)


@dataclass(frozen=True)
class RetentionModel:
    """Lognormal retention-time population of a DRAM device.

    ``ln T ~ Normal(mu_ln_s, sigma_ln_s)`` at the reference temperature.
    Default parameters are calibrated so BER(1.5 s) ≈ 1e-12 (unobservable
    in a DIMM-scale test) and BER(5 s) ≈ 1e-9, matching Section 6.B.
    """

    mu_ln_s: float = 8.607
    sigma_ln_s: float = 1.1666
    reference_temp_c: float = 45.0

    def __post_init__(self) -> None:
        if self.sigma_ln_s <= 0:
            raise ConfigurationError("sigma must be positive")

    def ber(self, refresh_interval_s: float,
            temperature_c: Optional[float] = None) -> float:
        """Probability a random cell's retention is below the interval.

        This is the *cumulative* bit error rate the paper reports: the
        fraction of cells that cannot hold their value for a full refresh
        period at the given temperature.
        """
        if refresh_interval_s <= 0:
            raise ConfigurationError("refresh interval must be positive")
        temp = self.reference_temp_c if temperature_c is None else temperature_c
        factor = retention_temperature_factor(temp, self.reference_temp_c)
        # Hotter => shorter retention => the effective interval grows.
        effective_interval = refresh_interval_s / factor
        z = (math.log(effective_interval) - self.mu_ln_s) / self.sigma_ln_s
        return float(ndtr(z))

    def max_interval_for_ber(self, ber_target: float,
                             temperature_c: Optional[float] = None) -> float:
        """Largest refresh interval keeping the BER at/below a target."""
        if not 0.0 < ber_target < 1.0:
            raise ConfigurationError("ber_target must be in (0, 1)")
        temp = self.reference_temp_c if temperature_c is None else temperature_c
        factor = retention_temperature_factor(temp, self.reference_temp_c)
        z = ndtri(ber_target)
        return float(math.exp(self.mu_ln_s + z * self.sigma_ln_s) * factor)


@dataclass(frozen=True)
class Dimm:
    """One DIMM: capacity, device density and its power model."""

    dimm_id: int
    capacity_gb: float = 8.0
    device_density_gbit: float = 2.0
    n_devices: int = 16
    retention: RetentionModel = field(default_factory=RetentionModel)

    def __post_init__(self) -> None:
        if self.capacity_gb <= 0 or self.n_devices < 1:
            raise ConfigurationError("invalid DIMM geometry")

    @property
    def capacity_bits(self) -> int:
        """Capacity in bits."""
        return int(self.capacity_gb * BITS_PER_GB)

    def power_model(self) -> DramPowerModel:
        """Power model for one constituent device."""
        return DramPowerModel(density_gbit=self.device_density_gbit)

    def total_power_w(self, refresh_interval_s: float) -> float:
        """Whole-DIMM power at a refresh interval."""
        return self.power_model().total_power_w(refresh_interval_s) * self.n_devices


class MemoryDomain:
    """A refresh domain: a set of DIMMs sharing one refresh interval.

    The paper separates main memory into per-channel domains so the kernel
    can be pinned to a *reliable* domain at nominal refresh while other
    domains relax.  ``reliable=True`` marks the domain the hypervisor uses
    for critical state; its refresh interval is locked at nominal.
    """

    def __init__(self, name: str, dimms: Sequence[Dimm],
                 reliable: bool = False, ecc_enabled: bool = False,
                 seed: int = 0, tier: Optional[str] = None,
                 ecc: Optional[EccScheme] = None) -> None:
        if not dimms:
            raise ConfigurationError("a domain needs at least one DIMM")
        if tier is None:
            # Legacy binary split: the reliable domain is the strong tier,
            # everything else is the relaxed tier.
            tier = TIER_STRONG if reliable else TIER_RELAXED
        if tier not in MEMORY_TIERS:
            raise ConfigurationError(f"unknown memory tier {tier!r}")
        self.name = name
        self.dimms = list(dimms)
        self.reliable = reliable
        self.ecc_enabled = ecc_enabled
        self.tier = tier
        self.ecc = ecc if ecc is not None else SECDED
        self._refresh_interval_s = NOMINAL_REFRESH_INTERVAL_S
        self._rng = np.random.default_rng(seed)

    @property
    def capacity_gb(self) -> float:
        """Capacity in gigabytes."""
        return sum(d.capacity_gb for d in self.dimms)

    @property
    def capacity_bits(self) -> int:
        """Capacity in bits."""
        return sum(d.capacity_bits for d in self.dimms)

    @property
    def refresh_interval_s(self) -> float:
        """Current refresh interval (seconds)."""
        return self._refresh_interval_s

    def set_refresh_interval(self, interval_s: float) -> None:
        """Change the domain's refresh interval.

        Reliable domains refuse relaxation: they exist to hold critical
        state at nominal conditions.
        """
        if interval_s <= 0:
            raise ConfigurationError("refresh interval must be positive")
        if self.reliable and interval_s > NOMINAL_REFRESH_INTERVAL_S:
            raise ConfigurationError(
                f"domain {self.name!r} is reliable; refresh cannot be "
                "relaxed beyond nominal"
            )
        self._refresh_interval_s = interval_s

    def ber(self, temperature_c: Optional[float] = None) -> float:
        """Cumulative BER of the domain at its current refresh interval."""
        # All DIMMs in a domain share the interval; use the worst model.
        return max(d.retention.ber(self._refresh_interval_s, temperature_c)
                   for d in self.dimms)

    def expected_errors_per_pass(self, coverage: float = 1.0,
                                 temperature_c: Optional[float] = None,
                                 ) -> float:
        """Expected bit errors in one full-pattern pass over the domain.

        ``coverage`` is the fraction of cells the pattern leaves in their
        leak-vulnerable state (≈0.5 for random data).
        """
        if not 0.0 <= coverage <= 1.0:
            raise ConfigurationError("coverage must be in [0, 1]")
        return self.ber(temperature_c) * self.capacity_bits * coverage

    def sample_pattern_errors(self, coverage: float = 1.0, passes: int = 1,
                              temperature_c: Optional[float] = None) -> int:
        """Sample the number of errors a pattern test observes."""
        if passes < 1:
            raise ConfigurationError("passes must be >= 1")
        lam = self.expected_errors_per_pass(coverage, temperature_c) * passes
        return int(self._rng.poisson(lam))

    def uncorrectable_word_probability(
            self, temperature_c: Optional[float] = None) -> float:
        """P(a 64-bit access word defeats this domain's ECC scheme)."""
        return self.ecc.uncorrectable_word_probability(self.ber(temperature_c))

    def ecc_power_w(self, accesses_per_s: float) -> float:
        """Decoder power at a given access rate through this domain's ECC."""
        if accesses_per_s < 0:
            raise ConfigurationError("access rate cannot be negative")
        return self.ecc.energy_pj_per_access * 1e-12 * accesses_per_s

    def state_dict(self) -> dict:
        """Serializable mutable state: refresh interval, tier and RNG."""
        return {
            "refresh_interval_s": self._refresh_interval_s,
            "rng": self._rng.bit_generator.state,
            "tier": self.tier,
            "ecc_scheme": self.ecc.name,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state saved by :meth:`state_dict`.

        The interval is written directly (bypassing the reliable-domain
        interlock) because a snapshot may legitimately capture an ablation
        run that relaxed the reliable domain.  ``tier``/``ecc_scheme`` are
        optional so snapshots from before the tier refactor still load.
        """
        self._refresh_interval_s = float(state["refresh_interval_s"])
        self._rng.bit_generator.state = state["rng"]
        if "tier" in state:
            tier = str(state["tier"])
            if tier not in MEMORY_TIERS:
                raise ConfigurationError(f"unknown memory tier {tier!r}")
            self.tier = tier
        if "ecc_scheme" in state:
            self.ecc = scheme_by_name(str(state["ecc_scheme"]))

    def refresh_power_w(self) -> float:
        """Domain refresh power at the current interval."""
        return sum(
            d.power_model().refresh_power_w(self._refresh_interval_s)
            * d.n_devices
            for d in self.dimms
        )

    def total_power_w(self) -> float:
        """Domain total DRAM power at the current interval."""
        return sum(d.total_power_w(self._refresh_interval_s) for d in self.dimms)


class DramSystem:
    """The server's main memory: several independently refreshed domains."""

    def __init__(self, domains: Sequence[MemoryDomain]) -> None:
        if not domains:
            raise ConfigurationError("a DRAM system needs at least one domain")
        names = [d.name for d in domains]
        if len(set(names)) != len(names):
            raise ConfigurationError("domain names must be unique")
        self._domains: Dict[str, MemoryDomain] = {d.name: d for d in domains}

    def __contains__(self, name: str) -> bool:
        return name in self._domains

    def domains(self) -> List[MemoryDomain]:
        """All memory domains."""
        return list(self._domains.values())

    def domain(self, name: str) -> MemoryDomain:
        """One memory domain by name."""
        if name not in self._domains:
            raise KeyError(f"no memory domain named {name!r}")
        return self._domains[name]

    def reliable_domain(self) -> Optional[MemoryDomain]:
        """The domain designated for critical state, if any."""
        for d in self._domains.values():
            if d.reliable:
                return d
        return None

    def relaxed_domains(self) -> List[MemoryDomain]:
        """Domains whose refresh exceeds nominal."""
        return [d for d in self._domains.values()
                if d.refresh_interval_s > NOMINAL_REFRESH_INTERVAL_S]

    def domains_in_tier(self, tier: str) -> List[MemoryDomain]:
        """All domains labelled with a reliability tier."""
        if tier not in MEMORY_TIERS:
            raise ConfigurationError(f"unknown memory tier {tier!r}")
        return [d for d in self._domains.values() if d.tier == tier]

    def tiers(self) -> List[str]:
        """Tiers present in this system, strongest first."""
        present = {d.tier for d in self._domains.values()}
        return [t for t in MEMORY_TIERS if t in present]

    def tier_capacity_gb(self) -> Dict[str, float]:
        """Capacity per tier (GB), for every tier present."""
        return {t: sum(d.capacity_gb for d in self.domains_in_tier(t))
                for t in self.tiers()}

    def tier_refresh_power_w(self) -> Dict[str, float]:
        """Refresh power per tier (W), for every tier present."""
        return {t: sum(d.refresh_power_w() for d in self.domains_in_tier(t))
                for t in self.tiers()}

    @property
    def capacity_gb(self) -> float:
        """Capacity in gigabytes."""
        return sum(d.capacity_gb for d in self._domains.values())

    def total_power_w(self) -> float:
        """Total power in watts."""
        return sum(d.total_power_w() for d in self._domains.values())

    def refresh_power_w(self) -> float:
        """Refresh power in watts."""
        return sum(d.refresh_power_w() for d in self._domains.values())

    def state_dict(self) -> dict:
        """Serializable state of every domain, keyed by name."""
        return {"domains": {name: d.state_dict()
                            for name, d in self._domains.items()}}

    def load_state_dict(self, state: dict) -> None:
        """Restore every saved domain onto this (same-layout) system."""
        for name, domain_state in state["domains"].items():
            self.domain(str(name)).load_state_dict(domain_state)

    def relax_all(self, interval_s: float,
                  keep_reliable_nominal: bool = True) -> List[str]:
        """Relax every (non-reliable) domain to ``interval_s``.

        Returns the names of the domains changed.  With
        ``keep_reliable_nominal=False`` even the reliable domain is relaxed
        — the configuration the resilience ablation (A3) uses to show why
        the reliable domain matters.
        """
        changed = []
        for d in self._domains.values():
            if d.reliable and keep_reliable_nominal:
                continue
            if d.reliable and not keep_reliable_nominal:
                # Bypass the safety interlock explicitly for the ablation.
                d._refresh_interval_s = interval_s
            else:
                d.set_refresh_interval(interval_s)
            changed.append(d.name)
        return sorted(changed)


def standard_server_memory(n_channels: int = 4, dimm_gb: float = 8.0,
                           device_density_gbit: float = 2.0,
                           reliable_channel: Optional[int] = 0,
                           retention: Optional[RetentionModel] = None,
                           seed: int = 0) -> DramSystem:
    """The paper's experimental memory layout: per-channel refresh domains.

    One channel is designated the reliable domain holding critical kernel
    code and stack; the others can be relaxed independently.  Pass
    ``reliable_channel=None`` to build the degenerate all-relaxed topology
    (no reliable domain at all) — callers of
    :meth:`DramSystem.reliable_domain` must tolerate ``None``.
    """
    if reliable_channel is not None and not 0 <= reliable_channel < n_channels:
        raise ConfigurationError("reliable_channel out of range")
    retention = retention or RetentionModel()
    domains = []
    for ch in range(n_channels):
        dimm = Dimm(dimm_id=ch, capacity_gb=dimm_gb,
                    device_density_gbit=device_density_gbit,
                    retention=retention)
        domains.append(MemoryDomain(
            name=f"channel{ch}", dimms=[dimm],
            reliable=(ch == reliable_channel),
            seed=seed + ch,
        ))
    return DramSystem(domains)


#: Default per-tier refresh intervals (seconds): strong stays nominal,
#: normal relaxes to 1.5 s (the paper's "no observable errors" point),
#: relaxed to 5 s (BER ≈ 1e-9, still under SECDED capability).
DEFAULT_TIER_REFRESH_S: Dict[str, float] = {
    TIER_STRONG: NOMINAL_REFRESH_INTERVAL_S,
    TIER_NORMAL: 1.5,
    TIER_RELAXED: 5.0,
}

#: Default per-tier uncorrectable-word-probability targets the ECC
#: selector must meet at each tier's refresh-induced raw BER.  Strong is
#: strictest; every tier's target tightens faster than its raw BER grows,
#: so relaxing refresh forces stronger (more expensive) ECC.
DEFAULT_TIER_UE_TARGETS: Dict[str, float] = {
    TIER_STRONG: 1e-30,
    TIER_NORMAL: 1e-21,
    TIER_RELAXED: 1e-16,
}


def tiered_server_memory(n_channels: int = 4, dimm_gb: float = 8.0,
                         device_density_gbit: float = 2.0,
                         retention: Optional[RetentionModel] = None,
                         tier_refresh_s: Optional[Dict[str, float]] = None,
                         tier_ue_targets: Optional[Dict[str, float]] = None,
                         temperature_c: Optional[float] = None,
                         seed: int = 0) -> DramSystem:
    """A heterogeneous-reliability memory layout over per-channel domains.

    Channel 0 forms the strong tier (reliable, nominal refresh), channel 1
    the normal tier, and the remaining channels the relaxed tier.  Each
    tier's ECC scheme is chosen by :class:`EccSelector` as the cheapest
    scheme meeting the tier's uncorrectable-error target at the raw BER
    its refresh interval produces (via :meth:`RetentionModel.ber`).
    """
    if n_channels < 2:
        raise ConfigurationError("a tiered layout needs >= 2 channels")
    retention = retention or RetentionModel()
    refresh = dict(DEFAULT_TIER_REFRESH_S)
    refresh.update(tier_refresh_s or {})
    targets = dict(DEFAULT_TIER_UE_TARGETS)
    targets.update(tier_ue_targets or {})
    # Retention failures cluster spatially under relaxed refresh, which is
    # what gives SEC-DAEC its edge over plain SECDED at the mid tier.
    selector = EccSelector(adjacent_fraction=RETENTION_ADJACENT_FRACTION)
    tier_ecc = {
        tier: selector.select(retention.ber(refresh[tier], temperature_c),
                              targets[tier])
        for tier in MEMORY_TIERS
    }

    def _tier_for_channel(ch: int) -> str:
        if ch == 0:
            return TIER_STRONG
        if ch == 1:
            return TIER_NORMAL
        return TIER_RELAXED

    domains = []
    for ch in range(n_channels):
        tier = _tier_for_channel(ch)
        dimm = Dimm(dimm_id=ch, capacity_gb=dimm_gb,
                    device_density_gbit=device_density_gbit,
                    retention=retention)
        domain = MemoryDomain(
            name=f"channel{ch}", dimms=[dimm],
            reliable=(tier == TIER_STRONG),
            seed=seed + ch, tier=tier, ecc=tier_ecc[tier],
        )
        if tier != TIER_STRONG:
            domain.set_refresh_interval(refresh[tier])
        domains.append(domain)
    return DramSystem(domains)
