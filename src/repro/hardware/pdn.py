"""Power-delivery-network (PDN) model: voltage droop from load transients.

The stress profiles used throughout the stack summarise supply droop as
an abstract intensity; this module provides the physical layer beneath
it.  A server PDN behaves as a second-order RLC system with a resonance
in the tens-of-MHz range; load current steps whose spectral content hits
that resonance produce the deepest droops ("second droop"), which is why
the paper's droop-resonance virus alternates bursts and stalls at a
specific period (Section 3.B and [5], Reddi et al.).

The model computes the droop magnitude for a periodic burst/stall
current waveform against the PDN's impedance profile, and maps it back
to the ``droop_intensity`` scale the rest of the stack consumes — so a
GA genome's ``pdn_alignment`` gene has a physical interpretation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class PdnParameters:
    """Second-order PDN electrical parameters.

    Defaults give a ~50 MHz resonance with a quality factor of ~3 — a
    typical package/die power-delivery corner.
    """

    resistance_ohm: float = 0.001
    inductance_h: float = 10e-12
    capacitance_f: float = 1e-6

    def __post_init__(self) -> None:
        if min(self.resistance_ohm, self.inductance_h,
               self.capacitance_f) <= 0:
            raise ConfigurationError("PDN parameters must be positive")

    @property
    def resonant_frequency_hz(self) -> float:
        """The anti-resonance where impedance peaks."""
        return 1.0 / (2 * math.pi
                      * math.sqrt(self.inductance_h * self.capacitance_f))

    @property
    def characteristic_impedance_ohm(self) -> float:
        """sqrt(L/C) of the PDN tank."""
        return math.sqrt(self.inductance_h / self.capacitance_f)

    def impedance_ohm(self, frequency_hz: float) -> float:
        """|Z(f)| the die sees: series (R + jwL) in parallel with the decap.

        Peaks at the anti-resonance, where the regulator path's
        inductance and the decoupling capacitance exchange energy.
        """
        if frequency_hz < 0:
            raise ConfigurationError("frequency must be non-negative")
        if frequency_hz == 0:
            return self.resistance_ohm
        w = 2 * math.pi * frequency_hz
        z_series = complex(self.resistance_ohm, w * self.inductance_h)
        z_cap = complex(0.0, -1.0 / (w * self.capacitance_f))
        z = z_series * z_cap / (z_series + z_cap)
        return abs(z)


@dataclass(frozen=True)
class BurstWaveform:
    """Periodic burst/stall load-current waveform.

    ``burst_current_a`` flows during the burst phase, near zero during
    the stall; the fundamental frequency is ``1 / period_s``.
    """

    burst_current_a: float
    period_s: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.burst_current_a < 0 or self.period_s <= 0:
            raise ConfigurationError("bad waveform parameters")
        if not 0 < self.duty < 1:
            raise ConfigurationError("duty must be in (0, 1)")

    @property
    def fundamental_hz(self) -> float:
        """Fundamental frequency of the burst waveform."""
        return 1.0 / self.period_s

    def harmonic_amplitude_a(self, k: int) -> float:
        """Fourier amplitude of the k-th harmonic of the square wave."""
        if k < 1:
            raise ConfigurationError("harmonic index must be >= 1")
        return (2.0 * self.burst_current_a / (math.pi * k)
                * abs(math.sin(math.pi * k * self.duty)))


class PdnModel:
    """Maps load waveforms to supply droop."""

    def __init__(self, params: PdnParameters = PdnParameters(),
                 nominal_voltage_v: float = 1.0,
                 harmonics: int = 7) -> None:
        if nominal_voltage_v <= 0:
            raise ConfigurationError("nominal voltage must be positive")
        if harmonics < 1:
            raise ConfigurationError("need at least one harmonic")
        self.params = params
        self.nominal_voltage_v = nominal_voltage_v
        self.harmonics = harmonics

    def droop_v(self, waveform: BurstWaveform) -> float:
        """Peak supply droop (volts) for a periodic burst waveform.

        Sums each harmonic's current against the PDN impedance at that
        frequency — worst when the fundamental lands on the resonance.
        """
        total = 0.0
        for k in range(1, self.harmonics + 1):
            frequency = waveform.fundamental_hz * k
            total += (waveform.harmonic_amplitude_a(k)
                      * self.params.impedance_ohm(frequency))
        # DC IR drop of the average current.
        total += (waveform.burst_current_a * waveform.duty
                  * self.params.resistance_ohm)
        return total

    def droop_fraction(self, waveform: BurstWaveform) -> float:
        """Droop as a fraction of the nominal supply."""
        return min(1.0, self.droop_v(waveform) / self.nominal_voltage_v)

    def worst_case_period_s(self, duty: float = 0.5,
                            candidates: int = 200) -> float:
        """The burst period producing the deepest droop (resonance hit).

        Scans periods around the PDN resonance; the winner is what a
        hand-tuned droop virus (or a converged GA) uses.
        """
        resonance = self.params.resonant_frequency_hz
        best_period, best_droop = 0.0, -1.0
        for i in range(candidates):
            frequency = resonance * (0.25 + 3.75 * i / (candidates - 1))
            waveform = BurstWaveform(
                burst_current_a=1.0, period_s=1.0 / frequency, duty=duty)
            droop = self.droop_v(waveform)
            if droop > best_droop:
                best_droop = droop
                best_period = 1.0 / frequency
        return best_period

    def alignment_to_droop_intensity(self, alignment: float,
                                     burst_current_a: float = 20.0,
                                     duty: float = 0.5) -> float:
        """Physical backing for the GA's ``pdn_alignment`` gene.

        ``alignment`` in [0, 1] interpolates the burst period from far
        off-resonance (0) to exactly on-resonance (1); the returned value
        is the induced droop normalised by the on-resonance worst case —
        i.e. a droop intensity on the same [0, 1] scale the stress
        profiles use.
        """
        if not 0.0 <= alignment <= 1.0:
            raise ConfigurationError("alignment must be in [0, 1]")
        worst_period = self.worst_case_period_s(duty=duty)
        off_period = worst_period * 8.0
        period = off_period + (worst_period - off_period) * alignment
        waveform = BurstWaveform(burst_current_a=burst_current_a,
                                 period_s=period, duty=duty)
        worst = self.droop_v(BurstWaveform(
            burst_current_a=burst_current_a, period_s=worst_period,
            duty=duty))
        if worst <= 0:
            return 0.0
        return min(1.0, self.droop_v(waveform) / worst)

    def impedance_profile(self, frequencies_hz: Sequence[float],
                          ) -> List[Tuple[float, float]]:
        """(frequency, |Z|) rows for plotting the PDN profile."""
        return [(f, self.params.impedance_ohm(f)) for f in frequencies_hz]
