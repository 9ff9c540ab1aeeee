"""DRAM test patterns for the refresh-relaxation campaign.

The paper's Section 6.B uses "random test patterns" while sweeping refresh
rates.  A pattern determines what fraction of cells sit in their
leak-vulnerable state (a DRAM cell only loses data when it stores the
charge level that decays — true-cells lose 1s, anti-cells lose 0s; devices
mix both orientations roughly half/half).

Coverage values:

* ``random`` — every cell holds a random bit: ≈50 % of cells vulnerable,
  and every pass re-randomises, so repeated passes approach full coverage.
* ``all_ones`` / ``all_zeros`` — exactly the true- or anti-cell half.
* ``checkerboard`` — alternating bits; same 50 % but spatially adversarial
  (worst-case coupling noise), modelled with a small coverage bonus.
* ``marching`` — a march test that writes both polarities per pass:
  full coverage per pass, the gold standard for retention profiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class TestPattern:
    """One DRAM data-retention test pattern.

    ``coverage`` is the per-pass fraction of cells observed in their
    vulnerable state; ``passes_to_full`` how many independent passes reach
    ≈full coverage (march tests need one; random data needs several).
    """

    name: str
    coverage: float
    passes_to_full: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in (0, 1]")
        if self.passes_to_full < 1:
            raise ConfigurationError("passes_to_full must be >= 1")

    def cumulative_coverage(self, passes: int) -> float:
        """Coverage achieved after ``passes`` independent passes.

        Random-style patterns gain coverage geometrically; deterministic
        patterns saturate at their single-pass coverage.
        """
        if passes < 1:
            raise ConfigurationError("passes must be >= 1")
        if self.passes_to_full == 1:
            return self.coverage
        miss = (1.0 - self.coverage) ** passes
        return 1.0 - miss


RANDOM = TestPattern(
    "random", coverage=0.5, passes_to_full=8,
    description="Uniform random data, re-randomised per pass (paper 6.B).",
)
ALL_ONES = TestPattern(
    "all_ones", coverage=0.5,
    description="Solid 1s: exercises true-cells only.",
)
ALL_ZEROS = TestPattern(
    "all_zeros", coverage=0.5,
    description="Solid 0s: exercises anti-cells only.",
)
CHECKERBOARD = TestPattern(
    "checkerboard", coverage=0.55,
    description="Alternating bits, adversarial coupling noise.",
)
MARCHING = TestPattern(
    "marching", coverage=1.0,
    description="March test writing both polarities: full coverage.",
)

ALL_PATTERNS = (RANDOM, ALL_ONES, ALL_ZEROS, CHECKERBOARD, MARCHING)


def pattern_by_name(name: str) -> TestPattern:
    """Look a pattern up by its name."""
    for p in ALL_PATTERNS:
        if p.name == name:
            return p
    raise KeyError(
        f"unknown pattern {name!r}; choose from "
        f"{', '.join(p.name for p in ALL_PATTERNS)}"
    )


def generate_pattern_data(pattern: TestPattern, n_words: int,
                          seed: int = 0) -> np.ndarray:
    """Materialise ``n_words`` 64-bit words of the pattern's data.

    Used by tests that drive actual words through the SECDED codec; the
    statistical campaigns only need the coverage numbers.
    """
    if n_words < 0:
        raise ConfigurationError("n_words must be non-negative")
    rng = np.random.default_rng(seed)
    if pattern.name == "random":
        return rng.integers(0, 2 ** 63, size=n_words, dtype=np.uint64) * 2 \
            + rng.integers(0, 2, size=n_words, dtype=np.uint64)
    if pattern.name == "all_ones":
        return np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    if pattern.name == "all_zeros":
        return np.zeros(n_words, dtype=np.uint64)
    if pattern.name == "checkerboard":
        data = np.empty(n_words, dtype=np.uint64)
        data[0::2] = np.uint64(0xAAAAAAAAAAAAAAAA)
        data[1::2] = np.uint64(0x5555555555555555)
        return data
    if pattern.name == "marching":
        data = np.empty(n_words, dtype=np.uint64)
        data[0::2] = np.uint64(0xFFFFFFFFFFFFFFFF)
        data[1::2] = np.uint64(0)
        return data
    raise ConfigurationError(f"no generator for pattern {pattern.name!r}")
