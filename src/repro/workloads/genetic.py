"""Genetic algorithm for generating diagnostic stress viruses.

Section 3.B: "We plan to use genetic algorithms for generating these
viruses [...] The viruses will cause maximum voltage noise, power
consumption and error rates."  This follows the AUDIT line of work (Kim
et al., IEEE MICRO 2012): a virus is a parameterised instruction-mix
kernel, and the GA searches the mix space for the genome that stresses a
*specific* chip hardest.

**Genome.** Six genes in [0, 1] describing the kernel:

0. ``burst_fraction`` — fraction of time in full-width execution bursts;
1. ``pdn_alignment`` — how precisely burst/stall cycles hit the power
   delivery network's resonant frequency;
2. ``fpu_mix`` — share of wide floating-point ops (exercises the longest
   critical paths, maximising core-to-core exposure);
3. ``mem_streaming`` — streaming DRAM traffic share;
4. ``cache_walk`` — cache-thrashing pointer-walk share;
5. ``branchiness`` — branch density (dilutes stress; the GA learns to
   drive it to zero).

**Fitness.** The crash voltage the kernel induces on the target chip's
worst core: a higher crash voltage means the kernel found a deeper
worst-case, hence a safer revealed margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from .base import ResourceDemand, StressProfile, Workload

GENOME_LENGTH = 6
GENE_NAMES = ("burst_fraction", "pdn_alignment", "fpu_mix",
              "mem_streaming", "cache_walk", "branchiness")


def genome_to_profile(genome: Sequence[float]) -> StressProfile:
    """Map a genome to the stress profile its kernel would exhibit.

    The mapping is monotone in the physically meaningful directions and
    reaches the platform worst case (droop 1.0) only for aligned,
    burst-dominated, branch-free genomes — exactly the structure published
    GA-virus studies converge to.
    """
    if len(genome) != GENOME_LENGTH:
        raise ConfigurationError(
            f"genome must have {GENOME_LENGTH} genes, got {len(genome)}"
        )
    g = [min(1.0, max(0.0, float(x))) for x in genome]
    burst, align, fpu, mem, cache, branch = g

    dilution = 1.0 - 0.35 * branch
    droop = burst * (0.40 + 0.60 * align) * dilution
    sensitivity = (0.30 + 0.70 * fpu) * (1.0 - 0.25 * branch)
    activity = burst * (1.0 - 0.30 * mem) * dilution
    cache_pressure = cache * (0.50 + 0.50 * mem)
    dram = mem * (0.60 + 0.40 * cache)

    clamp = lambda x: min(1.0, max(0.0, x))
    return StressProfile(
        droop_intensity=clamp(droop),
        core_sensitivity=clamp(sensitivity),
        activity_factor=clamp(activity),
        cache_pressure=clamp(cache_pressure),
        dram_pressure=clamp(dram),
    )


def physical_genome_to_profile(genome: Sequence[float],
                               pdn_model) -> StressProfile:
    """Genome → profile with the droop term grounded in PDN physics.

    Instead of the abstract ``burst·(0.4 + 0.6·alignment)`` droop law,
    the burst/stall alignment gene is mapped through an actual
    :class:`~repro.hardware.pdn.PdnModel`: the induced droop is computed
    from the PDN's impedance at the genome's burst period, normalised by
    the on-resonance worst case.  Everything else follows the abstract
    mapping, so the two variants are directly comparable.
    """
    if len(genome) != GENOME_LENGTH:
        raise ConfigurationError(
            f"genome must have {GENOME_LENGTH} genes, got {len(genome)}"
        )
    abstract = genome_to_profile(genome)
    g = [min(1.0, max(0.0, float(x))) for x in genome]
    burst, align, _fpu, _mem, _cache, branch = g
    dilution = 1.0 - 0.35 * branch
    physical_droop = (burst * dilution
                      * pdn_model.alignment_to_droop_intensity(align))
    return StressProfile(
        droop_intensity=min(1.0, max(0.0, physical_droop)),
        core_sensitivity=abstract.core_sensitivity,
        activity_factor=abstract.activity_factor,
        cache_pressure=abstract.cache_pressure,
        dram_pressure=abstract.dram_pressure,
    )


def genome_to_workload(genome: Sequence[float],
                       name: str = "ga_virus") -> Workload:
    """Wrap a genome into a runnable workload."""
    return Workload(
        name=name,
        profile=genome_to_profile(genome),
        demand=ResourceDemand(cpu_cores=1.0, memory_mb=128.0),
        duration_cycles=5e9,
        description="GA-evolved diagnostic stress virus.",
    )


FitnessFunction = Callable[[StressProfile], float]


def crash_voltage_fitness(chip) -> FitnessFunction:
    """Fitness = worst-core expected crash voltage under the profile.

    ``chip`` is a :class:`~repro.hardware.chip.ChipModel`; typed loosely to
    avoid an import cycle.  Maximising this voltage means finding the
    workload that makes the chip fail *earliest* — the pathogenic worst
    case the margins must survive.
    """

    def fitness(profile: StressProfile) -> float:
        """Worst-core crash voltage under the profile."""
        return max(
            core.crash_voltage_v(profile) for core in chip.cores
        )

    return fitness


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the virus-evolution GA."""

    population_size: int = 40
    generations: int = 40
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    mutation_sigma: float = 0.15
    elite_count: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError("population_size must be >= 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be >= 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError("bad tournament size")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigurationError("bad elite count")


@dataclass
class GAResult:
    """Outcome of one evolution run."""

    best_genome: Tuple[float, ...]
    best_fitness: float
    history: List[float] = field(default_factory=list)

    def best_workload(self, name: str = "ga_virus") -> Workload:
        """The champion genome wrapped as a workload."""
        return genome_to_workload(self.best_genome, name=name)


class VirusEvolver:
    """Evolves stress-virus genomes against a fitness function."""

    def __init__(self, fitness: FitnessFunction,
                 config: Optional[GAConfig] = None, seed: int = 0) -> None:
        self.fitness = fitness
        self.config = config or GAConfig()
        self._rng = np.random.default_rng(seed)

    def _random_genome(self) -> np.ndarray:
        return self._rng.random(GENOME_LENGTH)

    def _tournament(self, population: List[np.ndarray],
                    scores: List[float]) -> np.ndarray:
        picks = self._rng.integers(0, len(population),
                                   size=self.config.tournament_size)
        best = max(picks, key=lambda i: scores[i])
        return population[best]

    def _crossover(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._rng.random() >= self.config.crossover_rate:
            return a.copy()
        mask = self._rng.random(GENOME_LENGTH) < 0.5
        child = np.where(mask, a, b)
        return child.copy()

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        mask = self._rng.random(GENOME_LENGTH) < self.config.mutation_rate
        noise = self._rng.normal(0.0, self.config.mutation_sigma,
                                 GENOME_LENGTH)
        mutated = np.clip(genome + mask * noise, 0.0, 1.0)
        return mutated

    def evolve(self) -> GAResult:
        """Run the GA and return the champion genome.

        The history records the best fitness per generation, so callers
        can verify monotone (elitist) convergence.
        """
        cfg = self.config
        population = [self._random_genome() for _ in range(cfg.population_size)]
        history: List[float] = []
        best_genome = population[0]
        best_fitness = float("-inf")

        for _ in range(cfg.generations):
            scores = [self.fitness(genome_to_profile(g)) for g in population]
            gen_best = int(np.argmax(scores))
            if scores[gen_best] > best_fitness:
                best_fitness = scores[gen_best]
                best_genome = population[gen_best].copy()
            history.append(best_fitness)

            elite_order = np.argsort(scores)[::-1][:cfg.elite_count]
            next_population = [population[i].copy() for i in elite_order]
            while len(next_population) < cfg.population_size:
                parent_a = self._tournament(population, scores)
                parent_b = self._tournament(population, scores)
                child = self._mutate(self._crossover(parent_a, parent_b))
                next_population.append(child)
            population = next_population

        return GAResult(
            best_genome=tuple(float(x) for x in best_genome),
            best_fitness=float(best_fitness),
            history=history,
        )


def evolve_virus_for_chip(chip, config: Optional[GAConfig] = None,
                          seed: int = 0, name: str = "ga_virus") -> Workload:
    """Convenience: evolve and return the champion virus for a chip."""
    evolver = VirusEvolver(crash_voltage_fitness(chip), config, seed=seed)
    return evolver.evolve().best_workload(name=name)
