"""Evolutionary search for rules that support mobile localizations.

A genome is a 36-letter rule string (see rules.RuleMatrix); fitness defaults
to the soup census of detector.fitness.  The loop is a plain generational EA:
tournament selection, single-point crossover, one-letter mutation, elitism,
and a stall cutoff -- the run stops once the best fitness has not strictly
improved for a configured number of consecutive generations.

Fitness evaluation is deterministic per (genome, master seed): every genome
gets its own generator derived from the master seed and the genome itself,
so the measured value does not depend on evaluation order or memoization
hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detector import FitnessConfig, fitness
from .hexgrid import as_int
from .rules import GENOME_ALPHABET, GENOME_LENGTH, RuleMatrix, random_rule


@dataclass
class EAConfig:
    population: int = 40
    tournament: int = 2
    crossover_prob: float = 0.6
    elitism: int = 1
    stall_generations: int = 10
    max_generations: int | None = None
    fitness: FitnessConfig = field(default_factory=FitnessConfig)

    def __post_init__(self):
        counts = ["population", "tournament", "elitism", "stall_generations"]
        if self.max_generations is not None:
            counts.append("max_generations")
        for name in counts:
            as_int(getattr(self, name), name)
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 1 <= self.tournament <= self.population:
            raise ValueError("tournament size must lie in [1, population]")
        if not 0 <= self.crossover_prob <= 1:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must lie in [0, population)")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be positive")
        if self.max_generations is not None and self.max_generations < 1:
            raise ValueError("max_generations must be positive when set")


@dataclass
class EARun:
    """Outcome of one evolutionary run."""

    best_genome: str
    best_fitness: float
    history: list  # (generation, best, mean) per generation
    generations: int
    evaluations: int

    @property
    def best_rule(self) -> RuleMatrix:
        return RuleMatrix.from_genome(self.best_genome)


def mutate(genome: str, rng: np.random.Generator) -> str:
    """Change exactly one letter; position 0 is pinned so (0, 0) stays S."""
    pos = int(rng.integers(1, GENOME_LENGTH))
    old = genome[pos]
    new = GENOME_ALPHABET[(GENOME_ALPHABET.index(old) + 1 + int(rng.integers(2))) % 3]
    return genome[:pos] + new + genome[pos + 1 :]


def crossover(a: str, b: str, rng: np.random.Generator) -> tuple[str, str]:
    """Single random cut point; returns the two complementary children."""
    cut = int(rng.integers(1, GENOME_LENGTH))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def default_fitness_fn(cfg: FitnessConfig, master_seed: int):
    """Soup-census fitness with a per-genome generator.

    The generator is seeded by (master_seed, genome) jointly, so a genome's
    fitness is a pure function of those two values.
    """

    def fn(genome: str) -> float:
        rule = RuleMatrix.from_genome(genome)
        rng = np.random.default_rng([master_seed, rule.genome_int()])
        return fitness(rule, cfg, rng)

    return fn


def ea_run(
    cfg: EAConfig,
    seed: int,
    fitness_fn=None,
    init=None,
) -> EARun:
    """Run the EA to stall (or the optional generation cap).

    ``fitness_fn`` maps a genome string to a float and defaults to the soup
    census under ``cfg.fitness`` with master seed ``seed``.  ``init`` may
    hold genome strings to seed the population; the remainder is random.
    The run is deterministic given (cfg, seed, fitness_fn).
    """
    rng = np.random.default_rng(seed)
    if fitness_fn is None:
        fitness_fn = default_fitness_fn(cfg.fitness, seed)

    population: list[str] = []
    for genome in init or ():
        population.append(RuleMatrix.from_genome(genome).to_genome())
    while len(population) < cfg.population:
        population.append(random_rule(rng).to_genome())
    population = population[: cfg.population]

    memo: dict[str, float] = {}
    evaluations = 0
    history: list[tuple[int, float, float]] = []
    best_genome, best_fitness = population[0], -np.inf
    stall = 0
    gen = 0

    def tournament() -> str:
        picks = rng.integers(0, cfg.population, size=cfg.tournament)
        return max((population[int(k)] for k in picks), key=memo.__getitem__)

    while True:
        fresh = sorted({g for g in population if g not in memo})  # fixed evaluation order
        for g in fresh:
            memo[g] = fitness_fn(g)
        evaluations += len(fresh)
        scores = [memo[g] for g in population]
        gen_best = max(scores)
        history.append((gen, gen_best, float(np.mean(scores))))

        if gen_best > best_fitness:
            best_fitness = gen_best
            best_genome = population[int(np.argmax(scores))]
            stall = 0
        else:
            stall += 1

        gen += 1
        if stall >= cfg.stall_generations:
            break
        if cfg.max_generations is not None and gen >= cfg.max_generations:
            break

        ranked = sorted(population, key=memo.__getitem__, reverse=True)
        nxt = ranked[: cfg.elitism]
        while len(nxt) < cfg.population:
            child = tournament()
            if rng.random() < cfg.crossover_prob:
                child, _ = crossover(child, tournament(), rng)
            nxt.append(mutate(child, rng))
        population = nxt

    return EARun(best_genome, best_fitness, history, gen, evaluations)
