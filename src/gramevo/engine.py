"""Generational evolutionary loop over genomes.

Randomness discipline: one seeded numpy Generator drives every stochastic
decision in a fixed order.  First population init (with its invalidity
re-draws), then per breeding round: two tournament draws, the crossover
rate/cut draws, and the per-child mutation draws.  Fitness evaluation
never touches the stream, so results cannot depend on evaluation order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateLength,
    EmptyDataset,
    FormulaSyntaxError,
    RunInterrupted,
)
from .expr import ExprNode, evaluate_array, parse_formula
from .grammar import Grammar
from .mapping import Genome, _bred_genome, map_genome
from .primes import Dataset

# worst possible fitness: orders after every finite MSE under minimization
WORST_FITNESS = math.inf

# a phenotype's score: (expr, fitness, valid); expr is None if it did not parse
Score = tuple[Optional[ExprNode], float, bool]


@dataclass(frozen=True)
class Individual:
    """One scored genome.  valid ⇔ mapping succeeded and fitness is finite."""

    genome: Genome
    phenotype: Optional[str]
    expr: Optional[ExprNode]
    fitness: float
    valid: bool
    codons_used: int


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 500
    generations: int = 50
    genome_length: int = 200
    codon_max: int = 100_000
    max_wraps: int = 1
    max_depth: int = 17
    tournament_size: int = 2
    crossover_rate: float = 0.75
    mutation_rate: float = 0.01
    elitism_count: int = 1
    rng_seed: int = 0
    invalid_retries: int = 10

    def __post_init__(self):
        positive = {
            "population_size": self.population_size,
            "generations": self.generations,
            "genome_length": self.genome_length,
            "codon_max": self.codon_max,
            "max_depth": self.max_depth,
            "tournament_size": self.tournament_size,
        }
        for field_name, value in positive.items():
            if value < 1:
                raise ValueError(f"{field_name} must be positive, got {value}")
        for field_name, value in (
            ("max_wraps", self.max_wraps),
            ("elitism_count", self.elitism_count),
            ("invalid_retries", self.invalid_retries),
        ):
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")
        for field_name, value in (
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must lie in [0, 1], got {value}")
        if self.codon_max > 2**63:
            # codons are drawn as numpy int64 values below codon_max
            raise ValueError(
                f"codon_max must be at most 2**63, got {self.codon_max}"
            )
        if self.tournament_size > self.population_size:
            raise ValueError("tournament_size cannot exceed population_size")
        if self.elitism_count > self.population_size:
            raise ValueError("elitism_count cannot exceed population_size")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    invalid_count: int
    best_phenotype: str


@dataclass(frozen=True)
class RunResult:
    best: Individual
    history: tuple[GenerationRecord, ...]
    elapsed_seconds: float
    config_echo: EvolutionConfig


def fitness_mse(expr: ExprNode, dataset: Dataset) -> float:
    """Mean squared error over the dataset; WORST_FITNESS if non-finite."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot score against an empty dataset")
    predictions = evaluate_array(expr, dataset.xs)
    with np.errstate(all="ignore"):
        residuals = predictions - dataset.ys
        mse = float(np.mean(residuals * residuals))
    if not math.isfinite(mse):
        return WORST_FITNESS
    return mse


def _score_phenotype(phenotype: str, dataset: Dataset) -> Score:
    """Parse and score one phenotype: ``(expr, fitness, valid)``."""
    try:
        expr = parse_formula(phenotype)
    except FormulaSyntaxError:
        # reachable with grammars whose language is not formula syntax, and
        # with phenotypes nested past the parser's limit
        return None, WORST_FITNESS, False
    fitness = fitness_mse(expr, dataset)
    return expr, fitness, fitness != WORST_FITNESS


def score_genome(
    genome: Genome,
    grammar: Grammar,
    dataset: Dataset,
    max_wraps: int,
    max_depth: int,
    *,
    memo: Optional[dict[str, Score]] = None,
) -> Individual:
    """Map, parse, and score one genome into an Individual.

    ``memo`` maps phenotype text to its ``(expr, fitness, valid)`` score.
    A phenotype found there is not parsed or scored again; one that is not
    is scored and added.  Fitness is a pure function of the phenotype and
    the dataset, so the memo must only be shared between calls that score
    against the same dataset.
    """
    result = map_genome(grammar, genome, max_wraps=max_wraps, max_depth=max_depth)
    if not result.valid:
        return Individual(genome, None, None, WORST_FITNESS, False,
                          result.codons_used)
    if memo is None:
        memo = {}
    phenotype = result.phenotype
    scored = memo.get(phenotype)
    if scored is None:
        scored = memo[phenotype] = _score_phenotype(phenotype, dataset)
    expr, fitness, valid = scored
    return Individual(genome, phenotype, expr, fitness, valid,
                      result.codons_used)


def _random_genome(config: EvolutionConfig, rng: np.random.Generator) -> Genome:
    codons = rng.integers(0, config.codon_max, size=config.genome_length)
    return _bred_genome(tuple(codons.tolist()), config.codon_max)


def init_population(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
    *,
    memo: Optional[dict[str, Score]] = None,
) -> list[Individual]:
    """Uniform random genomes, scored; invalid draws retried a bounded number
    of times and then kept as-is with worst fitness.  ``memo`` is passed to
    :func:`score_genome`."""
    population: list[Individual] = []
    for _ in range(config.population_size):
        for _attempt in range(config.invalid_retries + 1):
            individual = score_genome(
                _random_genome(config, rng), grammar, dataset,
                config.max_wraps, config.max_depth, memo=memo,
            )
            if individual.valid:
                break
        population.append(individual)
    return population


def tournament_select(
    population: list[Individual],
    k: int,
    rng: np.random.Generator,
) -> Individual:
    """k uniform draws with replacement; minimal fitness wins, earliest draw
    breaks ties."""
    if not population:
        raise ValueError("cannot select from an empty population")
    if k < 1 or k > len(population):
        raise ValueError("tournament size must lie in [1, population size]")
    # k scalar draws consume the stream exactly as one size=k draw does, at
    # a third of numpy's per-call cost for small k
    n = len(population)
    winner = population[rng.integers(0, n)]
    for _ in range(k - 1):
        contender = population[rng.integers(0, n)]
        if contender.fitness < winner.fitness:
            winner = contender
    return winner


def crossover(
    a: Genome,
    b: Genome,
    rate: float,
    rng: np.random.Generator,
) -> tuple[Genome, Genome]:
    """One-point tail swap with probability ``rate``.

    Genomes too short to cut trigger a DegenerateLength warning and come
    back unchanged, before any randomness is consumed.
    """
    if a.codon_max != b.codon_max:
        raise ValueError("parents must share codon_max")
    min_len = min(len(a), len(b))
    if min_len < 2:
        warnings.warn("genomes too short for crossover", DegenerateLength,
                      stacklevel=2)
        return a, b
    if rng.random() >= rate:
        return a, b
    cut = int(rng.integers(1, min_len))
    child_a = _bred_genome(a.codons[:cut] + b.codons[cut:], a.codon_max)
    child_b = _bred_genome(b.codons[:cut] + a.codons[cut:], a.codon_max)
    return child_a, child_b


def mutate(g: Genome, rate: float, rng: np.random.Generator) -> Genome:
    """Each codon independently redrawn uniformly with probability ``rate``.

    Always consumes the same amount of randomness for a given length, so
    downstream draws do not depend on which codons happened to mutate.
    """
    n = len(g)
    mask = rng.random(n) < rate
    redraws = rng.integers(0, g.codon_max, size=n)
    hits = mask.nonzero()[0]
    if not hits.size:
        return g
    codons = list(g.codons)
    for i, codon in zip(hits.tolist(), redraws[hits].tolist()):
        codons[i] = codon
    return _bred_genome(tuple(codons), g.codon_max)


def _inherit(parent: Individual, child: Genome) -> Optional[Individual]:
    """``parent``'s scoring carried over to ``child``, or None if it may not be.

    The mod rule reads codons from the front and never reads past
    ``codons_used``, and a mapping that used fewer codons than its genome
    holds did not wrap.  A child that keeps those codons therefore maps to
    the parent's status, phenotype and ``codons_used``, whatever follows
    them, and scores the same.  ``codons_used == len(genome)`` is left out:
    with ``max_wraps=0`` an INVALID_WRAPS mapping reports that count too,
    and a longer child need not run out.  The parent must have been scored
    under the same grammar, dataset and limits as the child would be.
    """
    used = parent.codons_used
    codons = parent.genome.codons
    if used < len(codons) and child.codons[:used] == codons[:used]:
        return Individual(child, parent.phenotype, parent.expr,
                          parent.fitness, parent.valid, used)
    return None


def _record_generation(
    generation: int, population: list[Individual],
) -> tuple[GenerationRecord, Individual]:
    """The generation's record and its best individual, the earliest of
    equally fit ones."""
    best = population[0]
    for individual in population[1:]:
        if individual.fitness < best.fitness:
            best = individual
    valid_fitnesses = [i.fitness for i in population if i.valid]
    if valid_fitnesses:
        mean = sum(valid_fitnesses) / len(valid_fitnesses)
    else:
        mean = WORST_FITNESS
    record = GenerationRecord(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=mean,
        invalid_count=sum(1 for i in population if not i.valid),
        best_phenotype=best.phenotype or "",
    )
    return record, best


def evolve(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    progress_sink: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    """Run the full generational loop and return the best-ever individual.

    ``history`` holds one record per generation, the first being the freshly
    initialized population; ``generations`` records means ``generations - 1``
    breeding rounds.

    Each distinct phenotype is parsed and scored once per call: the run
    keeps one phenotype-keyed memo, holding one entry per distinct
    phenotype, and drops it on return.  A bred child that keeps every codon
    its parent's mapping read is not mapped again (see :func:`_inherit`).

    A KeyboardInterrupt after generation 0 is recorded becomes
    :class:`RunInterrupted`, carrying a RunResult of the generations
    recorded so far and the best individual found in them.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot evolve against an empty dataset")
    start = time.perf_counter()
    rng = np.random.default_rng(config.rng_seed)

    memo: dict[str, Score] = {}
    population = init_population(config, grammar, dataset, rng, memo=memo)
    # (record, best individual up to and including it), one per generation,
    # appended in one step so an interrupt never splits the pair
    recorded: list[tuple[GenerationRecord, Individual]] = []
    best_ever: Optional[Individual] = None

    try:
        for generation in range(config.generations):
            record, best = _record_generation(generation, population)
            # strictly lower, so the earliest of equally fit individuals stays
            if best_ever is None or best.fitness < best_ever.fitness:
                best_ever = best
            recorded.append((record, best_ever))
            if progress_sink is not None:
                progress_sink(record)
            if generation == config.generations - 1:
                break
            population = _breed(population, config, grammar, dataset, rng, memo)
    except KeyboardInterrupt:
        if not recorded:
            raise
        raise RunInterrupted(_run_result(recorded, start, config)) from None
    return _run_result(recorded, start, config)


def _breed(
    population: list[Individual],
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
    memo: dict[str, Score],
) -> list[Individual]:
    """One breeding round: elites, then selected, crossed and mutated
    children until the population is full."""
    # stable sort keeps the earliest of equally fit individuals in front
    elites = sorted(population, key=lambda i: i.fitness)[: config.elitism_count]
    offspring: list[Individual] = list(elites)
    while len(offspring) < config.population_size:
        parent_a = tournament_select(population, config.tournament_size, rng)
        parent_b = tournament_select(population, config.tournament_size, rng)
        children = crossover(
            parent_a.genome, parent_b.genome, config.crossover_rate, rng
        )
        # each child takes its prefix from the parent in the same place
        for parent, child in zip((parent_a, parent_b), children):
            if len(offspring) >= config.population_size:
                break
            mutated = mutate(child, config.mutation_rate, rng)
            individual = _inherit(parent, mutated)
            if individual is None:
                individual = score_genome(mutated, grammar, dataset,
                                          config.max_wraps, config.max_depth,
                                          memo=memo)
            offspring.append(individual)
    return offspring


def _run_result(
    recorded: list[tuple[GenerationRecord, Individual]],
    start: float,
    config: EvolutionConfig,
) -> RunResult:
    return RunResult(
        best=recorded[-1][1],
        history=tuple(record for record, _ in recorded),
        elapsed_seconds=time.perf_counter() - start,
        config_echo=config,
    )
