"""Generational evolutionary loop over genomes.

Randomness discipline: one seeded numpy Generator drives every stochastic
decision in a fixed order.  First population init (with its invalidity
re-draws), then per breeding pair: two tournaments of k index draws, the
crossover double and, below the rate, the cut, then per child n mutation
doubles and n codon redraws.  Fitness, scored in :mod:`.evaluation`,
never touches the stream, so results cannot depend on evaluation order.

Initialization draws its genomes a block of rows per ``integers`` call,
never more rows than genomes left to fill, each of which takes a row or
more: every row drawn is used (see :func:`_random_genome`).  The
generator is a PCG64, and a breeding round reads its draws from raw
words as numpy would: the same children, and the same generator state
after the round, as calling :func:`tournament_select`, :func:`crossover`
and :func:`mutate` draw by draw (see :meth:`RunState.step`).  From
the first block that cannot be read so, the rest of the round is drawn
through the Generator call by call (see :func:`_drawn_call_by_call`).

A run is a :class:`RunState`: its generator, its population as a codon
matrix, one row per genome in the narrowest unsigned dtype that holds
``codon_max - 1``, three score columns, the run's scoring state and the
generations recorded so far.  :func:`evolve` builds one and steps it.
Children are cut, mutated and judged for inheritance on rows, and a
genome is mapped straight from its row (see :func:`_score_row`): no
``Genome`` tuple is made for a mapped child.  One is built only for the
best individual and for the result.  The phenotype memo holds fitness
alone; a run keeps only its fittest phenotype's parse tree.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import primes
from .errors import (
    ConfigError,
    DegenerateLength,
    FormulaSyntaxError,
    LimitTooLarge,
    RunInterrupted,
    as_integer,
    check_types,
    shown,
)
from .evaluation import WORST_FITNESS, EvalBuffers, fitness_mse
from .expr import ExprNode, parse_formula
from .grammar import Grammar
from .mapping import Genome, _bred_genome, _codons_of, map_genome
from .primes import Dataset

__all__ = ["EvolutionConfig", "GenerationRecord", "Individual", "RunResult",
           "RunState", "crossover", "evolve", "mutate", "score_genome",
           "tournament_select"]

@dataclass(frozen=True)
class Individual:
    """One scored genome.  valid ⇔ mapping succeeded and fitness is finite."""

    genome: Genome
    phenotype: Optional[str]
    expr: Optional[ExprNode]
    fitness: float
    valid: bool
    codons_used: int


def _check_rate(value, name: str) -> None:
    """ConfigError unless ``value`` is a real number in [0, 1], not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {shown(value)}")
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")


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
        for f in fields(self):
            if type(f.default) is int:
                object.__setattr__(self, f.name,
                                   as_integer(getattr(self, f.name), f.name))
        for lowest, kind, names in (
                (1, "positive", ("population_size", "generations",
                                 "genome_length", "codon_max", "max_depth",
                                 "tournament_size")),
                (0, "non-negative", ("max_wraps", "elitism_count",
                                     "invalid_retries"))):
            for field_name in names:
                value = getattr(self, field_name)
                if value < lowest:
                    raise ConfigError(
                        f"{field_name} must be {kind}, got {value}")
        for field_name in ("crossover_rate", "mutation_rate"):
            _check_rate(getattr(self, field_name), field_name)
        if self.codon_max > 2**63:
            # codons are drawn as numpy int64 values below codon_max
            raise ConfigError(
                f"codon_max must be at most 2**63, got {self.codon_max}")
        if self.tournament_size > self.population_size:
            raise ConfigError("tournament_size cannot exceed population_size")
        if self.elitism_count > self.population_size:
            raise ConfigError("elitism_count cannot exceed population_size")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError("rng_seed must fit in 64 unsigned bits")


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


class _RowGenome:
    """What :func:`map_genome` reads of a genome: ``codons``, here a row's
    memoryview, read in place, so it is mapped before the row is written
    again and dropped after."""

    __slots__ = ("codons",)

    def __init__(self, codons):
        self.codons = codons


def _parsed(phenotype: Optional[str]) -> Optional[ExprNode]:
    """The expression of ``phenotype``; None if there is none or it does
    not parse (a grammar whose language is not formula syntax, or nesting
    past the parser's limit)."""
    try:
        return None if phenotype is None else parse_formula(phenotype)
    except FormulaSyntaxError:
        return None


def _score_row(
    codons: Sequence[int],
    grammar: Grammar,
    dataset: Dataset,
    max_wraps: int,
    max_depth: int,
    memo: dict[str, float],
    buffers: Optional[EvalBuffers],
) -> tuple:
    """Map and score the genome of ``codons``, a sequence of ints:
    ``(phenotype, fitness, codons_used, expr)``.  A phenotype not in
    ``memo`` is parsed, scored and added, and ``expr`` is its tree; on a
    memo hit ``expr`` is None (see :func:`score_genome`)."""
    result = map_genome(grammar, _RowGenome(codons), max_wraps=max_wraps,
                        max_depth=max_depth)
    if not result.valid:
        return None, WORST_FITNESS, result.codons_used, None
    phenotype = result.phenotype
    if phenotype in memo:
        return phenotype, memo[phenotype], result.codons_used, None
    expr = _parsed(phenotype)
    memo[phenotype] = fitness = (
        WORST_FITNESS if expr is None
        else fitness_mse(expr, dataset, buffers=buffers))
    return phenotype, fitness, result.codons_used, expr


def score_genome(
    genome: Genome,
    grammar: Grammar,
    dataset: Dataset,
    max_wraps: int,
    max_depth: int,
    *,
    memo: Optional[dict[str, float]] = None,
) -> Individual:
    """Map, parse, and score one genome into an Individual.

    ``memo`` maps phenotype text to its fitness.  A phenotype found there
    is parsed but not scored again; one that is not is scored and added.
    Fitness is a pure function of the phenotype and the dataset, so the
    memo must only be shared between calls that score against the same
    dataset.  The phenotype is evaluated in new buffers; a run uses its
    own (see :class:`RunState`).
    """
    memo = {} if memo is None else memo
    check_types(("memo", memo, dict))
    phenotype, fitness, codons_used, expr = _score_row(
        _codons_of(genome), grammar, dataset, max_wraps, max_depth, memo, None)
    return Individual(genome, phenotype,
                      _parsed(phenotype) if expr is None else expr, fitness,
                      fitness != WORST_FITNESS, codons_used)


def _random_genome(rng: np.random.Generator, config: EvolutionConfig,
                   block: list, left: int) -> np.ndarray:
    """The next codon row, as one ``rng.integers(0, codon_max,
    size=genome_length)`` call per row draws it: ``block`` holds the rows
    drawn and not yet taken, the next one last, and one call fills an
    empty one with at most ``left`` rows, all taken if ``left`` are."""
    if not block:
        rows = min(left, max(1, _BLOCK_BYTES // (8 * config.genome_length)))
        block.extend(rng.integers(0, config.codon_max,
                                  size=(rows, config.genome_length))[::-1])
    return block.pop()


def tournament_select(
    population: list[Individual],
    k: int,
    rng: np.random.Generator,
) -> Individual:
    """k uniform draws with replacement; minimal fitness wins, earliest draw
    breaks ties.  A drawn member that is not an Individual is a
    ConfigError, raised after the draw."""
    check_types(("population", population, Sequence))
    k = as_integer(k, "tournament size")
    if not population:
        raise ConfigError("cannot select from an empty population")
    if k < 1 or k > len(population):
        raise ConfigError("tournament size must lie in [1, population size]")
    check_types(("rng", rng, np.random.Generator))
    drawn = [population[i]
             for i in rng.integers(0, len(population), size=k).tolist()]
    # the drawn members only: checking all would cost each tournament the
    # population's length
    check_types(*(("population member", member, Individual)
                  for member in drawn))
    return min(drawn, key=lambda c: c.fitness)


def _crossover_cut(n: int, rate: float, rng: np.random.Generator) -> int:
    """The cut of two genomes of ``n`` codons crossed with probability
    ``rate``, ``n`` if not crossed: a double and, below the rate, the cut.
    Genomes too short to cut draw nothing and warn DegenerateLength at the
    line outside this module that led here: the call of :func:`crossover`,
    :func:`evolve` or :meth:`RunState.step`."""
    if n < 2:
        frame, level = sys._getframe(1), 2
        while frame.f_globals is globals():
            frame, level = frame.f_back, level + 1
        warnings.warn("genomes too short for crossover", DegenerateLength,
                      stacklevel=level)
        return n
    return int(rng.integers(1, n)) if rng.random() < rate else n


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
    check_types(("a", a, Genome), ("b", b, Genome),
                ("rng", rng, np.random.Generator))
    _check_rate(rate, "rate")
    if a.codon_max != b.codon_max:
        raise ConfigError("parents must share codon_max")
    n = min(len(a), len(b))
    cut = _crossover_cut(n, rate, rng)
    if cut == n:
        return a, b
    child_a = _bred_genome(a.codons[:cut] + b.codons[cut:], a.codon_max)
    child_b = _bred_genome(b.codons[:cut] + a.codons[cut:], a.codon_max)
    return child_a, child_b


def _mutation_draw(n: int, rate: float, codon_max: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The columns a genome of ``n`` codons redraws, each with probability
    ``rate``, and their new codons: n doubles, then n codons below
    ``codon_max`` whether they are hit or not."""
    hits = np.flatnonzero(rng.random(n) < rate)
    return hits, rng.integers(0, codon_max, size=n)[hits]


def mutate(g: Genome, rate: float, rng: np.random.Generator) -> Genome:
    """Each codon independently redrawn uniformly with probability ``rate``.

    Always consumes the same amount of randomness for a given length, so
    downstream draws do not depend on which codons happened to mutate.
    """
    check_types(("g", g, Genome), ("rng", rng, np.random.Generator))
    _check_rate(rate, "rate")
    hits, redraws = _mutation_draw(len(g), rate, g.codon_max, rng)
    if not hits.size:
        return g
    codons = list(g.codons)
    for i, codon in zip(hits.tolist(), redraws.tolist()):
        codons[i] = codon
    return _bred_genome(tuple(codons), g.codon_max)


def _inherits(children: np.ndarray, parents: np.ndarray,
              used: np.ndarray) -> np.ndarray:
    """Which rows of ``children`` carry over the scoring of the same row of
    ``parents``, whose mappings read ``used`` codons: those that keep every
    column read.

    The mod rule reads codons from the front and never reads past
    ``codons_used``, and a mapping that used fewer codons than its genome
    holds did not wrap.  A child that keeps those codons therefore maps to
    the parent's status, phenotype and ``codons_used``, whatever follows
    them, and scores the same.  A mapping that wrapped, or reports
    ``codons_used == len(genome)``, counts every column as read, so only a
    row equal to its parent's inherits, and an equal genome maps the same.
    The parents must have been scored under the same grammar, dataset and
    limits as the children would be.
    """
    read = np.arange(children.shape[1]) < used[:, None]
    return ~((children != parents) & read).any(axis=1)


class RunState:
    """A run of the generational loop, one generation at a time.

    Building it checks its arguments, seeds the run's generator, a PCG64,
    with ``config.rng_seed``, and draws, scores and records generation 0.
    Each :meth:`step` breeds, scores and records the next generation, and
    :meth:`result` returns the generations recorded so far.

    The population is rows: row i of the ``codons`` matrix is a genome, in
    the narrowest unsigned dtype that holds ``codon_max - 1``, and row i of
    the score columns ``phenotype``, ``fitness`` (float64) and
    ``codons_used`` (int64) holds its scoring.  A row is valid if its
    fitness is not ``WORST_FITNESS``.  ``scoring`` is :func:`_score_row`'s
    arguments after the row: grammar, dataset, ``max_wraps``,
    ``max_depth``, the phenotype memo, from phenotype text to fitness, and
    the run's one set of evaluation buffers.  ``fittest`` holds the run's
    one parse tree: (phenotype, fitness, tree) of the fittest phenotype it
    has parsed, which each new best individual is (see :meth:`individual`;
    any other row is parsed again).  ``recorded`` holds a
    (record, best individual up to and including it) pair per generation,
    each appended in one step, so an interrupt never splits a pair; a step
    interrupted before its record leaves the population partly bred.

    A population whose codon matrix and score columns would not fit in
    physical memory raises LimitTooLarge before anything is allocated.
    """

    def __init__(self, config: EvolutionConfig, grammar: Grammar,
                 dataset: Dataset):
        check_types(("config", config, EvolutionConfig),
                    ("grammar", grammar, Grammar),
                    ("dataset", dataset, Dataset))
        size, dtype = (config.population_size,
                       np.min_scalar_type(config.codon_max - 1))
        # a codon row, then fitness, codons_used and a phenotype reference
        needed = size * (config.genome_length * dtype.itemsize + 24)
        memory = primes._physical_memory_bytes()
        if memory is not None and needed > memory:
            raise LimitTooLarge(
                f"a population of {size} genomes of {config.genome_length} "
                f"codons needs {needed} bytes, more than the {memory} bytes "
                "of physical memory")
        self.config = config
        # what default_rng builds; breeding rounds read PCG64's raw words
        self.rng = np.random.Generator(np.random.PCG64(config.rng_seed))
        self.codons = np.empty((size, config.genome_length), dtype)
        self.phenotype: list[Optional[str]] = [None] * size
        self.fitness = np.empty(size)
        self.codons_used = np.empty(size, np.int64)
        self.scoring = (grammar, dataset, config.max_wraps, config.max_depth,
                        {}, EvalBuffers(dataset.xs.shape))
        self.recorded: list[tuple[GenerationRecord, Individual]] = []
        self.fittest: tuple = None, WORST_FITNESS, None
        # uniform random genomes, each drawn into its row and scored; an
        # invalid draw is retried over the one before it a bounded number of
        # times and then kept as-is with worst fitness
        block = []
        for row in range(size):
            for _attempt in range(config.invalid_retries + 1):
                # this genome and each after it take a row at least
                self.codons[row] = _random_genome(self.rng, config, block,
                                                  size - row)
                self._score(row)
                if self.fitness[row] != WORST_FITNESS:
                    break
        self._record()

    def _score(self, row: int) -> None:
        phenotype, fitness, self.codons_used[row], expr = _score_row(
            memoryview(self.codons[row]), *self.scoring)
        self.phenotype[row], self.fitness[row] = phenotype, fitness
        if expr is not None and fitness < self.fittest[1]:
            self.fittest = phenotype, fitness, expr

    def individual(self, row: int) -> Individual:
        """The population's row ``row``, in ``[0, population_size)``, as an
        Individual."""
        row = as_integer(row, "row")
        if not 0 <= row < len(self.codons):
            raise ConfigError(
                f"row must lie in [0, {len(self.codons)}), got {row}")
        genome = _bred_genome(tuple(self.codons[row].tolist()),
                              self.config.codon_max)
        phenotype, fitness = self.phenotype[row], self.fitness.item(row)
        fittest, _, tree = self.fittest
        expr = tree if phenotype == fittest else _parsed(phenotype)
        return Individual(genome, phenotype, expr, fitness,
                          fitness != WORST_FITNESS, self.codons_used.item(row))

    def individuals(self) -> list[Individual]:
        return [self.individual(row) for row in range(len(self.codons))]

    def _record(self) -> GenerationRecord:
        """Record the population as the next generation and return its
        record; its best row is the earliest of equally fit ones."""
        fitness = self.fitness
        best = int(fitness.argmin())
        # Python's left-to-right sum over the valid rows, in row order
        valid = fitness[fitness != WORST_FITNESS].tolist()
        mean = sum(valid) / len(valid) if valid else WORST_FITNESS
        record = GenerationRecord(len(self.recorded), fitness.item(best), mean,
                                  len(fitness) - len(valid),
                                  self.phenotype[best] or "")
        best_ever = self.recorded[-1][1] if self.recorded else None
        # strictly lower, so the earliest of equally fit individuals stays
        if best_ever is None or record.best_fitness < best_ever.fitness:
            best_ever = self.individual(best)
        self.recorded.append((record, best_ever))
        return record

    def result(self, elapsed_seconds: float) -> RunResult:
        """The RunResult of the generations recorded so far, which took
        ``elapsed_seconds``, a finite non-negative real number."""
        if (not isinstance(elapsed_seconds, numbers.Real)
                or isinstance(elapsed_seconds, bool)
                or not 0 <= elapsed_seconds < math.inf):
            raise ConfigError("elapsed_seconds must be a non-negative real "
                              f"number, got {shown(elapsed_seconds)}")
        return RunResult(best=self.recorded[-1][1],
                         history=tuple(record for record, _ in self.recorded),
                         elapsed_seconds=elapsed_seconds,
                         config_echo=self.config)

    def step(self) -> GenerationRecord:
        """Breed the next generation, score and record it, and return its
        record.

        A round is elites, then the children that the breeding operators
        draw call by call from the population, until it is full.  The
        round's draws are read from raw blocks (see :func:`_raw_block`)
        until one cannot be, and the rest of the round is drawn through the
        Generator call by call (see :func:`_drawn_call_by_call`); either
        way the generator is left as the operators leave it.  A child is
        its parent's row before its cut and the other parent's from there
        on, with its mutation hits placed over them.  A child that does not
        inherit its parent's scoring (see :func:`_inherits`) is mapped from
        its row in place.
        """
        config, rng, codons, fitness = (self.config, self.rng, self.codons,
                                        self.fitness)
        size, k, n = len(codons), config.tournament_size, config.genome_length
        # stable, so the earliest of equally fit individuals leads
        elites = np.argsort(fitness, kind="stable")[: config.elitism_count]
        count = size - len(elites)
        # an empty block first, so a round of elites only concatenates it
        blocks, done = [(np.empty(0, np.uint64), np.empty(0, np.int64),
                         np.empty((3, 0), np.int64))], 0
        while done < count:
            block = (_raw_block(rng, config, size, count - done)
                     or _drawn_call_by_call(rng, config, size, count - done))
            # the block's children, numbered in the round
            block[2][0] += done
            blocks.append(block)
            done += 2 * len(block[1])
        drawn, cuts, (child, col, value) = (np.concatenate(part, axis=-1)
                                            for part in zip(*blocks))

        # the earliest of the fittest draws wins each tournament
        drawn = drawn.astype(np.int64).reshape(-1, k)
        winners = drawn[np.arange(len(drawn)), fitness[drawn].argmin(axis=1)]
        parent = winners[:count]
        other = winners.reshape(-1, 2)[:, ::-1].ravel()[:count]
        rows = np.concatenate((elites, parent))
        self.codons = codons.take(rows, axis=0)
        self.phenotype = [self.phenotype[row] for row in rows.tolist()]
        self.fitness, self.codons_used = fitness[rows], self.codons_used[rows]
        out = self.codons[len(elites):]
        # the narrowest integers compare fastest
        columns = np.arange(n, dtype=np.min_scalar_type(n))
        cut = np.repeat(cuts, 2)[:count].astype(columns.dtype)
        # the other parent's codons from the cut on, a few rows at a time
        batch = max(1, _BLOCK_BYTES // (codons.itemsize * n))
        tails = np.empty((batch, n), codons.dtype)
        for start in range(0, count, batch):
            chunk = slice(start, start + batch)
            chunk_tails = tails[: len(out[chunk])]
            np.take(codons, other[chunk], axis=0, out=chunk_tails, mode="clip")
            np.copyto(out[chunk], chunk_tails,
                      where=columns >= cut[chunk, None])
        out[child, col] = value
        # only a child cut or hit inside its parent's read prefix may differ
        # from it there
        read = self.codons_used[len(elites):]
        judged = cut < read
        judged[child[col < read[child]]] = True
        judged = np.flatnonzero(judged)
        width = min(n, read[judged].max(initial=0))
        inherits = _inherits(out[judged, :width],
                             codons[parent[judged], :width], read[judged])
        for row in (judged[~inherits] + len(elites)).tolist():
            self._score(row)
        return self._record()


def evolve(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    progress_sink: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    """Run the full generational loop and return the best-ever individual.

    ``history`` holds one record per generation, the first being the freshly
    initialized population; ``generations`` records means ``generations - 1``
    breeding rounds.  The run is one :class:`RunState`, stepped once per
    round, and ``progress_sink`` gets each record as it is made.

    Each distinct phenotype is parsed and scored once per call: the run
    keeps one phenotype-keyed memo, holding the fitness of each distinct
    phenotype, and one set of evaluation buffers for the dataset, and drops
    both on return.  A bred child that keeps every codon its parent's
    mapping read is not mapped again (see :func:`_inherits`).

    A KeyboardInterrupt after generation 0 is recorded becomes
    :class:`RunInterrupted`, carrying a RunResult of the generations
    recorded so far and the best individual found in them.
    """
    check_types(("config", config, EvolutionConfig),
                ("grammar", grammar, Grammar), ("dataset", dataset, Dataset))
    if progress_sink is not None and not callable(progress_sink):
        raise ConfigError("progress_sink must be None or callable, not "
                          f"{type(progress_sink).__name__}")
    start = time.perf_counter()
    state = RunState(config, grammar, dataset)
    try:
        for generation in range(config.generations):
            record = state.step() if generation else state.recorded[0][0]
            if progress_sink is not None:
                progress_sink(record)
    except KeyboardInterrupt:
        raise RunInterrupted(
            state.result(time.perf_counter() - start)) from None
    return state.result(time.perf_counter() - start)


# bytes of the genomes drawn at once at initialization, of a raw block of
# breeding draws and of the crossover tails copied at once (75 genomes, 24
# pairs or 150 uint32 rows at 200 codons): glibc's malloc maps new pages,
# each faulted in on first touch, for any request of 128 KiB or more
_BLOCK_BYTES = 120_000


def _drawn_call_by_call(rng: np.random.Generator, config: EvolutionConfig,
                        size: int, count: int) -> tuple:
    """The draws of ``count`` children bred from a population of ``size``,
    drawn through ``rng`` as :func:`tournament_select`, :func:`crossover`
    and :func:`mutate` draw them: the tournament draws, each pair's cut
    (``genome_length`` if not crossed) and the ``(child, column, codon)``
    rows of the hits."""
    k, n = config.tournament_size, config.genome_length
    drawn, cuts, hits = [], [], []
    for child in range(count):
        if not child & 1:
            drawn += rng.integers(0, size, size=2 * k).tolist()
            cuts.append(_crossover_cut(n, config.crossover_rate, rng))
        columns, codons = _mutation_draw(n, config.mutation_rate,
                                         config.codon_max, rng)
        hits += zip([child] * len(columns), columns.tolist(), codons.tolist())
    return (np.array(drawn, np.uint64), np.array(cuts, np.int64),
            np.array(hits, np.int64).reshape(-1, 3).T)


def _raw_block(rng: np.random.Generator, config: EvolutionConfig, size: int,
               count: int) -> Optional[tuple]:
    """The draws of the next whole pairs of ``count`` children bred from a
    population of ``size``, as :func:`_drawn_call_by_call` returns them,
    read from raw words of a PCG64 ``rng``, which is left where drawing
    them call by call leaves it.  None, with ``rng`` untouched, if the
    positions do not cover the round (genomes of one codon, a population
    of one, or codon_max 1 or above 2**32) or if Lemire rejects one of the
    block's tournament or cut draws.

    Integer arithmetic on positions places the draws, one Python step per
    child, and numpy reads the values there.  Per pair, ``row`` holds the
    first of its tournaments' 2k halves in a row (-1: the one buffered
    before the block) and its cut, then per child ``(d, q, lead, last)``.
    Its n mutation doubles are words ``d`` to ``d + n - 1``.  Half
    ``last`` is buffered before its codon draws; ``lead`` is 1 if Lemire
    keeps it, and then it is the first draw.  Each later draw is the
    block's next accepted half, from the one of rank ``q``: the accepted
    half of rank j is half ``j + bisect_right(ranks, j)``.  A missing
    second child is zeros.
    """
    k, n, r = config.tournament_size, config.genome_length, config.codon_max
    if not (2 <= n <= 2**32 and 1 < size < 2**32 and 1 < r <= 2**32):
        return None
    # a codon draw is Lemire's on a half, rejected below the threshold
    threshold = 2**32 % r
    cut_below = math.ceil(config.crossover_rate * 2.0**53)
    # a hit's double is below the rate: its word is at most hit_max
    hit_below = math.ceil(config.mutation_rate * 2.0**53)
    hit_max = np.uint64(max(hit_below << 11, 1) - 1)
    # words a pair takes, codon draws rejected at their expected rate
    codon_words = math.ceil(n / 2 / (1 - threshold / 2**32)) + 1
    pair_words = k + 2 + 2 * (n + codon_words)
    pairs = min(max(1, _BLOCK_BYTES // (8 * pair_words)), (count + 1) // 2)
    span, cut_threshold = n - 1, 2**32 % (n - 1)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    words = bit_generator.random_raw(pairs * pair_words + 16)
    while True:
        m = len(words)
        # the halves in draw order on either byte order
        halves = words.astype("<u8", copy=False).view("<u4")
        # the halves a redraw rejects
        rejected = (np.flatnonzero(halves * np.uint32(r) < threshold)
                    .tolist() if threshold else [])
        ranks = [half - j for j, half in enumerate(rejected)]
        rejects = set(rejected)
        p, has, last, row = 0, state["has_uint32"], -1, []
        for child in range(min(2 * pairs, count)):
            if not child & 1:
                mark = p, has, last, len(row)
                # 2k halves from the buffered one, if any, which is the one
                # before the next word's; the same state follows them
                start = 2 * p - has
                p += k
                last, cut = 2 * p - 1, n
                # a crossover word at the block's end leaves the pair past it
                crossed = p + 1 < m and words.item(p) >> 11 < cut_below
                p += 1
                if crossed and n == 2:
                    cut = 1
                elif crossed:
                    if has:
                        half, has = last, 0
                    else:
                        half, p = 2 * p, p + 1
                        last, has = half + 1, 1
                    product = halves.item(half) * span
                    if product & 0xFFFFFFFF < cut_threshold:
                        bit_generator.state = state
                        return None
                    cut = 1 + (product >> 32)
                row += (start, cut)
            d = p
            p += n
            lead = has and last not in rejects
            first = 2 * p
            q = first - bisect_left(rejected, first)
            # one past the half of the last redraw
            end = q + n - lead + bisect_right(ranks, q + span - lead)
            row += (d, q, lead, last)
            p = (end + 1) >> 1
            has, last = end & 1, 2 * p - 1
            if p > m:
                p, has, last, length = mark
                del row[length:]
                break
        if row:
            break
        # too small for one pair: draw on to twice the length
        words = np.concatenate((words, bit_generator.random_raw(m)))
    row = np.array(row + [0] * (len(row) % 10 and 4), np.int64)
    row = row.reshape(-1, 10)
    drawn = halves[row[:, :1] + np.arange(2 * k)]
    if row[0, 0] < 0:
        drawn[0, 0] = state["uinteger"]
    # the low half of half * size, below 2**32 % size if rejected
    if (drawn * np.uint32(size) < 2**32 % size).any():
        bit_generator.state = state
        return None
    drawn = drawn.ravel().astype(np.uint64) * np.uint64(size) >> np.uint64(32)
    d, q, leads, buffered = row[:, 2:].reshape(-1, 4)[:count].T
    # each hit word's child, by the last mutation window opened before it
    start = d.item(0)
    hit = (np.flatnonzero(words[start:d.item(-1) + n] <= hit_max) + start
           if hit_below else d[:0])
    child = np.searchsorted(d, hit, side="right") - 1
    col = hit - d[child]
    inside = col < n
    child, col = child[inside], col[inside]
    # the hit's accepted rank, then its half (a buffered hit reads a
    # stand-in half and is replaced)
    lead = leads[child]
    rank = q[child] + col - lead
    if ranks:
        rank += np.searchsorted(ranks, rank, side="right")
    values = halves[rank].astype(np.uint64)
    lead = col < lead
    values[lead] = halves[buffered[child[lead]]]
    # the high half of half * r
    values = (values * np.uint64(r) >> np.uint64(32)).astype(np.int64)
    # step back over the unread words, which drops the buffered half, and
    # set the half buffered after the block
    bit_generator.advance(p - m)
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = has, halves.item(last)
    bit_generator.state = state
    return drawn, row[:, 1], np.stack((child, col, values))

