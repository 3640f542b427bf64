"""Generational evolutionary loop over genomes.

Randomness discipline: one seeded numpy Generator drives every stochastic
decision in a fixed order.  First population init (with its invalidity
re-draws), then per breeding pair: two tournaments of k index draws, the
crossover double and, below the rate, the cut, then per child n mutation
doubles and n codon redraws.  Fitness evaluation never touches the
stream, so results cannot depend on evaluation order.

Initialization draws its genomes a block of rows per ``integers`` call
and steps back over the rows it did not use (see :func:`_genome_draws`).
The generator is a PCG64, and a breeding round reads its draws from raw
words as numpy would (see :func:`_replayed_children`): the same children,
and the same generator state after the round, as calling
:func:`tournament_select`, :func:`crossover` and :func:`mutate` draw by
draw.  Integer arithmetic on positions places each block's draws, one
Python step per child, and numpy reads the values there.  A block whose
tournament or cut draw Lemire rejects, and every block of a round the
positions do not cover, is drawn through the Generator call by call
instead (see :func:`_drawn_call_by_call`).

Inside :func:`evolve` a population is a codon matrix, one row per genome
in the narrowest unsigned dtype that holds ``codon_max - 1``, three score
columns and the run's scoring state, which each population hands to the
next (see :class:`_Population`).  Children are cut, mutated and judged
for inheritance on rows, and a genome is mapped straight from its row
(see :func:`_score_row`): no ``Genome`` tuple is made for a mapped
child.  One is built only for the best individual and for the result.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Generator, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateLength,
    EmptyDataset,
    FormulaSyntaxError,
    RunInterrupted,
    as_integer,
)
from .expr import EvalBuffers, ExprNode, _evaluate_into, parse_formula
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
            value = getattr(self, field_name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{field_name} must be a real number, "
                                  f"got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{field_name} must lie in [0, 1], got {value}")
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


def fitness_mse(
    expr: ExprNode,
    dataset: Dataset,
    *,
    buffers: Optional[EvalBuffers] = None,
) -> float:
    """Mean squared error over the dataset; WORST_FITNESS if non-finite.

    The predictions, residuals and their squares are computed in
    ``buffers``, made for arrays the shape of ``dataset.xs``, or in new
    ones if it is None; the dataset itself is only read.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot score against an empty dataset")
    if buffers is None:
        buffers = EvalBuffers(dataset.xs.shape)
    elif buffers.shape != dataset.xs.shape:
        raise ConfigError(f"buffers of shape {buffers.shape} cannot score "
                          f"{len(dataset)} points")
    with np.errstate(all="ignore"):
        predictions = _evaluate_into(expr, dataset.xs, buffers)
        # slot 0 holds the predictions or is free
        residuals = np.subtract(predictions, dataset.ys, out=buffers.slot(0))
        np.multiply(residuals, residuals, out=residuals)
        # np.mean's own sum and division, without its dispatch
        mse = float(np.add.reduce(residuals)) / residuals.size
    return mse if math.isfinite(mse) else WORST_FITNESS


class _RowGenome:
    """What :func:`map_genome` reads of a genome: ``codons``, here a row's
    memoryview, read in place, so it is mapped before the row is written
    again and dropped after."""

    __slots__ = ("codons",)

    def __init__(self, codons):
        self.codons = codons


def _score_row(
    codons: Sequence[int],
    grammar: Grammar,
    dataset: Dataset,
    max_wraps: int,
    max_depth: int,
    memo: dict[str, Score],
    buffers: Optional[EvalBuffers],
) -> tuple:
    """Map, parse and score the genome of ``codons``, a sequence of ints:
    ``(phenotype, expr, fitness, valid, codons_used)``, the fields of its
    :class:`Individual` but the genome (see :func:`score_genome`)."""
    result = map_genome(grammar, _RowGenome(codons), max_wraps=max_wraps,
                        max_depth=max_depth)
    if not result.valid:
        return None, None, WORST_FITNESS, False, result.codons_used
    phenotype = result.phenotype
    scored = memo.get(phenotype)
    if scored is None:
        try:
            expr = parse_formula(phenotype)
        except FormulaSyntaxError:
            # reachable with grammars whose language is not formula
            # syntax, and with phenotypes nested past the parser's limit
            scored = None, WORST_FITNESS, False
        else:
            fitness = fitness_mse(expr, dataset, buffers=buffers)
            scored = expr, fitness, fitness != WORST_FITNESS
        memo[phenotype] = scored
    return (phenotype, *scored, result.codons_used)


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
    against the same dataset.  The phenotype is evaluated in new buffers;
    inside :func:`evolve` the run's own are used (see :class:`_Population`).
    """
    return Individual(genome, *_score_row(
        genome.codons, grammar, dataset, max_wraps, max_depth,
        {} if memo is None else memo, None))


def _random_genome(draws: Iterator[np.ndarray], row: np.ndarray
                   ) -> np.ndarray:
    """``row``, holding the next codon row of ``draws`` (see
    :func:`_genome_draws`)."""
    row[:] = next(draws)
    return row


def tournament_select(
    population: list[Individual],
    k: int,
    rng: np.random.Generator,
) -> Individual:
    """k uniform draws with replacement; minimal fitness wins, earliest draw
    breaks ties."""
    if not population:
        raise ConfigError("cannot select from an empty population")
    if k < 1 or k > len(population):
        raise ConfigError("tournament size must lie in [1, population size]")
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
        raise ConfigError("parents must share codon_max")
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


@dataclass(eq=False)
class _Population:
    """A population as rows: row i of the ``codons`` matrix is a genome, in
    the narrowest unsigned dtype that holds ``codon_max - 1``, and row i of
    the score columns holds its phenotype, fitness and codons used.  It is
    valid if its fitness is not ``WORST_FITNESS``, and its expression is
    the memo's for its phenotype.  ``scoring`` is the run's scoring state,
    :func:`_score_row`'s arguments after the row: grammar, dataset,
    ``max_wraps``, ``max_depth``, phenotype memo and evaluation buffers."""

    codons: np.ndarray
    codon_max: int
    scoring: tuple
    phenotype: list
    fitness: np.ndarray         # float64
    codons_used: np.ndarray     # int64

    def score(self, row: int) -> None:
        self.phenotype[row], _, self.fitness[row], _, self.codons_used[row] = (
            _score_row(memoryview(self.codons[row]), *self.scoring))

    def individual(self, row: int) -> Individual:
        genome = _bred_genome(tuple(self.codons[row].tolist()), self.codon_max)
        phenotype, fitness = self.phenotype[row], self.fitness.item(row)
        expr = None if phenotype is None else self.scoring[4][phenotype][0]
        return Individual(genome, phenotype, expr, fitness,
                          fitness != WORST_FITNESS, self.codons_used.item(row))

    def individuals(self) -> list[Individual]:
        return [self.individual(row) for row in range(len(self.codons))]


def _initial_rows(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
) -> _Population:
    """Uniform random genomes, each drawn into its row and scored; an
    invalid draw is retried over the one before it a bounded number of
    times and then kept as-is with worst fitness.  The rows are scored
    under a new scoring state: an empty memo and buffers for ``dataset``."""
    size = config.population_size
    scoring = (grammar, dataset, config.max_wraps, config.max_depth, {},
               EvalBuffers(dataset.xs.shape))
    population = _Population(
        np.empty((size, config.genome_length),
                 np.min_scalar_type(config.codon_max - 1)),
        config.codon_max, scoring, [None] * size, np.empty(size),
        np.empty(size, np.int64))
    draws = _genome_draws(config, rng)
    try:
        for row, codons in enumerate(population.codons):
            for _attempt in range(config.invalid_retries + 1):
                score = _score_row(
                    memoryview(_random_genome(draws, codons)), *scoring)
                if score[3]:
                    break
            (population.phenotype[row], _, population.fitness[row], _,
             population.codons_used[row]) = score
    finally:
        draws.close()
    return population


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


def _record_generation(
    generation: int, population: _Population,
) -> tuple[GenerationRecord, int]:
    """The generation's record and the row of its best individual, the
    earliest of equally fit ones."""
    fitness = population.fitness
    best = int(fitness.argmin())
    # Python's left-to-right sum over the valid rows, in row order
    valid = fitness[fitness != WORST_FITNESS].tolist()
    mean = sum(valid) / len(valid) if valid else WORST_FITNESS
    record = GenerationRecord(generation, fitness.item(best), mean,
                              len(fitness) - len(valid),
                              population.phenotype[best] or "")
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
    phenotype, and one set of evaluation buffers for the dataset, made
    with the first population and handed to each next one, and drops both
    on return.  A bred child that keeps every codon its parent's mapping
    read is not mapped again (see :func:`_inherits`).

    A KeyboardInterrupt after generation 0 is recorded becomes
    :class:`RunInterrupted`, carrying a RunResult of the generations
    recorded so far and the best individual found in them.
    """
    for name, value, kind in (("config", config, EvolutionConfig),
                              ("grammar", grammar, Grammar),
                              ("dataset", dataset, Dataset)):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be of type {kind.__name__}, "
                              f"not {type(value).__name__}")
    start = time.perf_counter()
    # what default_rng builds; breeding rounds read PCG64's raw words
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))
    population = _initial_rows(config, grammar, dataset, rng)
    # (record, best individual up to and including it), one per generation,
    # appended in one step so an interrupt never splits the pair
    recorded: list[tuple[GenerationRecord, Individual]] = []
    best_ever: Optional[Individual] = None

    try:
        for generation in range(config.generations):
            record, best = _record_generation(generation, population)
            # strictly lower, so the earliest of equally fit individuals stays
            if best_ever is None or record.best_fitness < best_ever.fitness:
                best_ever = population.individual(best)
            recorded.append((record, best_ever))
            if progress_sink is not None:
                progress_sink(record)
            if generation == config.generations - 1:
                break
            population = _breed(population, config, rng)
    except KeyboardInterrupt:
        if not recorded:
            raise
        raise RunInterrupted(_run_result(recorded, start, config)) from None
    return _run_result(recorded, start, config)


def _breed(
    population: _Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> _Population:
    """One breeding round: elites, then selected, crossed and mutated
    children until the population is full.  Every row of ``population``
    holds ``config.genome_length`` codons below ``config.codon_max``, and
    ``rng`` draws from a PCG64.  A child that does not inherit is mapped
    from its row in place under the population's scoring state, which the
    bred population takes over; no child's codons leave the matrix."""
    # stable, so the earliest of equally fit individuals leads
    elites = np.argsort(population.fitness, kind="stable")[
        : config.elitism_count]
    codons = np.empty_like(population.codons)
    codons[: len(elites)] = population.codons[elites]
    parents, inherits = _replayed_children(population, config, rng,
                                           codons[len(elites):])
    rows = np.concatenate((elites, parents))
    bred = _Population(codons, config.codon_max, population.scoring,
                       [population.phenotype[row] for row in rows.tolist()],
                       population.fitness[rows], population.codons_used[rows])
    for row in (np.flatnonzero(~inherits) + len(elites)).tolist():
        bred.score(row)
    return bred


# bytes of the genomes drawn at once at initialization, of a raw block of
# breeding draws and of the crossover tails copied at once (75 genomes, 24
# pairs or 150 uint32 rows at 200 codons): glibc's malloc maps new pages,
# each faulted in on first touch, for any request of 128 KiB or more
_BLOCK_BYTES = 120_000


def _genome_draws(config: EvolutionConfig, rng: np.random.Generator
                  ) -> Generator[np.ndarray, None, None]:
    """Yield codon rows as one ``rng.integers(0, codon_max,
    size=genome_length)`` call per row draws them, a block of rows per
    call: one call draws what a call per row draws.  Closing the generator
    leaves ``rng`` after the last row taken, as if drawn row by row; nothing
    else may draw from it before that."""
    shape = (max(1, _BLOCK_BYTES // (8 * config.genome_length)),
             config.genome_length)
    while True:
        state = rng.bit_generator.state
        rows, taken = rng.integers(0, config.codon_max, size=shape), 0
        try:
            for row in rows:
                taken += 1
                yield row
        finally:
            if taken < len(rows):
                # draw the rows taken again from the block's start
                rng.bit_generator.state = state
                rng.integers(0, config.codon_max, size=(taken, shape[1]))


def _drawn_call_by_call(rng: np.random.Generator, config: EvolutionConfig,
                        size: int, count: int) -> tuple:
    """The draws of ``count`` children bred from a population of ``size``,
    drawn through ``rng`` as :func:`tournament_select`, :func:`crossover`
    and :func:`mutate` draw them: per pair 2k tournament indices, the
    crossover double and, below the rate, the cut, then per child n
    mutation doubles and n codons below codon_max.

    Returns the tournament draws, each pair's cut (``genome_length`` if
    not crossed) and the ``(child, column, codon)`` rows of the hits.
    Genomes of one codon are never cut and warn ``DegenerateLength`` once
    per pair, as :func:`crossover` does."""
    k, n, r = config.tournament_size, config.genome_length, config.codon_max
    drawn, cuts, hits = [], [], [[], [], []]
    for child in range(count):
        if not child & 1:
            drawn += rng.integers(0, size, size=2 * k).tolist()
            cut = n
            if n < 2:
                warnings.warn("genomes too short for crossover",
                              DegenerateLength, stacklevel=3)
            elif rng.random() < config.crossover_rate:
                cut = int(rng.integers(1, n))
            cuts.append(cut)
        hit = np.flatnonzero(rng.random(n) < config.mutation_rate)
        redraws = rng.integers(0, r, size=n)
        hits[0] += [child] * len(hit)
        hits[1] += hit.tolist()
        hits[2] += redraws[hit].tolist()
    return (np.array(drawn, np.uint64), np.array(cuts, np.int64),
            np.array(hits, np.int64))


def _replayed_children(
    population: _Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Write into the rows of ``out`` the children that the breeding
    operators draw call by call from ``population``, read from raw blocks
    of a PCG64 ``rng``, which is left in the same state too.

    Returns each child's parent row and whether the child inherits that
    parent's scoring (see :func:`_inherits`).  A child is its parent's
    row before its cut and the other parent's from there on, with its
    mutation hits placed over them.  A block is read where ``positions``
    places its draws.  If Lemire rejects a tournament or cut draw there,
    or if ``positions`` does not cover the round (genomes of one codon, a
    population of one, or codon_max 1 or above 2**32), the generator goes
    back to the block's start and the block is drawn through it call by
    call (see :func:`_drawn_call_by_call`).
    """
    bit_generator = rng.bit_generator
    codons = population.codons
    size, k, count = len(codons), config.tournament_size, len(out)
    n, r = config.genome_length, config.codon_max
    if not count:
        return np.empty(0, np.int64), np.empty(0, bool)
    covered = 2 <= n <= 2**32 and 1 < size < 2**32 and 1 < r <= 2**32
    # a codon draw is Lemire's on a half, rejected below the threshold
    threshold = 2**32 % r if covered else 0
    cut_below = math.ceil(config.crossover_rate * 2.0**53)
    # a hit's double is below the rate: its word is at most hit_max
    hit_below = math.ceil(config.mutation_rate * 2.0**53)
    hit_max = np.uint64(max(hit_below << 11, 1) - 1)
    # words a pair takes, codon draws rejected at their expected rate
    codon_words = math.ceil(n / 2 / (1 - threshold / 2**32)) + 1
    pair_words = k + 2 + 2 * (n + codon_words)
    block_pairs = max(1, _BLOCK_BYTES // (8 * pair_words))
    tournaments = np.arange(2 * k)
    span, cut_threshold = n - 1, 2**32 % max(n - 1, 1)

    def positions() -> Optional[tuple]:
        """The block's draws, read where arithmetic on positions puts them
        while Lemire keeps every tournament and cut draw; None if not.

        Per pair, ``row`` holds the first of its tournaments' 2k halves in
        a row (-1: the one buffered before the block) and its cut, then
        per child ``(d, q, lead, last)``.  Its n mutation doubles are words
        ``d`` to ``d + n - 1``.  Half ``last`` is buffered before its codon
        draws; ``lead`` is 1 if Lemire keeps it, and then it is the first
        draw.  Each later draw is the block's next accepted half, from the
        one of rank ``q``: the accepted half of rank j is half ``j +
        bisect_right(ranks, j)``.  A missing second child is zeros."""
        p, (has, buf), last, row = 0, carry, -1, []
        for child in range(min(2 * pairs, count - done)):
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
        row = np.array(row + [0] * (len(row) % 10 and 4), np.int64)
        row = row.reshape(-1, 10)
        drawn = halves[row[:, :1] + tournaments]
        if len(row) and row[0, 0] < 0:
            drawn[0, 0] = buf
        # the low half of half * size, below 2**32 % size if rejected
        if (drawn * np.uint32(size) < 2**32 % size).any():
            return None
        lanes = row[:, 2:].reshape(-1, 4)[: min(count - done, 2 * len(row))]
        drawn = drawn.ravel().astype(np.uint64) * np.uint64(size)
        return (drawn >> np.uint64(32), row[:, 1], *lanes.T[:3], halves[lanes[:, 3]],
                (p, has, buf if last < 0 else halves.item(last)))

    # per block: tournament draws, cuts, and (child, column, codon) of hits
    drawn, cuts, hits = [], [], []
    done, grow = 0, 1
    state = bit_generator.state
    while done < count:
        pairs = min(block_pairs, (count - done + 1) // 2)
        block = None
        if covered:
            carry = state["has_uint32"], state["uinteger"]
            m = pairs * pair_words * grow + 16
            words = bit_generator.random_raw(m)
            # the halves in draw order on either byte order
            halves = words.astype("<u8", copy=False).view("<u4")
            # the halves a redraw rejects
            rejected = (np.flatnonzero(halves * np.uint32(r) < threshold)
                        .tolist() if threshold else [])
            ranks = [half - j for j, half in enumerate(rejected)]
            rejects = set(rejected)
            block = positions()
        if block is None:
            # back to the block's start, then through the Generator
            bit_generator.state = state
            children = min(2 * pairs, count - done)
            block_drawn, block_cuts, (child, col, values) = (
                _drawn_call_by_call(rng, config, size, children))
            state = bit_generator.state
        else:
            block_drawn, block_cuts, d, q, leads, buffered, (p, *carry) = block
            children = len(d)
            if children:
                # each hit word's child, by the last mutation window opened
                # before it
                start = d.item(0)
                hit = (np.flatnonzero(words[start:d.item(-1) + n] <= hit_max)
                       + start if hit_below else d[:0])
                child = np.searchsorted(d, hit, side="right") - 1
                col = hit - d[child]
                inside = col < n
                child, col = child[inside], col[inside]
                # the hit's accepted rank, then its half (a buffered hit
                # reads a stand-in half and is replaced)
                lead = leads[child]
                rank = q[child] + col - lead
                if ranks:
                    rank += np.searchsorted(ranks, rank, side="right")
                values = halves[rank].astype(np.uint64)
                lead = col < lead
                if lead.any():
                    values[lead] = buffered[child[lead]]
                # the high half of half * r
                values = values * np.uint64(r) >> np.uint64(32)
                values = values.astype(np.int64)
            # a block too small for one pair is drawn again twice as large
            grow = grow * 2 if p == 0 else 1
            # step back over the unread words and set the buffered half
            bit_generator.advance(p - m)
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = carry
            bit_generator.state = state
        if children:
            hits.append((child + done, col, values))
            drawn.append(block_drawn)
            cuts.append(block_cuts)
            done += children

    # the earliest of the fittest draws wins each tournament
    drawn = np.concatenate(drawn).astype(np.int64).reshape(-1, k)
    winners = drawn[np.arange(len(drawn)),
                    population.fitness[drawn].argmin(axis=1)]
    parent = winners[:count]
    other = winners.reshape(-1, 2)[:, ::-1].ravel()[:count]
    # the narrowest integers compare fastest
    columns = np.arange(n, dtype=np.min_scalar_type(n))
    cut = np.repeat(np.concatenate(cuts), 2)[:count].astype(columns.dtype)
    np.take(codons, parent, axis=0, out=out, mode="clip")
    # the other parent's codons from the cut on, a few rows at a time
    step = max(1, _BLOCK_BYTES // (codons.itemsize * n))
    tails = np.empty((step, n), codons.dtype)
    for start in range(0, count, step):
        rows = slice(start, start + step)
        rows_tails = tails[: len(out[rows])]
        np.take(codons, other[rows], axis=0, out=rows_tails, mode="clip")
        np.copyto(out[rows], rows_tails, where=columns >= cut[rows, None])
    child, col, value = map(np.concatenate, zip(*hits))
    out[child, col] = value
    # only a child cut or hit inside its parent's read prefix may differ
    # from it there
    read = population.codons_used[parent]
    judged = cut < read
    judged[child[col < read[child]]] = True
    judged = np.flatnonzero(judged)
    width = min(n, read[judged].max(initial=0))
    inherits = np.ones(count, bool)
    inherits[judged] = _inherits(out[judged, :width],
                                 codons[parent[judged], :width], read[judged])
    return parent, inherits


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
