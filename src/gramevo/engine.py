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
Python step per child, and numpy reads the values there.

Inside :func:`evolve` a population is a codon matrix, one int64 row per
genome, with one score per row (see :class:`_Population`).  Children are
cut, mutated and judged for inheritance on rows; a ``Genome`` tuple is
built only for a child that is mapped, for the best individual and for
the result.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Generator, Iterator, Optional

import numpy as np

from .errors import (
    DegenerateLength,
    EmptyDataset,
    FormulaSyntaxError,
    RunInterrupted,
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
                value = getattr(self, f.name)
                try:
                    object.__setattr__(self, f.name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{f.name} must be an integer, "
                                     f"got {value!r}") from None
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
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{field_name} must be a real number, "
                                 f"got {value!r}")
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
        raise ValueError(f"buffers of shape {buffers.shape} cannot score "
                         f"{len(dataset)} points")
    with np.errstate(all="ignore"):
        predictions = _evaluate_into(expr, dataset.xs, buffers)
        # slot 0 holds the predictions or is free
        residuals = np.subtract(predictions, dataset.ys, out=buffers.slot(0))
        np.multiply(residuals, residuals, out=residuals)
        mse = float(np.mean(residuals))
    if not math.isfinite(mse):
        return WORST_FITNESS
    return mse


def _score_phenotype(phenotype: str, dataset: Dataset,
                     buffers: Optional[EvalBuffers]) -> Score:
    """Parse and score one phenotype: ``(expr, fitness, valid)``."""
    try:
        expr = parse_formula(phenotype)
    except FormulaSyntaxError:
        # reachable with grammars whose language is not formula syntax, and
        # with phenotypes nested past the parser's limit
        return None, WORST_FITNESS, False
    fitness = fitness_mse(expr, dataset, buffers=buffers)
    return expr, fitness, fitness != WORST_FITNESS


def score_genome(
    genome: Genome,
    grammar: Grammar,
    dataset: Dataset,
    max_wraps: int,
    max_depth: int,
    *,
    memo: Optional[dict[str, Score]] = None,
    buffers: Optional[EvalBuffers] = None,
) -> Individual:
    """Map, parse, and score one genome into an Individual.

    ``memo`` maps phenotype text to its ``(expr, fitness, valid)`` score.
    A phenotype found there is not parsed or scored again; one that is not
    is scored and added.  Fitness is a pure function of the phenotype and
    the dataset, so the memo must only be shared between calls that score
    against the same dataset.  ``buffers`` is passed to
    :func:`fitness_mse`.
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
        scored = memo[phenotype] = _score_phenotype(phenotype, dataset,
                                                    buffers)
    expr, fitness, valid = scored
    return Individual(genome, phenotype, expr, fitness, valid,
                      result.codons_used)


def _random_genome(config: EvolutionConfig, draws: Iterator[np.ndarray],
                   row: np.ndarray) -> Genome:
    """The next codon row of ``draws`` (see :func:`_genome_draws`) as a
    genome, also written into ``row``."""
    row[:] = next(draws)
    return _bred_genome(tuple(row.tolist()), config.codon_max)


def init_population(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
) -> list[Individual]:
    """Uniform random genomes, scored; invalid draws retried a bounded number
    of times and then kept as-is with worst fitness."""
    return _initial_rows(config, grammar, dataset, rng, None,
                         None).individuals()


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


# an Individual's fields but its genome
_score_of = operator.attrgetter("phenotype", "expr", "fitness", "valid",
                                "codons_used")


class _Population:
    """A population as rows: row i of the ``codons`` matrix is a genome,
    and ``scores[i]`` holds the rest of its :class:`Individual`,
    ``_score_of(individual)``."""

    __slots__ = ("codons", "codon_max", "scores")

    def __init__(self, codons: np.ndarray, codon_max: int,
                 scores: list[tuple]):
        self.codons, self.codon_max, self.scores = codons, codon_max, scores

    def individual(self, row: int) -> Individual:
        genome = _bred_genome(tuple(self.codons[row].tolist()), self.codon_max)
        return Individual(genome, *self.scores[row])

    def individuals(self) -> list[Individual]:
        return [self.individual(row) for row in range(len(self.scores))]


def _initial_rows(
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
    memo: Optional[dict[str, Score]],
    buffers: Optional[EvalBuffers],
) -> _Population:
    """:func:`init_population`, each genome drawn into its row; a retry
    draws over the one before it."""
    codons = np.empty((config.population_size, config.genome_length), np.int64)
    scores = []
    draws = _genome_draws(config, rng)
    try:
        for row in codons:
            for _attempt in range(config.invalid_retries + 1):
                individual = score_genome(_random_genome(config, draws, row),
                                          grammar, dataset, config.max_wraps,
                                          config.max_depth, memo=memo,
                                          buffers=buffers)
                if individual.valid:
                    break
            scores.append(_score_of(individual))
    finally:
        draws.close()
    return _Population(codons, config.codon_max, scores)


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
    scores = population.scores
    fitness = [score[2] for score in scores]
    best = min(range(len(fitness)), key=fitness.__getitem__)
    valid_fitnesses = [score[2] for score in scores if score[3]]
    if valid_fitnesses:
        mean = sum(valid_fitnesses) / len(valid_fitnesses)
    else:
        mean = WORST_FITNESS
    record = GenerationRecord(
        generation=generation,
        best_fitness=fitness[best],
        mean_fitness=mean,
        invalid_count=len(scores) - len(valid_fitnesses),
        best_phenotype=scores[best][0] or "",
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
    phenotype, and one set of evaluation buffers for the dataset, and
    drops both on return.  A bred child that keeps every codon its
    parent's mapping read is not mapped again (see :func:`_inherits`).

    A KeyboardInterrupt after generation 0 is recorded becomes
    :class:`RunInterrupted`, carrying a RunResult of the generations
    recorded so far and the best individual found in them.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot evolve against an empty dataset")
    start = time.perf_counter()
    # what default_rng builds; breeding rounds read PCG64's raw words
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))

    memo: dict[str, Score] = {}
    buffers = EvalBuffers(dataset.xs.shape)
    population = _initial_rows(config, grammar, dataset, rng, memo, buffers)
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
            population = _breed(population, config, grammar, dataset, rng,
                                memo, buffers)
    except KeyboardInterrupt:
        if not recorded:
            raise
        raise RunInterrupted(_run_result(recorded, start, config)) from None
    return _run_result(recorded, start, config)


def _breed(
    population: _Population,
    config: EvolutionConfig,
    grammar: Grammar,
    dataset: Dataset,
    rng: np.random.Generator,
    memo: dict[str, Score],
    buffers: Optional[EvalBuffers],
) -> _Population:
    """One breeding round: elites, then selected, crossed and mutated
    children until the population is full.  Every row of ``population``
    holds ``config.genome_length`` codons below ``config.codon_max``, and
    ``rng`` draws from a PCG64.  A child that does not inherit is the only
    one whose codons leave the matrix, as the genome it is scored on."""
    scores, codons = population.scores, population.codons
    # stable sort keeps the earliest of equally fit individuals in front
    elites = sorted(range(len(scores)),
                    key=lambda row: scores[row][2])[: config.elitism_count]
    bred = np.empty_like(codons)
    bred[: len(elites)] = codons[elites]
    parents, inherits = _replayed_children(population, config, rng,
                                           bred[len(elites):])
    bred_scores = [scores[row] for row in elites + parents]
    for row in (np.flatnonzero(~inherits) + len(elites)).tolist():
        genome = _bred_genome(tuple(bred[row].tolist()), config.codon_max)
        bred_scores[row] = _score_of(score_genome(
            genome, grammar, dataset, config.max_wraps, config.max_depth,
            memo=memo, buffers=buffers))
    return _Population(bred, config.codon_max, bred_scores)


# bytes of the genomes drawn at once at initialization, of a raw block of
# breeding draws and of the crossover tails copied at once (75 genomes, 24
# pairs or 75 rows at 200 codons): glibc's malloc maps new pages, each
# faulted in on first touch, for any request of 128 KiB or more
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


class _RawCursor:
    """Draws read from a block of raw PCG64 words as numpy's Generator
    takes them from the bit generator.

    A double is ``(w >> 11) * 2**-53`` of one word.  A draw below
    ``r <= 2**32`` takes a 32-bit half, low half first; the high half waits
    in ``has``/``buf`` (numpy's ``has_uint32``/``uinteger``) for the next
    such draw, across whole-word draws, and ``buf`` keeps its value once
    taken.  Reading past the block raises IndexError.
    """

    __slots__ = ("words", "halves", "p", "has", "buf")

    def __init__(self, words: np.ndarray, has: int, buf: int):
        self.words = words
        # the halves in draw order on either byte order
        self.halves = words.astype("<u8", copy=False).view("<u4")
        self.p, self.has, self.buf = 0, has, buf

    def word(self) -> int:
        w = self.words.item(self.p)
        self.p += 1
        return w

    def below(self, r: int) -> int:
        """``integers(0, r)``: Lemire's multiply-and-reject on a half for
        ``r <= 2**32`` and on a word above; nothing is drawn for r == 1."""
        bits = 32 if r <= 2**32 else 64
        mask = (1 << bits) - 1
        while r > 1:
            if bits == 64:
                m = self.word() * r
            elif self.has:
                self.has, m = 0, self.buf * r
            else:
                w = self.word()
                self.has, self.buf, m = 1, w >> 32, (w & mask) * r
            # a leftover below 2**bits % r (< r) is rejected
            if m & mask >= r or m & mask >= (1 << bits) % r:
                return m >> bits
        return 0

    def redraws(self, n: int, r: int, rejected: list[int],
                ranks: list[int]) -> tuple:
        """Step over :func:`mutate`'s n doubles and ``integers(0, r,
        size=n)``; return ``(d, q, lead, buf)``.

        The doubles are words ``d`` to ``d + n - 1``.  ``rejected`` lists
        the block's units, halves or words if ``r > 2**32``, whose draw
        below r Lemire rejects, ascending, and ``ranks[j] = rejected[j] -
        j`` counts the accepted units before the j-th.  Draw ``i < lead``
        (0 or 1) is the buffered half ``buf`` times r, shifted; any later
        one is the block's accepted unit of rank ``q + i - lead``, which
        is unit ``q + i - lead + bisect_right(ranks, q + i - lead)``.
        Nothing is drawn for r == 1."""
        d = self.p
        first = self.p = d + n
        lead, q, buf = 0, 0, self.buf
        if r > 1:
            if r <= 2**32:
                # a buffered half leads the draws when Lemire keeps it
                lead = int(self.has and buf * r & 0xFFFFFFFF >= 2**32 % r)
                self.has, first = 0, 2 * first
            q = first - bisect_left(rejected, first)
            if n > lead:
                # one past the unit of the last draw
                last = q + n - lead - 1
                end = last + bisect_right(ranks, last) + 1
                if r > 2**32:
                    self.p = end
                else:
                    self.p, self.has = (end + 1) // 2, end & 1
        if self.p > len(self.words):
            raise IndexError("draws run past the block")
        if r <= 2**32 and self.p > d + n:
            # halves were drawn: the last word's high half is buffered
            self.buf = self.words.item(self.p - 1) >> 32
        return d, q, lead, buf


def _replayed_children(
    population: _Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
    out: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Write into the rows of ``out`` the children that the breeding
    operators draw call by call from ``population``, read from raw blocks
    of a PCG64 ``rng``, which is left in the same state too.

    Returns each child's parent row and whether the child inherits that
    parent's scoring (see :func:`_inherits`).  A child is its parent's
    row before its cut and the other parent's from there on, with its
    mutation hits placed over them.  A block is read where ``positions``
    places its draws; it is read call by call instead if Lemire rejects a
    tournament or cut draw, or if ``positions`` does not cover the round:
    genomes of one codon, a population of one, or codon_max 1 or above
    2**32.
    """
    bit_generator = rng.bit_generator
    codons, scores = population.codons, population.scores
    size, k, count = len(scores), config.tournament_size, len(out)
    n, r = config.genome_length, config.codon_max
    if not count:
        return [], np.empty(0, bool)
    bits = 32 if r <= 2**32 else 64
    threshold = (1 << bits) % r
    cut_below = math.ceil(config.crossover_rate * 2.0**53)
    # a hit's double is below the rate: its word is at most hit_max
    hit_below = math.ceil(config.mutation_rate * 2.0**53)
    hit_max = np.uint64(max(hit_below << 11, 1) - 1)
    # words a pair takes, codon draws rejected at their expected rate
    codon_words = math.ceil(n * bits / 64 / (1 - threshold / 2**bits)) + 1
    pair_words = k + 2 + 2 * (n + codon_words)
    block_pairs = max(1, _BLOCK_BYTES // (8 * pair_words))
    covered = 2 <= n <= 2**32 and 1 < size < 2**32 and 1 < r <= 2**32
    tournaments = np.arange(2 * k)
    span, cut_threshold = n - 1, 2**32 % max(n - 1, 1)

    def positions() -> Optional[tuple]:
        """The block's draws, read where arithmetic on positions puts them
        while Lemire keeps every tournament and cut draw; None if not.

        Per pair, ``row`` holds the first of its tournaments' 2k halves in
        a row (-1: the one buffered before the block) and its cut, then
        per child what :meth:`_RawCursor.redraws` returns, but with the
        index of the buffered half; zeros for a missing second child."""
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
            # one past the unit of the last redraw
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

    def scalar() -> tuple:
        """The block's draws, read call by call."""
        cursor = _RawCursor(words, *carry)
        drawn, cuts, lanes = [], [], []
        for pair in range(pairs):
            mark = cursor.p, cursor.has, cursor.buf
            try:
                pair_drawn = [cursor.below(size) for _ in range(2 * k)]
                cut = n
                if n >= 2 and cursor.word() >> 11 < cut_below:
                    cut = 1 + cursor.below(n - 1)
                pair_lanes = [cursor.redraws(n, r, rejected, ranks)
                              for _ in range(min(2, count - done - 2 * pair))]
            except IndexError:
                # the block ran out inside a pair, which starts the next block
                cursor.p, cursor.has, cursor.buf = mark
                break
            if n < 2:
                warnings.warn("genomes too short for crossover",
                              DegenerateLength, stacklevel=3)
            drawn += pair_drawn
            cuts.append(cut)
            lanes += pair_lanes
        return (np.array(drawn, np.uint64), np.array(cuts, np.int64),
                *np.array(lanes, np.int64).reshape(-1, 4).T,
                (cursor.p, cursor.has, cursor.buf))

    # per block: tournament draws, cuts, and (child, column, codon) of hits
    drawn, cuts, hits = [], [], []
    done, grow = 0, 1
    state = bit_generator.state
    carry = state["has_uint32"], state["uinteger"]
    while done < count:
        pairs = min(block_pairs, (count - done + 1) // 2)
        m = pairs * pair_words * grow + 16
        words = bit_generator.random_raw(m)
        # the halves in draw order on either byte order
        halves = words.astype("<u8", copy=False).view("<u4")
        units = halves if bits == 32 else words
        # the units a redraw rejects
        rejected = (np.flatnonzero(units * units.dtype.type(r) < threshold)
                    .tolist() if threshold else [])
        ranks = [unit - j for j, unit in enumerate(rejected)]
        rejects = set(rejected)
        block = covered and positions() or scalar()
        block_drawn, block_cuts, d, q, leads, buffered, (p, *carry) = block
        if len(d):
            # each hit word's child, by the last mutation window opened
            # before it
            start = d.item(0)
            hit = (np.flatnonzero(words[start:d.item(-1) + n] <= hit_max)
                   + start if hit_below else d[:0])
            child = np.searchsorted(d, hit, side="right") - 1
            col = hit - d[child]
            inside = col < n
            child, col = child[inside], col[inside]
            # the hit's accepted rank, then its unit (a buffered hit reads a
            # stand-in unit and is replaced)
            lead = leads[child]
            rank = q[child] + col - lead
            if ranks:
                rank += np.searchsorted(ranks, rank, side="right")
            values = units[rank].astype(object if bits == 64 else np.uint64)
            lead = col < lead
            if lead.any():
                values[lead] = buffered[child[lead]]
            # the high half of unit * r; 64-bit units overflow uint64
            values = (values * r >> 64 if bits == 64
                      else values * np.uint64(r) >> np.uint64(32))
            hits.append((child + done, col, values.astype(np.int64)))
            drawn.append(block_drawn)
            cuts.append(block_cuts)
            done += len(d)
        # a block too small for one pair is drawn again twice as large
        grow = grow * 2 if p == 0 else 1
        # step back over the unread words and set the buffered half
        bit_generator.advance(p - m)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = carry
        bit_generator.state = state

    # the earliest of the fittest draws wins each tournament
    drawn = np.concatenate(drawn).astype(np.int64).reshape(-1, k)
    fitness = np.array([score[2] for score in scores])
    winners = drawn[np.arange(len(drawn)), fitness[drawn].argmin(axis=1)]
    parent = winners[:count]
    other = winners.reshape(-1, 2)[:, ::-1].ravel()[:count]
    # the narrowest integers compare fastest
    columns = np.arange(n, dtype=np.min_scalar_type(n))
    cut = np.repeat(np.concatenate(cuts), 2)[:count].astype(columns.dtype)
    np.take(codons, parent, axis=0, out=out, mode="clip")
    # the other parent's codons from the cut on, a few rows at a time
    step = max(1, _BLOCK_BYTES // (8 * n))
    tails = np.empty((step, n), np.int64)
    for start in range(0, count, step):
        rows = slice(start, start + step)
        rows_tails = tails[: len(out[rows])]
        np.take(codons, other[rows], axis=0, out=rows_tails, mode="clip")
        np.copyto(out[rows], rows_tails, where=columns >= cut[rows, None])
    child, col, value = map(np.concatenate, zip(*hits))
    out[child, col] = value
    # only a child cut or hit inside its parent's read prefix may differ
    # from it there
    read = np.array([score[4] for score in scores], np.int64)[parent]
    judged = cut < read
    judged[child[col < read[child]]] = True
    judged = np.flatnonzero(judged)
    width = min(n, read[judged].max(initial=0))
    inherits = np.ones(count, bool)
    inherits[judged] = _inherits(out[judged, :width],
                                 codons[parent[judged], :width], read[judged])
    return parent.tolist(), inherits


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
