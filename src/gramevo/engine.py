"""Generational evolutionary loop over genomes.

Randomness discipline: one seeded numpy Generator drives every stochastic
decision in a fixed order.  First population init (with its invalidity
re-draws), then per breeding pair: two tournaments of k index draws, the
crossover double and, below the rate, the cut, then per child n mutation
doubles and n codon redraws.  Fitness evaluation never touches the
stream, so results cannot depend on evaluation order.

The generator is a PCG64, and a breeding round reads these draws from
its raw words as numpy would (see :func:`_replayed_children`): the same
children, and the same generator state after the round, as calling
:func:`tournament_select`, :func:`crossover` and :func:`mutate` draw by
draw.
"""

from __future__ import annotations

import math
import time
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

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
    buffers: Optional[EvalBuffers] = None,
) -> list[Individual]:
    """Uniform random genomes, scored; invalid draws retried a bounded number
    of times and then kept as-is with worst fitness.  ``memo`` and
    ``buffers`` are passed to :func:`score_genome`."""
    population: list[Individual] = []
    for _ in range(config.population_size):
        for _attempt in range(config.invalid_retries + 1):
            individual = score_genome(
                _random_genome(config, rng), grammar, dataset,
                config.max_wraps, config.max_depth, memo=memo,
                buffers=buffers,
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
    phenotype, and one set of evaluation buffers for the dataset, and
    drops both on return.  A bred child that keeps every codon its
    parent's mapping read is not mapped again (see :func:`_inherit`).

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
    population = init_population(config, grammar, dataset, rng, memo=memo,
                                 buffers=buffers)
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
            population = _breed(population, config, grammar, dataset, rng,
                                memo, buffers=buffers)
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
    *,
    buffers: Optional[EvalBuffers] = None,
) -> list[Individual]:
    """One breeding round: elites, then selected, crossed and mutated
    children until the population is full.  Every genome in ``population``
    holds ``config.genome_length`` codons below ``config.codon_max``, and
    ``rng`` draws from a PCG64."""
    # stable sort keeps the earliest of equally fit individuals in front
    elites = sorted(population, key=lambda i: i.fitness)[: config.elitism_count]
    offspring: list[Individual] = list(elites)
    count = config.population_size - len(offspring)
    for parent, child in _replayed_children(population, config, rng, count):
        individual = _inherit(parent, child)
        if individual is None:
            individual = score_genome(child, grammar, dataset,
                                      config.max_wraps, config.max_depth,
                                      memo=memo, buffers=buffers)
        offspring.append(individual)
    return offspring


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

    def mutate(self, codons: tuple[int, ...], r: int, hits: list[int],
               rejected: list[int]) -> tuple[int, ...]:
        """:func:`mutate` on codons below r: n doubles, then
        ``integers(0, r, size=n)``; ``codons`` itself if no double is below
        the rate.  ``hits`` lists the block's words whose double is, and
        ``rejected`` its halves (words if ``r > 2**32``) whose draw below r
        Lemire rejects, both ascending.  Redraws that hold no rejection are
        placed by index arithmetic, others drawn one by one."""
        n, d = len(codons), self.p
        p = self.p = d + n
        has, buf = self.has, self.buf
        # the redraws: ``lead`` (0 or 1) from the buffered half, then
        # ``fresh`` units of the block from index ``first`` on
        if r > 2**32:
            units, bits, lead, first, fresh = self.words, 64, 0, p, n
            self.p = p + n
        else:
            units, bits, lead, first, fresh = self.halves, 32, has, 2 * p, n - has
            self.p = p + (fresh + 1) // 2
            self.has = fresh & 1
            if fresh:
                self.buf = self.words.item(self.p - 1) >> 32
        if self.p > len(self.words):
            raise IndexError("draws run past the block")
        # r == 1 draws nothing, so walking it reads nothing either
        walk = (r == 1 or lead and buf * r & 0xFFFFFFFF < 2**32 % r
                or bisect_left(rejected, first)
                != bisect_left(rejected, first + fresh))
        if walk:
            self.p, self.has, self.buf = p, has, buf
            drawn = [self.below(r) for _ in range(n)]
        lo = bisect_left(hits, d)
        at = hits[lo:bisect_left(hits, p, lo)]
        if not at:
            return codons
        mutated = list(codons)
        for j in at:
            i = j - d
            mutated[i] = drawn[i] if walk else (
                buf if i < lead else units.item(first + i - lead)) * r >> bits
        return tuple(mutated)


# breeding pairs per raw block: about 80 KB at 200 codons, which stays in
# cache; one block for a whole round costs megabytes of RSS
_PAIRS_PER_BLOCK = 16


def _replayed_children(
    population: list[Individual],
    config: EvolutionConfig,
    rng: np.random.Generator,
    count: int,
) -> list[tuple[Individual, Genome]]:
    """The ``count`` children, with their parents, that the breeding
    operators draw call by call, read from raw blocks of a PCG64 ``rng``,
    which is left in the same state too."""
    bit_generator = rng.bit_generator
    size, k = len(population), config.tournament_size
    n, r = config.genome_length, config.codon_max
    bits = 32 if r <= 2**32 else 64
    threshold = (1 << bits) % r
    cut_below = math.ceil(config.crossover_rate * 2.0**53)
    hit_below = math.ceil(config.mutation_rate * 2.0**53)
    # words a pair takes, codon draws rejected at their expected rate
    codon_words = math.ceil(n * bits / 64 / (1 - threshold / 2**bits)) + 1
    pair_words = k + 2 + 2 * (n + codon_words)
    grow = 1

    def select() -> Individual:
        winner = population[cursor.below(size)]
        for _ in range(k - 1):
            contender = population[cursor.below(size)]
            if contender.fitness < winner.fitness:
                winner = contender
        return winner

    children: list[tuple[Individual, Genome]] = []
    state = bit_generator.state
    has, buf = state["has_uint32"], state["uinteger"]
    while len(children) < count:
        pairs = min(_PAIRS_PER_BLOCK, (count - len(children) + 1) // 2)
        m = pairs * pair_words * grow + 16
        cursor = _RawCursor(bit_generator.random_raw(m), has, buf)
        hits = np.flatnonzero(cursor.words >> 11 < hit_below).tolist()
        units = cursor.halves if bits == 32 else cursor.words
        rejected = (np.flatnonzero(units * units.dtype.type(r) < threshold)
                    .tolist() if threshold else [])
        done = len(children)
        try:
            for _ in range(pairs):
                mark = cursor.p, cursor.has, cursor.buf
                parent_a, parent_b = select(), select()
                a, b = parent_a.genome.codons, parent_b.genome.codons
                if n < 2:
                    warnings.warn("genomes too short for crossover",
                                  DegenerateLength, stacklevel=2)
                elif cursor.word() >> 11 < cut_below:
                    c = 1 + cursor.below(n - 1)
                    a, b = a[:c] + b[c:], b[:c] + a[c:]
                for parent, codons in ((parent_a, a),
                                       (parent_b, b))[: count - len(children)]:
                    codons = cursor.mutate(codons, r, hits, rejected)
                    children.append((parent, parent.genome
                                     if codons is parent.genome.codons
                                     else _bred_genome(codons, r)))
                done = len(children)
        except IndexError:
            # the block ran out inside a pair, which starts the next block
            del children[done:]
            cursor.p, cursor.has, cursor.buf = mark
        # a block too small for one pair is drawn again twice as large
        grow = grow * 2 if cursor.p == 0 else 1
        # step back over the unread words and set the buffered half
        bit_generator.advance(cursor.p - m)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has, buf = cursor.has, cursor.buf
        bit_generator.state = state
    return children


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
