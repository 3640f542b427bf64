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


def _random_genome(config: EvolutionConfig, rng: np.random.Generator,
                   row: np.ndarray) -> Genome:
    """Uniform random codons, also written into ``row``."""
    codons = rng.integers(0, config.codon_max, size=config.genome_length)
    row[:] = codons
    return _bred_genome(tuple(codons.tolist()), config.codon_max)


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
    for row in codons:
        for _attempt in range(config.invalid_retries + 1):
            individual = score_genome(_random_genome(config, rng, row),
                                      grammar, dataset, config.max_wraps,
                                      config.max_depth, memo=memo,
                                      buffers=buffers)
            if individual.valid:
                break
        scores.append(_score_of(individual))
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


# breeding pairs per raw block: about 80 KB at 200 codons, which stays in
# cache; 32 pairs took 6% less time on pi-default but raised pi-wide's
# peak RSS from 50.3 to 52.7 MB, and one block per round costs megabytes
_PAIRS_PER_BLOCK = 16


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
    mutation hits placed over them."""
    bit_generator = rng.bit_generator
    codons = population.codons
    fitness = [score[2] for score in population.scores]
    used = np.array([score[4] for score in population.scores], np.int64)
    size, k, count = len(fitness), config.tournament_size, len(out)
    n, r = config.genome_length, config.codon_max
    columns = np.arange(n)
    bits = 32 if r <= 2**32 else 64
    threshold = (1 << bits) % r
    cut_below = math.ceil(config.crossover_rate * 2.0**53)
    hit_below = math.ceil(config.mutation_rate * 2.0**53)
    # words a pair takes, codon draws rejected at their expected rate
    codon_words = math.ceil(n * bits / 64 / (1 - threshold / 2**bits)) + 1
    pair_words = k + 2 + 2 * (n + codon_words)
    grow = 1

    def select() -> int:
        winner = cursor.below(size)
        for _ in range(k - 1):
            contender = cursor.below(size)
            if fitness[contender] < fitness[winner]:
                winner = contender
        return winner

    def build(block: list[tuple], rows: np.ndarray) -> np.ndarray:
        """Write ``block``'s children into ``rows``; which ones inherit."""
        parent, other, cuts, starts, qs, lead, bufs = map(list, zip(*block))
        own = codons[parent]
        rows[...] = np.where(columns >= np.array(cuts)[:, None],
                             codons[other], own)
        # each hit word's child, by the last mutation window opened before it
        starts = np.array(starts)
        hit = np.flatnonzero(cursor.words >> 11 < hit_below)
        child = np.searchsorted(starts, hit, side="right") - 1
        col = hit - starts[child]
        inside = (child >= 0) & (col < n)
        child, col = child[inside], col[inside]
        lead = np.array(lead)[child]
        # the hit's accepted rank, then its unit (a buffered hit reads a
        # stand-in unit and is overwritten)
        q = np.array(qs)[child] + col - lead
        values = units[q + np.searchsorted(ranks, q, side="right")]
        values = values.astype(np.uint64)
        buffered = col < lead
        values[buffered] = np.array(bufs, np.uint64)[child[buffered]]
        # Lemire's draw is the high half of unit * r, which overflows
        # uint64 only for 64-bit units
        rows[child, col] = (values * np.uint64(r) >> np.uint64(32)
                            if bits == 32 else values.astype(object) * r >> 64)
        return _inherits(rows, own, used[parent])

    # (parent, other parent, cut, *cursor.redraws(...)) per child
    children: list[tuple] = []
    inherits = np.empty(count, bool)
    state = bit_generator.state
    has, buf = state["has_uint32"], state["uinteger"]
    while len(children) < count:
        pairs = min(_PAIRS_PER_BLOCK, (count - len(children) + 1) // 2)
        m = pairs * pair_words * grow + 16
        cursor = _RawCursor(bit_generator.random_raw(m), has, buf)
        units = cursor.halves if bits == 32 else cursor.words
        rejected = (np.flatnonzero(units * units.dtype.type(r) < threshold)
                    .tolist() if threshold else [])
        ranks = [unit - j for j, unit in enumerate(rejected)]
        done = len(children)
        try:
            for _ in range(pairs):
                mark = cursor.p, cursor.has, cursor.buf
                a, b = select(), select()
                cut = n
                if n < 2:
                    warnings.warn("genomes too short for crossover",
                                  DegenerateLength, stacklevel=2)
                elif cursor.word() >> 11 < cut_below:
                    cut = 1 + cursor.below(n - 1)
                # a pair that runs past the block adds no child
                children.extend([
                    (parent, other, cut,
                     *cursor.redraws(n, r, rejected, ranks))
                    for parent, other in ((a, b), (b, a))[: count - len(children)]
                ])
        except IndexError:
            # the block ran out inside a pair, which starts the next block
            cursor.p, cursor.has, cursor.buf = mark
        if len(children) > done:
            inherits[done:len(children)] = build(children[done:],
                                                 out[done:len(children)])
        # a block too small for one pair is drawn again twice as large
        grow = grow * 2 if cursor.p == 0 else 1
        # step back over the unread words and set the buffered half
        bit_generator.advance(cursor.p - m)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has, buf = cursor.has, cursor.buf
        bit_generator.state = state
    return [child[0] for child in children], inherits


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
