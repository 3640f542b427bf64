import inspect
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from gramevo import (
    Binary,
    BinaryOp,
    ConfigError,
    Const,
    Dataset,
    DatasetMode,
    DegenerateLength,
    EmptyDataset,
    EvalBuffers,
    EvolutionConfig,
    FormulaSyntaxError,
    Genome,
    GramevoError,
    Grammar,
    LimitTooLarge,
    PrimeTable,
    Production,
    RunInterrupted,
    RunState,
    WORST_FITNESS,
    build_dataset,
    crossover,
    evaluate,
    evaluate_array,
    evolve,
    fitness_mse,
    format_expr,
    format_grammar,
    map_genome,
    mutate,
    parse_formula,
    parse_grammar,
    phenotype_of,
    prime_pi,
    production_count,
    read_dataset,
    score_genome,
    sieve,
    Symbol,
    tournament_select,
    tree_depth,
    write_dataset,
    Unary,
    UnaryOp,
    Var,
)
import gramevo.engine as engine
import gramevo.evaluation
import gramevo.mapping
from gramevo.engine import Individual
from gramevo.evaluation import PROTECTION_EPS
from conftest import (
    REFERENCE_FORMULA,
    REFERENCE_MSE_FINITE_SUBSET,
    interrupt_on_call,
)


class ScriptedRng(np.random.Generator):
    """Stand-in for numpy's Generator with a scripted tape; a Generator,
    as the breeding operators accept no other generator."""

    def __init__(self, integers=(), randoms=()):
        super().__init__(np.random.PCG64(0))
        self.integer_tape = list(integers)
        self.random_tape = list(randoms)

    def integers(self, low, high=None, size=None):
        value = self.integer_tape.pop(0)
        return np.asarray(value) if size is not None else value

    def random(self, size=None):
        value = self.random_tape.pop(0)
        return np.asarray(value) if size is not None else value


def _individual(fitness, tag="x"):
    return Individual(Genome((1,)), tag, None, fitness,
                      math.isfinite(fitness), 1)


# --- fitness -----------------------------------------------------------------

def test_fitness_exact_fit():
    ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert fitness_mse(parse_formula("x"), ds) == 0.0


def test_fitness_constant_predictor():
    ds = Dataset(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert fitness_mse(parse_formula("0.0"), ds) == 2.5


def test_fitness_nonfinite_is_worst(pi_dataset):
    assert fitness_mse(parse_formula("exp(exp(x))"), pi_dataset) == WORST_FITNESS


def test_fitness_empty_dataset_rejected():
    # Dataset refuses no points, so this one is emptied after it is made
    hollow = Dataset([1.0], [1.0])
    object.__setattr__(hollow, "xs", np.array([]))
    object.__setattr__(hollow, "ys", np.array([]))
    with pytest.raises(EmptyDataset):
        fitness_mse(parse_formula("x"), hollow)


def test_reference_formula_fitness(pi_dataset):
    # the unprotected ln inside the published formula sees a negative
    # argument at x in {3, 5, 7}, so over the full dataset the score is
    # necessarily Worst; the finite-prediction subset is the frozen
    # regression constant
    expr = parse_formula(REFERENCE_FORMULA)
    assert fitness_mse(expr, pi_dataset) == WORST_FITNESS

    predictions = evaluate_array(expr, pi_dataset.xs)
    finite = np.isfinite(predictions)
    assert int(finite.sum()) == 997
    subset = Dataset(pi_dataset.xs[finite], pi_dataset.ys[finite], name="sub")
    got = fitness_mse(expr, subset)
    assert got == pytest.approx(REFERENCE_MSE_FINITE_SUBSET, rel=1e-9)


def test_fitness_is_pure(pi_dataset):
    expr = parse_formula("pdiv(x, plog(x))")
    first = fitness_mse(expr, pi_dataset)
    assert fitness_mse(expr, pi_dataset) == first
    assert fitness_mse(parse_formula("pdiv(x, plog(x))"), pi_dataset) == first


_REFERENCE_RULES = {
    UnaryOp.NEG: lambda a: -a,
    UnaryOp.SIN: np.sin,
    UnaryOp.TANH: np.tanh,
    UnaryOp.EXP: np.exp,
    UnaryOp.SQRT: np.sqrt,
    UnaryOp.LN: np.log,
    UnaryOp.PSQRT: lambda a: np.sqrt(np.abs(a)),
    UnaryOp.PLOG: lambda a: np.where(np.abs(a) > PROTECTION_EPS,
                                     np.log(np.abs(a)), 0.0),
    BinaryOp.ADD: lambda a, b: a + b,
    BinaryOp.SUB: lambda a, b: a - b,
    BinaryOp.MUL: lambda a, b: a * b,
    BinaryOp.DIV: np.divide,
    BinaryOp.PDIV: lambda a, b: np.where(np.abs(b) > PROTECTION_EPS,
                                         np.divide(a, b), 1.0),
}


def reference_evaluate(expr, xs):
    """Evaluation with a new array for every operator, recursively."""
    if isinstance(expr, Var):
        return xs
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Unary):
        return _REFERENCE_RULES[expr.op](reference_evaluate(expr.child, xs))
    return _REFERENCE_RULES[expr.op](reference_evaluate(expr.left, xs),
                                     reference_evaluate(expr.right, xs))


# constants on both sides of the protection threshold, and any within 1e6
_mse_constants = st.one_of(
    st.sampled_from([0.0, -0.0, PROTECTION_EPS / 2, -PROTECTION_EPS / 2,
                     PROTECTION_EPS, -PROTECTION_EPS, 2 * PROTECTION_EPS,
                     1e6]),
    st.floats(min_value=-1e6, max_value=1e6, width=64),
)
_mse_trees = st.recursive(
    st.one_of(st.builds(Var), st.builds(Const, _mse_constants)),
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(list(UnaryOp)), children),
        st.builds(Binary, st.sampled_from(list(BinaryOp)), children,
                  children),
    ),
    max_leaves=20,
)


def test_buffered_fitness_equals_fresh_array_definition():
    # x at 0, within and just past the protection threshold on both
    # sides, negative, and around 1e6; writing into either array raises
    eps = PROTECTION_EPS
    xs = np.array([-1e6 - 2.0, -1e6, -2.5, -1.0, -eps, -eps / 2, 0.0,
                   eps / 3, eps, 2 * eps, 0.5, 1.0, 3.0, 7919.0,
                   1e6 - 0.5, 1e6, 1e6 + 1.5])
    ys = np.array([3.0, -1.0, 0.0, 2.5, 1e6, -1e6, 7.0, eps, -eps, 0.25,
                   1.0, 2.0, 2.0, 1000.0, 78498.0, -3.5, 1e-3])
    dataset = Dataset(xs, ys)
    dataset.xs.flags.writeable = False
    dataset.ys.flags.writeable = False
    buffers = EvalBuffers(xs.shape)

    # the array loops give -NaN here and the scalar reference +NaN
    @example(Binary(BinaryOp.ADD, Unary(UnaryOp.SQRT, Const(-5e-10)),
                    Unary(UnaryOp.TANH, Unary(UnaryOp.SQRT, Const(-5e-10)))))
    @settings(max_examples=400, deadline=None)
    @given(_mse_trees)
    def check(expr):
        with np.errstate(all="ignore"):
            predictions = np.broadcast_to(reference_evaluate(expr, dataset.xs),
                                          xs.shape)
            want = float(np.mean((predictions - dataset.ys) ** 2))
        got = fitness_mse(expr, dataset, buffers=buffers)
        if math.isfinite(want):
            assert got == want
        else:
            assert got == WORST_FITNESS

        first = evaluate_array(expr, dataset.xs)
        second = evaluate_array(expr, dataset.xs)
        # IEEE 754 leaves a NaN's sign unspecified, and numpy's scalar and
        # array loops set it differently; every other value, -0.0 against
        # 0.0 included, must match bit for bit
        nan = np.isnan(first)
        assert np.array_equal(nan, np.isnan(predictions))
        assert first[~nan].tobytes() == predictions[~nan].tobytes()
        assert first.flags.writeable
        assert not np.shares_memory(first, second)
        for array in (dataset.xs, dataset.ys, *buffers.masks, *buffers.slots,
                      *buffers.of_x.values()):
            assert not np.shares_memory(first, array)

    check()
    # the buffers are the run's: made once, used by every example
    assert buffers.slots
    # each f(x) was computed once, for this xs, and never written after
    assert buffers.xs is dataset.xs
    assert buffers.of_x
    for op, value in buffers.of_x.items():
        with np.errstate(all="ignore"):
            fresh = _REFERENCE_RULES[op](dataset.xs)
        assert value.tobytes() == fresh.tobytes()
        assert not np.shares_memory(value, dataset.xs)


def test_buffers_follow_the_xs_they_score():
    # same shape, different x values: f(x) of one is never read for the other
    a = Dataset(np.array([0.5, 2.0, 3.0, 1e6]), np.array([1.0, 0.0, 2.0, 3.0]))
    b = Dataset(np.array([-4.0, 0.0, 1e-12, 7919.0]),
                np.array([2.0, 1.0, 0.0, -1.0]))
    buffers = EvalBuffers(a.xs.shape)
    for dataset in (a, b, a, b):
        for formula in ("sin(x)", "plog(x)", "sin(x)+plog(x)"):
            expr = parse_formula(formula)
            assert (fitness_mse(expr, dataset, buffers=buffers)
                    == fitness_mse(expr, dataset))
        assert buffers.xs is dataset.xs
        assert set(buffers.of_x) == {UnaryOp.SIN, UnaryOp.PLOG}


def test_fitness_holds_values_in_ershov_order(pi_dataset):
    # run left operand first, each level would hold its sin(x*x) in a slot
    # of its own while the next level is computed: five slots.  The right
    # operand, needing more, runs first: two slots
    expr = parse_formula("sin(x*x)-(sin(x*x)-(sin(x*x)-(sin(x*x)-x*x)))")
    buffers = EvalBuffers(pi_dataset.xs.shape)
    fitness = fitness_mse(expr, pi_dataset, buffers=buffers)
    assert len(buffers.slots) == 2
    assert math.isfinite(fitness)
    assert np.float64(fitness).tobytes() == np.float64(
        fitness_mse(expr, pi_dataset)).tobytes()
    # an operand run first still takes its own place in the operator
    with np.errstate(all="ignore"):
        want = float(np.mean((reference_evaluate(expr, pi_dataset.xs)
                              - pi_dataset.ys) ** 2))
    assert fitness == want


def test_fitness_buffers_must_fit_the_dataset(pi_dataset):
    with pytest.raises(ValueError, match="cannot score"):
        fitness_mse(parse_formula("x"), pi_dataset,
                    buffers=EvalBuffers(len(pi_dataset) + 1))


# --- scoring -----------------------------------------------------------------

def test_score_genome_nonfinite_fitness(canonical_grammar, pi_dataset):
    # maps cleanly but overflows at large x: kept, flagged invalid
    ind = score_genome(Genome((7, 7, 9)), canonical_grammar, pi_dataset,
                       max_wraps=1, max_depth=17)
    assert ind.phenotype == "exp(exp(x))"
    assert ind.valid is False
    assert ind.fitness == WORST_FITNESS


def test_score_genome_mapping_failure(canonical_grammar, pi_dataset):
    ind = score_genome(Genome((0, 0)), canonical_grammar, pi_dataset,
                       max_wraps=1, max_depth=17)
    assert ind.phenotype is None and ind.expr is None
    assert ind.valid is False
    assert ind.fitness == WORST_FITNESS


def test_score_genome_nested_past_parser_limit(canonical_grammar, pi_dataset):
    # psqrt nested 400 deep maps cleanly under a legal max_depth but lies
    # past the formula parser's nesting limit: scored invalid, not raised
    ind = score_genome(Genome((4,) * 400 + (9,)), canonical_grammar,
                       pi_dataset, max_wraps=1, max_depth=1000)
    assert ind.phenotype == "psqrt(" * 400 + "x" + ")" * 400
    assert ind.expr is None
    assert ind.valid is False
    assert ind.fitness == WORST_FITNESS


def test_score_genome_long_balanced_sum_stays_valid(canonical_grammar,
                                                   pi_dataset):
    # preorder of a complete '+' tree with 128 leaves: codon 0 picks
    # <e>+<e>, codon 9 picks x.  It derives 9 levels deep, within the
    # default max_depth, and prints as a flat 128-term sum.
    def preorder(height):
        if height == 0:
            return [9]
        return [0] + preorder(height - 1) + preorder(height - 1)

    defaults = EvolutionConfig()
    ind = score_genome(Genome(tuple(preorder(7))), canonical_grammar,
                       pi_dataset, defaults.max_wraps, defaults.max_depth)
    assert ind.phenotype == "+".join(["x"] * 128)
    assert ind.valid is True
    assert math.isfinite(ind.fitness)
    assert ind.fitness == fitness_mse(parse_formula("128*x"), pi_dataset)


# --- initial population ------------------------------------------------------

def test_init_population_shape(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=10, generations=1,
                             genome_length=40, rng_seed=5)
    population = RunState(config, pi_paper_grammar, pi_dataset).individuals()
    assert len(population) == 10
    for ind in population:
        assert len(ind.genome) == 40
        assert max(ind.genome.codons) < config.codon_max


def test_init_population_deterministic(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=6, generations=1, rng_seed=11)
    one = RunState(config, pi_paper_grammar, pi_dataset).individuals()
    two = RunState(config, pi_paper_grammar, pi_dataset).individuals()
    assert [i.genome for i in one] == [i.genome for i in two]
    assert [i.fitness for i in one] == [i.fitness for i in two]


def test_init_population_invalid_fraction_pinned(pi_paper_grammar, pi_dataset):
    # with no re-draws, a recursive grammar leaves at least half of all
    # random genomes unfinished (each <e> expansion spawns two more with
    # probability 4/11, one with 5/11, none with 2/11: extinction
    # probability of that branching process is exactly 1/2); measured
    # once at seed 12345 and frozen
    config = EvolutionConfig(population_size=2000, generations=1,
                             invalid_retries=0, rng_seed=12345)
    population = RunState(config, pi_paper_grammar, pi_dataset).individuals()
    invalid = sum(1 for i in population if not i.valid)
    assert invalid == 1105
    assert invalid / len(population) >= 0.5


def test_init_population_retries_rescue_most(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=50, generations=1,
                             invalid_retries=10, rng_seed=42)
    population = RunState(config, pi_paper_grammar, pi_dataset).individuals()
    invalid = sum(1 for i in population if not i.valid)
    assert invalid <= 2


# --- selection ---------------------------------------------------------------

def test_tournament_singleton():
    only = _individual(3.0)
    assert tournament_select([only], 1, np.random.default_rng(0)) is only


def test_tournament_prefers_finite_fitness():
    finite = _individual(1.0)
    worst = _individual(WORST_FITNESS)
    rng = ScriptedRng(integers=[[1, 0]])  # draws hit both, worst first
    assert tournament_select([worst, finite], 2, rng) is finite


def test_tournament_tie_breaks_on_earliest_draw():
    a = _individual(2.0, "a")
    b = _individual(2.0, "b")
    rng = ScriptedRng(integers=[[1, 0]])
    assert tournament_select([a, b], 2, rng) is b


def test_tournament_validation():
    with pytest.raises(ValueError):
        tournament_select([], 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        tournament_select([_individual(1.0)], 2, np.random.default_rng(0))


def reference_tournament_select(population, k, rng):
    """tournament_select as a loop over its k indices, drawn in one size=k
    call; the oracle for its winner and its draws."""
    draws = rng.integers(0, len(population), size=k).tolist()
    winner = population[draws[0]]
    for index in draws[1:]:
        contender = population[index]
        if contender.fitness < winner.fitness:
            winner = contender
    return winner


@pytest.fixture(scope="module")
def large_population():
    # few distinct fitnesses, some worst, so ties and infinities both occur
    fitnesses = np.random.default_rng(17).integers(0, 6, size=70_000)
    return [_individual(WORST_FITNESS if f == 0 else float(f), str(i))
            for i, f in enumerate(fitnesses.tolist())]


@pytest.mark.parametrize("size,k", [
    (size, k) for size in (1, 2, 500, 70_000) for k in (1, 2, 3, 7) if k <= size
])
def test_tournament_matches_array_draw_reference(large_population, size, k):
    # same winner, and the stream left in the same state after every call,
    # so later draws of a seeded run cannot move
    population = large_population[:size]
    rng = np.random.default_rng(1000 * size + k)
    oracle_rng = np.random.default_rng(1000 * size + k)
    for _ in range(300):
        got = tournament_select(population, k, rng)
        want = reference_tournament_select(population, k, oracle_rng)
        assert got is want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


# --- crossover ---------------------------------------------------------------

def test_crossover_rate_zero_returns_parents():
    a, b = Genome((1, 2, 3, 4)), Genome((5, 6, 7, 8))
    out_a, out_b = crossover(a, b, 0.0, np.random.default_rng(0))
    assert out_a.codons == a.codons and out_b.codons == b.codons


def test_crossover_forced_cut():
    a, b = Genome((1, 2, 3, 4)), Genome((5, 6, 7, 8))
    rng = ScriptedRng(randoms=[0.0], integers=[2])
    child_a, child_b = crossover(a, b, 1.0, rng)
    assert child_a.codons == (1, 2, 7, 8)
    assert child_b.codons == (5, 6, 3, 4)


def test_crossover_degenerate_length_warns():
    a, b = Genome((1,)), Genome((2,))
    with pytest.warns(DegenerateLength):
        out_a, out_b = crossover(a, b, 1.0, np.random.default_rng(0))
    assert out_a.codons == (1,) and out_b.codons == (2,)


def test_crossover_degenerate_length_warning_points_at_the_caller(
        pi_paper_grammar, pi_dataset):
    # crossover warns once, and a run's breeding rounds once per pair, each
    # at the line that called crossover, evolve or a step
    a, b = Genome((1,)), Genome((2,))
    config = EvolutionConfig(population_size=4, generations=3,
                             genome_length=1)
    state = RunState(config, pi_paper_grammar, pi_dataset)
    for call, count in (
            (lambda: crossover(a, b, 1.0, np.random.default_rng(0)), 1),
            (lambda: evolve(config, pi_paper_grammar, pi_dataset), 4),
            (lambda: state.step(), 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [DegenerateLength] * count
        assert {(w.filename, w.lineno) for w in caught} == {
            (__file__, call.__code__.co_firstlineno)}


def test_crossover_codon_max_mismatch():
    with pytest.raises(ValueError):
        crossover(Genome((1, 2), codon_max=10), Genome((1, 2), codon_max=20),
                  1.0, np.random.default_rng(0))


def test_crossover_children_stay_in_range():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        a = Genome(tuple(rng.integers(0, 50, size=8).tolist()), codon_max=50)
        b = Genome(tuple(rng.integers(0, 50, size=8).tolist()), codon_max=50)
        child_a, child_b = crossover(a, b, 0.9, rng)
        assert len(child_a) == 8 and len(child_b) == 8
        assert max(child_a.codons + child_b.codons) < 50


# --- mutation ----------------------------------------------------------------

def test_mutate_rate_zero_is_identity():
    g = Genome((1, 2, 3))
    assert mutate(g, 0.0, np.random.default_rng(0)).codons == (1, 2, 3)


def test_mutate_rate_one_forced_zero():
    g = Genome((0, 0, 0, 0), codon_max=1)
    assert mutate(g, 1.0, np.random.default_rng(0)).codons == (0, 0, 0, 0)


def test_mutate_changed_fraction_binomial():
    n = 100_000
    rate = 0.01
    codon_max = 100_000
    g = Genome(tuple([7] * n), codon_max=codon_max)
    mutated = mutate(g, rate, np.random.default_rng(314))
    changed = sum(1 for before, after in zip(g.codons, mutated.codons)
                  if before != after)
    expected = rate * (1 - 1 / codon_max)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(changed / n - expected) < 3 * sigma


def reference_mutate(g, rate, rng):
    """mutate written over whole numpy arrays and the checked Genome
    constructor; the oracle for the sparse one."""
    n = len(g)
    mask = rng.random(n) < rate
    redraws = rng.integers(0, g.codon_max, size=n)
    if not mask.any():
        return g
    codons = np.array(g.codons, dtype=np.int64)
    mutated = np.where(mask, redraws, codons)
    return Genome(tuple(mutated.tolist()), codon_max=g.codon_max)


codon_maxes = st.sampled_from([1, 2, 100_000])
genome_lengths = st.integers(1, 300)
seeds = st.integers(0, 2**32 - 1)


def _random_parent(length, codon_max, rng):
    return Genome(tuple(rng.integers(0, codon_max, size=length).tolist()),
                  codon_max=codon_max)


@settings(max_examples=150, deadline=None)
@given(codon_maxes, genome_lengths, st.sampled_from([0.0, 0.01, 0.5, 1.0]),
       seeds)
def test_mutate_matches_dense_reference(codon_max, length, rate, seed):
    # same codons, and the stream left in the same state after every call,
    # so later draws of a seeded run cannot move
    g = _random_parent(length, codon_max, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    oracle_rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        got = mutate(g, rate, rng)
        want = reference_mutate(g, rate, oracle_rng)
        assert got.codons == want.codons
        assert got.codon_max == want.codon_max
        assert (got is g) == (want is g)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        g = got


def _assert_passes_boundary_check(g, codon_max):
    assert type(g.codons) is tuple
    assert all(type(c) is int and 0 <= c < codon_max for c in g.codons)
    assert g.codon_max == codon_max
    assert Genome(g.codons, codon_max=g.codon_max) == g


@settings(max_examples=150, deadline=None)
@given(codon_maxes, genome_lengths, genome_lengths,
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), seeds)
def test_bred_genomes_pass_boundary_check(codon_max, length_a, length_b,
                                          crossover_rate, mutation_rate, seed):
    # breeding builds genomes without the constructor's check; each must
    # still be one the check accepts
    rng = np.random.default_rng(seed)
    a = _random_parent(length_a, codon_max, rng)
    b = _random_parent(length_b, codon_max, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLength)
        children = crossover(a, b, crossover_rate, rng)
    for child in children:
        _assert_passes_boundary_check(child, codon_max)
        _assert_passes_boundary_check(mutate(child, mutation_rate, rng),
                                      codon_max)
    config = EvolutionConfig(genome_length=length_a, codon_max=codon_max)
    drawn = engine._random_genome(rng, config, [], 1)
    assert len(drawn) == length_a
    # the genome the run makes of a drawn row
    _assert_passes_boundary_check(
        gramevo.mapping._bred_genome(tuple(drawn.tolist()), codon_max),
        codon_max)


# --- inheritance -------------------------------------------------------------

codon_lists = st.lists(st.integers(0, 1000), min_size=1, max_size=40)


def reference_inherit(parent, child):
    """The inheritance rule on one parent Individual and child Genome of
    any length: ``parent``'s scoring if ``child`` keeps every codon an
    unwrapped mapping of the parent read, else None."""
    used = parent.codons_used
    codons = parent.genome.codons
    if used < len(codons) and child.codons[:used] == codons[:used]:
        return Individual(child, parent.phenotype, parent.expr,
                          parent.fitness, parent.valid, used)
    return None


def _inherits(parent, child):
    """engine._inherits on one parent and one child of the same length."""
    return bool(engine._inherits(np.array([child.codons]),
                                 np.array([parent.genome.codons]),
                                 np.array([parent.codons_used]))[0])


# max_wraps=0 parent that runs out of wraps with codons_used == len: the
# longer child derives x+x+x
@example(parent_codons=[0, 0], max_wraps=0, max_depth=17, drop=0,
         tail=[9, 9, 9])
# valid parent that wrapped (psqrt(04.00), 6 codons used of 3); the child
# derives psqrt(09.99)
@example(parent_codons=[4, 10, 0], max_wraps=1, max_depth=17, drop=0,
         tail=[9, 9, 9])
# parent that passes max_depth=2 at its second read, INVALID_DEPTH after 2
# of its 5 codons; the child keeps them and fails the same way
@example(parent_codons=[0, 0, 0, 9, 9], max_wraps=1, max_depth=2, drop=0,
         tail=[9])
@settings(max_examples=1000, deadline=None)
@given(codon_lists, st.integers(0, 2), st.integers(2, 17), st.integers(0, 40),
       st.lists(st.integers(0, 1000), max_size=40))
def test_inherited_child_equals_fresh_scoring(canonical_grammar, pi_dataset,
                                              parent_codons, max_wraps,
                                              max_depth, drop, tail):
    # the child keeps all but the last ``drop`` codons of its parent; the
    # engine judges rows, so the child is also taken cut or padded with
    # zeros to its parent's length
    parent = score_genome(Genome(tuple(parent_codons)), canonical_grammar,
                          pi_dataset, max_wraps, max_depth)
    keep = max(len(parent_codons) - drop, 0)
    child_codons = parent_codons[:keep] + tail
    assume(child_codons)
    row_codons = (child_codons + [0] * len(parent_codons))[:len(parent_codons)]
    for codons in (child_codons, row_codons):
        child = Genome(tuple(codons))
        inherited = reference_inherit(parent, child)
        if len(codons) == len(parent_codons):
            assert _inherits(parent, child) == (inherited is not None
                                                or child == parent.genome)
        event("inherited" if inherited is not None else "scored")
        if inherited is not None:
            fresh = score_genome(child, canonical_grammar, pi_dataset,
                                 max_wraps, max_depth)
            assert inherited.genome == fresh.genome
            assert inherited.phenotype == fresh.phenotype
            assert inherited.expr == fresh.expr
            assert inherited.fitness == fresh.fitness
            assert inherited.valid == fresh.valid
            assert inherited.codons_used == fresh.codons_used
        # a child keeping every codon an unwrapped parent read does inherit
        if (parent.codons_used < len(parent_codons)
                and parent.codons_used <= keep):
            assert inherited is not None


def test_full_length_parent_passes_scoring_only_to_an_equal_row(
        canonical_grammar, pi_dataset):
    # codons_used == len is what a max_wraps=0 INVALID_WRAPS mapping
    # reports, and what a mapping that read exactly every codon reports:
    # every column counts as read
    for codons in ((0, 0), (0, 9, 9)):
        parent = score_genome(Genome(codons), canonical_grammar, pi_dataset,
                              max_wraps=0, max_depth=17)
        assert parent.codons_used == len(codons)
        assert reference_inherit(parent, Genome(codons + (9, 9, 9))) is None
        assert _inherits(parent, Genome(codons))
        for column in range(len(codons)):
            changed = list(codons)
            changed[column] += 1
            assert not _inherits(parent, Genome(tuple(changed)))


# --- breeding round ------------------------------------------------------------

def reference_breed(population, config, grammar, dataset, rng, memo):
    """A breeding round drawn call by call through the public operators:
    the loop a run's step ran before it replayed rounds from raw words."""
    elites = sorted(population, key=lambda i: i.fitness)[: config.elitism_count]
    offspring = list(elites)
    while len(offspring) < config.population_size:
        parent_a = tournament_select(population, config.tournament_size, rng)
        parent_b = tournament_select(population, config.tournament_size, rng)
        children = crossover(parent_a.genome, parent_b.genome,
                             config.crossover_rate, rng)
        for parent, child in zip((parent_a, parent_b), children):
            if len(offspring) >= config.population_size:
                break
            mutated = mutate(child, config.mutation_rate, rng)
            individual = reference_inherit(parent, mutated)
            if individual is None:
                individual = score_genome(mutated, grammar, dataset,
                                          config.max_wraps, config.max_depth,
                                          memo=memo)
            offspring.append(individual)
    return offspring


_BREED_CONFIGS = {
    "odd-children": dict(population_size=30),   # last pair's 2nd child unbred
    "all-elite": dict(population_size=6, elitism_count=6),
    "length-1": dict(genome_length=1),          # too short to cut
    "length-2": dict(genome_length=2),          # the cut draws nothing
    "population-1": dict(population_size=1, tournament_size=1,
                         elitism_count=0),      # tournaments draw nothing
    "codon-max-1": dict(codon_max=1),           # redraws draw nothing
    "codon-max-3": dict(codon_max=3),
    # each side of the uint8, uint16 and uint32 codon matrix boundaries
    "codon-max-256": dict(codon_max=256),
    "codon-max-257": dict(codon_max=257),
    "codon-max-65536": dict(codon_max=65536),
    "codon-max-65537": dict(codon_max=65537),
    # about half the draws rejected; this seed also runs a block out inside
    # a pair and then draws a block too small for one pair
    "codon-max-2**31+11": dict(codon_max=2**31 + 11, population_size=13,
                               genome_length=100),
    "codon-max-2**32-1-all-hit": dict(codon_max=2**32 - 1, mutation_rate=1.0),
    # every redraw a hit, so each one's rank is checked: about half of the
    # 32-bit draws rejected, and a third of the 64-bit ones below
    "codon-max-2**31+11-all-hit": dict(codon_max=2**31 + 11,
                                       mutation_rate=1.0),
    "codon-max-2**64/3+1-all-hit": dict(codon_max=2**64 // 3 + 1,
                                        mutation_rate=1.0),
    # one draw in 16 rejected: some children's only rejection is their
    # first redraw, taken from a buffered half, or their last
    "codon-max-2**32-2**28": dict(codon_max=2**32 - 2**28, genome_length=10,
                                  population_size=61),
    "codon-max-2**32": dict(codon_max=2**32),   # raw halves
    "codon-max-2**32+1": dict(codon_max=2**32 + 1),     # 64-bit draws
    "codon-max-2**64/3+1": dict(codon_max=2**64 // 3 + 1),  # a third
    "codon-max-2**63": dict(codon_max=2**63),
    "mutation-0": dict(mutation_rate=0.0),
    "mutation-1": dict(mutation_rate=1.0),
    "crossover-0": dict(crossover_rate=0.0),
    "crossover-1": dict(crossover_rate=1.0),
    "k-3": dict(tournament_size=3, elitism_count=0),
    "several-blocks": dict(population_size=150, genome_length=20),
    # odd lengths: a child's last redraw can leave a half buffered, which
    # the next draw takes
    "length-3": dict(genome_length=3),
    "length-41": dict(genome_length=41),
    "length-41-k-3": dict(genome_length=41, tournament_size=3,
                          elitism_count=0),
}


def _plain_state(rng):
    """The bit generator state with arrays as lists, so states compare."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def _step_against_reference(grammar, dataset, config, rounds=4):
    reference_rng = np.random.default_rng()
    state = RunState(config, grammar, dataset)
    reference_rng.bit_generator.state = state.rng.bit_generator.state
    population = state.individuals()
    for _ in range(rounds):
        # genomes too short to cut warn once per pair, as crossover does
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            state.step()
        with warnings.catch_warnings(record=True) as expected_warned:
            warnings.simplefilter("always")
            expected = reference_breed(population, config, grammar, dataset,
                                       reference_rng, {})
        assert ([w.category for w in warned]
                == [w.category for w in expected_warned])
        assert state.individuals() == expected
        assert _plain_state(state.rng) == _plain_state(reference_rng)
        population = expected


@pytest.mark.parametrize("overrides", _BREED_CONFIGS.values(),
                         ids=_BREED_CONFIGS.keys())
def test_breed_matches_call_by_call_reference(pi_paper_grammar, pi_dataset,
                                              overrides, monkeypatch):
    # offspring and the whole generator state, has_uint32 and uinteger
    # included, equal the reference's after every round
    config = EvolutionConfig(**{**dict(population_size=31, genome_length=40,
                                       mutation_rate=0.05, rng_seed=5),
                                **overrides})

    def forbidden(*args, **kwargs):
        raise AssertionError("a breeding round called a breeding operator")

    for name in ("tournament_select", "crossover", "mutate"):
        monkeypatch.setattr(engine, name, forbidden)
    _step_against_reference(pi_paper_grammar, pi_dataset, config)


def _start_runs_at(monkeypatch, rng):
    """Make the generator of each RunState built from here on start where
    ``rng`` stands, not at its seed's first word."""
    seeded = np.random.PCG64

    def at_rng(seed):
        bit_generator = seeded(seed)
        bit_generator.state = rng.bit_generator.state
        return bit_generator

    monkeypatch.setattr(np.random, "PCG64", at_rng)


def _rng_with_word(word, at):
    """A PCG64 Generator whose raw word number ``at`` is ``word``, with no
    half buffered."""
    # PCG64 outputs the high and low halves of its 128-bit state after a
    # step, xored and rotated right by the state's top 6 bits
    high = 0x0123456789ABCDEF
    rotation = high >> 58
    low = high ^ (word << rotation | word >> 64 - rotation) & 2**64 - 1
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": high << 64 | low, "inc": 1},
                           "has_uint32": 0, "uinteger": 0}
    bit_generator.advance(-(at + 1))
    return np.random.Generator(bit_generator)


def _spy_call_by_call(monkeypatch):
    """The arguments of every call to the breeding round's call-by-call
    fallback, which still runs."""
    calls = []
    call_by_call = engine._drawn_call_by_call

    def spy(*args):
        calls.append(args)
        return call_by_call(*args)

    monkeypatch.setattr(engine, "_drawn_call_by_call", spy)
    return calls


@pytest.mark.parametrize("at", [0, 3], ids=["tournament", "cut"])
def test_breed_rejected_tournament_or_cut_draw_reads_call_by_call(
        pi_paper_grammar, pi_dataset, monkeypatch, at):
    # a zero half is rejected below any bound that is not a power of two:
    # raw word 0 holds the first tournament's first two halves, and with
    # nothing buffered and k = 2, raw word 3 holds the first pair's cut;
    # the rest of the round is drawn call by call
    config = EvolutionConfig(population_size=31, genome_length=1000,
                             crossover_rate=1.0, mutation_rate=0.05,
                             rng_seed=5)
    assert 2**32 % 31 and 2**32 % 999
    state = RunState(config, pi_paper_grammar, pi_dataset)
    population = state.individuals()
    state.rng.bit_generator.state = _rng_with_word(0, at).bit_generator.state
    reference_rng = _rng_with_word(0, at)
    assert _rng_with_word(0, at).bit_generator.random_raw(at + 1)[at] == 0
    calls = _spy_call_by_call(monkeypatch)
    state.step()
    expected = reference_breed(population, config, pi_paper_grammar,
                               pi_dataset, reference_rng, {})
    assert calls, "the block was not drawn call by call"
    # in one call, from the first block's first pair to the round's end,
    # although the round's 15 pairs fill four raw blocks
    assert [args[3] for args in calls] == [config.population_size - 1]
    assert state.individuals() == expected
    assert _plain_state(state.rng) == _plain_state(reference_rng)


@pytest.mark.parametrize("codon_max", [1, 3, 256, 257, 65536, 65537,
                                       2**31 + 11, 2**32 - 2**28, 2**32,
                                       2**32 + 1, 2**64 // 3 + 1, 2**63])
def test_initial_population_draws_as_a_call_per_genome(pi_paper_grammar,
                                                       pi_dataset, codon_max,
                                                       monkeypatch):
    # genomes from several blocks, a retry count that varies per row, and a
    # buffered half before the first draw
    config = EvolutionConfig(population_size=41, genome_length=1001,
                             codon_max=codon_max, invalid_retries=2)
    assert engine._BLOCK_BYTES // (8 * 1001) < 41
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    rng.integers(0, 3)
    reference_rng.integers(0, 3)
    _start_runs_at(monkeypatch, rng)
    state = RunState(config, pi_paper_grammar, pi_dataset)
    expected = []
    for _ in range(config.population_size):
        for _attempt in range(config.invalid_retries + 1):
            codons = reference_rng.integers(0, codon_max, size=1001)
            individual = score_genome(Genome(tuple(codons.tolist()), codon_max),
                                      pi_paper_grammar, pi_dataset,
                                      config.max_wraps, config.max_depth)
            if individual.valid:
                break
        expected.append(individual)
    assert state.individuals() == expected
    assert _plain_state(state.rng) == _plain_state(reference_rng)
    # the narrowest unsigned integers that hold codon_max - 1
    width = next(bits for bits in (8, 16, 32, 64) if codon_max <= 2**bits)
    assert state.codons.dtype == np.dtype(f"uint{width}")


@pytest.mark.parametrize("leftover", [4, 3])
def test_breed_reads_a_tournament_leftover_at_the_threshold_at_its_position(
        pi_paper_grammar, pi_dataset, monkeypatch, leftover):
    # Lemire's rule for a population of 31: the low 32 bits of half * 31
    # are rejected below 2**32 % 31 == 4; raw word 0's low half is the
    # first tournament draw, and its high half, 1, is kept
    config = EvolutionConfig(population_size=31, genome_length=40,
                             mutation_rate=0.05, rng_seed=5)
    assert 2**32 % 31 == 4
    half = leftover * pow(31, -1, 2**32) % 2**32
    assert half * 31 % 2**32 == leftover
    state = RunState(config, pi_paper_grammar, pi_dataset)
    population = state.individuals()
    state.rng.bit_generator.state = _rng_with_word(1 << 32 | half,
                                                   0).bit_generator.state
    reference_rng = _rng_with_word(1 << 32 | half, 0)
    calls = _spy_call_by_call(monkeypatch)
    state.step()
    expected = reference_breed(population, config, pi_paper_grammar,
                               pi_dataset, reference_rng, {})
    assert bool(calls) == (leftover < 4)
    assert state.individuals() == expected
    assert _plain_state(state.rng) == _plain_state(reference_rng)


# genomes of one codon, a population of one, or codon_max 1 or above 2**32
_UNCOVERED_CONFIGS = ("length-1", "population-1", "codon-max-1",
                      "codon-max-2**64/3+1-all-hit", "codon-max-2**32+1",
                      "codon-max-2**64/3+1", "codon-max-2**63")


@pytest.mark.parametrize("name", [*_BREED_CONFIGS, "default"])
def test_breed_draws_call_by_call_only_the_rounds_positions_do_not_cover(
        pi_paper_grammar, pi_dataset, monkeypatch, name):
    # every child of an uncovered round is drawn call by call, and none of
    # a covered one: a position pass that gave up on every block would
    # breed the same children, only slower
    config = EvolutionConfig(**{**dict(population_size=31, genome_length=40,
                                       mutation_rate=0.05, rng_seed=5),
                                **_BREED_CONFIGS.get(name, {})})
    state = RunState(config, pi_paper_grammar, pi_dataset)
    # which blocks Lemire rejects depends on the words: breed from the
    # seed's first word on
    state.rng.bit_generator.state = np.random.default_rng(
        config.rng_seed).bit_generator.state
    calls = _spy_call_by_call(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLength)
        for _ in range(3):
            state.step()
    children = 3 * (config.population_size - config.elitism_count)
    assert sum(args[3] for args in calls) == (
        children if name in _UNCOVERED_CONFIGS else 0)


# --- evolve ------------------------------------------------------------------

def _small_config(**overrides):
    base = dict(population_size=20, generations=5, genome_length=40,
                rng_seed=99)
    base.update(overrides)
    return EvolutionConfig(**base)


def test_evolve_deterministic(pi_paper_grammar, pi_dataset):
    config = _small_config()
    one = evolve(config, pi_paper_grammar, pi_dataset)
    two = evolve(config, pi_paper_grammar, pi_dataset)
    assert one.history == two.history
    assert one.best == two.best
    assert one.config_echo == two.config_echo


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stepping_a_run_state_by_hand_equals_evolve(
        pi_paper_grammar, canonical_grammar, pi_dataset, seed):
    # each record a step returns is the one evolve hands its progress sink
    for grammar in (pi_paper_grammar, canonical_grammar):
        config = _small_config(rng_seed=seed)
        sunk = []
        result = evolve(config, grammar, pi_dataset, progress_sink=sunk.append)
        state = RunState(config, grammar, pi_dataset)
        stepped = [state.recorded[0][0]]
        stepped += [state.step() for _ in range(config.generations - 1)]
        assert stepped == sunk
        stepped_result = state.result(result.elapsed_seconds)
        assert stepped_result.history == result.history
        assert stepped_result.best == result.best


def test_evolve_history_semantics(pi_paper_grammar, pi_dataset):
    result = evolve(_small_config(generations=1), pi_paper_grammar, pi_dataset)
    assert len(result.history) == 1
    result = evolve(_small_config(), pi_paper_grammar, pi_dataset)
    assert [r.generation for r in result.history] == [0, 1, 2, 3, 4]


def test_evolve_monotone_under_elitism(pi_paper_grammar, pi_dataset):
    result = evolve(_small_config(generations=10, population_size=30),
                    pi_paper_grammar, pi_dataset)
    fits = [r.best_fitness for r in result.history]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert result.best.fitness == min(fits)


def test_evolve_progress_sink_order(pi_paper_grammar, pi_dataset):
    seen = []
    result = evolve(_small_config(), pi_paper_grammar, pi_dataset,
                    progress_sink=seen.append)
    assert seen == list(result.history)


def test_evolve_elitism_closure(pi_paper_grammar, pi_dataset):
    # a population of one elite can never change
    config = EvolutionConfig(population_size=1, generations=6,
                             genome_length=40, tournament_size=1,
                             elitism_count=1, rng_seed=4)
    result = evolve(config, pi_paper_grammar, pi_dataset)
    phenotypes = {r.best_phenotype for r in result.history}
    fits = {r.best_fitness for r in result.history}
    assert len(phenotypes) == 1 and len(fits) == 1


def test_evolve_best_mean_relation(pi_paper_grammar, pi_dataset):
    result = evolve(_small_config(), pi_paper_grammar, pi_dataset)
    for record in result.history:
        assert record.best_fitness <= record.mean_fitness
        assert 0 <= record.invalid_count <= 20


def test_evolve_all_invalid_when_language_is_foreign(pi_dataset):
    # sentences of this grammar are not formulas; every individual stays
    # invalid, and only then may an invalid best be reported
    alien = parse_grammar("<s> ::= zzz | yyy")
    config = EvolutionConfig(population_size=6, generations=3,
                             genome_length=10, invalid_retries=1, rng_seed=8)
    result = evolve(config, alien, pi_dataset)
    assert result.best.valid is False
    assert result.best.fitness == WORST_FITNESS
    assert result.best.phenotype in {"zzz", "yyy"}
    for record in result.history:
        assert record.invalid_count == 6
        assert record.mean_fitness == WORST_FITNESS


def test_evolve_scores_each_distinct_phenotype_once(pi_paper_grammar,
                                                    pi_dataset, monkeypatch):
    mapped, parsed, scored = [], [], []
    real_map = engine.map_genome
    real_parse = engine.parse_formula
    real_mse = engine.fitness_mse

    def map_spy(*args, **kwargs):
        result = real_map(*args, **kwargs)
        if result.valid:
            mapped.append(result.phenotype)
        return result

    def parse_spy(text):
        parsed.append(text)
        return real_parse(text)

    def mse_spy(expr, dataset, **kwargs):
        scored.append(expr)
        return real_mse(expr, dataset, **kwargs)

    monkeypatch.setattr(engine, "map_genome", map_spy)
    monkeypatch.setattr(engine, "parse_formula", parse_spy)
    monkeypatch.setattr(engine, "fitness_mse", mse_spy)
    evolve(_small_config(generations=8), pi_paper_grammar, pi_dataset)

    distinct = set(mapped)
    assert len(mapped) > len(distinct)      # the run does repeat phenotypes
    assert len(parsed) == len(distinct)
    assert set(parsed) == distinct
    assert len(scored) == len(distinct)


def test_evolve_computes_each_unary_of_x_once(pi_paper_grammar, pi_dataset,
                                             monkeypatch):
    ops = (UnaryOp.SIN, UnaryOp.TANH, UnaryOp.EXP, UnaryOp.PSQRT,
           UnaryOp.PLOG)
    of_x, other = {op: 0 for op in ops}, {op: 0 for op in ops}

    def spy(op, rule):
        # a function in the table is called as a protected rule; it applies
        # the operator's own entry, a ufunc or a rule
        def counting(out, masks, a):
            (of_x if a is pi_dataset.xs else other)[op] += 1
            if isinstance(rule, np.ufunc):
                rule(a, out=out)
            else:
                rule(out, masks, a)
        return counting

    unspied = evolve(_small_config(generations=8), pi_paper_grammar,
                     pi_dataset)
    for op in ops:
        monkeypatch.setitem(gramevo.evaluation._RULES, op,
                            spy(op, gramevo.evaluation._RULES[op]))
    result = evolve(_small_config(generations=8), pi_paper_grammar,
                    pi_dataset)
    assert result.history == unspied.history
    assert result.best == unspied.best
    assert max(of_x.values()) == 1
    # the operators also ran on other operands, which are not kept
    assert sum(other.values()) > 0


def test_evolve_builds_no_derivation_tree(pi_paper_grammar, pi_dataset,
                                         monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evolve allocated a DerivationTree")

    monkeypatch.setattr(gramevo.mapping, "DerivationTree", forbidden)
    result = evolve(_small_config(generations=3), pi_paper_grammar, pi_dataset)
    assert result.best.valid


def test_evolve_builds_no_checked_genome(pi_paper_grammar, pi_dataset,
                                         monkeypatch):
    # codons are checked at the boundary; random draws, crossover and
    # mutation make in-range genomes without the per-genome check
    def forbidden(self):
        raise AssertionError("evolve built a Genome through its checked constructor")

    monkeypatch.setattr(Genome, "__post_init__", forbidden)
    result = evolve(_small_config(generations=3), pi_paper_grammar, pi_dataset)
    assert result.best.valid


def test_evolve_individuals_match_fresh_scoring(pi_paper_grammar, pi_dataset,
                                                monkeypatch):
    # every individual the run scores, memo hit or miss, equals what a
    # direct score_genome call without a memo gives for its genome
    built = []
    real_score = engine.score_genome
    real_score_row = engine._score_row

    def score_spy(codons, *args):
        score = real_score_row(codons, *args)
        phenotype, fitness, codons_used, expr = score
        if expr is None and phenotype is not None:
            # a memo hit: the run parsed the phenotype when it first met it
            expr = parse_formula(phenotype)
        # the row is written again in a later round: copy it now
        genome = Genome(tuple(codons), codon_max=config.codon_max)
        built.append(Individual(genome, phenotype, expr, fitness,
                                fitness != WORST_FITNESS, codons_used))
        return score

    monkeypatch.setattr(engine, "_score_row", score_spy)
    config = _small_config(generations=8)
    result = evolve(config, pi_paper_grammar, pi_dataset)
    # score_genome scores through _score_row too
    monkeypatch.undo()

    assert any(result.best == individual for individual in built)
    for individual in built:
        fresh = real_score(individual.genome, pi_paper_grammar, pi_dataset,
                           config.max_wraps, config.max_depth)
        assert fresh.phenotype == individual.phenotype
        assert fresh.fitness == individual.fitness
        assert fresh.valid == individual.valid
        assert fresh.codons_used == individual.codons_used
        assert fresh.expr == individual.expr


def test_run_state_memo_holds_fitness_and_individuals_parse(
        pi_paper_grammar, pi_dataset):
    # the memo holds one float per phenotype and no tree; an individual's
    # expression is its phenotype's parse, whether the run kept that tree
    # or not, and score_genome gives the same on a memo miss and hit
    config = _small_config(generations=30)
    state = RunState(config, pi_paper_grammar, pi_dataset)
    memo = state.scoring[4]
    for _ in range(config.generations):
        assert all(type(fitness) is float for fitness in memo.values())
        for row in range(config.population_size):
            phenotype = state.phenotype[row]
            try:
                parsed = (None if phenotype is None
                          else parse_formula(phenotype))
            except FormulaSyntaxError:
                parsed = None
            assert state.individual(row).expr == parsed
        state.step()
    assert len(memo) > config.population_size
    shared = {}
    for individual in state.individuals():
        first = score_genome(individual.genome, pi_paper_grammar, pi_dataset,
                             config.max_wraps, config.max_depth, memo=shared)
        again = score_genome(individual.genome, pi_paper_grammar, pi_dataset,
                             config.max_wraps, config.max_depth, memo=shared)
        assert first == again == individual
    assert all(type(fitness) is float for fitness in shared.values())


def test_run_state_refuses_a_population_past_physical_memory(
        pi_paper_grammar, pi_dataset, monkeypatch):
    # only through the check, at a stated memory size: 10 genomes of 200
    # uint32 codons and their three score columns take 10 * (800 + 24)
    # bytes, and the check refuses them before anything is drawn
    config = _small_config(population_size=10, genome_length=200)
    monkeypatch.setattr(gramevo.primes, "_physical_memory_bytes",
                        lambda: 8239)
    monkeypatch.setattr(engine.np.random, "PCG64", None)
    with pytest.raises(LimitTooLarge, match="a population of 10 genomes of "
                       "200 codons needs 8240 bytes, more than the 8239 "
                       "bytes of physical memory"):
        RunState(config, pi_paper_grammar, pi_dataset)
    monkeypatch.undo()
    monkeypatch.setattr(gramevo.primes, "_physical_memory_bytes",
                        lambda: 8240)
    assert len(RunState(config, pi_paper_grammar, pi_dataset).codons) == 10


def _stepped(config, grammar, dataset):
    """A RunState stepped through ``config.generations`` generations, as
    evolve steps it, and each generation's population."""
    state = RunState(config, grammar, dataset)
    populations = [state.individuals()]
    for _ in range(config.generations - 1):
        state.step()
        populations.append(state.individuals())
    return state, populations


def test_evolve_every_generation_matches_fresh_scoring(pi_paper_grammar,
                                                      pi_dataset, monkeypatch):
    # inherited children never pass through score_genome, so every member
    # of every recorded generation is checked against a fresh scoring
    inherited = []
    real_inherits = engine._inherits
    real_score = engine.score_genome

    def inherits_spy(*args):
        inheriting = real_inherits(*args)
        inherited.append(int(inheriting.sum()))
        return inheriting

    monkeypatch.setattr(engine, "_inherits", inherits_spy)
    config = _small_config(generations=8)
    _, generations = _stepped(config, pi_paper_grammar, pi_dataset)

    assert len(generations) == config.generations
    for population in generations:
        assert len(population) == config.population_size
        for individual in population:
            fresh = real_score(individual.genome, pi_paper_grammar, pi_dataset,
                               config.max_wraps, config.max_depth)
            assert individual.genome == fresh.genome
            assert individual.phenotype == fresh.phenotype
            assert individual.expr == fresh.expr
            assert individual.fitness == fresh.fitness
            assert individual.valid == fresh.valid
            assert individual.codons_used == fresh.codons_used
    assert sum(inherited) > 0    # the run does inherit


def test_evolve_best_is_earliest_of_equally_fit(pi_paper_grammar, pi_dataset):
    # a generation's best is its first individual of lowest fitness, and the
    # run's best is the first one, generation by generation, to reach the
    # run's lowest fitness
    def fitness(individual):
        return individual.fitness

    seen = []
    # no elites, so equally fit individuals need not share a genome
    state, populations = _stepped(
        _small_config(population_size=30, generations=10, elitism_count=0),
        pi_paper_grammar, pi_dataset)
    best_so_far = None
    for individuals, (record, best_ever) in zip(populations, state.recorded):
        best = individuals[min(range(len(individuals)),
                               key=lambda row: fitness(individuals[row]))]
        # what a generation's best row sets: its record and, if fitter than
        # the best so far, the best so far
        assert (record.best_fitness, record.best_phenotype) == (
            best.fitness, best.phenotype or "")
        if best_ever is not best_so_far:
            assert best_ever == best
        best_so_far = best_ever
        seen.extend(individuals)
    result = state.result(0.0)
    first = min(seen, key=fitness)
    assert result.best == first
    assert sum(fitness(individual) == first.fitness for individual in seen) > 1


def test_evolve_inheritance_changes_no_population(pi_paper_grammar,
                                                  pi_dataset, monkeypatch):
    # a run that maps and scores every child builds equal populations,
    # generation by generation, and returns an equal result
    generations, results = [], []

    def none_inherit(children, parents, used):
        return np.zeros(len(children), bool)

    for inherits in (engine._inherits, none_inherit):
        monkeypatch.setattr(engine, "_inherits", inherits)
        state, populations = _stepped(_small_config(generations=8),
                                      pi_paper_grammar, pi_dataset)
        generations.append(populations)
        results.append(state.result(0.0))
    inheriting, scoring = generations
    assert len(inheriting) == 8
    assert inheriting == scoring
    assert results[0].history == results[1].history
    assert results[0].best == results[1].best


def test_evolve_interrupt_returns_best_so_far(pi_paper_grammar, pi_dataset,
                                              monkeypatch):
    config = _small_config(generations=6)
    full = evolve(config, pi_paper_grammar, pi_dataset)
    seen = []
    # the third breeding round starts after generations 0 to 2 are recorded
    interrupt_on_call(monkeypatch, "step", 3, owner=RunState)
    with pytest.raises(RunInterrupted) as caught:
        evolve(config, pi_paper_grammar, pi_dataset, progress_sink=seen.append)
    result = caught.value.result
    assert len(result.history) == 3
    assert list(result.history) == seen == list(full.history[:3])
    assert result.best.fitness == min(r.best_fitness for r in result.history)
    assert result.best.phenotype == result.history[-1].best_phenotype
    assert result.config_echo == config
    assert "3 generations" in str(caught.value)


def test_evolve_interrupt_in_progress_sink_keeps_reported_records(
        pi_paper_grammar, pi_dataset):
    seen = []

    def sink(record):
        seen.append(record)
        if len(seen) == 2:
            raise KeyboardInterrupt

    with pytest.raises(RunInterrupted) as caught:
        evolve(_small_config(), pi_paper_grammar, pi_dataset,
               progress_sink=sink)
    result = caught.value.result
    assert list(result.history) == seen
    assert result.best.fitness == min(r.best_fitness for r in seen)


def test_evolve_interrupt_during_init_propagates(pi_paper_grammar, pi_dataset,
                                                 monkeypatch):
    interrupt_on_call(monkeypatch, "_random_genome", 5)
    with pytest.raises(KeyboardInterrupt):
        evolve(_small_config(), pi_paper_grammar, pi_dataset)


def test_evolve_quality_smoke(pi_paper_grammar, pi_dataset):
    # desk-scale run still has to beat the best constant predictor
    # (tiny populations are hit-or-miss; this seed lands at ~830)
    config = EvolutionConfig(population_size=100, generations=15, rng_seed=99)
    result = evolve(config, pi_paper_grammar, pi_dataset)
    assert result.best.valid
    assert result.best.fitness < float(np.var(pi_dataset.ys))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=0)
    with pytest.raises(ValueError):
        EvolutionConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        EvolutionConfig(tournament_size=11, population_size=10)
    with pytest.raises(ValueError):
        EvolutionConfig(elitism_count=11, population_size=10)
    with pytest.raises(ValueError):
        EvolutionConfig(rng_seed=-1)
    # boundary: an all-elite population is allowed and inert
    EvolutionConfig(population_size=2, elitism_count=2, tournament_size=2)


def test_config_error_is_a_gramevo_error_and_a_value_error():
    with pytest.raises(ConfigError, match="population_size must be positive"):
        EvolutionConfig(population_size=0)
    assert issubclass(ConfigError, GramevoError)
    assert issubclass(ConfigError, ValueError)


_GRAMMAR = parse_grammar("<e> ::= x | 1")


def _run_state():
    """A run state of four genomes of four codons, never stepped."""
    return RunState(EvolutionConfig(population_size=4, generations=1,
                                    genome_length=4),
                    _GRAMMAR, Dataset([1.0, 2.0], [0.0, 0.0]))


_VALUE_ERROR_CASES = {
    "buffers-shape": (lambda: fitness_mse(
        parse_formula("x"), Dataset([1.0, 2.0], [0.0, 0.0]),
        buffers=EvalBuffers(3)), "cannot score"),
    "select-empty": (lambda: tournament_select(
        [], 1, np.random.default_rng(0)), "empty population"),
    "select-size": (lambda: tournament_select(
        [None], 2, np.random.default_rng(0)), "tournament size"),
    "crossover-codon-max": (lambda: crossover(
        Genome((1, 2), codon_max=3), Genome((1, 2), codon_max=4), 1.0,
        np.random.default_rng(0)), "share codon_max"),
    "const-not-finite": (lambda: Const(math.inf), "finite"),
    "symbol-blank-terminal": (lambda: Symbol(" ", True), "visible text"),
    "symbol-bad-nonterminal": (lambda: Symbol("a<b", False),
                               "invalid nonterminal"),
    "production-empty": (lambda: Production(()), "at least one"),
    # arguments of the wrong type
    "select-k-text": (lambda: tournament_select(
        [_individual(1.0)], "1", np.random.default_rng(0)),
        "tournament size must be an integer"),
    "select-k-float": (lambda: tournament_select(
        [_individual(1.0)], 1.0, np.random.default_rng(0)),
        "tournament size must be an integer"),
    "crossover-none": (lambda: crossover(
        None, None, 0.5, np.random.default_rng(0)),
        "a must be of type Genome, not NoneType"),
    "crossover-rate-text": (lambda: crossover(
        Genome((1, 2)), Genome((3, 4)), "a", np.random.default_rng(0)),
        "rate must be a real number"),
    "crossover-rate-above-1": (lambda: crossover(
        Genome((1, 2)), Genome((3, 4)), 1.5, np.random.default_rng(0)),
        r"rate must lie in \[0, 1\]"),
    "mutate-none": (lambda: mutate(None, 0.5, np.random.default_rng(0)),
                    "g must be of type Genome, not NoneType"),
    "mutate-rate-text": (lambda: mutate(
        Genome((1, 2)), "a", np.random.default_rng(0)),
        "rate must be a real number"),
    # an array's repr spans several lines
    "mutate-rate-array": (lambda: mutate(
        Genome((1, 2)), np.zeros((40, 40)), np.random.default_rng(0)),
        "rate must be a real number"),
    "const-text": (lambda: Const("abc"), "constants must be numbers"),
    "const-none": (lambda: Const(None), "constants must be numbers"),
    "symbol-nonterminal-int": (lambda: Symbol(5, False),
                               "symbol text must be a string, not int"),
    "symbol-terminal-int": (lambda: Symbol(5, True),
                            "symbol text must be a string, not int"),
    "production-none": (lambda: Production(None),
                        "a production's symbols must be Symbols"),
    "production-text": (lambda: Production(("a",)),
                        "a production's symbols must be Symbols"),
    "symbol-terminal-text": (lambda: Symbol("a", "no"),
                             "is_terminal must be a bool, not str"),
    "select-member-none": (lambda: tournament_select(
        [None, 3], 2, np.random.default_rng(0)),
        "population member must be of type Individual, not"),
    "select-rng-none": (lambda: tournament_select(
        [_individual(1.0)], 1, None),
        "rng must be of type Generator, not NoneType"),
    "crossover-rng-none": (lambda: crossover(
        Genome((1, 2)), Genome((1, 2)), 0.5, None),
        "rng must be of type Generator, not NoneType"),
    "mutate-rng-none": (lambda: mutate(Genome((1, 2)), 0.01, None),
                        "rng must be of type Generator, not NoneType"),
    # the evaluation entry points name the argument
    "mse-expr-none": (lambda: fitness_mse(
        None, Dataset([1.0, 2.0], [0.0, 0.0])),
        "expr must be of type ExprNode, not NoneType"),
    "mse-dataset-none": (lambda: fitness_mse(parse_formula("x"), None),
                         "dataset must be of type Dataset, not NoneType"),
    "evaluate-expr-none": (lambda: evaluate(None, 1.0),
                           "expr must be of type ExprNode, not NoneType"),
    "evaluate-array-expr-none": (lambda: evaluate_array(None, [1.0]),
                                 "expr must be of type ExprNode"),
    "evaluate-x-text": (lambda: evaluate(parse_formula("x"), "a"),
                        "x must be a real number, got 'a'"),
    "evaluate-array-xs-text": (lambda: evaluate_array(
        parse_formula("x"), "a"), "xs must hold real numbers, not str_"),
    # numeric text is text: numpy's reading of it is not the formula's
    "evaluate-x-numeric-text": (lambda: evaluate(parse_formula("x"), "1.5"),
                                "x must be a real number, got '1.5'"),
    "evaluate-array-xs-numeric-text": (lambda: evaluate_array(
        parse_formula("x"), ["1.5", "2"]),
        "xs must hold real numbers, not str_"),
    "format-text": (lambda: format_expr("x"),
                    "expr must be of type ExprNode, not str"),
    "dataset-numeric-text": (lambda: Dataset(["1.5", "2"], ["3", "4"]),
                             "xs must hold real numbers, not str_"),
    "dataset-text": (lambda: Dataset(["a", "b"], [1, 2]),
                     "xs must hold real numbers, not str_"),
    # the rest of the public entry points name the argument of a wrong type
    "genome-none": (lambda: Genome(None),
                    "codons must be a sequence of integers, not NoneType"),
    "map-grammar-none": (lambda: map_genome(None, Genome((1, 2))),
                         "grammar must be of type Grammar, not NoneType"),
    "map-genome-tuple": (lambda: map_genome(_GRAMMAR, (1, 2)),
                         "genome must be of type Genome, not tuple"),
    "map-max-wraps-text": (lambda: map_genome(
        _GRAMMAR, Genome((1, 2)), max_wraps="a"),
        "max_wraps must be an integer, got 'a'"),
    "score-genome-none": (lambda: score_genome(
        None, _GRAMMAR, Dataset([1.0, 2.0], [0.0, 0.0]), 1, 17),
        "genome must be of type Genome, not NoneType"),
    "read-dataset-none": (lambda: read_dataset(None),
                          "path must be a str, bytes or os.PathLike, not "
                          "NoneType"),
    "write-dataset-path-none": (lambda: write_dataset(
        Dataset([1.0, 2.0], [0.0, 0.0]), None),
        "path must be a str, bytes or os.PathLike, not NoneType"),
    "write-dataset-none": (lambda: write_dataset(None, "never-written.txt"),
                           "dataset must be of type Dataset, not NoneType"),
    "production-count-none": (lambda: production_count(None, "e"),
                              "grammar must be of type Grammar, not NoneType"),
    "format-grammar-none": (lambda: format_grammar(None),
                            "grammar must be of type Grammar, not NoneType"),
    "phenotype-of-none": (lambda: phenotype_of(None),
                          "tree must be of type DerivationTree, not NoneType"),
    "tree-depth-none": (lambda: tree_depth(None),
                        "tree must be of type DerivationTree, not NoneType"),
    "prime-table-text": (lambda: PrimeTable("abc", 10),
                         "primes must hold integers, not str_"),
    "build-dataset-table-none": (lambda: build_dataset(
        DatasetMode.PRIME_INDEXED, 5, None),
        "table must be of type PrimeTable, not NoneType"),
    "prime-pi-table-none": (lambda: prime_pi(3, None),
                            "table must be of type PrimeTable, not NoneType"),
    # the constructors of the evaluation buffers, the inner formula nodes
    # and the grammar name the argument too
    "eval-buffers-text": (lambda: EvalBuffers("a"),
                          "shape must be an integer, got 'a'"),
    "eval-buffers-none": (lambda: EvalBuffers(None),
                          "shape must be an integer, got None"),
    "eval-buffers-negative": (lambda: EvalBuffers(-1),
                              "shape must be non-negative, got -1"),
    "eval-buffers-bool": (lambda: EvalBuffers((3, True)),
                          "shape must be an integer, got True"),
    "unary-child-none": (lambda: Unary(UnaryOp.SIN, None),
                         "child must be of type ExprNode, not NoneType"),
    "unary-none": (lambda: Unary(None, None),
                   "op must be of type UnaryOp, not NoneType"),
    "binary-none": (lambda: Binary(None, None, None),
                    "op must be of type BinaryOp, not NoneType"),
    "binary-right-none": (lambda: Binary(BinaryOp.ADD, Var(), None),
                          "right must be of type ExprNode, not NoneType"),
    "grammar-none": (lambda: Grammar(None, None),
                     "start must be of type str, not NoneType"),
    "grammar-rule-int": (lambda: Grammar("e", {"e": 5}),
                         "rule <e> must hold Productions, got 5"),
    # a bool is a truth value, not a count or a rate
    "genome-codon-max-bool": (lambda: Genome((1, 2), codon_max=True),
                              "codon_max must be an integer, got True"),
    "genome-codon-bool": (lambda: Genome((True, False)),
                          "codon True is not an integer"),
    "config-size-bool": (lambda: EvolutionConfig(
        population_size=True, tournament_size=1, elitism_count=1),
        "population_size must be an integer, got True"),
    "config-rate-bool": (lambda: EvolutionConfig(crossover_rate=True),
                         "crossover_rate must be a real number, got True"),
    # found by probing with wrong types; each is refused before it is used
    "mse-buffers-text": (lambda: fitness_mse(
        parse_formula("x"), Dataset([1.0, 2.0], [0.0, 0.0]), buffers="a"),
        "buffers must be of type EvalBuffers, not str"),
    "select-population-float": (lambda: tournament_select(
        1.5, 1, np.random.default_rng(0)),
        "population must be of type Sequence, not float"),
    "select-population-array": (lambda: tournament_select(
        np.array([1, 2]), 1, np.random.default_rng(0)),
        "population must be of type Sequence, not ndarray"),
    # past what numpy can index, refused before anything is allocated
    "eval-buffers-huge": (lambda: EvalBuffers(10**30),
                          f"shape is too large, got {10**30}"),
    # found by the seeded fuzz below
    "score-genome-memo-text": (lambda: score_genome(
        Genome((0, 1)), _GRAMMAR, Dataset([1.0, 2.0], [0.0, 0.0]), 1, 5,
        memo="a"), "memo must be of type dict, not str"),
    "run-state-none": (lambda: RunState(None, _GRAMMAR, None),
                       "config must be of type EvolutionConfig, not "
                       "NoneType"),
    # a row is a population index, and -1 is not one
    "run-state-row-past-end": (lambda: _run_state().individual(4),
                               r"row must lie in \[0, 4\), got 4"),
    "run-state-row-negative": (lambda: _run_state().individual(-1),
                               r"row must lie in \[0, 4\), got -1"),
    "run-state-row-text": (lambda: _run_state().individual("a"),
                           "row must be an integer, got 'a'"),
    "run-state-row-float": (lambda: _run_state().individual(1.5),
                            "row must be an integer, got 1.5"),
    "run-state-row-none": (lambda: _run_state().individual(None),
                           "row must be an integer, got None"),
    "run-state-elapsed-text": (lambda: _run_state().result("x"),
                               "elapsed_seconds must be a non-negative real "
                               "number, got 'x'"),
    "run-state-elapsed-bool": (lambda: _run_state().result(True),
                               "elapsed_seconds must be a non-negative real "
                               "number, got True"),
    "run-state-elapsed-negative": (lambda: _run_state().result(-0.5),
                                   "elapsed_seconds must be a non-negative "
                                   "real number, got -0.5"),
    "run-state-elapsed-nan": (lambda: _run_state().result(math.nan),
                              "elapsed_seconds must be a non-negative real "
                              "number, got nan"),
}


@pytest.mark.parametrize("case", _VALUE_ERROR_CASES.values(),
                         ids=_VALUE_ERROR_CASES.keys())
def test_bad_arguments_raise_gramevo_errors(case):
    # ConfigError, so callers catching ValueError still catch them; one
    # line, with no exception chained to it
    call, message = case
    with pytest.raises(GramevoError, match=message) as caught:
        call()
    assert isinstance(caught.value, ConfigError)
    assert "\n" not in str(caught.value)
    assert caught.value.__cause__ is None
    assert caught.value.__context__ is None or caught.value.__suppress_context__


# wrong types, and values past every bound, for any argument
_WRONG_VALUES = [None, "a", b"a", 1.5, True, math.nan, 10**30, -1, (),
                 np.array([1, 2])]


@pytest.fixture(scope="module")
def entry_points(tmp_path_factory):
    """Every public function, the constructors of what they take, and
    RunState, by name: the call and arguments it accepts, and the directory
    to call it in, where the file ``a`` holds a dataset.  Every genome maps
    in one codon, whatever the mapping limits."""
    where = tmp_path_factory.mktemp("fuzz")
    dataset = Dataset([1.0, 2.0], [3.0, 4.0])
    write_dataset(dataset, where / "a")
    genome, expr, rng = Genome((0, 1), 10), parse_formula("x"), (
        np.random.default_rng(0))
    config = EvolutionConfig(population_size=4, generations=2,
                             genome_length=4)
    table = sieve(30)
    terminal = Symbol("x", True)
    individual = score_genome(genome, _GRAMMAR, dataset, 1, 5)
    state = RunState(config, _GRAMMAR, dataset)
    calls = {
        "EvolutionConfig": (EvolutionConfig, (), dict(
            population_size=4, generations=2, genome_length=4, codon_max=10,
            max_wraps=1, max_depth=5, tournament_size=2, crossover_rate=0.5,
            mutation_rate=0.1, elitism_count=1, rng_seed=1,
            invalid_retries=1)),
        "Genome": (Genome, ((0, 1),), dict(codon_max=10)),
        "Dataset": (Dataset, ([1.0, 2.0], [3.0, 4.0]), dict(name="d")),
        "PrimeTable": (PrimeTable, ([2, 3, 5], 6), {}),
        "EvalBuffers": (EvalBuffers, (2,), {}),
        "Const": (Const, (1.5,), {}),
        "Unary": (Unary, (UnaryOp.SIN, expr), {}),
        "Binary": (Binary, (BinaryOp.ADD, expr, expr), {}),
        "Symbol": (Symbol, ("x", True), {}),
        "Production": (Production, ((terminal,),), {}),
        "Grammar": (Grammar, ("e", {"e": (Production((terminal,)),)}), {}),
        "RunState": (RunState, (config, _GRAMMAR, dataset), {}),
        "RunState.individual": (state.individual, (0,), {}),
        "RunState.result": (state.result, (0.5,), {}),
        "evolve": (evolve, (config, _GRAMMAR, dataset),
                   dict(progress_sink=None)),
        "score_genome": (score_genome, (genome, _GRAMMAR, dataset, 1, 5),
                         dict(memo=None)),
        "tournament_select": (tournament_select, ([individual], 1, rng), {}),
        "crossover": (crossover, (genome, genome, 0.5, rng), {}),
        "mutate": (mutate, (genome, 0.5, rng), {}),
        "evaluate": (evaluate, (expr, 1.5), {}),
        "evaluate_array": (evaluate_array, (expr, [1.0, 2.0]), {}),
        "fitness_mse": (fitness_mse, (expr, dataset), dict(buffers=None)),
        "format_expr": (format_expr, (expr,), {}),
        "parse_formula": (parse_formula, ("x+1",), {}),
        "parse_grammar": (parse_grammar, ("<e> ::= x | 1",), {}),
        "format_grammar": (format_grammar, (_GRAMMAR,), {}),
        "production_count": (production_count, (_GRAMMAR, "e"), {}),
        "map_genome": (map_genome, (_GRAMMAR, genome),
                       dict(max_wraps=1, max_depth=5)),
        "phenotype_of": (phenotype_of, (map_genome(_GRAMMAR, genome).tree,),
                         {}),
        "tree_depth": (tree_depth, (map_genome(_GRAMMAR, genome).tree,), {}),
        "sieve": (sieve, (30,), {}),
        "prime_pi": (prime_pi, (10, table), {}),
        "build_dataset": (build_dataset, (DatasetMode.PRIME_INDEXED, 5, table),
                          {}),
        "read_dataset": (read_dataset, ("a",), {}),
        "write_dataset": (write_dataset, (dataset, "a"), {}),
    }
    return calls, where


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_wrong_values_return_or_raise_gramevo_errors(entry_points, data):
    # each argument keeps its accepted value or takes a wrong one; the call
    # returns or raises a GramevoError, and allocates at most a few MB
    calls, where = entry_points
    name = data.draw(st.sampled_from(sorted(calls)), label="entry point")
    call, args, kwargs = calls[name]

    def wrong_or(value):
        return st.one_of(st.just(value), st.sampled_from(_WRONG_VALUES))

    args = [data.draw(wrong_or(value), label="argument") for value in args]
    kwargs = {key: data.draw(wrong_or(value), label=key)
              for key, value in kwargs.items()}
    cwd = os.getcwd()
    os.chdir(where)
    tracemalloc.start()
    try:
        call(*args, **kwargs)
    except GramevoError as error:
        assert "\n" not in str(error)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        os.chdir(cwd)
    assert peak < 4 * 2**20


# every name the package exports, each declared in one module's __all__
_PUBLIC_NAMES = {
    "engine": ["EvolutionConfig", "GenerationRecord", "Individual",
               "RunResult", "RunState", "crossover", "evolve", "mutate",
               "score_genome", "tournament_select"],
    "errors": ["ConfigError", "DegenerateLength", "EmptyDataset",
               "EmptyProduction", "FormatError", "FormulaSyntaxError",
               "GramevoError", "GrammarError", "GrammarSyntaxError",
               "IncompleteTree", "InfiniteGrammar", "LimitTooLarge",
               "LimitTooSmall", "NoRules", "OutOfTableRange",
               "RunInterrupted", "TableTooSmall", "UndefinedNonterminal",
               "UnknownNonterminal", "UnknownToken",
               "UnterminatedNonterminal"],
    "evaluation": ["WORST_FITNESS", "EvalBuffers", "evaluate",
                   "evaluate_array", "fitness_mse"],
    "expr": ["Binary", "BinaryOp", "Const", "ExprNode", "Unary", "UnaryOp",
             "Var", "format_expr", "parse_formula"],
    "grammar": ["Grammar", "Production", "Symbol", "format_grammar",
                "parse_grammar", "production_count"],
    "mapping": ["DerivationTree", "Genome", "MappingResult", "MappingStatus",
                "map_genome", "phenotype_of", "tree_depth"],
    "primes": ["Dataset", "DatasetMode", "PrimeTable", "build_dataset",
               "prime_pi", "read_dataset", "sieve", "write_dataset"],
}


def test_package_surface_and_traced_names():
    import importlib

    import gramevo
    import gramevo.cli

    exported = [name for names in _PUBLIC_NAMES.values() for name in names]
    assert len(exported) == len(set(exported)) == 66
    assert sorted(gramevo.__all__) == sorted(exported)
    star: dict = {}
    exec("from gramevo import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(exported)
    for module, names in _PUBLIC_NAMES.items():
        module = importlib.import_module(f"gramevo.{module}")
        assert sorted(module.__all__) == sorted(names)
        for name in names:
            assert getattr(gramevo, name) is getattr(module, name)
    # perfbench/child.py --trace 1 wraps these by attribute, on the modules
    # the run looks them up in
    for name in ("score_genome", "tournament_select", "crossover", "mutate",
                 "_random_genome", "fitness_mse", "map_genome", "Genome",
                 "parse_formula"):
        assert hasattr(engine, name), name
    for name in ("evolve", "parse_grammar", "read_dataset", "main"):
        assert hasattr(gramevo.cli, name), name
    assert gramevo.fitness_mse is engine.fitness_mse is (
        gramevo.evaluation.fitness_mse)


def test_evolve_rejects_a_progress_sink_that_is_not_callable(
        pi_paper_grammar, pi_dataset, monkeypatch):
    def drawn(*args):
        raise AssertionError("evolve drew before checking progress_sink")

    monkeypatch.setattr(engine, "RunState", drawn)
    for wrong in (3, "sink"):
        with pytest.raises(ConfigError, match="^progress_sink must be None or "
                           f"callable, not {type(wrong).__name__}$"):
            evolve(_small_config(), pi_paper_grammar, pi_dataset,
                   progress_sink=wrong)


@pytest.mark.parametrize("argument", ["config", "grammar", "dataset"])
def test_evolve_rejects_arguments_of_the_wrong_type(pi_paper_grammar,
                                                   pi_dataset, argument):
    arguments = dict(config=_small_config(), grammar=pi_paper_grammar,
                     dataset=pi_dataset)
    for wrong in (None, "x", 3):
        with pytest.raises(ConfigError, match=f"^{argument} must be of type "
                           f"[A-Za-z]+, not {type(wrong).__name__}$"):
            evolve(**{**arguments, argument: wrong})


def test_evolve_makes_one_set_of_buffers(pi_paper_grammar, pi_dataset,
                                         monkeypatch):
    # the run's buffers are made once, with the first population, and no
    # scoring path inside the run makes its own
    made = []
    real = engine.EvalBuffers

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "EvalBuffers", counting)
    evolve(_small_config(generations=6), pi_paper_grammar, pi_dataset)
    assert made == [(pi_dataset.xs.shape,)]


def test_genome_dataset_and_prime_table_raise_gramevo_errors():
    # ConfigError, so callers catching ValueError still catch them
    for build, message in (
            (lambda: Genome((0, 5), codon_max=5), "codon 5 outside"),
            (lambda: Dataset([1.0, 1.0], [0.0, 0.0]), "strictly increasing"),
            (lambda: PrimeTable(np.array([3, 2]), 3), "strictly increasing")):
        with pytest.raises(GramevoError, match=message) as caught:
            build()
        assert isinstance(caught.value, ConfigError)


@pytest.mark.parametrize("field", [
    "population_size", "generations", "genome_length", "codon_max",
    "max_wraps", "max_depth", "tournament_size", "elitism_count", "rng_seed",
    "invalid_retries"])
def test_config_integer_field_rejects_non_integers(field):
    for value in (2.0, 1.5, 0.5, "2"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EvolutionConfig(**{field: value})
    # numpy integers pass, and are stored as ints
    default = getattr(EvolutionConfig(), field)
    config = EvolutionConfig(**{field: np.int64(default)})
    assert config == EvolutionConfig()
    assert type(getattr(config, field)) is int


@pytest.mark.parametrize("field", ["crossover_rate", "mutation_rate"])
def test_config_rate_field_rejects_non_numbers(field):
    for value in ("0.5", None, [0.5]):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            EvolutionConfig(**{field: value})
    # numpy floats and whole numbers in [0, 1] pass as given
    assert getattr(EvolutionConfig(**{field: np.float64(0.5)}), field) == 0.5
    assert getattr(EvolutionConfig(**{field: 1}), field) == 1


def test_config_codon_max_fits_int64_draws():
    with pytest.raises(ValueError, match="codon_max"):
        EvolutionConfig(codon_max=2**63 + 1)
    with pytest.raises(ValueError, match="codon_max"):
        EvolutionConfig(codon_max=10**20)
    # the largest accepted bound still draws
    config = EvolutionConfig(codon_max=2**63, genome_length=50)
    codons = engine._random_genome(np.random.default_rng(3), config, [],
                                   1).tolist()
    assert len(codons) == 50
    assert all(0 <= c < 2**63 for c in codons)
    assert max(codons) >= 2**62    # draws span the whole range
