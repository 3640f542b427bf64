import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from gramevo import (
    Binary,
    BinaryOp,
    Const,
    Dataset,
    DegenerateLength,
    EmptyDataset,
    EvalBuffers,
    EvolutionConfig,
    Genome,
    RunInterrupted,
    WORST_FITNESS,
    crossover,
    evaluate_array,
    evolve,
    fitness_mse,
    init_population,
    mutate,
    parse_formula,
    parse_grammar,
    score_genome,
    tournament_select,
    Unary,
    UnaryOp,
    Var,
)
import gramevo.engine as engine
import gramevo.expr
import gramevo.mapping
from gramevo.engine import Individual
from gramevo.expr import PROTECTION_EPS
from conftest import (
    REFERENCE_FORMULA,
    REFERENCE_MSE_FINITE_SUBSET,
    interrupt_on_call,
)


class ScriptedRng:
    """Minimal stand-in for numpy's Generator with a scripted tape."""

    def __init__(self, integers=(), randoms=()):
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
    class Hollow:
        def __len__(self):
            return 0

    with pytest.raises(EmptyDataset):
        fitness_mse(parse_formula("x"), Hollow())


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
        for array in (dataset.xs, dataset.ys, buffers.scratch, *buffers.slots,
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


# --- init_population ---------------------------------------------------------

def test_init_population_shape(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=10, generations=1,
                             genome_length=40, rng_seed=5)
    population = init_population(config, pi_paper_grammar, pi_dataset,
                                 np.random.default_rng(config.rng_seed))
    assert len(population) == 10
    for ind in population:
        assert len(ind.genome) == 40
        assert max(ind.genome.codons) < config.codon_max


def test_init_population_deterministic(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=6, generations=1, rng_seed=11)
    one = init_population(config, pi_paper_grammar, pi_dataset,
                          np.random.default_rng(11))
    two = init_population(config, pi_paper_grammar, pi_dataset,
                          np.random.default_rng(11))
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
    population = init_population(config, pi_paper_grammar, pi_dataset,
                                 np.random.default_rng(config.rng_seed))
    invalid = sum(1 for i in population if not i.valid)
    assert invalid == 1105
    assert invalid / len(population) >= 0.5


def test_init_population_retries_rescue_most(pi_paper_grammar, pi_dataset):
    config = EvolutionConfig(population_size=50, generations=1,
                             invalid_retries=10, rng_seed=42)
    population = init_population(config, pi_paper_grammar, pi_dataset,
                                 np.random.default_rng(config.rng_seed))
    invalid = sum(1 for i in population if not i.valid)
    assert invalid <= 2


# --- selection ---------------------------------------------------------------

def test_tournament_singleton():
    only = _individual(3.0)
    assert tournament_select([only], 1, np.random.default_rng(0)) is only


def test_tournament_prefers_finite_fitness():
    finite = _individual(1.0)
    worst = _individual(WORST_FITNESS)
    rng = ScriptedRng(integers=[1, 0])    # draws hit both, worst first
    assert tournament_select([worst, finite], 2, rng) is finite


def test_tournament_tie_breaks_on_earliest_draw():
    a = _individual(2.0, "a")
    b = _individual(2.0, "b")
    rng = ScriptedRng(integers=[1, 0])
    assert tournament_select([a, b], 2, rng) is b


def test_tournament_validation():
    with pytest.raises(ValueError):
        tournament_select([], 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        tournament_select([_individual(1.0)], 2, np.random.default_rng(0))


def reference_tournament_select(population, k, rng):
    """tournament_select drawing its k indices in one size=k call; the
    oracle for the scalar draws."""
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
    drawn = engine._random_genome(config, engine._genome_draws(config, rng),
                                  np.empty(length_a, np.int64))
    assert len(drawn) == length_a
    _assert_passes_boundary_check(drawn, codon_max)


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
    the loop ``_breed`` ran before it replayed rounds from raw words."""
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


def _breed_against_reference(grammar, dataset, config, rng, rounds=4):
    reference_rng = np.random.default_rng()
    rows = engine._initial_rows(config, grammar, dataset, rng, None, None)
    reference_rng.bit_generator.state = rng.bit_generator.state
    population = rows.individuals()
    memo = {}
    for _ in range(rounds):
        # genomes too short to cut warn once per pair, as crossover does
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            rows = engine._breed(rows, config, grammar, dataset, rng, memo,
                                 None)
        with warnings.catch_warnings(record=True) as expected_warned:
            warnings.simplefilter("always")
            expected = reference_breed(population, config, grammar, dataset,
                                       reference_rng, {})
        assert ([w.category for w in warned]
                == [w.category for w in expected_warned])
        assert rows.individuals() == expected
        assert _plain_state(rng) == _plain_state(reference_rng)
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
    _breed_against_reference(pi_paper_grammar, pi_dataset, config,
                             np.random.default_rng(config.rng_seed))


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


@pytest.mark.parametrize("at", [0, 3], ids=["tournament", "cut"])
def test_breed_rejected_tournament_or_cut_draw_reads_call_by_call(
        pi_paper_grammar, pi_dataset, monkeypatch, at):
    # a zero half is rejected below any bound that is not a power of two:
    # raw word 0 holds the first tournament's first two halves, and with
    # nothing buffered and k = 2, raw word 3 holds the first pair's cut;
    # the round's later blocks are read at their positions
    config = EvolutionConfig(population_size=31, genome_length=1000,
                             crossover_rate=1.0, mutation_rate=0.05,
                             rng_seed=5)
    assert 2**32 % 31 and 2**32 % 999
    rows = engine._initial_rows(config, pi_paper_grammar, pi_dataset,
                                np.random.default_rng(5), None, None)
    rng, reference_rng = _rng_with_word(0, at), _rng_with_word(0, at)
    assert _rng_with_word(0, at).bit_generator.random_raw(at + 1)[at] == 0
    cursors = []

    class CountedCursor(engine._RawCursor):
        def __init__(self, *args):
            cursors.append(self)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_RawCursor", CountedCursor)
    bred = engine._breed(rows, config, pi_paper_grammar, pi_dataset, rng, {},
                         None)
    expected = reference_breed(rows.individuals(), config, pi_paper_grammar,
                               pi_dataset, reference_rng, {})
    assert cursors, "the block was not read call by call"
    assert bred.individuals() == expected
    assert _plain_state(rng) == _plain_state(reference_rng)


@pytest.mark.parametrize("codon_max", [1, 3, 2**31 + 11, 2**32 - 2**28, 2**32,
                                       2**32 + 1, 2**64 // 3 + 1, 2**63])
def test_initial_rows_draw_as_a_call_per_genome(pi_paper_grammar, pi_dataset,
                                                codon_max):
    # genomes from several blocks, a retry count that varies per row, and a
    # buffered half before the first draw
    config = EvolutionConfig(population_size=41, genome_length=1001,
                             codon_max=codon_max, invalid_retries=2)
    assert engine._BLOCK_BYTES // (8 * 1001) < 41
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    rng.integers(0, 3)
    reference_rng.integers(0, 3)
    rows = engine._initial_rows(config, pi_paper_grammar, pi_dataset, rng,
                                None, None)
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
    assert rows.individuals() == expected
    assert _plain_state(rng) == _plain_state(reference_rng)


def test_raw_cursor_rejects_leftovers_below_the_threshold():
    # Lemire's rule for r = 3: the low 32 bits of half * 3 are rejected
    # below 2**32 % 3 == 1; the next half is drawn from the buffer
    def cursor(low, high):
        return engine._RawCursor(np.array([high << 32 | low], np.uint64), 0, 0)

    accepted = (2**33 + 1) // 3      # leftover exactly 1
    assert cursor(accepted, 7).below(3) == accepted * 3 >> 32
    assert cursor(0, 2**32 - 1).below(3) == 2      # leftover 0: redrawn


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
        def counting(out, scratch, mask, a):
            (of_x if a is pi_dataset.xs else other)[op] += 1
            return rule(out, scratch, mask, a)
        return counting

    unspied = evolve(_small_config(generations=8), pi_paper_grammar,
                     pi_dataset)
    for op in ops:
        monkeypatch.setitem(gramevo.expr._RULES, op,
                            spy(op, gramevo.expr._RULES[op]))
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
    # every individual the run builds, memo hit or miss, equals what a
    # direct score_genome call without a memo gives for its genome
    built = []
    real_score = engine.score_genome

    def score_spy(*args, **kwargs):
        individual = real_score(*args, **kwargs)
        built.append(individual)
        return individual

    monkeypatch.setattr(engine, "score_genome", score_spy)
    config = _small_config(generations=8)
    result = evolve(config, pi_paper_grammar, pi_dataset)

    assert any(result.best == individual for individual in built)
    for individual in built:
        fresh = real_score(individual.genome, pi_paper_grammar, pi_dataset,
                           config.max_wraps, config.max_depth)
        assert fresh.phenotype == individual.phenotype
        assert fresh.fitness == individual.fitness
        assert fresh.valid == individual.valid
        assert fresh.codons_used == individual.codons_used
        assert fresh.expr == individual.expr


def test_evolve_every_generation_matches_fresh_scoring(pi_paper_grammar,
                                                      pi_dataset, monkeypatch):
    # inherited children never pass through score_genome, so every member
    # of every recorded generation is checked against a fresh scoring
    generations, inherited = [], []
    real_record = engine._record_generation
    real_inherits = engine._inherits
    real_score = engine.score_genome

    def record_spy(generation, population):
        generations.append(population.individuals())
        return real_record(generation, population)

    def inherits_spy(*args):
        inheriting = real_inherits(*args)
        inherited.append(int(inheriting.sum()))
        return inheriting

    monkeypatch.setattr(engine, "_record_generation", record_spy)
    monkeypatch.setattr(engine, "_inherits", inherits_spy)
    config = _small_config(generations=8)
    evolve(config, pi_paper_grammar, pi_dataset)

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


def test_evolve_best_is_earliest_of_equally_fit(pi_paper_grammar, pi_dataset,
                                               monkeypatch):
    # a generation's best is its first individual of lowest fitness, and the
    # run's best is the first one, generation by generation, to reach the
    # run's lowest fitness
    def fitness(individual):
        return individual.fitness

    seen = []
    real_record = engine._record_generation

    def record_spy(generation, population):
        record, best = real_record(generation, population)
        individuals = population.individuals()
        assert best == min(range(len(individuals)),
                           key=lambda row: fitness(individuals[row]))
        seen.extend(individuals)
        return record, best

    monkeypatch.setattr(engine, "_record_generation", record_spy)
    # no elites, so equally fit individuals need not share a genome
    result = evolve(_small_config(population_size=30, generations=10,
                                  elitism_count=0),
                    pi_paper_grammar, pi_dataset)
    first = min(seen, key=fitness)
    assert result.best == first
    assert sum(fitness(individual) == first.fitness for individual in seen) > 1


def test_evolve_inheritance_changes_no_population(pi_paper_grammar,
                                                  pi_dataset, monkeypatch):
    # a run that maps and scores every child builds equal populations,
    # generation by generation, and returns an equal result
    generations, results = [], []
    real_record = engine._record_generation

    def record_spy(generation, population):
        generations[-1].append(population.individuals())
        return real_record(generation, population)

    def none_inherit(children, parents, used):
        return np.zeros(len(children), bool)

    monkeypatch.setattr(engine, "_record_generation", record_spy)
    for inherits in (engine._inherits, none_inherit):
        monkeypatch.setattr(engine, "_inherits", inherits)
        generations.append([])
        results.append(evolve(_small_config(generations=8), pi_paper_grammar,
                              pi_dataset))
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
    # one inheritance decision per breeding round: the third is in round
    # three
    interrupt_on_call(monkeypatch, "_inherits", 3)
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
    draws = engine._genome_draws(config, np.random.default_rng(3))
    genome = engine._random_genome(config, draws, np.empty(50, np.int64))
    assert len(genome) == 50
    assert all(0 <= c < 2**63 for c in genome.codons)
    assert max(genome.codons) >= 2**62    # draws span the whole range
