from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramevo import (
    DerivationTree,
    Genome,
    IncompleteTree,
    MappingStatus,
    Symbol,
    map_genome,
    parse_grammar,
    phenotype_of,
    tree_depth,
)


def test_genome_validation():
    with pytest.raises(ValueError):
        Genome(())
    with pytest.raises(ValueError):
        Genome((100_000,), codon_max=100_000)
    with pytest.raises(ValueError):
        Genome((-1,))
    g = Genome([3, 4], codon_max=10)
    assert g.codons == (3, 4)
    assert len(g) == 2


def test_genome_error_names_first_bad_codon():
    with pytest.raises(ValueError, match=r"codon 12 outside \[0, 10\)"):
        Genome((3, 12, -1, 10), codon_max=10)
    with pytest.raises(ValueError, match=r"codon -1 outside"):
        Genome((3, -1, 12), codon_max=10)
    with pytest.raises(ValueError, match="codon_max must be positive"):
        Genome((0,), codon_max=0)
    assert Genome(np.array([0, 9]), codon_max=10).codons == (0, 9)


def test_genome_accepts_only_integral_input():
    with pytest.raises(ValueError, match=r"codon 1\.5 is not an integer"):
        Genome((1.5, 2.7))
    with pytest.raises(ValueError, match=r"codon 2\.0 is not an integer"):
        Genome((1, 2.0))
    with pytest.raises(ValueError, match="codon '1' is not an integer"):
        Genome("123")
    with pytest.raises(ValueError, match="codon_max must be an integer, got 2.5"):
        Genome((1, 2), codon_max=2.5)
    with pytest.raises(ValueError, match="codon_max must be an integer"):
        Genome((1, 2), codon_max=10.0)
    # numpy integers pass, and are stored as ints
    g = Genome(np.array([1, 2], np.int32), codon_max=np.uint64(5))
    assert g == Genome((1, 2), codon_max=5)
    assert all(type(c) is int for c in g.codons)
    assert type(g.codon_max) is int


# --- golden traces against the canonical grammar ---------------------------

def test_trace_single_codon_variable(canonical_grammar):
    r = map_genome(canonical_grammar, Genome((9,)), max_wraps=0, max_depth=10)
    assert r.status is MappingStatus.VALID
    assert r.valid
    assert r.phenotype == "x"          # 9 mod 11 -> 10th alternative
    assert r.codons_used == 1
    assert r.wraps_used == 0


def test_trace_constant(canonical_grammar):
    r = map_genome(canonical_grammar, Genome((10, 1, 2, 3, 4)),
                   max_wraps=0, max_depth=10)
    assert r.status is MappingStatus.VALID
    assert r.phenotype == "12.34"      # 10 mod 11 -> digits rule, then 1,2,3,4
    assert r.codons_used == 5
    assert tree_depth(r.tree) == 3


def test_trace_addition(canonical_grammar):
    r = map_genome(canonical_grammar, Genome((0, 9, 9)),
                   max_wraps=0, max_depth=10)
    assert r.status is MappingStatus.VALID
    assert r.phenotype == "x+x"
    assert r.codons_used == 3
    assert tree_depth(r.tree) == 3


def test_trace_wrap_exhaustion(canonical_grammar):
    # every wrap of [0, 0] net-adds unexpanded nonterminals
    r = map_genome(canonical_grammar, Genome((0, 0)), max_wraps=1, max_depth=10)
    assert r.status is MappingStatus.INVALID_WRAPS
    assert not r.valid
    assert r.tree is None and r.phenotype is None


def test_trace_surface_variant_tokens(pi_paper_grammar):
    r = map_genome(pi_paper_grammar, Genome((9,)), max_wraps=0, max_depth=10)
    assert r.phenotype == "x[:, 0]"


def test_single_alternative_rules_consume_no_codon():
    g = parse_grammar("<s> ::= a<t>\n<t> ::= b")
    r = map_genome(g, Genome((5,)), max_wraps=0, max_depth=10)
    assert r.status is MappingStatus.VALID
    assert r.phenotype == "ab"
    assert r.codons_used == 0


def test_depth_bound_invalidates(canonical_grammar):
    genome = Genome((10, 1, 2, 3, 4))    # tree depth 3
    ok = map_genome(canonical_grammar, genome, max_wraps=0, max_depth=3)
    assert ok.status is MappingStatus.VALID
    bad = map_genome(canonical_grammar, genome, max_wraps=0, max_depth=2)
    assert bad.status is MappingStatus.INVALID_DEPTH
    assert bad.tree is None and bad.phenotype is None


def test_node_ceiling_counts_as_depth_invalid():
    g = parse_grammar("<s> ::= <s><s> | a")
    genome = Genome(tuple([0] * 50))
    r = map_genome(g, genome, max_wraps=0, max_depth=1000, max_nodes=20)
    assert r.status is MappingStatus.INVALID_DEPTH


def test_valid_tree_respects_depth_contract(canonical_grammar):
    rng = np.random.default_rng(7)
    for _ in range(200):
        genome = Genome(tuple(rng.integers(0, 100_000, size=60).tolist()))
        r = map_genome(canonical_grammar, genome, max_wraps=1, max_depth=8)
        if r.status is MappingStatus.VALID:
            assert tree_depth(r.tree) <= 8
            assert phenotype_of(r.tree) == r.phenotype
            assert r.wraps_used <= 1


def test_depth_overrun_stops_at_the_expansion_that_passes_it(
        canonical_grammar):
    # codon 0 always picks <e>+<e>: the second read expands a depth-2 <e>,
    # whose leaves would sit at depth 3, so mapping stops there and never
    # reaches the wrap budget that this never-ending derivation would run out
    genome = Genome((0, 0, 0))
    r = map_genome(canonical_grammar, genome, max_wraps=2, max_depth=2)
    ref = reference_map_genome(canonical_grammar, genome, max_wraps=2,
                               max_depth=2)
    assert r.status is ref.status is MappingStatus.INVALID_DEPTH
    assert r.codons_used == ref.codons_used == 2
    assert r.wraps_used == ref.wraps_used == 0


def test_tree_is_rebuilt_once_on_read(canonical_grammar):
    r = map_genome(canonical_grammar, Genome((0, 9, 10, 1, 2, 3, 4)))
    assert r.choices == (0, 9, 10, 1, 2, 3, 4)
    tree = r.tree
    assert r.tree is tree
    assert phenotype_of(tree) == r.phenotype == "x+12.34"
    assert tree_depth(tree) == 4


# --- structural helpers ------------------------------------------------------

def test_phenotype_of_incomplete_tree():
    dangling = DerivationTree(Symbol("e", is_terminal=False))
    with pytest.raises(IncompleteTree):
        phenotype_of(dangling)


def test_phenotype_of_single_terminal():
    leaf = DerivationTree(Symbol("a", is_terminal=True))
    assert phenotype_of(leaf) == "a"
    assert tree_depth(leaf) == 1


def test_tree_depth_recomputes():
    # stored depth fields are ignored; only the structure counts
    leaf = DerivationTree(Symbol("a", is_terminal=True), depth=99)
    root = DerivationTree(Symbol("s", is_terminal=False), production_index=0,
                          children=[leaf], depth=42)
    assert tree_depth(root) == 2


# --- properties --------------------------------------------------------------

genomes = st.lists(st.integers(0, 99_999), min_size=1, max_size=40).map(
    lambda cs: Genome(tuple(cs))
)


@settings(max_examples=200, deadline=None)
@given(genomes)
def test_mapping_is_deterministic(canonical_grammar, genome):
    a = map_genome(canonical_grammar, genome, max_wraps=1, max_depth=17)
    b = map_genome(canonical_grammar, genome, max_wraps=1, max_depth=17)
    assert a.status is b.status
    assert a.phenotype == b.phenotype
    assert a.codons_used == b.codons_used
    assert a.wraps_used == b.wraps_used


def _replay_choices(tree, grammar):
    """Preorder (leftmost) walk yielding (k, chosen index) per expansion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.symbol.is_terminal:
            continue
        k = len(grammar.rules[node.symbol.text])
        yield k, node.production_index
        for child in reversed(node.children):
            stack.append(child)


@settings(max_examples=200, deadline=None)
@given(genomes)
def test_mod_rule_replay(canonical_grammar, genome):
    r = map_genome(canonical_grammar, genome, max_wraps=1, max_depth=17)
    if r.status is not MappingStatus.VALID:
        return
    position = 0
    consumed = 0
    for k, chosen in _replay_choices(r.tree, canonical_grammar):
        if k == 1:
            assert chosen == 0
            continue
        codon = genome.codons[position % len(genome)]
        assert chosen == codon % k
        position += 1
        consumed += 1
    assert consumed == r.codons_used


@settings(max_examples=200, deadline=None)
@given(genomes, st.lists(st.integers(0, 99_999), min_size=1, max_size=10))
def test_unused_codon_neutrality(canonical_grammar, genome, extra):
    r = map_genome(canonical_grammar, genome, max_wraps=1, max_depth=17)
    if r.status is not MappingStatus.VALID or r.wraps_used != 0:
        return
    extended = Genome(genome.codons + tuple(extra))
    r2 = map_genome(canonical_grammar, extended, max_wraps=1, max_depth=17)
    assert r2.status is MappingStatus.VALID
    assert r2.phenotype == r.phenotype
    assert r2.codons_used == r.codons_used


# --- reference oracle --------------------------------------------------------

@dataclass(frozen=True)
class ReferenceResult:
    status: MappingStatus
    tree: DerivationTree | None
    phenotype: str | None
    codons_used: int
    wraps_used: int


def reference_map_genome(grammar, genome, max_wraps=1, max_depth=17,
                         max_nodes=100_000):
    """Straightforward mapper: build the tree node by node, and judge each
    limit at the expansion that passes it."""
    codons = genome.codons
    n = len(codons)
    position = 0
    wraps = 0
    codons_used = 0
    root = DerivationTree(Symbol(grammar.start, is_terminal=False), depth=1)
    stack = [root]
    nodes = 1
    while stack:
        node = stack.pop()
        productions = grammar.rules[node.symbol.text]
        if len(productions) == 1:
            choice = 0
        else:
            if position >= n:
                wraps += 1
                if wraps > max_wraps:
                    return ReferenceResult(MappingStatus.INVALID_WRAPS, None,
                                           None, codons_used, wraps - 1)
                position = 0
            choice = codons[position] % len(productions)
            position += 1
            codons_used += 1
        if node.depth + 1 > max_depth:
            # every production has a symbol, so the children exist
            return ReferenceResult(MappingStatus.INVALID_DEPTH, None, None,
                                   codons_used, wraps)
        node.production_index = choice
        node.children = [DerivationTree(sym, depth=node.depth + 1)
                         for sym in productions[choice].symbols]
        nodes += len(node.children)
        if nodes > max_nodes:
            return ReferenceResult(MappingStatus.INVALID_DEPTH, None, None,
                                   codons_used, wraps)
        for child in reversed(node.children):
            if not child.symbol.is_terminal:
                stack.append(child)
    return ReferenceResult(MappingStatus.VALID, root, phenotype_of(root),
                           codons_used, wraps)


def _preorder(tree):
    """(symbol, production index, depth) of every node, leftmost first."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append((node.symbol, node.production_index, node.depth))
        stack.extend(reversed(node.children))
    return out


def _assert_matches_reference(grammar, genome, **limits):
    got = map_genome(grammar, genome, **limits)
    want = reference_map_genome(grammar, genome, **limits)
    assert got.status is want.status
    assert got.phenotype == want.phenotype
    assert got.codons_used == want.codons_used
    assert got.wraps_used == want.wraps_used
    if want.tree is None:
        assert got.choices is None and got.tree is None
    else:
        assert _preorder(got.tree) == _preorder(want.tree)
        assert tree_depth(got.tree) == tree_depth(want.tree)


# <s> and <b> have one alternative each and consume no codon
SINGLE_ALTERNATIVE_GRAMMAR = """
<s> ::= <t>
<t> ::= <t>+<b> | (<t>) | <a> | y
<a> ::= x | <s>-<b>
<b> ::= [<a>]
"""

wide_genomes = st.lists(st.integers(0, 99_999), min_size=1, max_size=60).map(
    lambda cs: Genome(tuple(cs))
)


@settings(max_examples=300, deadline=None)
@given(wide_genomes, st.integers(0, 3))
def test_matches_reference_canonical(canonical_grammar, genome, max_wraps):
    _assert_matches_reference(canonical_grammar, genome, max_wraps=max_wraps,
                              max_depth=17)


@settings(max_examples=300, deadline=None)
@given(wide_genomes, st.integers(0, 3), st.integers(1, 12))
def test_matches_reference_single_alternative_rules(genome, max_wraps,
                                                    max_depth):
    grammar = parse_grammar(SINGLE_ALTERNATIVE_GRAMMAR)
    _assert_matches_reference(grammar, genome, max_wraps=max_wraps,
                              max_depth=max_depth)


@settings(max_examples=300, deadline=None)
@given(wide_genomes, st.integers(0, 2), st.integers(1, 6), st.integers(1, 30))
def test_matches_reference_small_limits(canonical_grammar, genome, max_wraps,
                                        max_depth, max_nodes):
    _assert_matches_reference(canonical_grammar, genome, max_wraps=max_wraps,
                              max_depth=max_depth, max_nodes=max_nodes)
