"""Genotype-to-phenotype mapping: codons drive a leftmost BNF derivation.

Each time the leftmost nonterminal is expanded, the next codon modulo the
number of alternatives for that rule picks the production.  Rules with a
single alternative consume no codon.  When the genome runs out the read
position wraps to the start, a bounded number of times.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigError, IncompleteTree, as_integer, check_types
from .grammar import Grammar, Symbol


@dataclass(frozen=True)
class Genome:
    """A linear chromosome of non-negative integer codons."""

    codons: tuple[int, ...]
    codon_max: int = 100_000

    def __post_init__(self):
        try:
            given = tuple(self.codons)
        except TypeError:
            raise ConfigError("codons must be a sequence of integers, not "
                              f"{type(self.codons).__name__}") from None
        try:
            codons = tuple(map(operator.index, given))
        except TypeError:
            bad = next(c for c in given if not hasattr(c, "__index__"))
            raise ConfigError(f"codon {bad!r} is not an integer") from None
        object.__setattr__(self, "codons", codons)
        codon_max = as_integer(self.codon_max, "codon_max")
        object.__setattr__(self, "codon_max", codon_max)
        if not codons:
            raise ConfigError("genome must hold at least one codon")
        if codon_max < 1:
            raise ConfigError("codon_max must be positive")
        if min(codons) < 0 or max(codons) >= codon_max:
            bad = next(c for c in codons if not 0 <= c < codon_max)
            raise ConfigError(f"codon {bad} outside [0, {codon_max})")

    def __len__(self) -> int:
        return len(self.codons)


def _bred_genome(codons: tuple[int, ...], codon_max: int) -> Genome:
    """A Genome from a tuple of ints already in ``[0, codon_max)``, unchecked.

    For the breeding operators, whose codons are in range by construction:
    random draws below ``codon_max`` and codons of checked parents.  Input
    from outside goes through ``Genome(...)``, which checks every codon.
    """
    genome = object.__new__(Genome)
    fields = genome.__dict__
    fields["codons"] = codons
    fields["codon_max"] = codon_max
    return genome


@dataclass
class DerivationTree:
    """One node of the derivation tree; leaves carry terminals."""

    symbol: Symbol
    production_index: int | None = None
    children: list["DerivationTree"] = field(default_factory=list)
    depth: int = 1


class MappingStatus(enum.Enum):
    VALID = "valid"
    INVALID_DEPTH = "invalid-depth"
    INVALID_WRAPS = "invalid-wraps"


@dataclass(frozen=True, init=False)
class MappingResult:
    """Outcome of mapping one genome.

    ``phenotype`` and ``choices`` exist only if valid.  ``choices`` holds
    the production index picked at each expansion, in derivation order;
    ``tree`` rebuilds the derivation tree from them the first time it is
    read.
    """

    status: MappingStatus
    phenotype: str | None
    codons_used: int
    wraps_used: int
    choices: tuple[int, ...] | None = None
    grammar: Grammar | None = field(default=None, repr=False, compare=False)

    def __init__(self, status, phenotype, codons_used, wraps_used,
                 choices=None, grammar=None):
        # Filled through the instance dict: the generated frozen __init__
        # makes one object.__setattr__ call per field, which took a fifth
        # of the time it takes to map a typical valid genome.
        fields = self.__dict__
        fields["status"] = status
        fields["phenotype"] = phenotype
        fields["codons_used"] = codons_used
        fields["wraps_used"] = wraps_used
        fields["choices"] = choices
        fields["grammar"] = grammar

    @property
    def valid(self) -> bool:
        return self.status is MappingStatus.VALID

    @cached_property
    def tree(self) -> DerivationTree | None:
        if self.choices is None:
            return None
        rules = self.grammar.rules
        root = DerivationTree(Symbol(self.grammar.start, is_terminal=False))
        stack = [root]
        for choice in self.choices:
            node = stack.pop()
            node.production_index = choice
            node.children = [
                DerivationTree(sym, depth=node.depth + 1)
                for sym in rules[node.symbol.text][choice].symbols
            ]
            for child in reversed(node.children):
                if not child.symbol.is_terminal:
                    stack.append(child)
        return root


def _codons_of(genome):
    """``genome.codons``, all that mapping reads of a genome; ConfigError
    if there is no such attribute."""
    try:
        return genome.codons
    except AttributeError:
        raise ConfigError("genome must be of type Genome, not "
                          f"{type(genome).__name__}") from None


def map_genome(
    grammar: Grammar,
    genome: Genome,
    max_wraps: int = 1,
    max_depth: int = 17,
    max_nodes: int = 100_000,
) -> MappingResult:
    """Run the leftmost mod-rule derivation of ``genome`` under ``grammar``.

    One pass over a flat stack of ``grammar.table`` symbols: a terminal
    goes straight into the phenotype, a rule id is expanded by pushing the
    chosen production, and the ``None`` pushed below each production marks
    the return to its parent's level.  Both ceilings are judged at the
    expansion that passes them, once its codon is read: one that puts leaves
    below ``max_depth`` or brings the tree past ``max_nodes`` nodes ends the
    mapping as INVALID_DEPTH.  INVALID_WRAPS means the wrap budget ran out
    before any expansion passed a ceiling.
    """
    # exact types first: this runs once per mapped genome
    if type(grammar) is not Grammar:
        check_types(("grammar", grammar, Grammar))
    if not type(max_wraps) is type(max_depth) is type(max_nodes) is int:
        max_wraps = as_integer(max_wraps, "max_wraps")
        max_depth = as_integer(max_depth, "max_depth")
        max_nodes = as_integer(max_nodes, "max_nodes")
    table = grammar.table
    codons = _codons_of(genome)
    n = len(codons)
    position = 0          # next read index into the genome
    wraps = 0             # completed restarts so far
    level = 1             # tree depth of the symbols on top of the stack
    nodes = 1
    parts: list[str] = []
    choices: list[int] = []
    stack: list[str | int | None] = [grammar.start_id]

    while stack:
        symbol = stack.pop()
        if type(symbol) is str:
            parts.append(symbol)
            continue
        if symbol is None:
            level -= 1
            continue
        productions = table[symbol]
        k = len(productions)
        if k == 1:
            choice = 0
        else:
            try:
                codon = codons[position]
            except IndexError:
                # the genome is used up: wrap to its start
                wraps += 1
                if wraps > max_wraps:
                    return MappingResult(
                        MappingStatus.INVALID_WRAPS, None, wraps * n, wraps - 1
                    )
                position = 0
                codon = codons[0]
            choice = codon % k
            position += 1
        choices.append(choice)
        if level >= max_depth:
            # the expansion's leaves sit one level below it
            return MappingResult(
                MappingStatus.INVALID_DEPTH, None, wraps * n + position, wraps
            )
        production = productions[choice]
        if type(production) is str:
            # a single terminal: its one leaf goes straight out
            parts.append(production)
            nodes += 1
        else:
            nodes += len(production) - 1
            level += 1
            stack.extend(production)
        if nodes > max_nodes:
            # runaway growth is treated the same as exceeding the depth bound
            return MappingResult(
                MappingStatus.INVALID_DEPTH, None, wraps * n + position, wraps
            )

    return MappingResult(
        MappingStatus.VALID, "".join(parts), wraps * n + position, wraps,
        tuple(choices), grammar,
    )


def phenotype_of(tree: DerivationTree) -> str:
    """Concatenate the terminal leaves of a finished derivation tree."""
    check_types(("tree", tree, DerivationTree))
    parts: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        elif node.symbol.is_terminal:
            parts.append(node.symbol.text)
        else:
            raise IncompleteTree(
                f"unexpanded nonterminal <{node.symbol.text}> in tree"
            )
    return "".join(parts)


def tree_depth(tree: DerivationTree) -> int:
    """Depth of the tree counting the root as 1; recomputed, not cached."""
    check_types(("tree", tree, DerivationTree))
    deepest = 0
    stack: list[tuple[DerivationTree, int]] = [(tree, 1)]
    while stack:
        node, d = stack.pop()
        if d > deepest:
            deepest = d
        for child in node.children:
            stack.append((child, d + 1))
    return deepest
