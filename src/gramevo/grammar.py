"""BNF grammar model: parsing, validation, and minimum derivation depths.

A grammar file is a sequence of rules of the form

    <name> ::= alternative | alternative | ...

A rule body may span several lines; it ends at the next rule header.
Lines whose first non-blank character is ``#`` are comments.  The first
rule defines the start symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    EmptyProduction,
    GrammarSyntaxError,
    InfiniteGrammar,
    NoRules,
    UndefinedNonterminal,
    UnknownNonterminal,
    UnterminatedNonterminal,
    check_types,
    shown,
)

__all__ = ["Grammar", "Production", "Symbol", "format_grammar",
           "parse_grammar", "production_count"]

_RULE_HEADER = re.compile(r"<([^<>|]*)>\s*::=")


@dataclass(frozen=True)
class Symbol:
    """One grammar symbol: a terminal string or a nonterminal name."""

    text: str
    is_terminal: bool

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ConfigError("symbol text must be a string, not "
                              f"{type(self.text).__name__}")
        if not isinstance(self.is_terminal, bool):
            raise ConfigError("is_terminal must be a bool, not "
                              f"{type(self.is_terminal).__name__}")
        if self.is_terminal:
            if not self.text or self.text.strip() == "":
                raise ConfigError("terminal symbols must contain visible text")
        else:
            if not self.text or any(ch in self.text for ch in "<>|"):
                raise ConfigError(f"invalid nonterminal name {self.text!r}")

    def __str__(self) -> str:
        return self.text if self.is_terminal else f"<{self.text}>"


@dataclass(frozen=True)
class Production:
    """One alternative of a rule: a non-empty sequence of symbols."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        if not (isinstance(self.symbols, (tuple, list))
                and all(isinstance(s, Symbol) for s in self.symbols)):
            raise ConfigError("a production's symbols must be Symbols, got "
                              f"{shown(self.symbols)}")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ConfigError("a production needs at least one symbol")

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols)


# One production in the mapper's table.  A production of one terminal is
# that terminal's string.  Any other is a tuple of its symbols in reverse
# order, a terminal as its string and a nonterminal as its rule id, with
# ``None`` first so that it sits below the symbols once they are pushed.
TableProduction = str | tuple[str | int | None, ...]


@dataclass(frozen=True)
class Grammar:
    """Parsed grammar: start symbol, rules, and per-rule minimum depths.

    ``min_depth``, ``table`` and ``start_id`` are computed when the grammar
    is made.  ``min_depth`` maps each rule to its minimum derivation depth.
    ``table`` and ``start_id`` are the integer form the mapper runs on: rule
    ids follow the order of ``rules``, and ``table[rule_id]`` holds that
    rule's productions in :data:`TableProduction` form.
    """

    start: str
    rules: dict[str, tuple[Production, ...]]
    min_depth: dict[str, int] = field(init=False, compare=False)
    table: tuple[tuple[TableProduction, ...], ...] = field(
        init=False, compare=False, repr=False)
    start_id: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_types(("start", self.start, str), ("rules", self.rules, dict))
        ids = {name: k for k, name in enumerate(self.rules)}
        for name, prods in self.rules.items():
            if not (isinstance(prods, (tuple, list))
                    and all(isinstance(p, Production) for p in prods)):
                raise ConfigError(f"rule <{name}> must hold Productions, got "
                                  f"{shown(prods)}")
            for prod in prods:
                for sym in prod.symbols:
                    if not sym.is_terminal and sym.text not in ids:
                        raise UndefinedNonterminal(sym.text)
        if self.start not in ids:
            raise UndefinedNonterminal(self.start)
        object.__setattr__(self, "min_depth", _compute_min_depths(self.rules))
        table = tuple(
            tuple(_table_production(prod.symbols, ids) for prod in prods)
            for prods in self.rules.values()
        )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "start_id", ids[self.start])


def _table_production(symbols: tuple[Symbol, ...],
                      ids: dict[str, int]) -> TableProduction:
    if len(symbols) == 1 and symbols[0].is_terminal:
        return symbols[0].text
    return (None, *(sym.text if sym.is_terminal else ids[sym.text]
                    for sym in reversed(symbols)))


def _tokenize_alternative(rule: str, text: str) -> Production:
    """Split one alternative into terminal runs and <nonterminal> refs."""
    symbols: list[Symbol] = []
    # strip only the boundary whitespace of the alternative; interior
    # whitespace between tokens is significant terminal text
    body = text.strip()
    if not body:
        raise EmptyProduction(rule)
    i = 0
    while i < len(body):
        if body[i] == "<":
            j = body.find(">", i + 1)
            if j < 0:
                raise UnterminatedNonterminal(
                    f"rule <{rule}>: '<' at column {i} has no matching '>'"
                )
            name = body[i + 1 : j]
            if not name or "<" in name:
                raise UnterminatedNonterminal(
                    f"rule <{rule}>: malformed nonterminal {body[i : j + 1]!r}"
                )
            symbols.append(Symbol(name, is_terminal=False))
            i = j + 1
        else:
            j = body.find("<", i)
            if j < 0:
                j = len(body)
            run = body[i:j]
            if run.strip():
                symbols.append(Symbol(run, is_terminal=True))
            # whitespace-only run between two nonterminals: separator, dropped
            i = j
    if not symbols:
        raise EmptyProduction(rule)
    return Production(tuple(symbols))


def parse_grammar(text: str) -> Grammar:
    """Parse BNF text into a validated :class:`Grammar`."""
    if not isinstance(text, str):
        raise ConfigError(f"BNF text must be a str, not {type(text).__name__}")
    # drop comment lines before structural parsing
    lines = [
        "" if line.lstrip().startswith("#") else line
        for line in text.splitlines()
    ]
    body = "\n".join(lines)

    headers = list(_RULE_HEADER.finditer(body))
    if not headers:
        raise NoRules("grammar text defines no rules")
    preamble = body[: headers[0].start()]
    if preamble.strip():
        raise GrammarSyntaxError(
            f"unexpected text before first rule: {preamble.strip()[:40]!r}"
        )

    rules: dict[str, list[Production]] = {}
    for k, match in enumerate(headers):
        name = match.group(1).strip()
        if not name:
            raise GrammarSyntaxError("rule with empty name '<> ::= ...'")
        end = headers[k + 1].start() if k + 1 < len(headers) else len(body)
        rhs = body[match.end() : end]
        rules.setdefault(name, []).extend(
            _tokenize_alternative(name, alt) for alt in rhs.split("|"))

    frozen = {name: tuple(prods) for name, prods in rules.items()}
    # the first rule starts; Grammar() rejects undefined and infinite rules
    return Grammar(start=next(iter(frozen)), rules=frozen)


def _compute_min_depths(rules: dict[str, tuple[Production, ...]]) -> dict[str, int]:
    """Fixpoint of: depth(nt) = 1 + min over prods of max child depth.

    Terminals contribute depth 0.  A nonterminal that never converges can
    never finish a derivation, which makes the grammar unusable.
    """
    INF = float("inf")
    depth: dict[str, float] = {name: INF for name in rules}
    changed = True
    while changed:
        changed = False
        for name, prods in rules.items():
            best = INF
            for prod in prods:
                worst = 0.0
                for sym in prod.symbols:
                    if not sym.is_terminal:
                        worst = max(worst, depth[sym.text])
                best = min(best, 1 + worst)
            if best < depth[name]:
                depth[name] = best
                changed = True
    for name, d in depth.items():
        if d == INF:
            raise InfiniteGrammar(name)
    return {name: int(d) for name, d in depth.items()}


def production_count(grammar: Grammar, nonterminal: str) -> int:
    """How many alternatives the rule for ``nonterminal`` has."""
    check_types(("grammar", grammar, Grammar),
                ("nonterminal", nonterminal, str))
    try:
        return len(grammar.rules[nonterminal])
    except KeyError:
        raise UnknownNonterminal(nonterminal) from None


def format_grammar(grammar: Grammar) -> str:
    """Render a grammar back to rule-per-line BNF text."""
    check_types(("grammar", grammar, Grammar))
    out = []
    for name, prods in grammar.rules.items():
        alts = " | ".join(str(p) for p in prods)
        out.append(f"<{name}> ::= {alts}")
    return "\n".join(out) + "\n"
