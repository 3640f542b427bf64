"""Exception and warning types of the library, its integer and type
checks, and the one-line repr its messages show."""

import operator

__all__ = ["ConfigError", "DegenerateLength", "EmptyDataset",
           "EmptyProduction", "FormatError", "FormulaSyntaxError",
           "GramevoError", "GrammarError", "GrammarSyntaxError",
           "IncompleteTree", "InfiniteGrammar", "LimitTooLarge",
           "LimitTooSmall", "NoRules", "OutOfTableRange", "RunInterrupted",
           "TableTooSmall", "UndefinedNonterminal", "UnknownNonterminal",
           "UnknownToken", "UnterminatedNonterminal"]


class GramevoError(Exception):
    """Base class for all errors raised by this package."""


# --- grammar ---------------------------------------------------------------

class GrammarError(GramevoError):
    """Base class for grammar-file problems."""


class GrammarSyntaxError(GrammarError):
    """Structurally malformed grammar text (stray text, empty rule name, ...)."""


class NoRules(GrammarError):
    """The grammar text contains no rule definitions."""


class UnterminatedNonterminal(GrammarError):
    """A ``<`` without a matching ``>`` inside a production."""


class EmptyProduction(GrammarError):
    """A rule alternative with no symbols at all."""

    def __init__(self, rule: str):
        self.rule = rule
        super().__init__(f"rule <{rule}> has an empty alternative")


class UndefinedNonterminal(GrammarError):
    """A production references a nonterminal that has no rule."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"nonterminal <{name}> is referenced but never defined")


class UnknownNonterminal(GrammarError):
    """Lookup of a nonterminal that is not part of the grammar."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"grammar has no rule for <{name}>")


class InfiniteGrammar(GrammarError):
    """Every derivation from some nonterminal is unavoidably recursive."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"nonterminal <{name}> can never derive an all-terminal sentence"
        )


# --- mapping ---------------------------------------------------------------

class IncompleteTree(GramevoError):
    """A derivation tree still contains unexpanded nonterminal leaves."""


# --- expressions -----------------------------------------------------------

class FormulaSyntaxError(GramevoError):
    """Formula text that cannot be parsed; carries the 0-based offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"syntax error at position {position}: {message}")


class UnknownToken(FormulaSyntaxError):
    """An identifier or character the formula language does not know."""

    def __init__(self, token: str, position: int):
        self.token = token
        super().__init__(position, f"unknown token {token!r}")


# --- primes / datasets -----------------------------------------------------

class LimitTooSmall(GramevoError):
    """Sieve limit below the first prime."""


class LimitTooLarge(GramevoError):
    """A sieve limit or population that would not fit in physical memory."""


class OutOfTableRange(GramevoError):
    """Query beyond the range covered by a prime table."""


class TableTooSmall(GramevoError):
    """Prime table does not hold enough primes for the requested dataset."""


class EmptyDataset(GramevoError):
    """A dataset with no points."""


class FormatError(GramevoError):
    """Malformed dataset file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# --- engine ----------------------------------------------------------------

class DegenerateLength(UserWarning):
    """Crossover on genomes too short to cut; parents returned unchanged."""


class RunInterrupted(GramevoError):
    """A KeyboardInterrupt stopped an evolve run after its first generation
    was recorded; ``result`` is the RunResult of the generations recorded
    so far, with the best individual found in them."""

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"run interrupted after {len(result.history)} generations"
        )


# --- configuration ---------------------------------------------------------

class ConfigError(GramevoError, ValueError):
    """Bad run-configuration file, ``EvolutionConfig`` field, inconsistent
    option values, or bad argument to a public constructor or function,
    such as ``Genome``, ``Dataset`` or ``sieve``; a ValueError too."""


def shown(value) -> str:
    """``repr(value)`` on one line: an array's repr spans several."""
    return " ".join(repr(value).split())


def as_integer(value, name: str) -> int:
    """``operator.index(value)``; ConfigError if it is a bool or no integer."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {shown(value)}")


def check_types(*checks: tuple) -> None:
    """ConfigError unless each ``(name, value, kind)`` value is a ``kind``."""
    for name, value, kind in checks:
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be of type {kind.__name__}, "
                              f"not {type(value).__name__}")
