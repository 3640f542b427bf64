"""Shared fixtures and independent oracles.

Oracle policy: anything the library computes is cross-checked here against
either a hand-derived value, an independent brute-force computation
(trial division, direct summation), or a constant frozen after first
verified computation.
"""

import bisect
from pathlib import Path

import pytest

import gramevo.engine
from gramevo import (
    DatasetMode,
    build_dataset,
    parse_grammar,
    sieve,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PI_PAPER_GRAMMAR_PATH = REPO_ROOT / "grammars" / "pi_paper.bnf"
CANONICAL_GRAMMAR_PATH = REPO_ROOT / "grammars" / "pi_canonical.bnf"

# the published closed-form approximation validated against its two
# quoted values (x=100 -> 26.0574, x=1400 -> 222.801)
REFERENCE_FORMULA = (
    "x/(ln(x/(ln(ln(92.89-sin(x)+x*x+sin(x)-64.03*sqrt(x)"
    "*ln(exp(sin(89.77))))*sqrt(sin(19.94))))))"
)

# the other published formula, typeset with juxtaposed products; parse
# stress test only, not an evaluation oracle
PROSE_FORMULA = (
    "2 sqrt(x) + x/(tanh((x + sqrt(tanh(78.45) sin(51.98)) x "
    "- log(sqrt(84.76) + 47.5))/exp(log(log(69.92) + 7.51)) x) "
    "+ sqrt(38.86) + log(log(x - log(sin(x) + 15.6) "
    "tanh(tanh(sqrt(x))) tanh(sin(log(x)) + 69.37) x)))"
)

# quoted evaluation points for the reference formula, tolerance 0.02
# (the quoted values are rounded to 4 and 3 sig-decimals respectively)
TABLE_POINTS = {100.0: 26.0574, 1400.0: 222.801}
TABLE_TOL = 0.02

# Frozen regression constant: MSE of REFERENCE_FORMULA over the 997
# dataset points where its predictions are finite (all x except 3, 5, 7
# where the unprotected ln sees a negative argument).  Computed once by
# this implementation after the two quoted values verified, then pinned.
REFERENCE_MSE_FINITE_SUBSET = 6.3468580220249455

# variance of y over the 1000-point dataset, by direct summation
VAR_Y_1000 = 83333.25


def trial_division_primes(limit: int) -> list[int]:
    """Independent brute-force prime enumeration."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        if is_prime:
            out.append(n)
    return out


def oracle_prime_pi(x: int, oracle_primes: list[int]) -> int:
    return bisect.bisect_right(oracle_primes, x)


def variance_direct(values) -> float:
    """Population variance by direct summation, no library calls."""
    vals = [float(v) for v in values]
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals) / len(vals)


def interrupt_on_call(monkeypatch, name: str, call: int,
                      owner=gramevo.engine) -> None:
    """Make ``owner``'s <name>, by default gramevo.engine's, raise
    KeyboardInterrupt on its call-th call, as a Ctrl-C at that point of a
    run would."""
    real = getattr(owner, name)
    calls = []

    def interrupting(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, interrupting)


@pytest.fixture(scope="session")
def pi_paper_grammar():
    return parse_grammar(PI_PAPER_GRAMMAR_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def canonical_grammar():
    return parse_grammar(CANONICAL_GRAMMAR_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def prime_table():
    return sieve(8000)


@pytest.fixture(scope="session")
def pi_dataset(prime_table):
    return build_dataset(DatasetMode.PRIME_INDEXED, 1000, prime_table)


@pytest.fixture(scope="session")
def oracle_primes_10k():
    return trial_division_primes(10_000)
