"""A small end-to-end evolution run, stepped one generation at a time.

Evolves formulas approximating pi(x) over the first 1000 primes with a
reduced population so the demo finishes in about a second.  The run is a
RunState: building it draws and scores generation 0, and each step()
breeds the next generation and returns its record, printed as it is
bred.  evolve() runs the same loop and returns the same result.  The full
configuration used for serious runs is population 500, 50 generations,
which the command line exposes as:

    gramevo gen-data --n 1000 --out pi.txt
    gramevo evolve --grammar grammars/pi_paper.bnf --dataset pi.txt \
        --output-dir run/ --seed 1
"""

import time
from pathlib import Path

import numpy as np

from gramevo import (
    DatasetMode,
    EvolutionConfig,
    RunState,
    build_dataset,
    format_expr,
    parse_grammar,
    sieve,
)

GRAMMAR = Path(__file__).resolve().parent.parent / "grammars" / "pi_paper.bnf"


def main() -> None:
    grammar = parse_grammar(GRAMMAR.read_text())
    dataset = build_dataset(DatasetMode.PRIME_INDEXED, 1000, sieve(8000))
    config = EvolutionConfig(population_size=150, generations=20, rng_seed=99)

    print(f"evolving: population {config.population_size}, "
          f"{config.generations} generations, seed {config.rng_seed}\n")

    def show(rec):
        print(f"{rec.generation:3d}  {rec.best_fitness:14.4f}  "
              f"{rec.mean_fitness:14.6g}  {rec.invalid_count:7d}")

    start = time.perf_counter()
    state = RunState(config, grammar, dataset)
    print("gen   best fitness    mean fitness  invalid")
    show(state.recorded[0][0])
    for _ in range(config.generations - 1):
        show(state.step())
    result = state.result(time.perf_counter() - start)

    best = result.best
    print(f"\nbest formula: {format_expr(best.expr)}")
    print(f"mse {best.fitness:.4f} after {result.elapsed_seconds:.2f}s "
          f"({best.codons_used} codons used)")

    # anything below the variance of y beats the best constant model
    variance = float(np.var(dataset.ys))
    verdict = "beats" if best.fitness < variance else "does not beat"
    print(f"variance of y is {variance:.2f}; this run {verdict} "
          "the constant baseline")


if __name__ == "__main__":
    main()
