"""One measurement in a fresh interpreter, started by perfbench/run.py.

    python3 perfbench/child.py <mode> <spec.json> <result.json>

Modes:
    setup   import gramevo, parse the grammar file, read the dataset file
    evolve  gramevo.cli.main(["evolve", ...]) untraced
    trace   the same call with spans around the functions gramevo.engine
            and gramevo.cli resolve at call time; spans are written out
            once the run has ended
    micro   per-call cost of each layer on a fixed set of seeded random
            genomes, away from GA dynamics

The parent sets PYTHONPATH to the checkout's src/ and pins the BLAS and
OpenMP thread counts to 1, so each child is one single-threaded process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import gramevo
    from pathlib import Path

    grammar = gramevo.parse_grammar(
        Path(spec["grammar"]).read_text(encoding="utf-8"))
    dataset = gramevo.read_dataset(spec["dataset"])
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "rules": len(grammar.rules),
            "points": len(dataset), "gramevo_file": gramevo.__file__}


def run_evolve(spec: dict) -> dict:
    t0 = time.perf_counter()
    from gramevo.cli import main

    rc = main(spec["argv"])
    t1 = time.perf_counter()
    return {"rc": rc, "run_s": t1 - t0, "peak_rss_mb": _peak_rss_mb()}


class Tracer:
    """Flat in-memory span store: name, start, end and parent per span.

    Times are integer nanoseconds, so self times sum exactly to the root
    span.  ``notes`` holds what a span's result says about the work done
    (mapping status, phenotype text), keyed by span index.
    """

    def __init__(self, root_start: int):
        self.names = ["run"]
        self.starts = [root_start]
        self.ends = [0]
        self.parents = [-1]
        self.notes: dict[int, str] = {}
        self._stack = [0]

    def wrap(self, name, fn, note=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, notes = self.parents, self._stack, self.notes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "notes": self.notes,
            }, f, separators=(",", ":"))


def run_trace(spec: dict) -> dict:
    t0 = time.perf_counter_ns()
    import gramevo.cli as cli
    import gramevo.engine as engine

    tracer = Tracer(t0)
    wrap = tracer.wrap
    for attr in ("score_genome", "tournament_select", "crossover", "mutate",
                 "_random_genome", "fitness_mse"):
        setattr(engine, attr, wrap("engine." + attr, getattr(engine, attr)))
    engine.map_genome = wrap("mapping.map_genome", engine.map_genome,
                             note=lambda args, result: result.status.value)
    engine.Genome = wrap("mapping.Genome", engine.Genome)
    engine.parse_formula = wrap("expr.parse_formula", engine.parse_formula,
                                note=lambda args, result: args[0])
    cli.evolve = wrap("engine.evolve", cli.evolve)
    cli.parse_grammar = wrap("grammar.parse_grammar", cli.parse_grammar)
    cli.read_dataset = wrap("primes.read_dataset", cli.read_dataset)
    main = wrap("cli.main", cli.main)

    rc = main(spec["argv"])
    tracer.ends[0] = time.perf_counter_ns()
    peak = _peak_rss_mb()
    tracer.dump(spec["spans"])
    return {"rc": rc, "run_s": (tracer.ends[0] - t0) / 1e9,
            "peak_rss_mb": peak, "spans": len(tracer.names)}


def _per_call_us(fn, items, passes: int) -> float:
    """Median over passes of the mean wall µs per call of fn(item)."""
    means = []
    for _ in range(passes):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(item)
        means.append((time.perf_counter_ns() - t0) / len(items) / 1e3)
    return statistics.median(means)


def run_micro(spec: dict) -> dict:
    import numpy as np

    import gramevo
    from pathlib import Path

    grammar = gramevo.parse_grammar(
        Path(spec["grammar"]).read_text(encoding="utf-8"))
    small = gramevo.read_dataset(spec["dataset_1k"])
    large = gramevo.read_dataset(spec["dataset_100k"])
    count, length, codon_max = spec["genomes"], spec["genome_length"], spec["codon_max"]
    passes, max_wraps, max_depth = spec["passes"], spec["max_wraps"], spec["max_depth"]

    rng = np.random.default_rng(spec["seed"])
    codon_rows = [tuple(row) for row in
                  rng.integers(0, codon_max, size=(count, length)).tolist()]
    genomes = [gramevo.Genome(row, codon_max=codon_max) for row in codon_rows]

    genome_us = _per_call_us(
        lambda row: gramevo.Genome(row, codon_max=codon_max), codon_rows, passes)

    # mapping is timed per call so valid and invalid genomes are reported apart
    clock = time.perf_counter_ns
    valid_means, invalid_means, outcomes = [], [], None
    for _ in range(passes):
        valid_ns, invalid_ns, results = [], [], []
        for g in genomes:
            t0 = clock()
            result = gramevo.map_genome(grammar, g, max_wraps=max_wraps,
                                        max_depth=max_depth)
            elapsed = clock() - t0
            (valid_ns if result.valid else invalid_ns).append(elapsed)
            results.append((result.status.value, result.phenotype))
        if outcomes is not None and results != outcomes:
            raise RuntimeError("map_genome gave different results across passes")
        outcomes = results
        valid_means.append(sum(valid_ns) / len(valid_ns) / 1e3)
        invalid_means.append(sum(invalid_ns) / len(invalid_ns) / 1e3)

    phenotypes = [ph for status, ph in outcomes if ph is not None]
    exprs = [gramevo.parse_formula(ph) for ph in phenotypes]
    parse_us = _per_call_us(gramevo.parse_formula, phenotypes, passes)
    mse_1k_us = _per_call_us(lambda e: gramevo.fitness_mse(e, small), exprs, passes)
    large_exprs = exprs[: spec["mse_100k_exprs"]]
    mse_100k_us = _per_call_us(lambda e: gramevo.fitness_mse(e, large),
                               large_exprs, passes)

    breed_rng = np.random.default_rng(spec["seed"] + 1)
    pairs = list(zip(genomes[0::2], genomes[1::2]))
    crossover_us = _per_call_us(
        lambda ab: gramevo.crossover(ab[0], ab[1], 1.0, breed_rng), pairs, passes)
    mutate_us = _per_call_us(
        lambda g: gramevo.mutate(g, spec["mutation_rate"], breed_rng), genomes, passes)

    return {
        "micro.genome_us": genome_us,
        "micro.map_valid_us": statistics.median(valid_means),
        "micro.map_invalid_us": statistics.median(invalid_means),
        "micro.parse_us": parse_us,
        "micro.mse_1k_us": mse_1k_us,
        "micro.mse_100k_us": mse_100k_us,
        "micro.crossover_us": crossover_us,
        "micro.mutate_us": mutate_us,
        "genomes": len(genomes),
        "valid": len(phenotypes),
        "mse_100k_exprs": len(large_exprs),
    }


MODES = {"setup": run_setup, "evolve": run_evolve, "trace": run_trace,
         "micro": run_micro}


def main() -> int:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    result = MODES[mode](spec)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
