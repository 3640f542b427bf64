"""Command-line front end: dataset generation, evolution runs, formula eval.

Subcommands
    gen-data   write a regression dataset file
    evolve     run the engine and export history.csv / best.txt / predictions.csv
    eval       evaluate a formula at points and optionally against a dataset

Seed precedence for `evolve`: --seed flag, then config file, then the
GRAMEVO_SEED environment variable, then a fresh random seed.  Whichever
wins is echoed into best.txt with every other setting, so
`gramevo evolve --config run1/best.txt --output-dir run2` replays a run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .engine import EvolutionConfig, GenerationRecord, evolve
from .errors import ConfigError, GramevoError, RunInterrupted
from .evaluation import evaluate, evaluate_array, fitness_mse
from .expr import format_expr, parse_formula
from .grammar import parse_grammar
from .primes import (
    Dataset,
    DatasetMode,
    build_dataset,
    read_dataset,
    sieve,
    write_dataset,
    write_text_atomic,
)

# Run settings: EvolutionConfig's fields, each typed by its default, then the
# input and output paths.  This one table types config-file values, makes
# the `evolve` flags and orders the best.txt echo.
_SETTINGS = {f.name: type(f.default) for f in fields(EvolutionConfig)}
_KEYS = {**_SETTINGS, "grammar_path": str, "dataset_path": str, "output_dir": str}
# flags spelled other than after their setting
_FLAG_NAMES = {"population_size": "--population", "elitism_count": "--elitism"}
# the result lines best.txt adds; skipped so that best.txt replays its run
_RESULT_KEYS = {"phenotype", "fitness", "elapsed_seconds"}


def _fmt_num(v: float) -> str:
    """Shortest exact decimal; integer-valued floats without a fraction."""
    v = float(v)
    # neither inf nor nan is an integer
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_column(values: np.ndarray) -> list[str]:
    """:func:`_fmt_num` of each value of a float64 array."""
    whole = (np.trunc(values) == values) & (np.abs(values) < 1e16)
    if whole.all():
        return list(map(int.__repr__, values.astype(np.int64).tolist()))
    texts = np.empty(len(values), dtype=object)
    # the same text as str() and repr(), at less cost per call
    texts[whole] = list(map(int.__repr__,
                            values[whole].astype(np.int64).tolist()))
    rest = ~whole
    texts[rest] = list(map(float.__repr__, values[rest].tolist()))
    return texts.tolist()


def load_run_config(path) -> dict:
    """Parse a flat `key = value` run-configuration file.

    Blank lines and `#` comments are allowed, and so are the result lines
    of a best.txt; any other unknown key is an error.
    """
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key in _RESULT_KEYS:
            continue
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value {value!r} for {key}"
            ) from None
    return values


def _fresh_seed() -> int:
    """GRAMEVO_SEED if it is set, else a random 64-bit seed."""
    env = os.environ.get("GRAMEVO_SEED")
    if env is None:
        return int.from_bytes(os.urandom(8), "little")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(
            f"GRAMEVO_SEED must be an integer, got {env!r}"
        ) from None


# --- gen-data ----------------------------------------------------------------

def _auto_limit(mode: DatasetMode, n: int) -> int:
    if mode is DatasetMode.INTEGER_RANGE:
        return n + 1
    if n < 6:
        return 15
    # upper bound on the n-th prime: n(ln n + ln ln n) for n >= 6
    return int(math.ceil(n * (math.log(n) + math.log(math.log(n)))))


def cmd_gen_data(args) -> int:
    mode = DatasetMode(args.mode)
    limit = args.limit if args.limit is not None else _auto_limit(mode, args.n)
    table = sieve(limit)
    dataset = build_dataset(mode, args.n, table)
    write_dataset(dataset, args.out)
    xs = dataset.xs
    print(
        f"wrote {len(dataset)} points to {args.out} "
        f"(x from {_fmt_num(xs[0])} to {_fmt_num(xs[-1])})"
    )
    return 0


# --- evolve ------------------------------------------------------------------

def _write_history(path: Path, history) -> None:
    lines = ["generation,best_fitness,mean_fitness,invalid_count"]
    for rec in history:
        lines.append(
            f"{rec.generation},{_fmt_num(rec.best_fitness)},"
            f"{_fmt_num(rec.mean_fitness)},{rec.invalid_count}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n", "ascii")


# rows formatted and written at a time; the cells of a whole 100 000-row
# file, held at once, cost pi-wide about 25 MB of peak RSS
_ROWS_PER_BLOCK = 4096


def _write_predictions(path: Path, dataset: Dataset, best) -> None:
    # each block's predictions are evaluated with the block, so no array
    # the size of the dataset is made
    def blocks():
        yield "x,y_true,y_pred\n"
        for start in range(0, len(dataset), _ROWS_PER_BLOCK):
            stop = start + _ROWS_PER_BLOCK
            xs = dataset.xs[start:stop]
            if best.expr is not None:
                predictions = evaluate_array(best.expr, xs)
            else:
                predictions = np.full(len(xs), float("nan"))
            cells = [_fmt_column(column)
                     for column in (xs, dataset.ys[start:stop], predictions)]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_text_atomic(path, blocks(), "ascii")


def _write_best(path: Path, result, grammar_path, dataset_path) -> None:
    best = result.best
    phenotype = format_expr(best.expr) if best.expr is not None else (
        best.phenotype or ""
    )
    lines = [f"phenotype = {phenotype}", f"fitness = {_fmt_num(best.fitness)}"]
    # an interrupted run echoes the generations it recorded, so it replays
    echo = replace(result.config_echo, generations=len(result.history))
    for key, kind in _SETTINGS.items():
        value = getattr(echo, key)
        lines.append(f"{key} = {_fmt_num(value) if kind is float else value}")
    lines += [
        f"grammar_path = {grammar_path}",
        f"dataset_path = {dataset_path}",
        # elapsed stays last so the rest of the file is run-to-run identical
        f"elapsed_seconds = {result.elapsed_seconds:.3f}",
    ]
    write_text_atomic(path, "\n".join(lines) + "\n", "utf-8")


def cmd_evolve(args) -> int:
    # file values, then every flag given on top of them
    values = load_run_config(args.config) if args.config else {}
    for key in _KEYS:
        value = getattr(args, key)
        if value is not None:
            values[key] = value

    grammar_path = values.get("grammar_path")
    dataset_path = values.get("dataset_path")
    output_dir = values.get("output_dir")
    if not grammar_path:
        raise ConfigError("no grammar given (use --grammar or grammar_path)")
    if not dataset_path:
        raise ConfigError("no dataset given (use --dataset or dataset_path)")
    if not output_dir:
        raise ConfigError("no output dir given (use --output-dir or output_dir)")

    if "rng_seed" not in values:
        values["rng_seed"] = _fresh_seed()
    config = EvolutionConfig(**{key: values[key] for key in _SETTINGS
                                if key in values})

    grammar = parse_grammar(Path(grammar_path).read_text(encoding="utf-8"))
    dataset = read_dataset(dataset_path)

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def progress(record: GenerationRecord) -> None:
        print(
            f"gen {record.generation:4d}  "
            f"best {_fmt_num(record.best_fitness)}  "
            f"mean {_fmt_num(record.mean_fitness)}  "
            f"invalid {record.invalid_count}"
        )

    interrupted = False
    try:
        result = evolve(config, grammar, dataset, progress_sink=progress)
    except RunInterrupted as stopped:
        # Ctrl-C after generation 0: write what the run found so far
        interrupted = True
        result = stopped.result

    _write_history(out / "history.csv", result.history)
    _write_best(out / "best.txt", result, grammar_path, dataset_path)
    _write_predictions(out / "predictions.csv", dataset, result.best)
    if interrupted:
        print(
            f"interrupted after {len(result.history)} generations; "
            f"best-so-far outputs in {out}",
            file=sys.stderr,
        )
        return 130
    print(
        f"best fitness {_fmt_num(result.best.fitness)} "
        f"after {config.generations} generations "
        f"({result.elapsed_seconds:.1f}s); outputs in {out}"
    )
    return 0


# --- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.formula is not None:
        text = args.formula
    else:
        text = Path(args.formula_file).read_text(encoding="utf-8").strip()
    expr = parse_formula(text)
    for x in args.points:
        print(f"{_fmt_num(x)}\t{_fmt_num(evaluate(expr, x))}")
    if args.dataset:
        dataset = read_dataset(args.dataset)
        print(f"mse\t{_fmt_num(fitness_mse(expr, dataset))}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramevo",
        description="Grammatical evolution of formulas approximating the "
                    "prime-counting function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", allow_abbrev=False,
                         help="write a regression dataset file")
    gen.add_argument("--mode", choices=[m.value for m in DatasetMode],
                     default=DatasetMode.PRIME_INDEXED.value)
    gen.add_argument("--n", type=int, default=1000,
                     help="number of points (default 1000)")
    gen.add_argument("--limit", type=int, default=None,
                     help="sieve limit; derived from --n when omitted")
    gen.add_argument("--out", required=True, help="output file path")
    gen.set_defaults(func=cmd_gen_data)

    evo = sub.add_parser("evolve", allow_abbrev=False,
                         help="run evolution and export results")
    evo.add_argument("--config", default=None,
                     help="flat key = value run-configuration file")
    evo.add_argument("--grammar", dest="grammar_path", help="BNF grammar file")
    evo.add_argument("--dataset", dest="dataset_path", help="dataset file")
    evo.add_argument("--output-dir", dest="output_dir")
    evo.add_argument("--seed", dest="rng_seed", type=int,
                     help="RNG seed (beats config file and GRAMEVO_SEED)")
    for key, kind in _SETTINGS.items():
        if key != "rng_seed":
            flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
            evo.add_argument(flag, dest=key, type=kind)
    evo.set_defaults(func=cmd_evolve)

    ev = sub.add_parser("eval", allow_abbrev=False, help="evaluate a formula")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", default=None, help="formula text")
    group.add_argument("--formula-file", default=None,
                       help="file holding the formula text")
    ev.add_argument("--points", type=float, nargs="*", default=[],
                    help="x values to evaluate at")
    ev.add_argument("--dataset", default=None,
                    help="dataset file to score MSE against")
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (GramevoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
