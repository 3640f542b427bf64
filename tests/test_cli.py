import dataclasses
import errno

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gramevo.cli
import gramevo.primes
from gramevo import (
    Dataset,
    DatasetMode,
    EvolutionConfig,
    RunState,
    build_dataset,
    evaluate_array,
    parse_formula,
    read_dataset,
    sieve,
)
from gramevo.cli import (
    _ROWS_PER_BLOCK,
    _fmt_column,
    _fmt_num,
    _write_predictions,
    main,
)
from conftest import (
    CANONICAL_GRAMMAR_PATH,
    PI_PAPER_GRAMMAR_PATH,
    REFERENCE_FORMULA,
    TABLE_POINTS,
    TABLE_TOL,
    interrupt_on_call,
)


def run(*argv):
    return main([str(a) for a in argv])


# --- gen-data ----------------------------------------------------------------

def test_gen_data_full(tmp_path, capsys):
    out = tmp_path / "pi.txt"
    assert run("gen-data", "--mode", "prime-indexed", "--n", 1000,
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x y"
    assert len(lines) == 1001
    assert lines[1] == "2\t1"
    assert lines[-1] == "7919\t1000"
    stdout = capsys.readouterr().out
    assert "1000" in stdout and "7919" in stdout


def test_gen_data_single_point(tmp_path):
    out = tmp_path / "one.txt"
    assert run("gen-data", "--n", 1, "--out", out) == 0
    assert out.read_text() == "x y\n2\t1\n"


def test_gen_data_integer_range(tmp_path):
    out = tmp_path / "ir.txt"
    assert run("gen-data", "--mode", "integer-range", "--n", 9,
               "--out", out) == 0
    ds = read_dataset(out)
    assert ds.ys.tolist() == [1, 2, 2, 3, 3, 4, 4, 4, 4]


def test_gen_data_unwritable_path_leaves_nothing(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "pi.txt"
    assert run("gen-data", "--n", 5, "--out", target) == 1
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


def test_gen_data_limit_too_small(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run("gen-data", "--n", 100, "--limit", 50, "--out", out) == 1
    assert not out.exists()


def test_gen_data_size_past_memory_is_refused(tmp_path, monkeypatch,
                                              capsys):
    # n = 10**11 needs a sieve of about 2.9 * 10**12 bools; the check
    # refuses it before anything is allocated
    monkeypatch.setattr(gramevo.primes, "_physical_memory_bytes",
                        lambda: 2**33)
    out = tmp_path / "big.txt"
    assert run("gen-data", "--n", 100_000_000_000, "--out", out) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sieve limit ")
    assert f"more than the {2**33} bytes of physical memory" in lines[0]


# --- evolve ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pi200.txt"
    assert main(["gen-data", "--n", "200", "--out", str(path)]) == 0
    return path

EVOLVE_ARGS = ("--population", 12, "--generations", 3, "--genome-length", 30)


def test_evolve_writes_artifacts(tmp_path, small_dataset, capsys):
    out_dir = tmp_path / "run"
    assert run("evolve", "--grammar", PI_PAPER_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--seed", 5, *EVOLVE_ARGS) == 0

    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0] == "generation,best_fitness,mean_fitness,invalid_count"
    assert len(history) == 4    # header + one row per generation
    assert history[1].startswith("0,")

    best = (out_dir / "best.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in best]
    assert keys[0] == "phenotype"
    assert keys[-1] == "elapsed_seconds"
    assert "rng_seed" in keys
    assert dict(line.split(" = ", 1) for line in best)["rng_seed"] == "5"

    predictions = (out_dir / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "x,y_true,y_pred"
    assert len(predictions) == 201

    stdout = capsys.readouterr().out
    assert stdout.count("gen ") == 3


def test_evolve_deterministic_outputs(tmp_path, small_dataset):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run("evolve", "--grammar", PI_PAPER_GRAMMAR_PATH,
                   "--dataset", small_dataset, "--output-dir", d,
                   "--seed", 123, *EVOLVE_ARGS) == 0
    a, b = dirs
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "predictions.csv").read_bytes() == (b / "predictions.csv").read_bytes()
    besta = [l for l in (a / "best.txt").read_text().splitlines()
             if not l.startswith("elapsed_seconds")]
    bestb = [l for l in (b / "best.txt").read_text().splitlines()
             if not l.startswith("elapsed_seconds")]
    assert besta == bestb


# Sums and products of integers, scored on six integral points: every
# fitness is exact or correctly rounded whatever libm or SIMD path numpy
# takes, so these bytes pin the RNG stream on every supported numpy.
_GOLDEN_HISTORY = """\
generation,best_fitness,mean_fitness,invalid_count
0,187.16666666666666,326975.4166666667,8
1,75.16666666666667,27201.198717948715,4
2,75.16666666666667,93282.09999999999,0
3,25,366.4111111111111,0
4,25,330.4444444444444,0
5,9,287.0802469135802,3
6,9,256.92857142857144,2
7,9,195.70000000000002,0
8,5.166666666666667,1651.6111111111109,3
9,5.166666666666667,330.58333333333326,0
"""
_GOLDEN_BEST = """\
phenotype = x*x+6
fitness = 5.166666666666667
population_size = 30
generations = 10
genome_length = 40
codon_max = 100000
max_wraps = 1
max_depth = 17
tournament_size = 2
crossover_rate = 0.75
mutation_rate = 0.05
elitism_count = 1
rng_seed = 2
invalid_retries = 0
grammar_path = g.bnf
dataset_path = d.txt
"""


def test_evolve_golden_bytes(tmp_path, monkeypatch):
    # relative paths, so best.txt's echo does not name the temp directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.bnf").write_text(
        "<e> ::= <e>+<e>|<e>*<e>|x|<d>\n<d> ::= 0|1|2|3|4|5|6|7|8|9\n")
    (tmp_path / "d.txt").write_text(
        "x y\n1\t3\n2\t7\n3\t13\n4\t21\n5\t31\n6\t43\n")
    assert run("evolve", "--grammar", "g.bnf", "--dataset", "d.txt",
               "--output-dir", "run", "--seed", 2, "--population", 30,
               "--generations", 10, "--genome-length", 40,
               "--mutation-rate", 0.05, "--invalid-retries", 0) == 0
    assert (tmp_path / "run" / "history.csv").read_bytes() == \
        _GOLDEN_HISTORY.encode("ascii")
    best = (tmp_path / "run" / "best.txt").read_bytes().splitlines(True)
    assert best[-1].startswith(b"elapsed_seconds = ")
    assert b"".join(best[:-1]) == _GOLDEN_BEST.encode("utf-8")


def test_evolve_scores_a_literal_past_float_range_invalid(tmp_path,
                                                          small_dataset,
                                                          capsys):
    # a 400-digit <n> is a number float() makes inf: the phenotype does
    # not parse, and the run goes on with it scored invalid
    grammar = tmp_path / "big-literal.bnf"
    grammar.write_text("<e> ::= <n> | x\n<n> ::= " + "<d>" * 400
                       + "\n<d> ::= 0|1|2|3|4|5|6|7|8|9\n")
    out_dir = tmp_path / "big"
    assert run("evolve", "--grammar", grammar, "--dataset", small_dataset,
               "--output-dir", out_dir, "--seed", 1, "--population", 10,
               "--generations", 2, "--genome-length", 400,
               "--invalid-retries", 0) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "best.txt", "history.csv", "predictions.csv"]
    rows = [row.split(",")
            for row in (out_dir / "history.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert int(rows[0][3]) > 0      # literal phenotypes are invalid
    best = (out_dir / "best.txt").read_text().splitlines()
    assert best[0] == "phenotype = x"
    assert "error" not in capsys.readouterr().err


def test_evolve_single_generation_row(tmp_path, small_dataset):
    out_dir = tmp_path / "g1"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--seed", 1, "--population", 10, "--generations", 1,
               "--genome-length", 30) == 0
    rows = (out_dir / "history.csv").read_text().splitlines()
    assert len(rows) == 2    # header + exactly one data row


def test_evolve_config_file(tmp_path, small_dataset):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment setup\n"
        f"grammar_path = {PI_PAPER_GRAMMAR_PATH}\n"
        f"dataset_path = {small_dataset}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "population_size = 10\n"
        "generations = 2\n"
        "genome_length = 30\n"
        "rng_seed = 77\n"
    )
    assert run("evolve", "--config", config) == 0
    best = (tmp_path / "out" / "best.txt").read_text()
    assert "rng_seed = 77" in best
    assert "population_size = 10" in best


def test_evolve_flag_overrides_config(tmp_path, small_dataset):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"grammar_path = {PI_PAPER_GRAMMAR_PATH}\n"
        f"dataset_path = {small_dataset}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "population_size = 10\n"
        "generations = 3\n"
        "genome_length = 30\n"
        "rng_seed = 77\n"
    )
    assert run("evolve", "--config", config, "--generations", 2,
               "--seed", 99) == 0
    best = (tmp_path / "out" / "best.txt").read_text()
    assert "rng_seed = 99" in best
    assert "generations = 2" in best
    rows = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert len(rows) == 3


def _best_lines(out_dir):
    return [line for line in (out_dir / "best.txt").read_text().splitlines()
            if not line.startswith("elapsed_seconds")]


def test_evolve_replays_from_best_txt(tmp_path, small_dataset):
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert run("evolve", "--grammar", PI_PAPER_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", first,
               "--seed", 8, "--mutation-rate", 0.05, "--crossover-rate", 1,
               "--elitism", 2, *EVOLVE_ARGS) == 0
    assert run("evolve", "--config", first / "best.txt",
               "--output-dir", second) == 0
    for name in ("history.csv", "predictions.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert _best_lines(first) == _best_lines(second)
    # integer-valued float settings are echoed without a fraction
    assert "crossover_rate = 1" in _best_lines(first)


def test_evolve_replays_an_interrupted_run_from_its_best_txt(
        tmp_path, small_dataset, monkeypatch):
    # a 3-generation run stopped at its second breeding round recorded 2
    # generations; its best.txt echoes 2, so a replay runs those and stops
    first, second = tmp_path / "stopped", tmp_path / "replay"
    with monkeypatch.context() as patched:
        interrupt_on_call(patched, "step", 2, owner=RunState)
        assert run("evolve", "--grammar", PI_PAPER_GRAMMAR_PATH,
                   "--dataset", small_dataset, "--output-dir", first,
                   "--seed", 3, *EVOLVE_ARGS) == 130
    assert "generations = 2" in _best_lines(first)
    assert run("evolve", "--config", first / "best.txt",
               "--output-dir", second) == 0
    for name in ("history.csv", "predictions.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert _best_lines(first) == _best_lines(second)


def test_evolve_flag_spellings_are_not_derived_twice(capsys):
    # each setting has one flag; the renamed ones have no field-named twin
    for flag in ("--population-size", "--elitism-count", "--rng-seed",
                 "--grammar-path", "--dataset-path"):
        with pytest.raises(SystemExit):
            run("evolve", flag, 1)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_evolve_flag_prefixes_are_not_accepted(capsys):
    # --elit would otherwise be an undocumented spelling of --elitism
    with pytest.raises(SystemExit) as exit_info:
        run("evolve", "--elit", 2)
    assert exit_info.value.code == 2
    assert "--elit" in capsys.readouterr().err


def test_evolve_config_result_lines_only_are_skipped(tmp_path, capsys):
    config = tmp_path / "best.txt"
    config.write_text("phenotype = x\nfitness = 1\nelapsed_seconds = 0.1\n"
                      "best_fitness = 1\n")
    assert run("evolve", "--config", config) == 1
    assert "4: unknown key 'best_fitness'" in capsys.readouterr().err


# the flags not spelled after their setting, and the settings of a small run
FLAGS = {"population_size": "--population", "elitism_count": "--elitism",
         "rng_seed": "--seed"}
BASE = {"population_size": 12, "generations": 2, "genome_length": 30,
        "rng_seed": 5}


@pytest.mark.parametrize("field", dataclasses.fields(EvolutionConfig),
                         ids=lambda f: f.name)
def test_evolve_setting_by_flag_and_file(tmp_path, small_dataset, field):
    name, kind = field.name, type(field.default)
    flag = FLAGS.get(name, "--" + name.replace("_", "-"))
    theirs = BASE.get(name, field.default)
    ours = theirs / 2 if kind is float else theirs + 1

    def evolve_with(tag, flag_value, file_value):
        out_dir = tmp_path / tag
        settings = dict(BASE, grammar_path=PI_PAPER_GRAMMAR_PATH,
                        dataset_path=small_dataset)
        if file_value is not None:
            settings[name] = file_value
        config = out_dir.with_suffix(".cfg")
        config.write_text("".join(f"{key} = {value}\n"
                                  for key, value in settings.items()))
        argv = ["evolve", "--config", config, "--output-dir", out_dir]
        if flag_value is not None:
            argv += [flag, flag_value]
        assert run(*argv) == 0
        best = dict(line.split(" = ", 1) for line in _best_lines(out_dir))
        return kind(best[name])

    assert ours != field.default
    assert evolve_with("flag", ours, None) == ours
    assert evolve_with("file", None, ours) == ours
    assert evolve_with("both", theirs, ours) == theirs


def test_evolve_unknown_config_key(tmp_path, small_dataset, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("swarm_size = 10\n")
    assert run("evolve", "--config", config) == 1
    assert "swarm_size" in capsys.readouterr().err


def test_evolve_env_seed_fallback(tmp_path, small_dataset, monkeypatch):
    monkeypatch.setenv("GRAMEVO_SEED", "4242")
    out_dir = tmp_path / "env"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--population", 8, "--generations", 2,
               "--genome-length", 30) == 0
    assert "rng_seed = 4242" in (out_dir / "best.txt").read_text()


def test_evolve_env_seed_must_be_integer(tmp_path, small_dataset,
                                         monkeypatch, capsys):
    monkeypatch.setenv("GRAMEVO_SEED", "not-a-number")
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset,
               "--output-dir", tmp_path / "x",
               "--population", 8, "--generations", 2) == 1
    assert "GRAMEVO_SEED" in capsys.readouterr().err


def test_evolve_random_seed_is_echoed_and_reproducible(tmp_path, small_dataset,
                                                       monkeypatch):
    monkeypatch.delenv("GRAMEVO_SEED", raising=False)
    first = tmp_path / "rand"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", first,
               *EVOLVE_ARGS) == 0
    echoed = dict(
        line.split(" = ", 1)
        for line in (first / "best.txt").read_text().splitlines()
    )["rng_seed"]
    second = tmp_path / "replay"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", second,
               "--seed", int(echoed), *EVOLVE_ARGS) == 0
    assert (first / "history.csv").read_bytes() == (
        second / "history.csv"
    ).read_bytes()


def test_evolve_failed_write_leaves_no_partial_file(tmp_path, small_dataset,
                                                   monkeypatch, capsys):
    # the disk fills halfway through writing predictions.csv
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(file, mode="r", **kwargs):
        fh = real_open(file, mode, **kwargs)
        if "w" in mode and str(file).endswith("predictions.csv.tmp"):
            return HalfWriter(fh)
        return fh

    monkeypatch.setattr(gramevo.primes, "open", failing_open, raising=False)
    out_dir = tmp_path / "full"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--seed", 3, *EVOLVE_ARGS) == 1
    assert "No space left" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "best.txt", "history.csv"]


def test_evolve_interrupt_writes_best_so_far(tmp_path, small_dataset,
                                             monkeypatch, capsys):
    # the second breeding round starts after generations 0 and 1 are
    # recorded
    interrupt_on_call(monkeypatch, "step", 2, owner=RunState)
    out_dir = tmp_path / "stopped"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--seed", 3, *EVOLVE_ARGS) == 130
    captured = capsys.readouterr()
    assert "interrupted after 2 generations" in captured.err
    assert captured.out.count("gen ") == 2

    assert sorted(p.name for p in out_dir.iterdir()) == [
        "best.txt", "history.csv", "predictions.csv"]
    rows = (out_dir / "history.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    best = dict(line.split(" = ", 1)
                for line in (out_dir / "best.txt").read_text().splitlines())
    assert float(best["fitness"]) == min(float(row.split(",")[1])
                                         for row in rows)
    assert len((out_dir / "predictions.csv").read_text().splitlines()) == 201


def test_evolve_interrupt_during_init_leaves_nothing(tmp_path, small_dataset,
                                                    monkeypatch, capsys):
    interrupt_on_call(monkeypatch, "_random_genome", 3)
    out_dir = tmp_path / "early"
    assert run("evolve", "--grammar", CANONICAL_GRAMMAR_PATH,
               "--dataset", small_dataset, "--output-dir", out_dir,
               "--seed", 3, *EVOLVE_ARGS) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []


def test_evolve_codon_max_past_int64_is_config_error(tmp_path, capsys):
    # rejected with the other settings, before any file is read or made
    out_dir = tmp_path / "never"
    assert run("evolve", "--grammar", tmp_path / "missing.bnf",
               "--dataset", tmp_path / "missing.txt", "--output-dir", out_dir,
               "--seed", 1, "--codon-max", 10**20) == 1
    err = capsys.readouterr().err
    assert "codon_max" in err
    assert "missing" not in err
    assert not out_dir.exists()


def test_evolve_requires_paths(capsys):
    assert run("evolve", "--population", 5) == 1
    assert "grammar" in capsys.readouterr().err


_FORMAT_EDGES = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e16,
                 -1e16, 1e16 - 2, 2.0**53 + 1, 5e-324, -5e-324, 0.1, -1e15,
                 1e300, 3.0, -7.0, 0.5, 123456789.0]


# columns of whole values alone take a shorter path
@example(values=[])
@example(values=[-0.0, 0.0, 3.0, -7.0, 1e16 - 2, -1e15, 123456789.0])
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FORMAT_EDGES),
                          st.floats(width=64)), max_size=60))
def test_fmt_column_is_fmt_num_of_each_value(values):
    column = np.array(values, dtype=np.float64)
    assert _fmt_column(column) == [_fmt_num(v) for v in values]


def _row_by_row_predictions(dataset, predictions):
    lines = ["x,y_true,y_pred"]
    for x, y, p in zip(dataset.xs.tolist(), dataset.ys.tolist(),
                       predictions.tolist()):
        lines.append(f"{_fmt_num(x)},{_fmt_num(y)},{_fmt_num(p)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("formula", [
    "x/ln(x)",                  # nan below 0, -0.0 and inf near it
    "pdiv(x, 2)",               # whole and fractional values mixed
    "exp(x)",                   # 0, subnormals and inf
    "x*10000000000000000",      # past 1e16
    "-x",                       # -0.0 at x = 0
    "7",
    None,                       # no best expression: nan
])
def test_predictions_csv_equals_row_by_row_text(tmp_path, formula):
    n = 2 * _ROWS_PER_BLOCK + 3
    steps = np.arange(n, dtype=np.float64)
    dataset = Dataset(steps * 0.75 - 4000 * 0.75, np.round(np.sin(steps), 3))
    best = SimpleNamespace(expr=parse_formula(formula) if formula else None)
    path = tmp_path / "predictions.csv"
    _write_predictions(path, dataset, best)
    if formula:
        with np.errstate(all="ignore"):
            predictions = evaluate_array(best.expr, dataset.xs)
    else:
        predictions = np.full(n, np.nan)
    assert path.read_bytes().decode("ascii") == _row_by_row_predictions(
        dataset, predictions)


def test_predictions_are_evaluated_block_by_block(tmp_path, monkeypatch):
    # 10 000 primes span three writer blocks; the file is the text of one
    # whole-array evaluation, and no evaluation covers more than a block
    dataset = build_dataset(DatasetMode.PRIME_INDEXED, 10_000,
                            sieve(104_729))
    best = SimpleNamespace(
        expr=parse_formula("pdiv(x, plog(x)-sin(x))+sin(x)*plog(x/1000)"))
    sizes = []

    def counting(expr, xs):
        sizes.append(len(xs))
        return evaluate_array(expr, xs)

    monkeypatch.setattr(gramevo.cli, "evaluate_array", counting)
    path = tmp_path / "predictions.csv"
    _write_predictions(path, dataset, best)
    assert sizes == [_ROWS_PER_BLOCK, _ROWS_PER_BLOCK,
                     10_000 - 2 * _ROWS_PER_BLOCK]
    assert path.read_bytes().decode("ascii") == _row_by_row_predictions(
        dataset, evaluate_array(best.expr, dataset.xs))


# --- eval --------------------------------------------------------------------

def test_eval_identity(capsys):
    assert run("eval", "--formula", "x", "--points", 7) == 0
    assert capsys.readouterr().out == "7\t7\n"


def test_eval_reference_formula_points(capsys):
    assert run("eval", "--formula", REFERENCE_FORMULA,
               "--points", 100, 1400) == 0
    lines = capsys.readouterr().out.splitlines()
    for line, (x, expected) in zip(lines, TABLE_POINTS.items()):
        got_x, got_v = line.split("\t")
        assert float(got_x) == x
        assert abs(float(got_v) - expected) <= TABLE_TOL


def test_eval_against_dataset(tmp_path, capsys):
    data = tmp_path / "d.txt"
    assert run("gen-data", "--n", 50, "--out", data) == 0
    capsys.readouterr()
    assert run("eval", "--formula", "pdiv(x, plog(x))",
               "--dataset", data) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("mse\t")
    assert float(out[0].split("\t")[1]) > 0


def test_eval_formula_file(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text(REFERENCE_FORMULA + "\n")
    assert run("eval", "--formula-file", f, "--points", 100) == 0
    value = float(capsys.readouterr().out.split("\t")[1])
    assert abs(value - TABLE_POINTS[100.0]) <= TABLE_TOL


def test_eval_syntax_error_position(capsys):
    assert run("eval", "--formula", "x+", "--points", 1) == 1
    assert "position 2" in capsys.readouterr().err


def test_eval_nested_too_deep(capsys):
    formula = "(" * 600 + "x" + ")" * 600
    assert run("eval", "--formula", formula, "--points", 1) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_thousand_term_sum(capsys):
    # parse_formula reads the chain in a loop; evaluation must not recurse
    # once per operator either
    assert run("eval", "--formula", "+".join(["x"] * 1000),
               "--points", 2) == 0
    assert capsys.readouterr().out.split() == ["2", "2000"]


def test_eval_unknown_token(capsys):
    assert run("eval", "--formula", "frob(x)", "--points", 1) == 1
    assert "frob" in capsys.readouterr().err
