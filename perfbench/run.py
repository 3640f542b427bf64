"""gramevo benchmark: end-to-end runs of `gramevo evolve`, and a traced run.

    python3 perfbench/run.py --workload pi-default --seed 7 --seconds 30 --trace 0

Run from the root of a gramevo checkout.  Every measurement happens in a
fresh child interpreter (perfbench/child.py) with PYTHONPATH set to the
checkout's src/ and the BLAS/OpenMP thread counts pinned to 1; one child
runs at a time.  Datasets are made with `gramevo gen-data` in a temporary
directory under .bench_build/ that is removed on exit.

--trace 0 repeats the workload's evolve run, with fresh-child set-up
samples interleaved, until --seconds is used up, and reports the
end-to-end metrics (run_s, setup_s, peak_rss_mb, best_mse).

--trace 1 runs the layer microbench, then alternates untraced and traced
evolve runs of the same seed, and reports the per-layer metrics.

Each evolve run's artifacts are checked against the reference digests in
perfbench/reference.json and against invariants of the output (best
fitness never rises, best.txt holds the column minimum, re-scoring the
best phenotype reproduces its fitness).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GRAMMAR = ROOT / "grammars" / "pi_canonical.bnf"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

DATASETS = {"pi-1k.txt": 1000, "pi-100k.txt": 100_000}

# Each workload pins its evolve seed.  The cost of one GA run depends on
# how its population bloats, which varies up to 3x between evolve seeds
# (pi-wide: 3.5 s to 11.5 s on a 2-vCPU Xeon VM), so drawing the evolve seed from --seed would
# make run_s measure the seed, not the code.  --seed draws the microbench
# genomes instead.
WORKLOADS = {
    "pi-default": {"dataset": "pi-1k.txt", "population": 500,
                   "generations": 50, "run_seed": 1},
    "pi-wide": {"dataset": "pi-100k.txt", "population": 200,
                "generations": 20, "run_seed": 1},
    "pi-init": {"dataset": "pi-1k.txt", "population": 2500,
                "generations": 1, "run_seed": 1},
}

SETUP_SAMPLES_PER_RUN = 3
CHILD_TIMEOUT_S = 150

MICRO = {"genomes": 2000, "genome_length": 200, "codon_max": 100_000,
         "max_wraps": 1, "max_depth": 17, "mutation_rate": 0.01,
         "passes": 3, "mse_100k_exprs": 250}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(outdir: Path) -> dict:
    """SHA-256 of the three artifacts; best.txt without its elapsed line."""
    best = (outdir / "best.txt").read_text(encoding="utf-8").splitlines(True)
    kept = "".join(line for line in best
                   if not line.startswith("elapsed_seconds"))
    return {
        "history.csv": sha256((outdir / "history.csv").read_bytes()),
        "predictions.csv": sha256((outdir / "predictions.csv").read_bytes()),
        "best.txt": sha256(kept.encode("utf-8")),
    }


def platform_key() -> dict:
    """What the artifacts' last bits depend on: numpy and its SIMD paths."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "simd": active}


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "gramevo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "workload_seed": seed,
        "run_seeds": [WORKLOADS[workload]["run_seed"]],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def analyse_spans(path: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics and self times from one traced run's span file."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    names = [data["names"][k] for k in data["name"]]
    start, end, parent = data["start"], data["end"], data["parent"]
    notes = {int(k): v for k, v in data["notes"].items()}
    problems = []

    dur = [e - s for s, e in zip(start, end)]
    covered = [0] * len(names)
    for i in range(1, len(names)):
        p = parent[i]
        if not (start[p] <= start[i] <= end[i] <= end[p]):
            problems.append(f"span {i} ({names[i]}) not inside its parent")
            break
        covered[p] += dur[i]
    self_ns = [d - c for d, c in zip(dur, covered)]
    if sum(self_ns) != dur[0]:
        problems.append("self times do not sum to the traced run time")

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for name, d, s in zip(names, dur, self_ns):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + d
        own[name] = own.get(name, 0) + s

    def n(name):
        return calls.get(name, 0)

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    def self_s(name):
        return own.get(name, 0) / 1e9

    status: dict[str, list[int]] = {}
    phenotypes = []
    for i, note in notes.items():
        if names[i] == "mapping.map_genome":
            status.setdefault(note, []).append(dur[i])
        else:
            phenotypes.append(note)
    valid_ns = status.get("valid", [])
    invalid_ns = [d for key, ds in status.items() if key != "valid" for d in ds]
    breed = ("engine.tournament_select", "engine.crossover", "engine.mutate")

    metrics = {
        "mapping.map_valid_us": sum(valid_ns) / len(valid_ns) / 1e3 if valid_ns else 0.0,
        "mapping.map_invalid_us": sum(invalid_ns) / len(invalid_ns) / 1e3 if invalid_ns else 0.0,
        "mapping.map_calls": n("mapping.map_genome"),
        "mapping.valid_ratio": len(valid_ns) / n("mapping.map_genome"),
        "mapping.invalid_wraps": len(status.get("invalid-wraps", [])),
        "mapping.invalid_depth": len(status.get("invalid-depth", [])),
        "mapping.genome_us": mean_us("mapping.Genome"),
        "mapping.genome_calls": n("mapping.Genome"),
        "expr.parse_us": mean_us("expr.parse_formula"),
        "expr.parse_calls": n("expr.parse_formula"),
        "engine.mse_us": mean_us("engine.fitness_mse"),
        "engine.mse_calls": n("engine.fitness_mse"),
        "engine.unique_ratio": len(set(phenotypes)) / len(phenotypes),
        "engine.score_us": mean_us("engine.score_genome"),
        "engine.score_calls": n("engine.score_genome"),
        "engine.select_us": mean_us("engine.tournament_select"),
        "engine.crossover_us": mean_us("engine.crossover"),
        "engine.mutate_us": mean_us("engine.mutate"),
        "engine.breed_s": sum(total.get(b, 0) for b in breed) / 1e9,
        "engine.loop_self_s": self_s("engine.evolve"),
        "grammar.parse_ms": total["grammar.parse_grammar"] / 1e6,
        "primes.read_dataset_ms": total["primes.read_dataset"] / 1e6,
        "cli.self_s": self_s("cli.main"),
        "self.import_s": self_s("run"),
        "self.score_s": self_s("engine.score_genome"),
        "self.map_s": self_s("mapping.map_genome"),
        "self.genome_s": self_s("mapping.Genome"),
        "self.parse_s": self_s("expr.parse_formula"),
        "self.mse_s": self_s("engine.fitness_mse"),
        "self.select_s": self_s("engine.tournament_select"),
        "self.crossover_s": self_s("engine.crossover"),
        "self.mutate_s": self_s("engine.mutate"),
        "self.random_genome_s": self_s("engine._random_genome"),
        "trace.spans": len(names),
    }
    return metrics, problems


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path,
                 reference: dict | None):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: "1" for var in THREAD_VARS})
        self.counter = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: list[dict] = []
        self.best_mse: list[float] = []
        self.reference = reference  # expected digests; None skips that check

    # -- children ---------------------------------------------------------

    def child(self, mode: str, spec: dict) -> dict | None:
        k = next(self.counter)
        spec_path = self.workdir / f"spec-{k}.json"
        result_path = self.workdir / f"result-{k}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(spec_path), str(result_path)],
                cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} child ran over {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.problems.append(
                f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)

    def make_datasets(self) -> None:
        for filename, points in DATASETS.items():
            subprocess.run(
                [sys.executable, "-m", "gramevo.cli", "gen-data",
                 "--n", str(points), "--out", filename],
                cwd=self.workdir, env=self.env, check=True,
                stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
            )
        import gramevo

        if Path(gramevo.__file__).resolve().parent != SRC / "gramevo":
            raise RuntimeError(f"gramevo imported from {gramevo.__file__}, "
                               f"not from {SRC}")
        self.dataset = gramevo.read_dataset(self.workdir / self.spec["dataset"])

    # -- measurements -----------------------------------------------------

    def setup_sample(self) -> float | None:
        self.attempted += 1
        result = self.child("setup", {
            "grammar": os.path.relpath(GRAMMAR, self.workdir),
            "dataset": self.spec["dataset"],
        })
        if result is None or result["points"] != len(self.dataset) \
                or Path(result["gramevo_file"]).resolve().parent != SRC / "gramevo":
            self.failed += 1
            if result is not None:
                self.problems.append(f"setup child read the wrong input: {result}")
            return None
        return result["setup_s"]

    def evolve_run(self, traced: bool) -> dict | None:
        """One evolve invocation in a fresh child, then its output check."""
        self.attempted += 1
        k = next(self.counter)
        outdir = self.workdir / f"out-{k}"
        spec = {"argv": [
            "evolve",
            "--grammar", os.path.relpath(GRAMMAR, self.workdir),
            "--dataset", self.spec["dataset"],
            "--output-dir", outdir.name,
            "--seed", str(self.spec["run_seed"]),
            "--population", str(self.spec["population"]),
            "--generations", str(self.spec["generations"]),
        ]}
        if traced:
            spec["spans"] = str(self.workdir / f"spans-{k}.json")
        result = self.child("trace" if traced else "evolve", spec)
        problems = []
        if result is None:
            problems.append("evolve child failed")
        elif result["rc"] != 0:
            problems.append(f"gramevo evolve returned {result['rc']}")
        else:
            try:
                problems = self.check_output(outdir)
            except Exception:  # a missing or malformed artifact fails the run
                problems = [f"output check raised:\n{traceback.format_exc()}"]
            if traced:
                layers, trace_problems = analyse_spans(Path(spec["spans"]))
                result["layers"] = layers
                problems += trace_problems
                Path(spec["spans"]).unlink()
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return result

    def check_output(self, outdir: Path) -> list[str]:
        from gramevo import fitness_mse, parse_formula

        problems = []
        digest = fingerprint(outdir)
        if self.reference is not None and digest != self.reference["digests"]:
            problems.append(f"artifacts differ from the reference: {digest}")
        if self.fingerprints and digest != self.fingerprints[0]:
            problems.append("artifacts differ between runs of the same seed")
        self.fingerprints.append(digest)

        rows = (outdir / "history.csv").read_text(encoding="ascii").splitlines()[1:]
        column = [float(row.split(",")[1]) for row in rows]
        if len(column) != self.spec["generations"]:
            problems.append(f"history.csv has {len(column)} generations")
        if any(later > earlier for earlier, later in zip(column, column[1:])):
            problems.append("best_fitness rises in history.csv")
        best = dict(line.split(" = ", 1) for line in
                    (outdir / "best.txt").read_text(encoding="utf-8").splitlines())
        fitness = float(best["fitness"])
        if fitness != min(column):
            problems.append(f"best.txt fitness {fitness} is not the history "
                            f"minimum {min(column)}")
        rescored = fitness_mse(parse_formula(best["phenotype"]), self.dataset)
        if rescored != fitness:
            problems.append(f"re-scoring the best phenotype gives {rescored}, "
                            f"best.txt says {fitness}")
        self.best_mse.append(fitness)
        return problems

    def micro(self) -> dict:
        self.attempted += 1
        spec = dict(MICRO, seed=self.seed,
                    grammar=os.path.relpath(GRAMMAR, self.workdir),
                    dataset_1k="pi-1k.txt", dataset_100k="pi-100k.txt")
        result = self.child("micro", spec)
        if result is None or result["genomes"] != MICRO["genomes"] \
                or not 0 < result["valid"] < MICRO["genomes"]:
            self.failed += 1
            self.problems.append(f"microbench failed: {result}")
            return {}
        return {k: v for k, v in result.items() if k.startswith("micro.")}

    def repeat(self, step, start: float | None = None) -> None:
        """Call step until --seconds, counted from start, is spent: another
        call is made while at least half of one call's median duration is
        left."""
        if start is None:
            start = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            step()
            durations.append(time.perf_counter() - t0)
            left = self.seconds - (time.perf_counter() - start)
            if left < statistics.median(durations) / 2:
                return

    # -- modes ------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        setup, runs = [], []

        def step():
            for _ in range(SETUP_SAMPLES_PER_RUN):
                sample = self.setup_sample()
                if sample is not None:
                    setup.append(sample)
            result = self.evolve_run(traced=False)
            if result is not None:
                runs.append(result)

        self.setup_sample()  # warm the page cache and bytecode; not reported
        self.repeat(step)
        if not runs or not setup:
            return {}, {}
        run_s = [r["run_s"] for r in runs]
        rss = [r["peak_rss_mb"] for r in runs]
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "best_mse": {"value": statistics.median(self.best_mse), "unit": "mse"},
        }
        detail = {"run_s": quartiles(run_s), "run_s_samples": run_s,
                  "setup_s": quartiles(setup), "setup_s_samples": setup,
                  "peak_rss_mb_samples": rss, "best_mse_samples": self.best_mse}
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        start = time.perf_counter()
        micro = self.micro()
        plain, traced = [], []

        def step():
            result = self.evolve_run(traced=False)
            if result is not None:
                plain.append(result["run_s"])
            result = self.evolve_run(traced=True)
            if result is not None:
                traced.append(result)

        self.repeat(step, start)
        if not micro or not plain or not traced:
            return {}, {}
        layers = traced[0]["layers"]
        traced_s = [r["run_s"] for r in traced]
        values = dict(micro, **layers)
        values["trace.run_s"] = traced[0]["run_s"]
        values["trace.untraced_run_s"] = statistics.median(plain)
        values["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(plain) - 1)
        self_sum = sum(v for k, v in layers.items()
                       if k.startswith("self.") or k in ("cli.self_s", "engine.loop_self_s"))
        self_sum += (layers["grammar.parse_ms"] + layers["primes.read_dataset_ms"]) / 1e3
        units = {entry["name"]: entry["unit"] for entry in load_benchmark()["per_layer"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        detail = {"traced_run_s": traced_s, "untraced_run_s": plain,
                  "self_sum_s": self_sum, "trace.run_s": traced[0]["run_s"]}
        return metrics, detail


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in [1, 120]")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "gramevo" / "__init__.py", GRAMMAR) if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing; run from the root of "
              "a gramevo checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    if reference["platform"] == platform_key():
        expected = reference["workloads"][args.workload]
    else:
        expected = None
        print("perfbench: reference digests were recorded on another "
              "platform; checking run-to-run agreement and invariants only",
              file=sys.stderr)

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, workdir, expected)
    metrics, detail = {}, {}
    try:
        bench.make_datasets()
        metrics, detail = bench.per_layer() if args.trace else bench.end_to_end()
    except subprocess.SubprocessError as exc:
        bench.problems.append(f"gramevo gen-data failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.problems and bool(metrics)
    print(json.dumps({"environment": environment(args.workload, args.seed),
                      "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
