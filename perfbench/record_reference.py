"""Record perfbench/reference.json: the artifact digests of each workload's
pinned evolve run at the current commit, and the platform they came from.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter gramevo's output for a fixed
seed, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, SRC, THREAD_VARS, WORKLOADS, Bench, platform_key


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    workloads = {}
    for name, spec in WORKLOADS.items():
        workdir = ROOT / ".bench_build" / f"perfbench-record-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            bench = Bench(name, 0, 1, workdir, reference=None)
            bench.make_datasets()
            bench.evolve_run(traced=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        workloads[name] = {"run_seed": spec["run_seed"],
                           "best_mse": bench.best_mse[0],
                           "digests": bench.fingerprints[0]}
        print(f"{name}: best_mse {bench.best_mse[0]}")
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"platform": platform_key(), "workloads": workloads}, f,
                  indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
