"""Record the reference digests and the baseline, from the root of a checkout:

    python3 perfbench/record.py digests    # rewrites perfbench/reference.json
    python3 perfbench/record.py baseline   # rewrites perfbench/baseline.json

``digests`` runs one untraced pass of every workload at each recorded seed
and stores each operation's output digest; a pass with a failed check is
refused. Record them only at a commit whose outputs are known good: later
runs at these seeds fail any operation whose output differs.

``baseline`` runs the benchmark itself (untraced and traced, for each
workload and recorded seed, ``run_seconds`` each) and stores the metrics
with the machine they were measured on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from run import WORK_DIR, run_pass
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The default seed and the held-out seed.
SEEDS = (0, 1)


def record_digests() -> None:
    digests: dict[str, dict[str, list[str]]] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            res = run_pass(workload, seed, "full", False,
                           os.path.join(WORK_DIR, "record"))
            errors = [op["error"] for op in res["ops"] if op["error"]]
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors[0]}")
            digests.setdefault(workload, {})[str(seed)] = \
                [op["digest"] for op in res["ops"]]
            print(f"{workload} seed {seed}: {len(res['ops'])} digests")
    _write("reference.json", {"seeds": list(SEEDS), "digests": digests})


def record_baseline() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                lines = proc.stdout.strip().splitlines()
                print("\n".join(lines[:-1]))
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "report": lines[:-1],
                             **json.loads(lines[-1])})
    _write("baseline.json", {
        "recorded": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
        "machine": {"python": platform.python_version(),
                    "system": platform.platform(),
                    "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "runs": runs,
    })


def _write(name: str, data: dict) -> None:
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        record_digests()
    elif sys.argv[1:] == ["baseline"]:
        record_baseline()
    else:
        sys.exit(__doc__)
