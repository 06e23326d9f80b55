"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at its tiny scale, untraced and traced, and checks
that each metric BENCHMARK.json names is printed by name and unit, that a
deliberately flipped verdict is counted as a failed operation, and that a
directory holding only the benchmark makes the run fail without a result.
It exits with 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import WORK_DIR
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(root: str, workload: str, trace: int,
          *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc: subprocess.CompletedProcess, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[2:3]
               for line in proc.stdout.splitlines())


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json lists workloads run.py accepts")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            res = result_of(proc)
            expect(res["correct"] and res["failed"] == 0,
                   f"{workload} trace={trace} passes its checks")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want,
                   f"{workload} trace={trace} reports every {key} metric")
            expect(all(printed(proc, n, u) for n, u in want.items())
                   and printed(proc, "fail_frac", "ratio"),
                   f"{workload} trace={trace} prints each metric with unit")

    for workload, op in (("cli-session", 1), ("verify-battery", 0)):
        proc = bench(ROOT, workload, 0, "--corrupt", str(op))
        res = result_of(proc)
        expect(proc.returncode == 0 and not res["correct"]
               and res["failed"] == 1
               and f"1 failed / {res['attempted']} ops" in proc.stdout,
               f"{workload}: a flipped verdict counts in fail_frac")

    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, "cli-session", 0)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "without the sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
