"""Alternating-pairs comparison of two commits on the repo's benchmark.

    python3 scripts/bench_pairs.py --parent REV --change REV --pr N \
        [--work DIR]

The benchmark is the ``BENCHMARK.json`` of the change: its ``command``
runs every one of its workloads for ``run_seconds`` at seed 0, in ten
pairs, and its end-to-end metrics and their directions are the ones
compared. Each run is one ``COMMAND --workload W --seed 0 --seconds T``
call in a fresh checkout of its side (``git archive`` of the commit into
a new directory, removed after the run). Pair i runs the parent first
when i is even and the change first when i is odd.
The result is written to ``BENCH_<pr>.json`` at the repo root, with each
side's runs, medians and quartiles per metric and the number of pairs
the change won; ties count for neither side. Run it from the root of a
clean checkout; the checkouts live under ``--work`` (default: a new
temporary directory), which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
SEED = 0
# The longest a run may take past its --seconds before it is stopped.
GRACE_S = 300


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout(sha: str, into: str) -> None:
    """Extract the committed tree of ``sha`` into the new directory
    ``into``."""
    os.makedirs(into)
    archive = subprocess.Popen(("git", "archive", sha), cwd=ROOT,
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(("tar", "-x", "-C", into), stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")


def run_once(tree: str, command: list[str], workload: str,
             seconds: float) -> dict:
    """One benchmark run in ``tree``; the JSON of its last output line.
    The run gets a process group of its own, so that stopping it also
    stops the passes it started."""
    cmd = (*command, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds))
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=seconds + GRACE_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run in {tree} exited with "
                           f"{proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """The per-workload record: counts over every run and, per metric,
    each side's runs, median and quartiles, and the pairs the change
    won."""
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if sign * (c - p) < 0)
        metrics[name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            **{f"{side}_runs": [round(v, 4) for v in values[side]]
               for side in SIDES},
            **{f"{side}_median": round(statistics.median(values[side]), 4)
               for side in SIDES},
            **{f"{side}_quartiles": quartiles(values[side])
               for side in SIDES},
            "change_better_in_pairs": wins,
        }
    return {
        "pairs": len(runs["change"]),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side])
                   for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side])
                      for side in SIDES},
        "metrics": metrics,
    }


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--work")
    args = parser.parse_args(argv)

    shas = {"parent": git("rev-parse", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", f"{args.change}^{{commit}}")}
    bench = json.loads(git("show", f"{shas['change']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.work:
        os.makedirs(args.work)
    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    results = {}
    try:
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    tree = os.path.join(work, f"{workload}-{i}-{side}")
                    checkout(shas[side], tree)
                    try:
                        runs[side].append(run_once(
                            tree, command, workload, seconds))
                    finally:
                        shutil.rmtree(tree, ignore_errors=True)
                    wall = runs[side][-1]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i} {side}: wall_s {wall:.4f}",
                          file=sys.stderr, flush=True)
            results[workload] = summarize(runs, better)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "command": f"{' '.join(command)} --workload W --seed {SEED} "
                   f"--seconds {seconds:g}",
        "method": "alternating pairs: parent first in even pairs, change "
                  "first in odd pairs; each run is one perfbench/run.py "
                  "call in a fresh checkout of its side; quartiles are "
                  "statistics.quantiles(n=4, method='inclusive')",
        "machine": {"cpu": cpu_name(), "cores": os.cpu_count(),
                    "platform": platform.platform(),
                    "python": platform.python_version()},
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        **{f"{side}_src_tree": git("rev-parse", f"{shas[side]}:src")
           for side in SIDES},
        "workloads": results,
    }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
