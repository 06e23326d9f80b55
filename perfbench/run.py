"""Benchmark of the roughpart engine, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each):

* ``verify-battery``: one ``verify --suite all`` call per pass;
* ``parthood-scale``: parthood builds at n = 7..9, analysed for n <= 8;
* ``cli-session``: 25 one-shot CLI calls on generated specs (run by hand;
  not in BENCHMARK.json, see the README).

The run starts passes, each in a fresh interpreter (``child.py``), one
after another until ``--seconds`` have gone by, and reports medians over
them. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones plus the tracing overhead. Every
operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run exits with 0 only when it could run and report; a failed check
makes ``correct`` false but still reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import EXACT_COUNTS, LAYER_METRICS
from workloads import SCALES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_pass(workload: str, seed: int, scale: str, trace: bool, work: str,
             corrupt: int = -1) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    spans = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(trace)), "--work", work, "--result", result,
           "--spans", spans if trace else "", "--corrupt", str(corrupt),
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with {proc.returncode}:"
                         f"\n{proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples
    beyond it, by nearest rank; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p} of {n} ops, {n - rank} beyond it"
    return xs[-1], f"max of {n} ops (too few for a percentile)"


def load_reference(workload: str, seed: int, scale: str) -> list[str] | None:
    if scale != "full":
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def mark_failures(passes: list[dict], reference: list[str] | None) -> None:
    """Fail ops whose digest differs from the reference or between passes."""
    width = len(passes[0]["ops"])
    for i in range(width):
        seen = {p["ops"][i]["digest"] for p in passes
                if not p["ops"][i]["error"]}
        want = reference[i] if reference is not None else None
        for p in passes:
            op = p["ops"][i]
            if op["error"]:
                continue
            if want is not None and op["digest"] != want:
                op["error"] = f"digest {op['digest']} differs from the " \
                              f"reference {want}"
            elif len(seen) > 1:
                op["error"] = "digest differs between passes of one seed"


def collect(workload: str, seed: int, seconds: float, trace: bool,
            scale: str, corrupt: int = -1) -> list[dict]:
    """Run passes until ``seconds`` have gone by; return their results."""
    if not os.path.isfile(os.path.join(ROOT, "src", "roughpart",
                                       "__init__.py")):
        raise BenchError(f"no roughpart sources under {ROOT}/src")
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    start = time.monotonic()
    passes: list[dict] = []
    lengths: list[float] = []
    try:
        # Start another pass while it would end, by the median pass so
        # far, less than half a pass after the deadline.
        while not passes or (trace and len(passes) < 2) or \
                time.monotonic() - start + statistics.median(lengths) / 2 \
                < seconds:
            traced = trace and len(passes) % 2 == 1
            began = time.monotonic()
            res = run_pass(workload, seed, scale, traced,
                           os.path.join(work, f"pass{len(passes)}"), corrupt)
            lengths.append(time.monotonic() - began)
            res["traced"] = traced
            passes.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mark_failures(passes, load_reference(workload, seed, scale))
    return passes


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        corrupt: int = -1) -> dict:
    passes = collect(workload, seed, seconds, trace, scale, corrupt)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["error"])
    plain = [p for p in passes if not p["traced"]]
    report = {"workload": workload, "seed": seed, "passes": len(passes),
              "attempted": len(ops), "failed": failed,
              "errors": sorted({op["error"] for op in ops if op["error"]})}
    if not trace:
        times = [op["time_s"] for p in plain for op in p["ops"]]
        tail_s, tail_note = tail(times)
        report["metrics"] = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024
                                             for p in plain),
        }
        report["notes"] = {
            "setup_s": f"median of {len(plain)} interpreter start-ups",
            "wall_s": f"median of {len(plain)} passes",
            "op_p50_s": f"median of {len(times)} ops",
            "op_tail_s": tail_note,
            "peak_rss_mb": f"median of {len(plain)} child processes",
        }
        report["units"] = END_TO_END
        return report

    traced = [p["trace"] for p in passes if p["traced"]]
    for name in EXACT_COUNTS:
        if len({t[name] for t in traced}) > 1:
            report["errors"].append(f"{name} differs between traced passes")
    # Times take the median over traced passes; counts are one pass's.
    metrics = {name: (statistics.median if LAYER_METRICS[name] == "s"
                      else statistics.median_low)(t[name] for t in traced)
               for name in traced[0]}
    metrics["trace.wall_s"] = statistics.median(
        p["wall_s"] for p in passes if p["traced"])
    metrics["trace.untraced_wall_s"] = statistics.median(
        p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = \
        metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    report["metrics"] = {name: metrics[name] for name in LAYER_METRICS}
    report["notes"] = {
        "inclusion.evals_useful_ratio":
            f"{metrics['inclusion.evals_distinct']:,} distinct / "
            f"{metrics['inclusion.evals']:,} evaluations",
        "parthood.pair_density": "pairs held / 4^n pairs tested",
        "trace.overhead_s": f"median of {len(traced)} traced passes minus "
                            f"median of {len(plain)} untraced passes",
    }
    report["units"] = LAYER_METRICS
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']}")
    for name, value in report["metrics"].items():
        note = report["notes"].get(name, "")
        unit = report["units"][name]
        text = f"{value:14,}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:32s} {text} {unit:6s} {note}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} failed / {attempted} ops")
    for error in report["errors"]:
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'tiny' shrinks every workload (self-test)")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="op index whose output is flipped before its "
                             "check (self-test)")
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale, args.corrupt)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": report["units"][name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
