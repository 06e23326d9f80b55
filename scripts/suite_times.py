"""Seconds per suite of ``roughpart verify --suite all``.

    python3 scripts/suite_times.py [--runs N] [--seed S]
        [--random-count C] [--src DIR ...]

Each run is one fresh Python process that imports the package from a
source directory and calls ``roughpart verify --suite all --seed S
--random-count C`` through ``cli.main``, with the report written to
``os.devnull``. ``all`` merges one suite after another, so the seconds
of each ``verify._merge`` call are the seconds of one suite; ``total``
is the whole ``main`` call, report writing included, and ``import`` the
import of ``roughpart.cli``. One Markdown row per suite gives the
minimum and the median over the runs.

``--src`` (default: this checkout's ``src``) may be given more than
once, for example a parent commit's ``src`` extracted with ``git
archive``; the runs then alternate between the directories, and each
gets its own two columns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One run: time the import, every suite and the whole call; print one
# JSON line of seconds.
_RUN = """
import json, os, sys, time
start = time.perf_counter()
from roughpart import cli, verify
imported = time.perf_counter()
merge, seconds = verify._merge, []

def timed(evals):
    begin = time.perf_counter()
    out = merge(evals)
    seconds.append(time.perf_counter() - begin)
    return out

verify._merge = timed
begin = time.perf_counter()
code = cli.main(["verify", "--suite", "all", "--seed", sys.argv[1],
                 "--random-count", sys.argv[2], "--out", os.devnull])
total = time.perf_counter() - begin
times = dict(zip(verify.SUITE_IDS[:-1], seconds, strict=True))
print(json.dumps({"import": imported - start, **times, "total": total,
                  "exit": code}))
"""


def run(src: str, seed: int, count: int) -> dict:
    """The seconds of one fresh process on the sources in ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.abspath(src), env.get("PYTHONPATH"))))
    proc = subprocess.run((sys.executable, "-c", _RUN, str(seed), str(count)),
                          env=env, check=True, text=True,
                          stdout=subprocess.PIPE)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    if got.pop("exit") not in (0, 1):
        raise RuntimeError(f"verify failed in {src}")
    return got


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--random-count", type=int, default=50)
    parser.add_argument("--src", action="append")
    args = parser.parse_args()
    srcs = args.src or [os.path.join(ROOT, "src")]
    runs: dict[str, list[dict]] = {src: [] for src in srcs}
    for _ in range(args.runs):
        for src in srcs:
            runs[src].append(run(src, args.seed, args.random_count))
    print("| suite | " + " | ".join(f"min s ({src}) | median s ({src})"
                                    for src in srcs) + " |")
    print("|---|" + "---|---|" * len(srcs))
    for key in runs[srcs[0]][0]:
        cells = []
        for src in srcs:
            values = [got[key] for got in runs[src]]
            cells += (f"{min(values):.4f}", f"{statistics.median(values):.4f}")
        print(f"| {key} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
