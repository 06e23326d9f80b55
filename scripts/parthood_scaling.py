"""Scaling curve of parthood build and property analysis.

    python3 scripts/parthood_scaling.py

For each tag in ``TAGS`` and each universe size in ``SIZES``, one fresh
Python process builds the relation with ``build_parthood`` and analyses
it with ``analyze_properties``, at α = 1/5 under K0 with grade k = 2, on
``random_granulation(u, Random(n))`` over the elements e0..e(n-1). The
runs go one after another, each stopped after ``TIMEOUT_S`` seconds. One
Markdown row per run gives the build and analysis seconds, the peak
resident memory of its process, and that peak's growth over the peak read
just before the build, or the timeout. The growth leaves out what the
interpreter, the imports and the granulation hold. Both memory columns
still move by a few MB with allocator layout, so neither shows a smaller
change in memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAGS = ("s0u", "pu", "s5", "s9", "s3", "s*", "s6")
SIZES = range(6, 13)
TIMEOUT_S = 60

# One run: build and analyse one tag at one size, print one JSON line.
_RUN = """
import json, random, resource, sys, time
from fractions import Fraction
from roughpart import Universe, analyze_properties, build_parthood, kappa_k0
from roughpart.verify import random_granulation

tag, n = sys.argv[1], int(sys.argv[2])
u = Universe(tuple(f"e{i}" for i in range(n)))
g = random_granulation(u, random.Random(n))
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
rel = build_parthood(tag, u, g, kappa=kappa_k0(), alpha=Fraction(1, 5), k=2)
built = time.perf_counter()
analyze_properties(rel)
done = time.perf_counter()
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"build_s": built - start, "analyse_s": done - built,
                  "peak_rss_mb": rss / 1024,
                  "rss_growth_mb": (rss - base) / 1024}))
"""


def run(tag: str, n: int) -> dict | None:
    """The measurements of one run, or None when it timed out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run((sys.executable, "-c", _RUN, tag, str(n)),
                              env=env, check=True, text=True,
                              stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    print("| tag | n | build s | analysis s | peak RSS MB | RSS growth MB |")
    print("|---|---|---|---|---|---|")
    for tag in TAGS:
        for n in SIZES:
            got = run(tag, n)
            if got is None:
                cells = f"timeout after {TIMEOUT_S} s | | | "
            else:
                cells = (f"{got['build_s']:.3f} | {got['analyse_s']:.3f} | "
                         f"{got['peak_rss_mb']:.1f} | "
                         f"{got['rss_growth_mb']:.1f}")
            print(f"| {tag} | {n} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
