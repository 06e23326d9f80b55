"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. It imports
``roughpart`` from the checkout's ``src/``, builds the pass's inputs from
the seed, runs and times each operation, checks each output after its
timer stops, and writes one JSON result file. ``setup_s`` runs from the
moment the parent started this process (``--spawned``, a
``time.monotonic()`` reading) to the first timed call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import workloads
from tracing import Tracer


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import roughpart
    here = os.path.realpath(os.path.dirname(roughpart.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"roughpart was imported from {here}, "
                         f"not from {src}")
    for layer in ("cli", "verify", "inclusion", "approx", "parthood",
                  "rational", "correspond", "core"):
        importlib.import_module(f"roughpart.{layer}")
    return roughpart


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="flip one verdict in the output file of this "
                             "op before its check (self-test only)")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = _import_package(root)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package)
    os.makedirs(args.work, exist_ok=True)
    ops = workloads.build_ops(args.workload, package, root, args.seed,
                              args.scale, args.work)

    setup_s = time.monotonic() - args.spawned
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = index
        error = ""
        result = None
        start = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        digest = ""
        if not error:
            if index == args.corrupt:
                _corrupt(op.out_path)
            try:
                digest = op.check(result)
            except Exception as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if tracer is not None and op.out_path and \
                os.path.exists(op.out_path):
            tracer.out_bytes += os.path.getsize(op.out_path)
        records.append({"name": op.name, "time_s": elapsed, "digest": digest,
                        "error": error})

    out = {
        "setup_s": setup_s,
        "wall_s": sum(r["time_s"] for r in records),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": records,
        "trace": tracer.metrics() if tracer is not None else None,
    }
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _corrupt(path: str) -> None:
    """Turn the first verdict word of an output into its opposite."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("true", "false"), ("false", "true"), ("holds", "fails"),
                     ("yes", "no"), ("no", "yes")):
        if old in text:
            text = text.replace(old, new, 1)
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
