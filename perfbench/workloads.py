"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload builds one *pass*: a fixed list of operations generated from
the seed. ``run.py`` runs each pass in a fresh interpreter (``child.py``),
so process-global caches start cold every time, as they do for a user who
runs the command line once.

Every operation has a ``run`` callable, which is timed, and a ``check``
callable, which is not. ``check`` raises :class:`CheckFailed` when the
output is wrong and otherwise returns a digest of the output. Digests are
compared against ``reference.json`` for the seeds recorded there and,
for every seed, between the passes of one run.

The checks re-derive what they can without the engine: the verdicts of
``verify`` against the expected-outcomes manifest file, the pair counts of
the ``s3``/``s6`` relations against their closed form, the classical
lower and upper approximations from the spec's relation, and the
implications that tie axiom verdicts to class tags.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from array import array
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("verify-battery", "parthood-scale", "cli-session")
SCALES = ("full", "tiny")

KST = "Kst(1/5,4/5)"
PROPERTY_COUNT = 10


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    out_path: str = ""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _names(n: int) -> list[str]:
    return [f"e{i + 1}" for i in range(n)]


def closed_form_pairs(n: int, k: int) -> int:
    """Pairs (a, b) with a inside b and |a| > k, over the powerset of n."""
    return sum(math.comb(n, j) * 2 ** (n - j) for j in range(k + 1, n + 1))


# --- seeded inputs ---------------------------------------------------------

def random_granules(n: int, rng: random.Random) -> list[int]:
    """n - 1 distinct random granules of n // 3 + 1 elements (as masks),
    plus one granule of whatever they leave uncovered."""
    full = (1 << n) - 1
    masks: list[int] = []
    while len(masks) < n - 1:
        m = sum(1 << i for i in rng.sample(range(n), n // 3 + 1))
        if m not in masks:
            masks.append(m)
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        masks.append(full & ~covered)
    return masks


def random_relation(n: int, closure: str, rng: random.Random) -> dict:
    """n random pairs under a reflexive closure, so granules cover."""
    names = _names(n)
    pairs = rng.sample([[a, b] for a in names for b in names if a != b], n)
    return {"pairs": pairs, "closure": closure,
            "mode": rng.choice(("predecessor", "successor"))}


def neighbourhood_granules(n: int, relation: dict) -> list[int]:
    """The granules the spec's relation induces, derived independently."""
    idx = {name: i for i, name in enumerate(_names(n))}
    rel = {(idx[a], idx[b]) for a, b in relation["pairs"]}
    rel |= {(i, i) for i in range(n)}
    if relation["closure"] in ("tolerance", "equivalence"):
        rel |= {(j, i) for i, j in rel}
    if relation["closure"] == "equivalence":
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    if (i, m) in rel and (m, j) in rel:
                        rel.add((i, j))
    out = []
    for x in range(n):
        if relation["mode"] == "predecessor":
            g = sum(1 << i for i, j in rel if j == x)
        else:
            g = sum(1 << j for i, j in rel if i == x)
        if g not in out:
            out.append(g)
    return out


def label(mask: int, n: int) -> str:
    return "{" + ",".join(name for i, name in enumerate(_names(n))
                          if mask >> i & 1) + "}"


# --- verify-battery --------------------------------------------------------

def load_manifest(root: str) -> dict[str, str]:
    path = os.path.join(root, "src", "roughpart", "data",
                        "expected_outcomes.json")
    with open(path, encoding="utf-8") as fh:
        return dict(json.load(fh)["clauses"])


def verify_ops(mods, root: str, seed: int, scale: str, work: str) -> list[Op]:
    manifest = load_manifest(root)
    out = os.path.join(work, "verify.json")
    suite = "all" if scale == "full" else "correspond"
    argv = ["verify", "--suite", suite, "--seed", str(seed),
            "--format", "json", "--out", out]
    if scale == "tiny":
        argv += ["--random-count", "21"]

    def check(rc: object) -> str:
        _require(rc == 0, f"verify exited with {rc}")
        with open(out, "rb") as fh:
            data = fh.read()
        payload = json.loads(data)
        _require(payload["mismatches"] == [],
                 f"manifest mismatches: {payload['mismatches'][:3]}")
        got = {}
        for o in payload["result"]["outcomes"]:
            key = o["clause"] if ":" in o["clause"] \
                else f"{suite}:{o['clause']}"
            got[key] = "holds" if o["holds"] else "refuted"
        want = {k: v for k, v in manifest.items()
                if suite == "all" or k.startswith(suite + ":")}
        _require(got == want, "verdicts differ from the manifest file")
        return sha(data)

    return [Op(f"verify-{suite}", lambda: mods.cli.main(argv), check, out)]


# --- parthood-scale --------------------------------------------------------

# Groups of (n, tags), each on its own random granulation, so that one
# unusual granulation moves few operations. Grade tags carry k, precision
# tags a measure; s5 and s7 share a granulation because they must agree.
# At n = 9 the relations are only built, never analysed.
_PARTHOOD_PLAN = {
    "full": (
        (7, (("s3", 1),)), (7, (("s*", 1),)), (7, (("s5", "K0"),)),
        (7, (("s0u", "K0"),)), (7, (("pu", "K0"),)), (7, (("s0u", KST),)),
        (8, (("s3", 2),)), (8, (("s6", 3),)),
        (9, (("s3", 1),)), (9, (("s6", 2),)),
        (9, (("s5", "K0"), ("s7", "K0"))), (9, (("s9", "K0"),)),
        (9, (("pu", "K0"),)), (9, (("s0u", KST),)),
    ),
    "tiny": (
        (4, (("s3", 1), ("s6", 1))), (4, (("s5", "K0"), ("s7", "K0"))),
        (5, (("s3", 2), ("pu", "K0"), ("s0u", KST))),
    ),
}
PARTHOOD_ALPHA = "1/5"
ANALYSE_MAX_N = 8


def pairs_digest(relation, n: int) -> str:
    codes = array("Q", sorted((a << n) | b for a, b in relation.pairs))
    return sha(codes.tobytes())


def parthood_ops(mods, seed: int, scale: str) -> list[Op]:
    rng = random.Random(seed)
    kappas = {"K0": mods.inclusion.kappa_k0(),
              KST: mods.inclusion.kappa_st("1/5", "4/5")}
    ops: list[Op] = []
    same_pairs: dict[tuple, str] = {}
    for n, tags in _PARTHOOD_PLAN[scale]:
        universe = mods.core.Universe(tuple(_names(n)))
        granules = random_granules(n, rng)
        granulation = mods.core.Granulation(
            universe, tuple(mods.core.ESet(universe, m) for m in granules))
        analyse = n <= ANALYSE_MAX_N
        for tag, param in tags:
            if isinstance(param, int):
                kw = {"k": param}
            else:
                kw = {"kappa": kappas[param], "alpha": PARTHOOD_ALPHA}

            def run(tag=tag, kw=kw, universe=universe,
                    granulation=granulation, analyse=analyse):
                rel = mods.parthood.build_parthood(tag, universe, granulation,
                                                   **kw)
                profile = mods.parthood.analyze_properties(rel) \
                    if analyse else None
                return rel, profile

            def check(result, tag=tag, param=param, n=n, analyse=analyse,
                      key=(n, tuple(granules), param)):
                rel, profile = result
                _require(rel.size <= 4 ** n, "more pairs than 4^n")
                if tag in ("s3", "s6"):
                    want = closed_form_pairs(n, param)
                    _require(rel.size == want,
                             f"{tag} has {rel.size} pairs, closed form {want}")
                digest = pairs_digest(rel, n)
                if tag in ("s5", "s7"):
                    # s5 and s7 are two routes to one relation.
                    other = same_pairs.setdefault(key, digest)
                    _require(other == digest, "s5 and s7 pair sets differ")
                statuses = ()
                if analyse:
                    statuses = tuple(
                        (s.name, s.status, s.condition or "",
                         repr(s.witness)) for s in profile.statuses)
                    _require(len(statuses) == PROPERTY_COUNT,
                             "property profile is incomplete")
                    if tag in ("s3", "s6"):
                        got = dict((s[0], s[1]) for s in statuses)
                        _require(got["part-compatible"] == "holds"
                                 and got["antisymmetric"] == "holds",
                                 f"{tag} is not inside inclusion")
                text = repr((tag, n, str(param), rel.size, digest, statuses))
                return sha(text.encode())

            ops.append(Op(f"n{n}-{tag}-{param}", run, check))
    return ops


# --- cli-session -----------------------------------------------------------

# One pass: (command, n, measure, alpha, k, parthood tags), issued in this
# order with formats alternating json/md. Only the relations come from the
# seed, so every seed asks for about the same work of each kind. Both
# plans have an odd number of operations, well apart in cost at the ranks
# the median and the p90/p75 tail pick, so those fall within the repeats
# of one operation rather than on the edge between two.
_SESSION_PLAN = {
    "full": (
        ("approx", 5, "K0", "1/5", 1, ()),
        ("correspond", 6, "", "3/10", 1, ()),
        ("approx", 7, KST, "1/10", 0, ()),
        ("correspond", 8, "", "1/5", 2, ()),
        ("axioms", 4, "K0", "", 0, ()),
        ("approx", 8, "K0", "2/5", 2, ()),
        ("correspond", 5, "", "2/5", 0, ()),
        ("parthood", 6, "K0", "1/5", 1, ("s3", "s5", "s9")),
        ("approx", 6, KST, "3/10", 1, ()),
        ("rational-substantial", 6, KST, "1/5", 0, ()),
        ("correspond", 7, "", "1/10", 1, ()),
        ("axioms", 5, KST, "", 0, ()),
        ("approx", 8, KST, "1/5", 0, ()),
        ("rational-exhaustive", 7, "K0", "3/10", 0, ()),
        ("correspond", 8, "", "3/10", 2, ()),
        ("parthood", 7, KST, "1/5", 2, ("s3", "s6")),
        ("approx", 7, "K0", "3/10", 1, ()),
        ("rational-substantial", 8, "K0", "1/5", 1, ()),
        ("correspond", 6, "", "2/5", 1, ()),
        ("axioms", 6, "K0", "", 0, ()),
        ("parthood", 6, KST, "3/10", 2, ("s*", "s3", "s6")),
        ("rational-substantial", 6, "K0", "1/10", 1, ()),
        ("axioms", 5, "K0", "", 0, ()),
        ("parthood", 5, "K0", "2/5", 0, ("pu", "s0u", "s5", "s9")),
        ("rational-exhaustive", 6, KST, "2/5", 0, ()),
    ),
    "tiny": (
        ("approx", 4, "K0", "1/5", 1, ()),
        ("correspond", 4, "", "1/5", 1, ()),
        ("axioms", 3, KST, "", 0, ()),
        ("parthood", 4, "K0", "1/5", 1, ("s3", "s5", "s6")),
        ("rational-substantial", 4, KST, "3/10", 0, ()),
        ("rational-exhaustive", 4, "K0", "1/5", 1, ()),
    ),
}
CLOSURES = ("reflexive", "tolerance", "equivalence")


def _md_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines()
             if ln.startswith("| ") and not ln.startswith("| --- |")]
    cells = [ln[2:-2].split(" | ") for ln in lines]
    return cells[0], cells[1:]


def _rows(fmt: str, text: str, json_rows) -> list[list[str]]:
    """Rows of a table output as lists of cells, from either format."""
    if fmt == "md":
        return _md_rows(text)[1]
    return json_rows(json.loads(text))


def _spec(command: str, n: int, kappa: str, alpha: str, k: int,
          tags: tuple[str, ...], rng: random.Random) -> dict:
    spec: dict = {"universe": _names(n)}
    if kappa:
        spec["kappa"] = kappa
    if command == "axioms":
        return spec
    spec["relation"] = random_relation(n, CLOSURES[n % 3], rng)
    spec["alpha"] = alpha
    if command.startswith("rational"):
        spec["mode"] = command.split("-")[1]
        spec["substantial"] = {"tag": "s3", "k": k}
    else:
        spec["k"] = k
    if command == "parthood":
        spec["tags"] = list(tags)
        spec["properties"] = True
    return spec


def _check_approx(spec, fmt, text) -> None:
    n = len(spec["universe"])
    if fmt == "md":
        headers, rows = _md_rows(text)
    else:
        payload = json.loads(text)
        headers = ["set"] + payload["columns"]
        rows = [[r[c] for c in headers] for r in payload["rows"]]
    _require(len(rows) == 2 ** n, "approx must list every subset")
    granules = neighbourhood_granules(n, spec["relation"])
    li, ui = headers.index("l"), headers.index("u")
    for x, row in enumerate(rows):
        lo = up = 0
        for g in granules:
            if g & ~x == 0:
                lo |= g
            if g & x:
                up |= g
        _require(row[0] == label(x, n), "approx rows out of order")
        _require(row[li] == label(lo, n) and row[ui] == label(up, n),
                 f"classical approximations of {row[0]} are wrong")


def _check_correspond(spec, fmt, text) -> None:
    n = len(spec["universe"])
    rows = _rows(fmt, text, lambda p: [
        [b["side"], str(b["threshold"]), str(b["grade"]),
         ",".join(b["members"]), "yes" if b["verified"] else "no"]
        for b in p["blocks"]])
    _require(rows and all(r[4] == "yes" for r in rows),
             "a correspondence block failed its two-route check")
    for side in ("upper", "lower"):
        count = sum(r[3].count("{") for r in rows if r[0] == side)
        _require(count == 2 ** n,
                 f"{side} blocks do not partition the subsets")


def _check_axioms(spec, fmt, text) -> None:
    if fmt == "md":
        _, rows = _md_rows(text)
        line = [ln for ln in text.splitlines() if ln.startswith("classes: ")]
        classes = line[0][len("classes: "):].split(", ")
        classes = [] if classes == ["none"] else classes
    else:
        payload = json.loads(text)
        rows = [[a["axiom"], "holds" if a["holds"] else "fails"]
                for a in payload["axioms"]]
        classes = payload["classes"]
    v = {r[0]: r[1] == "holds" for r in rows}
    _require(len(v) == 14, "axioms must report all fourteen axioms")
    want = [tag for tag, cond in (
        ("gRIF", v["R0"] and v["IR0"] and v["R2"]),
        ("pRIF", v["R0"] and v["RV"]),
        ("qRIF", v["R0"] and v["R2"]),
        ("wqRIF", v["R0"] and v["R3"])) if cond]
    _require(classes == want, f"classes {classes} contradict verdicts")
    _require(v["R1"] == (v["R0"] and v["IR0"]), "R1 is not R0 and IR0")
    _require(not v["R0"] or v["U1"], "R0 holds but U1 fails")


def _check_parthood(spec, fmt, text) -> None:
    n = len(spec["universe"])
    rows = _rows(fmt, text, lambda p: [
        [r["tag"], str(r["pairs"]), s["name"], s["status"]]
        for r in p["relations"] for s in r["properties"]])
    _require(len(rows) == PROPERTY_COUNT * len(spec["tags"]),
             "parthood must report every property of every tag")
    for row in rows:
        if row[0] in ("s3", "s6"):
            _require(int(row[1]) == closed_form_pairs(n, spec["k"]),
                     f"{row[0]} pair count differs from its closed form")


def _check_rational(spec, fmt, text) -> None:
    n = len(spec["universe"])
    rows = _rows(fmt, text, lambda p: [
        [q["set"], q["kind"], "yes" if q["defined"] else "no"]
        for q in p["points"]])
    _require(len(rows) == 2 ** (n + 1), "rational must list every subset")
    _require(all(r[2] == "yes" for r in rows if r[1] == "lower"),
             "a rational lower approximation is undefined")


_CHECKS = {"approx": _check_approx, "correspond": _check_correspond,
           "axioms": _check_axioms, "parthood": _check_parthood,
           "rational-substantial": _check_rational,
           "rational-exhaustive": _check_rational}


def session_ops(mods, seed: int, scale: str, work: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i, (command, n, *params) in enumerate(_SESSION_PLAN[scale]):
        spec = _spec(command, n, *params, rng)
        fmt = ("json", "md")[i % 2]
        spec_path = os.path.join(work, f"spec{i:02d}.json")
        out = os.path.join(work, f"out{i:02d}.{fmt}")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv = [command.split("-")[0], "--spec", spec_path, "--format", fmt,
                "--out", out]

        def check(rc, command=command, spec=spec, fmt=fmt, out=out) -> str:
            _require(rc == 0, f"{command} exited with {rc}")
            with open(out, "rb") as fh:
                data = fh.read()
            _CHECKS[command](spec, fmt, data.decode("utf-8"))
            return sha(data)

        ops.append(Op(f"{i:02d}-{command}-n{n}-{fmt}",
                      lambda argv=argv: mods.cli.main(argv), check, out))
    return ops


def build_ops(workload: str, mods, root: str, seed: int, scale: str,
              work: str) -> list[Op]:
    if workload == "verify-battery":
        return verify_ops(mods, root, seed, scale, work)
    if workload == "parthood-scale":
        return parthood_ops(mods, seed, scale)
    return session_ops(mods, seed, scale, work)
