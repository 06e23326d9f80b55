"""Command-line interface.

Problem instances come from a JSON spec file; results go to stdout or
``--out`` as a markdown table, CSV, or JSON. Spec validation is strict:
unknown fields are rejected and every error names the offending location
as a JSON pointer. Exit codes: 0 success, 1 verification found verdicts
disagreeing with the expected-outcomes manifest, 2 bad usage or a bad
spec. Output is byte-deterministic for a given spec and arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

from .approx import (
    OPERATOR_IDS,
    ApproxSpec,
    require_alpha,
    require_grade,
    vprs_tables,
)
from .core import (
    CLOSURES,
    CapExceeded,
    ESet,
    Granulation,
    NEIGHBORHOOD_MODES,
    RelationSpec,
    Universe,
    _exact,
    build_neighborhood_granulation,
    neighborhood_map,
)
from .correspond import (
    build_lower_correspondence,
    build_upper_correspondence,
    check_nonrepresentability,
)
from .inclusion import (SWEPT_AXIOMS, VALID_AXIOMS, _axiom_holds,
                        _rif_classes, check_axiom)
from .parthood import PARTHOOD_TAGS, analyze_properties, build_parthood
from .rational import _Search
from .verify import (
    SUITE_IDS,
    _kappa_from_tag,
    compare_with_expected,
    run_theorem_suite,
    suite_result_to_json,
)

_FORMATS = ("md", "csv", "json")

_POINTWISE_OPS = ("l_alpha_pt", "u_alpha_pt")


class SpecError(Exception):
    """A spec problem, carrying the JSON pointer of the offending field."""

    def __init__(self, message: str, pointer: str) -> None:
        super().__init__(message)
        self.message = message
        self.pointer = pointer


def _fail(message: str, pointer: str) -> None:
    raise SpecError(message, pointer)


def _reject_unknown(obj: dict, allowed: Sequence[str], base: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"unknown field {key!r}", f"{base}/{key}")


def _load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc.strerror}", "") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc.msg} (line {exc.lineno})",
                        "") from exc
    if not isinstance(data, dict):
        _fail("spec must be a JSON object", "")
    return data


def _str_list(value: object, pointer: str) -> list[str]:
    if not isinstance(value, list):
        _fail("expected a list of strings", pointer)
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, str) or not item:
            _fail("expected a nonempty string", f"{pointer}/{i}")
        out.append(item)
    return out


def _get_universe(spec: dict) -> Universe:
    if "universe" not in spec:
        _fail("field is required", "/universe")
    names = _str_list(spec["universe"], "/universe")
    if len(set(names)) != len(names):
        _fail("element names must be distinct", "/universe")
    return Universe(tuple(names))


def _member_set(universe: Universe, value: object, pointer: str) -> ESet:
    names = _str_list(value, pointer)
    for i, name in enumerate(names):
        if name not in universe.elements:
            _fail(f"{name!r} is not a universe element", f"{pointer}/{i}")
    return universe.subset(names)


def _get_relation(spec: dict) -> RelationSpec:
    rel = spec["relation"]
    if not isinstance(rel, dict):
        _fail("expected an object", "/relation")
    _reject_unknown(rel, ("pairs", "closure", "mode"), "/relation")
    if "pairs" not in rel:
        _fail("field is required", "/relation/pairs")
    if not isinstance(rel["pairs"], list):
        _fail("expected a list of pairs", "/relation/pairs")
    pairs = []
    for i, pair in enumerate(rel["pairs"]):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            _fail("expected a pair of element names", f"/relation/pairs/{i}")
        pairs.append((pair[0], pair[1]))
    closure = rel.get("closure", "tolerance")
    if closure not in CLOSURES:
        _fail(f"closure must be one of {', '.join(CLOSURES)}",
              "/relation/closure")
    mode = rel.get("mode", "predecessor")
    if mode not in NEIGHBORHOOD_MODES:
        _fail(f"mode must be one of {', '.join(NEIGHBORHOOD_MODES)}",
              "/relation/mode")
    return RelationSpec(tuple(pairs), closure)


def _get_granulation(spec: dict, universe: Universe
                     ) -> tuple[Granulation, tuple[tuple[str, ESet], ...]]:
    """Granulation from explicit granules or from a relation; exactly one
    source must be present. The neighborhood map is only available on the
    relation route."""
    has_granules = "granules" in spec
    has_relation = "relation" in spec
    if has_granules == has_relation:
        _fail("exactly one of 'granules' and 'relation' is required",
              "/granules" if has_granules else "/relation")
    if has_granules:
        if not isinstance(spec["granules"], list):
            _fail("expected a list of member lists", "/granules")
        granules = []
        for i, g in enumerate(spec["granules"]):
            eset = _member_set(universe, g, f"/granules/{i}")
            if eset.is_empty:
                _fail("granules must be nonempty", f"/granules/{i}")
            granules.append(eset)
        try:
            return Granulation(universe, tuple(granules)), ()
        except ValueError as exc:
            raise SpecError(str(exc), "/granules") from exc
    relation = _get_relation(spec)
    mode = spec["relation"].get("mode", "predecessor")
    for a, b in relation.pairs:
        for name in (a, b):
            if name not in universe.elements:
                _fail(f"{name!r} is not a universe element",
                      "/relation/pairs")
    granulation = build_neighborhood_granulation(universe, relation, mode)
    return granulation, neighborhood_map(universe, relation, mode)


def _get_tset(source: dict, universe: Universe, granulation: Granulation,
              pointer: str) -> tuple[ESet, ...] | None:
    """The designated granules under ``tset``, or None when it is absent."""
    if "tset" not in source:
        return None
    if not isinstance(source["tset"], list):
        _fail("expected a list of member lists", pointer)
    out = []
    for i, value in enumerate(source["tset"]):
        h = _member_set(universe, value, f"{pointer}/{i}")
        if h not in granulation:
            _fail(f"designated granule {h.label()} is not in the "
                  "granulation", f"{pointer}/{i}")
        out.append(h)
    return tuple(out)


def _get_kappa(spec: dict):
    tag = spec.get("kappa", "K0")
    if not isinstance(tag, str):
        _fail("expected a measure tag string", "/kappa")
    try:
        return _kappa_from_tag(tag)
    except ValueError as exc:
        raise SpecError(str(exc), "/kappa") from exc


def _fraction(value: object, pointer: str) -> Fraction:
    try:
        return _exact(value)
    except ValueError as exc:
        raise SpecError(str(exc), pointer) from exc


def _get_alpha(spec: dict) -> Fraction:
    try:
        return require_alpha(spec.get("alpha", "0"))
    except ValueError as exc:
        raise SpecError(str(exc), "/alpha") from exc


def _get_grade(source: dict, base: str = "") -> int:
    raw = source.get("k", 0)
    try:
        return require_grade(raw)
    except (ValueError, TypeError) as exc:
        raise SpecError(str(exc), f"{base}/k") from exc


def _get_sets(spec: dict, universe: Universe) -> list[ESet]:
    if "sets" in spec:
        if not isinstance(spec["sets"], list):
            _fail("expected a list of member lists", "/sets")
        return [_member_set(universe, s, f"/sets/{i}")
                for i, s in enumerate(spec["sets"])]
    try:
        return list(universe.subsets())
    except CapExceeded as exc:
        raise SpecError(
            f"{exc}; list the sets of interest explicitly", "/universe"
        ) from exc


def _emit(args: argparse.Namespace, headers: Sequence[str],
          rows: Sequence[Sequence[str]], payload: dict,
          footers: Sequence[str] = ()) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join(" --- " for _ in headers) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        for footer in footers:
            lines.append("")
            lines.append(footer)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_text(witness) -> str:
    return "; ".join(f"{name}={{{','.join(values)}}}"
                     for name, values in witness)


def cmd_approx(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _reject_unknown(spec, ("universe", "granules", "relation", "kappa",
                           "alpha", "k", "sets", "operators"), "")
    universe = _get_universe(spec)
    kappa = _get_kappa(spec)
    alpha = _get_alpha(spec)
    k = _get_grade(spec)
    if "operators" in spec:
        operators = _str_list(spec["operators"], "/operators")
        for i, op in enumerate(operators):
            if op not in OPERATOR_IDS:
                _fail(f"unknown operator {op!r}; valid identifiers: "
                      f"{', '.join(OPERATOR_IDS)}", f"/operators/{i}")
    sets = _get_sets(spec, universe)
    if "operators" not in spec:
        operators = [op for op in OPERATOR_IDS
                     if "relation" in spec or op not in _POINTWISE_OPS]
    if "relation" not in spec:
        for i, op in enumerate(operators):
            if op in _POINTWISE_OPS:
                _fail(f"operator {op!r} needs a relation, not explicit "
                      "granules", f"/operators/{i}")
    headers = ["set"] + list(operators)
    if universe.size == 0:
        _emit(args, headers, (), {"columns": list(operators), "rows": []})
        return 0
    granulation, neighborhoods = _get_granulation(spec, universe)
    approx = ApproxSpec(granulation, kappa, alpha, k,
                        neighborhoods or None)
    fns = [approx.operator(op) for op in operators]
    rows = []
    for x in sets:
        rows.append([x.label()] + [fn(x).label() for fn in fns])
    payload = {
        "columns": list(operators),
        "rows": [{"set": row[0],
                  **{op: row[j + 1] for j, op in enumerate(operators)}}
                 for row in rows],
    }
    _emit(args, headers, rows, payload)
    return 0


def cmd_axioms(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _reject_unknown(spec, ("universe", "kappa", "axioms", "delta"), "")
    universe = _get_universe(spec)
    kappa = _get_kappa(spec)
    if "axioms" in spec:
        axioms = _str_list(spec["axioms"], "/axioms")
        for i, axiom in enumerate(axioms):
            if axiom not in VALID_AXIOMS:
                _fail(f"unknown axiom {axiom!r}; valid identifiers: "
                      f"{', '.join(VALID_AXIOMS)}", f"/axioms/{i}")
    else:
        axioms = list(VALID_AXIOMS)
    delta = None
    if "delta" in spec:
        delta = _fraction(spec["delta"], "/delta")
        if not 0 <= delta <= 1:
            _fail("threshold must lie in [0, 1]", "/delta")
    headers = ("axiom", "holds", "witness", "note")
    if universe.size == 0:
        _emit(args, headers, (), {"classes": [], "axioms": []})
        return 0
    reports = [check_axiom(kappa, axiom, universe,
                           delta=delta if axiom in SWEPT_AXIOMS else None)
               for axiom in axioms]
    table_rows = []
    json_axioms = []
    for report in reports:
        witness = ""
        if report.witnesses:
            witness = _witness_text(report.witnesses[0])
        note = "; ".join(f"{k}={v}" for k, v in report.parameters)
        table_rows.append([report.name,
                           "holds" if report.holds else "fails",
                           witness, note])
        json_axioms.append({
            "axiom": report.name,
            "holds": report.holds,
            "witness": witness,
            "note": note,
        })
    # The class tags read RV over every threshold, not at a pinned delta.
    verdicts = {r.name: r.holds for r in reports
                if r.name != "RV" or delta is None}

    def holds(axiom: str) -> bool:
        if axiom not in verdicts:
            verdicts[axiom] = _axiom_holds(kappa, axiom, universe)
        return verdicts[axiom]

    classes = list(_rif_classes(holds))
    payload = {"classes": classes, "axioms": json_axioms}
    footer = "classes: " + (", ".join(classes) if classes else "none")
    _emit(args, headers, table_rows, payload, (footer,))
    return 0


def cmd_parthood(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _reject_unknown(spec, ("universe", "granules", "relation", "kappa",
                           "alpha", "k", "tags", "tset", "properties"), "")
    universe = _get_universe(spec)
    kappa = _get_kappa(spec)
    alpha = _get_alpha(spec)
    k = _get_grade(spec)
    if "tags" in spec:
        tags = _str_list(spec["tags"], "/tags")
        for i, tag in enumerate(tags):
            if tag not in PARTHOOD_TAGS:
                _fail(f"unknown parthood tag {tag!r}; valid identifiers: "
                      f"{', '.join(PARTHOOD_TAGS)}", f"/tags/{i}")
    else:
        tags = [t for t in PARTHOOD_TAGS if t != "st" or "tset" in spec]
    if "st" in tags and "tset" not in spec:
        _fail("field is required when tags include 'st'", "/tset")
    want_properties = spec.get("properties", False)
    if not isinstance(want_properties, bool):
        _fail("expected true or false", "/properties")
    headers = ("tag", "pairs", "property", "status", "detail") \
        if want_properties else ("tag", "pairs")
    if universe.size == 0:
        _emit(args, headers, (), {"relations": []})
        return 0
    granulation, _ = _get_granulation(spec, universe)
    tset = _get_tset(spec, universe, granulation, "/tset")
    table_rows = []
    json_relations = []
    for tag in tags:
        relation = build_parthood(tag, universe, granulation, kappa=kappa,
                                  alpha=alpha, k=k, tset=tset)
        entry: dict = {"tag": tag, "pairs": relation.size}
        if want_properties:
            profile = analyze_properties(relation)
            entry["properties"] = []
            for status in profile.statuses:
                detail = status.condition or ""
                if status.witness is not None:
                    detail = _witness_text(status.witness)
                table_rows.append([tag, str(relation.size), status.name,
                                   status.status, detail])
                entry["properties"].append({
                    "name": status.name,
                    "status": status.status,
                    "detail": detail,
                })
        else:
            table_rows.append([tag, str(relation.size)])
        json_relations.append(entry)
    _emit(args, headers, table_rows, {"relations": json_relations})
    return 0


def cmd_rational(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _reject_unknown(spec, ("universe", "granules", "relation", "kappa",
                           "alpha", "mode", "substantial", "sets"), "")
    universe = _get_universe(spec)
    kappa = _get_kappa(spec)
    alpha = _get_alpha(spec)
    mode = spec.get("mode", "substantial")
    if mode not in ("substantial", "exhaustive"):
        _fail("mode must be 'substantial' or 'exhaustive'", "/mode")
    if "substantial" not in spec:
        _fail("field is required", "/substantial")
    sub = spec["substantial"]
    if not isinstance(sub, dict):
        _fail("expected an object", "/substantial")
    _reject_unknown(sub, ("tag", "k", "tset"), "/substantial")
    tag = sub.get("tag")
    if tag not in PARTHOOD_TAGS:
        _fail(f"tag must be one of {', '.join(PARTHOOD_TAGS)}",
              "/substantial/tag")
    sub_k = _get_grade(sub, "/substantial")
    if tag == "st" and "tset" not in sub:
        _fail("field is required when the tag is 'st'", "/substantial/tset")
    sets = _get_sets(spec, universe)
    headers = ("set", "kind", "defined", "trivial", "value", "witnesses",
               "note")
    if universe.size == 0:
        _emit(args, headers, (), {"points": []})
        return 0
    granulation, _ = _get_granulation(spec, universe)
    sub_tset = _get_tset(sub, universe, granulation, "/substantial/tset")
    substantial = build_parthood(tag, universe, granulation, kappa=kappa,
                                 alpha=alpha, k=sub_k, tset=sub_tset)
    tables = vprs_tables(granulation, kappa, alpha)
    search = _Search(substantial, tables.lower, tables.upper)
    table_rows = []
    json_points = []
    for x in sets:
        for kind, res in (("lower", search.lower(x.mask, mode)),
                          ("upper", search.upper(x.mask))):
            value = res.value.label() if res.value is not None else ""
            witnesses = "; ".join(f"{name}={e.label()}"
                                  for name, e in res.witnesses)
            note = "; ".join(res.notes)
            table_rows.append([x.label(), kind,
                               "yes" if res.defined else "no",
                               "yes" if res.trivial else "no",
                               value, witnesses, note])
            json_points.append({
                "set": x.label(),
                "kind": kind,
                "defined": res.defined,
                "trivial": res.trivial,
                "value": value,
                "witnesses": witnesses,
                "note": note,
            })
    _emit(args, headers, table_rows, {"points": json_points})
    return 0


def cmd_correspond(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _reject_unknown(spec, ("universe", "granules", "relation", "alpha",
                           "k"), "")
    universe = _get_universe(spec)
    alpha = _get_alpha(spec)
    k = _get_grade(spec)
    if universe.size == 0:
        _emit(args, ("side", "threshold", "grade", "members", "verified"),
              (), {"blocks": [], "nonrepresentability": None})
        return 0
    granulation, _ = _get_granulation(spec, universe)
    table_rows = []
    json_blocks = []
    for side, build in (("upper", build_upper_correspondence),
                        ("lower", build_lower_correspondence)):
        partition = build(universe, granulation, alpha)
        for block in partition.blocks:
            members = ",".join(m.label() for m in block.members)
            table_rows.append([side, str(block.threshold),
                               str(block.grade), members,
                               "yes" if block.verified else "no"])
            json_blocks.append({
                "side": side,
                "threshold": block.threshold,
                "grade": block.grade,
                "members": [m.label() for m in block.members],
                "verified": block.verified,
            })
    report = check_nonrepresentability(universe, k)
    sizes = dict(report.parameters).get("nonrepresentable-sizes", "")
    payload = {
        "blocks": json_blocks,
        "nonrepresentability": {
            "k": k,
            "representable-everywhere": report.holds,
            "nonrepresentable-sizes": sizes,
        },
    }
    footer = (f"grade {k}: every nonempty subset representable"
              if report.holds else
              f"grade {k}: nonrepresentable subset sizes: {sizes}")
    _emit(args, ("side", "threshold", "grade", "members", "verified"),
          table_rows, payload, (footer,))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    result = run_theorem_suite(args.suite, seed=args.seed,
                               random_count=args.random_count)
    mismatches = compare_with_expected([result])
    table_rows = []
    for outcome in result.outcomes:
        note = outcome.note
        if outcome.counterexamples:
            ce = outcome.counterexamples[0]
            where = ce.fixture
            if ce.alpha:
                where += f", alpha={ce.alpha}"
            head = f"{_witness_text(ce.bindings)} [{where}]"
            note = f"{note}; e.g. {head}" if note else f"e.g. {head}"
        table_rows.append([outcome.clause,
                           "holds" if outcome.holds else "refuted",
                           str(outcome.checked), note])
    payload = {
        "result": suite_result_to_json(result),
        "mismatches": list(mismatches),
    }
    footers = []
    if mismatches:
        footers.append(f"{len(mismatches)} verdict(s) disagree with the "
                       "expected-outcomes manifest:")
        footers.extend(f"  {m}" for m in mismatches)
    else:
        footers.append("all verdicts match the expected-outcomes manifest, "
                       "documented divergences included")
    _emit(args, ("clause", "verdict", "checked", "note"), table_rows,
          payload, footers)
    return 1 if mismatches else 0


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser, *, spec: bool) -> None:
    if spec:
        parser.add_argument("--spec", required=True,
                            help="path to the JSON problem spec")
    parser.add_argument("--out", help="write the result to this file "
                                      "instead of stdout")
    parser.add_argument("--format", choices=_FORMATS, default="md",
                        help="output format (default: md)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughpart",
        description="Granular rough-set engine: approximation operators, "
                    "inclusion-measure axioms, parthood predicates, "
                    "rational approximations, grade correspondences, and "
                    "the verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx",
                       help="tabulate approximation operators over sets")
    _add_common(p, spec=True)
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("axioms",
                       help="check inclusion-measure axioms and classify")
    _add_common(p, spec=True)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("parthood",
                       help="materialize parthood predicates and their "
                            "structural properties")
    _add_common(p, spec=True)
    p.set_defaults(fn=cmd_parthood)

    p = sub.add_parser("rational",
                       help="rational lower and upper approximations")
    _add_common(p, spec=True)
    p.set_defaults(fn=cmd_rational)

    p = sub.add_parser("correspond",
                       help="precision/grade correspondence partitions")
    _add_common(p, spec=True)
    p.set_defaults(fn=cmd_correspond)

    p = sub.add_parser("verify",
                       help="run verification suites and compare against "
                            "the expected-outcomes manifest")
    _add_common(p, spec=False)
    p.add_argument("--suite", choices=SUITE_IDS, default="all",
                   help="which suite to run (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random fixture battery (default: 0)")
    p.add_argument("--random-count", type=_count, default=50,
                   help="number of random fixtures (default: 50)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        pointer = exc.pointer or "/"
        print(f"error: {exc.message} at {pointer}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
