"""Verification suites: reference tables, theorem sweeps, and randomized
batteries.

Everything here turns statements about the engine into clause verdicts. A
clause either holds everywhere it was checked or is refuted by concrete
counterexamples, each carrying the fixture, measure, precision, and the
variable bindings that falsify it. Verdicts are compared against a shipped
manifest of expected outcomes: some published statements are genuinely
refuted by the engine derivations, the manifest records exactly which, and
the verifier treats an unexpected pass as seriously as an unexpected
failure.

The standard battery is the four-element worked fixture plus seeded random
granulations of sizes three to six. All sweeps are exhaustive over their
battery, arithmetic is exact, and the output is byte-deterministic: checks
run sequentially in report order, which the expected-outcomes manifest and
the golden report file pin.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Binding,
    ESet,
    Granulation,
    RelationSpec,
    Universe,
    Witness,
    binding,
    build_neighborhood_granulation,
    check_admissibility,
    check_ggs_axioms,
    image_table,
    iter_bits,
    iter_submasks,
    neighborhood_map,
)
from .inclusion import (
    InclusionFn,
    _axiom_holds,
    check_axiom,
    check_prif_implications,
    classify_rif,
    eval_bgrif,
    evaluate_axiom_instance,
    kappa_k0,
    kappa_k1,
    kappa_k2,
    kappa_st,
)
from .approx import ApproxSpec, vprs_lower, vprs_tables
from .parthood import analyze_properties, build_parthood, build_pu
from .rational import check_rational_proposition, rational_lower, rational_upper
from .correspond import (
    build_lower_correspondence,
    build_upper_correspondence,
    check_nonrepresentability,
)

TABLE_IDS = ("bited-gvprs", "one-grade")

_TABLE_FILES = {
    "bited-gvprs": "table_bited_gvprs.json",
    "one-grade": "table_one_grade.json",
}

SUITE_IDS = ("table-diff", "vprs-alpha", "vprs-star", "ri-cap", "grif",
             "rif-axioms", "prif", "parthood", "rational", "correspond",
             "ggs", "all")

DEFAULT_ALPHAS = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                  Fraction(2, 5))
DEFAULT_KAPPA_TAGS = ("K0", "Kst(1/5,4/5)")

STANDARD_ALPHA = Fraction(3, 10)
STANDARD_GRADE = 1
STANDARD_RELATION = RelationSpec((("x1", "x2"), ("x2", "x3")), "tolerance")

CORRESPOND_ALPHAS = (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))


def _load_data(filename: str) -> dict:
    path = resources.files("roughpart").joinpath("data").joinpath(filename)
    return json.loads(path.read_text(encoding="utf-8"))


def load_reference_table(table_id: str) -> dict:
    if table_id not in _TABLE_FILES:
        raise ValueError(
            f"unknown table {table_id!r}; valid identifiers: "
            f"{', '.join(TABLE_IDS)}"
        )
    return _load_data(_TABLE_FILES[table_id])


def load_expected_outcomes() -> dict[str, str]:
    return dict(_load_data("expected_outcomes.json")["clauses"])


def load_parthood_claims() -> dict:
    return _load_data("parthood_claims.json")


@dataclass(frozen=True)
class Fixture:
    """A named universe with its granulation and neighborhood map."""

    name: str
    universe: Universe
    granulation: Granulation
    neighborhoods: tuple[tuple[str, ESet], ...] = ()


def standard_fixture() -> Fixture:
    universe = Universe(("x1", "x2", "x3", "x4"))
    granulation = build_neighborhood_granulation(universe, STANDARD_RELATION,
                                                 "predecessor")
    nbhd = neighborhood_map(universe, STANDARD_RELATION, "predecessor")
    return Fixture("standard", universe, granulation, nbhd)


def fixture_from_table(data: dict) -> Fixture:
    """Rebuild the fixture a reference table describes, from the table's
    own embedded universe and relation. This is deliberately a second
    route to the same fixture as :func:`standard_fixture`."""
    universe = Universe(tuple(data["universe"]))
    rel = data["relation"]
    relation = RelationSpec(tuple((a, b) for a, b in rel["pairs"]),
                            rel["closure"])
    mode = rel.get("mode", "predecessor")
    granulation = build_neighborhood_granulation(universe, relation, mode)
    nbhd = neighborhood_map(universe, relation, mode)
    return Fixture("standard", universe, granulation, nbhd)


def random_granulation(universe: Universe, rng: random.Random) -> Granulation:
    """A covering granulation of distinct nonempty random granules."""
    full = universe.full_mask
    count = rng.randint(2, max(2, universe.size))
    masks: list[int] = []
    for _ in range(count):
        m = rng.randint(1, full)
        if m not in masks:
            masks.append(m)
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        masks.append(full & ~covered)
    return Granulation(universe, tuple(ESet(universe, m) for m in masks))


def random_fixture(index: int, size: int, rng: random.Random) -> Fixture:
    universe = Universe(tuple(f"e{i + 1}" for i in range(size)))
    granulation = random_granulation(universe, rng)
    return Fixture(f"rnd-{index:03d}-n{size}", universe, granulation)


def battery(seed: int = 0, random_count: int = 50) -> tuple[Fixture, ...]:
    """The standard fixture followed by seeded random fixtures with
    universe sizes cycling through three to six."""
    rng = random.Random(seed)
    sizes = (3, 4, 5, 6)
    out = [standard_fixture()]
    for i in range(random_count):
        out.append(random_fixture(i, sizes[i % len(sizes)], rng))
    return tuple(out)


@dataclass(frozen=True)
class CellDiff:
    row: str
    engine: tuple[str, ...]
    reference: tuple[str, ...]


@dataclass(frozen=True)
class ColumnDiff:
    column: str
    matched: int
    total: int
    mismatches: tuple[CellDiff, ...]


@dataclass(frozen=True)
class TableDiff:
    table_id: str
    columns: tuple[ColumnDiff, ...]

    @property
    def all_matched(self) -> bool:
        return all(not c.mismatches for c in self.columns)


@dataclass(frozen=True)
class DiffReport:
    tables: tuple[TableDiff, ...]


def _parse_label(label: str) -> tuple[str, ...]:
    inner = label.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"malformed row label {label!r}")
    inner = inner[1:-1]
    return tuple(p for p in inner.split(",") if p)


def diff_tables(table_ids: Sequence[str] = TABLE_IDS) -> DiffReport:
    """Re-derive every cell of the reference tables and report each
    disagreement. The reference values are data under test: a mismatch
    documents a divergence in the published table, not an engine error,
    and the engine side is the one rederived from the printed
    definitions."""
    tables = []
    for tid in table_ids:
        data = load_reference_table(tid)
        fixture = fixture_from_table(data)
        alpha = Fraction(data["alpha"])
        k = int(data.get("k", 0))
        spec = ApproxSpec(fixture.granulation, kappa_k0(), alpha, k)
        columns = []
        for ci, col in enumerate(data["columns"]):
            op = spec.operator(col)
            mismatches = []
            total = 0
            for row_label, cells in data["rows"].items():
                total += 1
                x = fixture.universe.subset(_parse_label(row_label))
                engine = op(x)
                ref = fixture.universe.subset(cells[ci])
                if engine != ref:
                    mismatches.append(
                        CellDiff(row_label, engine.members, ref.members))
            columns.append(ColumnDiff(col, total - len(mismatches), total,
                                      tuple(mismatches)))
        tables.append(TableDiff(tid, tuple(columns)))
    return DiffReport(tuple(tables))


@dataclass(frozen=True)
class Counterexample:
    fixture: str
    kappa: str
    alpha: str
    bindings: Witness


@dataclass(frozen=True)
class ClauseOutcome:
    """Verdict for one clause over everything it was checked against."""

    clause: str
    holds: bool
    checked: int
    counterexamples: tuple[Counterexample, ...] = ()
    gates: tuple[tuple[str, str], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    outcomes: tuple[ClauseOutcome, ...]
    parameters: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class _Eval:
    """One check's contribution to a clause."""

    clause: str
    checked: int
    ces: Iterable[Counterexample] = ()
    gates: tuple[tuple[str, str], ...] = ()
    note: str = ""
    ok: bool | None = None


def _universe_of(size: int) -> Universe:
    return Universe(tuple(f"e{i + 1}" for i in range(size)))


def _wit(universe: Universe, **named: int) -> Witness:
    return tuple(binding(k, ESet(universe, m)) for k, m in named.items())


@functools.cache
def _kappa_from_tag(tag: str) -> InclusionFn:
    if tag == "K0":
        return kappa_k0()
    if tag == "K1":
        return kappa_k1()
    if tag == "K2":
        return kappa_k2()
    if tag.startswith("Kst(") and tag.endswith(")"):
        parts = tag[4:-1].split(",")
        if len(parts) == 2:
            return kappa_st(parts[0], parts[1])
    raise ValueError(
        f"unknown measure tag {tag!r}; valid tags: K0, K1, K2, Kst(s,t)")


@functools.cache
def _class_tags(ktag: str, size: int) -> tuple[str, ...]:
    return classify_rif(_kappa_from_tag(ktag), _universe_of(size))


@functools.cache
def _ri_gate(ktag: str, size: int, delta: Fraction) -> bool:
    return _axiom_holds(_kappa_from_tag(ktag), "RI", _universe_of(size),
                        delta)


# A clause sweep's checked count and its failing bindings, lazily.
_Sweep = tuple[int, Iterator[dict[str, int]]]


def _lower_cmo(lo: Sequence[int], full: int) -> _Sweep:
    """Cautious monotony of a lower table: ``lo[a] <= b <= a`` keeps
    ``lo[a]`` inside ``lo[b]``."""
    roots = [a for a in range(full + 1) if lo[a] & ~a == 0]
    return sum(1 << (a & ~lo[a]).bit_count() for a in roots), (
        {"a": a, "b": b} for a in roots
        for b in (lo[a] | s for s in iter_submasks(a & ~lo[a]))
        if lo[a] & ~lo[b])


def _upper_cmo(up: Sequence[int], full: int) -> _Sweep:
    """Cautious monotony of an upper table: ``a <= b <= up[a]`` keeps
    ``up[a]`` inside ``up[b]``."""
    roots = [a for a in range(full + 1) if a & ~up[a] == 0]
    return sum(1 << (up[a] & ~a).bit_count() for a in roots), (
        {"a": a, "b": b} for a in roots
        for b in (a | s for s in iter_submasks(up[a] & ~a))
        if up[a] & ~up[b])


def _cap_closure(lo: Sequence[int], full: int) -> _Sweep:
    """``lo[a] & lo[b]`` inside ``lo[a & b]`` for every unordered pair."""
    return (full + 1) * (full + 2) // 2, (
        {"a": a, "b": b} for a in range(full + 1) for b in range(a, full + 1)
        if lo[a] & lo[b] & ~lo[a & b])


def _vprs_check(suite_id: str, fixture: Fixture, ktag: str,
                kap: InclusionFn, alpha: Fraction) -> list[_Eval]:
    universe = fixture.universe
    full = universe.full_mask
    tables = vprs_tables(fixture.granulation, kap, alpha)
    lo, up = tables.lower, tables.upper
    slo, sup = tables.star_lower, tables.star_upper

    def each(bad: Callable[[int], int]) -> _Sweep:
        return full + 1, ({"a": x} for x in range(full + 1) if bad(x))

    if suite_id == "vprs-alpha":
        sweeps = {
            "li": each(lambda x: lo[x] & ~x),
            "luA": each(lambda x: lo[x] & ~up[x]),
            "lA-idem": each(lambda x: lo[lo[x]] != lo[x]),
            "lA-cmo": _lower_cmo(lo, full),
            "uA-cmo": _upper_cmo(up, full),
            "lA-capc": _cap_closure(lo, full),
        }
    elif suite_id == "vprs-star":
        sweeps = {
            "lA-cmo*": _lower_cmo(slo, full),
            "uA-cmo*": _upper_cmo(sup, full),
            "luA*": each(lambda x: slo[x] & ~sup[x]),
            "luAA": each(lambda x: lo[x] & ~slo[x] or up[x] & ~sup[x]),
        }
    else:
        sweeps = {"lARI-cap": _cap_closure(lo, full)}

    if suite_id == "ri-cap":
        delta = 1 - alpha
        gate = ((f"RI[{ktag},n={universe.size},delta={delta}]",
                 "holds" if _ri_gate(ktag, universe.size, delta)
                 else "fails"),)
    else:
        gate = ((f"class[{ktag},n={universe.size}]",
                 ",".join(_class_tags(ktag, universe.size)) or "none"),)
    return [_Eval(clause, checked,
                  (Counterexample(fixture.name, kap.describe(),
                                  str(alpha), _wit(universe, **masks))
                   for masks in fails), gate)
            for clause, (checked, fails) in sweeps.items()]


_FORMS = ("ll", "lu", "ul", "uu")


def _grif_check(fixture: Fixture) -> list[_Eval]:
    universe = fixture.universe
    g = fixture.granulation
    full = universe.full_mask
    masks = range(full + 1)
    sets = [ESet(universe, m) for m in masks]
    spec = ApproxSpec(g)
    cl = image_table(universe, spec.operator("l"))
    cu = image_table(universe, spec.operator("u"))
    img = {"l": cl, "u": cu}
    # The public route reads the operators' tables instead of recomputing.
    lo_op = lambda x: sets[cl[x.mask]]
    up_op = lambda x: sets[cu[x.mask]]

    def ce(extra: tuple[Binding, ...] = (), **named: int) -> Counterexample:
        return Counterexample(fixture.name, "nu", "",
                              _wit(universe, **named) + extra)

    def one(a: int, b: int, sigma: str, pi: str) -> bool:
        """The mask formula gives 1: the sigma-image lies in the pi-image."""
        return not img[sigma][a] & ~img[pi][b]

    def agrees(a: int, b: int, sigma: str, pi: str) -> bool:
        """The public route gives the mask formula's overlap share, 1 on
        an empty sigma-image, compared by cross-multiplication."""
        value = eval_bgrif(sets[a], sets[b], sigma, pi, lo_op, up_op)
        f = img[sigma][a]
        n, d = ((f & img[pi][b]).bit_count(), f.bit_count()) if f else (1, 1)
        return value.numerator * d == value.denominator * n

    top_definite = cl[full] == full and cu[full] == full
    sample = range(min(full + 1, 16))
    sweeps = {
        # Shared-denominator comparisons reduce to numerator counts.
        "ulu2": (len(masks) ** 2, (
            ce(a=a, b=b) for a in masks for b in masks
            if (cu[a] & cl[b]).bit_count() > (cu[a] & cu[b]).bit_count())),
        "llu2": (len(masks) ** 2, (
            ce(a=a, b=b) for a in masks for b in masks
            if (cl[a] & cl[b]).bit_count() > (cl[a] & cu[b]).bit_count())),
        # Monotony in the second argument follows from image monotony
        # because the denominator only sees the first argument.
        "mo": (2 * 3 ** universe.size, (
            ce(b=b, e=e, extra=(("side", (side,)),)) for side in "lu"
            for e in masks for b in iter_submasks(e)
            if img[side][b] & ~img[side][e])),
        "refl": (len(masks), (
            ce(a=m) for m in masks
            if not one(m, m, "l", "l") or not one(m, m, "u", "u")
            or (cl[m] & cu[m]).bit_count() > cl[m].bit_count())),
        "bot": (4 * len(masks), (
            ce(b=m, extra=(("form", (form,)),)) for m in masks
            for form in _FORMS if not one(0, m, *form))),
        "top": (4 * len(masks), (
            ce(a=m, extra=(("form", (form,)),)) for m in masks
            for form in _FORMS if not one(m, full, *form)))
        if top_definite else (0, ()),
        # The one clause through the public evaluation route: it checks
        # the mask formula on a deterministic sample of pairs.
        "route-agreement": (4 * len(sample) ** 2, (
            ce(a=a, b=b, extra=(("form", (form,)),))
            for a in sample for b in sample for form in _FORMS
            if not agrees(a, b, *form))),
    }
    gate = (("top-definite", "yes" if top_definite else
             "no: top clause skipped"),)
    return [_Eval(c, checked, ces, gate if c == "top" else ())
            for c, (checked, ces) in sweeps.items()]


def _rif_axioms_check() -> list[_Eval]:
    k0 = kappa_k0()
    evals: list[_Eval] = []
    for name, axiom in (("k0-rv-sweep", "RV"), ("k0-ri-sweep", "RI")):
        evals.append(_Eval(name, 6, [
            Counterexample(f"u{n}", "K0", "", w) for n in range(1, 7)
            for w in check_axiom(k0, axiom, _universe_of(n)).witnesses]))

    u = Universe.of(("1", "2", "3", "5", "6", "7", "8", "9"))
    reproduced = not evaluate_axiom_instance(k0, "RI-np", {
        "a": u.subset(("1", "2", "3", "6")),
        "b": u.subset(("3", "5", "7", "8", "9")),
        "c": u.subset(("2", "5", "6"))}, delta=Fraction(1, 5))
    evals.append(_Eval(
        "ri-np-counterexample", 1, [], (),
        "reproduced at threshold 1/5" if reproduced
        else "did not reproduce", reproduced))

    tags_unit = _class_tags("Kst(1/5,1)", 5)
    evals.append(_Eval("kst-unit-top-qrif", 1, [], (),
                       "classes: " + ",".join(tags_unit),
                       "qRIF" in tags_unit))
    tags_mid = _class_tags("Kst(1/5,4/5)", 5)
    ok_mid = ("wqRIF" in tags_mid and "pRIF" in tags_mid
              and "qRIF" not in tags_mid)
    evals.append(_Eval("kst-mid-wqrif", 1, [], (),
                       "classes: " + ",".join(tags_mid), ok_mid))
    ok_k0 = all(_class_tags("K0", n) == ("gRIF", "pRIF", "qRIF", "wqRIF")
                for n in (4, 5))
    evals.append(_Eval("k0-classes", 2, [], (),
                       "all four classes on sizes 4 and 5" if ok_k0
                       else "unexpected class set", ok_k0))
    return evals


_PRIF_KAPPA_TAGS = ("K0", "K1", "K2", "Kst(1/5,4/5)")


def _prif_check(ktag: str, size: int) -> list[_Eval]:
    kap = _kappa_from_tag(ktag)
    reports = check_prif_implications(kap, _universe_of(size))
    evals = []
    for rep in reports:
        ces = []
        if not rep.holds:
            verdicts = tuple(f"{k}={v}" for k, v in rep.parameters)
            ces.append(Counterexample(f"u{size}", ktag, "",
                                      (("verdicts", verdicts),)))
        evals.append(_Eval(rep.name, 1, ces))
    return evals


def _row_diff(first: Sequence[int], second: Sequence[int]
              ) -> Iterator[tuple[int, int]]:
    """The mask pairs, in sorted order, held by exactly one of two
    relations given as bitset rows."""
    return ((am, bm) for am, (x, y) in enumerate(zip(first, second))
            for bm in iter_bits(x ^ y))


def _s5_s7_check(fixture: Fixture, kap: InclusionFn,
                 alpha: Fraction) -> list[_Eval]:
    universe = fixture.universe
    g = fixture.granulation
    r5 = build_parthood("s5", universe, g, kappa=kap, alpha=alpha)
    r7 = build_parthood("s7", universe, g, kappa=kap, alpha=alpha)
    ces = (Counterexample(
        fixture.name, kap.describe(), str(alpha),
        _wit(universe, a=am, b=bm) + (("route", (
            "first-route-only" if r5.rows[am] >> bm & 1
            else "second-route-only",)),))
        for am, bm in _row_diff(r5.rows, r7.rows))
    return [_Eval("s5-equals-s7", (universe.full_mask + 1) ** 2, ces)]


def _s0u_from_pu_check(fixture: Fixture, kap: InclusionFn,
                       alpha: Fraction) -> list[_Eval]:
    """s0u rebuilt as the pu preorder cut by the measure floor."""
    universe = fixture.universe
    g = fixture.granulation
    r0u = build_parthood("s0u", universe, g, kappa=kap, alpha=alpha)
    rpu = build_parthood("pu", universe, g, kappa=kap, alpha=alpha)
    derived = [row & cut for row, cut in
               zip(rpu.rows, kap.floor_rows(universe, alpha))]
    ces = (Counterexample(fixture.name, kap.describe(), str(alpha),
                          _wit(universe, a=am, b=bm))
           for am, bm in _row_diff(r0u.rows, derived))
    return [_Eval("s0u-from-pu", (universe.full_mask + 1) ** 2, ces)]


def _parthood_grade_check(fixture: Fixture, k: int) -> list[_Eval]:
    universe = fixture.universe
    g = fixture.granulation
    r3 = build_parthood("s3", universe, g, k=k)
    r6 = build_parthood("s6", universe, g, k=k)
    ces = (Counterexample(fixture.name, "", f"k={k}",
                          _wit(universe, a=am, b=bm))
           for am, bm in _row_diff(r3.rows, r6.rows))
    return [_Eval("s6-equals-s3", (universe.full_mask + 1) ** 2, ces)]


def _s3_extension_check() -> list[_Eval]:
    fixture = standard_fixture()
    universe = fixture.universe
    relation = build_parthood("s3", universe, fixture.granulation,
                              k=STANDARD_GRADE)
    # Second route through member sets rather than masks.
    members = [frozenset(ESet(universe, m).members)
               for m in range(universe.full_mask + 1)]
    expected = [sum(1 << bm for bm, b in enumerate(members)
                    if len(a & b) > STANDARD_GRADE and a <= b)
                for a in members]
    ok = next(_row_diff(relation.rows, expected), None) is None \
        and relation.size == 33
    note = f"{relation.size} pairs" + ("" if ok else "; routes disagree")
    ces = (Counterexample("standard", "", f"k={STANDARD_GRADE}",
                          _wit(universe, a=am, b=bm))
           for am, bm in _row_diff(relation.rows, expected))
    return [_Eval("s3-standard-extension", len(members) ** 2, ces, (),
                  note, ok)]


EXPECTED_PU_CLASS_LABELS = (
    ("{}",),
    ("{x1}", "{x2}", "{x1,x2}", "{x3}", "{x1,x3}", "{x2,x3}", "{x1,x2,x3}",
     "{x1,x2,x3,x4}"),
    ("{x4}",),
    ("{x1,x4}", "{x2,x4}", "{x1,x2,x4}", "{x3,x4}", "{x1,x3,x4}",
     "{x2,x3,x4}"),
)


def _pu_classes_check() -> list[_Eval]:
    fixture = standard_fixture()
    universe = fixture.universe
    result = build_pu(universe, fixture.granulation,
                      alpha=STANDARD_ALPHA)
    got = tuple(tuple(m.label() for m in cls) for cls in result.classes)
    ok = got == EXPECTED_PU_CLASS_LABELS
    notes = []
    if not ok:
        notes.append("classes differ from the frozen expectation")
    values = result.class_upper_values
    second, third = values[1], values[2]
    if second <= third or third <= second:
        ok = False
        notes.append("middle classes unexpectedly comparable")
    # The relation must be exactly what the class order induces.
    derived = [0] * (universe.full_mask + 1)
    for cls, value in zip(result.classes, values):
        above = sum(1 << m.mask for c, v in zip(result.classes, values)
                    if value <= v for m in c)
        for m in cls:
            derived[m.mask] = above
    if next(_row_diff(result.relation.rows, derived), None) is not None:
        ok = False
        notes.append("class-induced order disagrees with the relation")
    return [_Eval("pu-classes", (universe.full_mask + 1) ** 2, [], (),
                  "; ".join(notes) if notes else
                  f"{len(result.classes)} classes", ok)]


def _s_star_witness_check() -> list[_Eval]:
    universe = Universe.of(("1", "2", "3", "4", "5", "6", "7", "8", "9",
                            "12", "15", "20"))
    a = universe.subset(("1", "2", "3", "4", "5", "6", "7", "8", "9"))
    b = universe.subset(("1", "2", "3", "4", "5", "12", "15", "20"))
    c = universe.subset(("20", "12", "1", "2", "3", "6"))
    k = 4

    def via_masks(x: ESet, y: ESet) -> bool:
        return (x & y).cardinality > k and not (y < x)

    def via_members(x: ESet, y: ESet) -> bool:
        xs, ys = set(x.members), set(y.members)
        return len(xs & ys) > k and not (ys < xs)

    ok = True
    for route in (via_masks, via_members):
        ok = ok and route(a, b) and route(b, c) and not route(a, c)
    note = ("transitivity fails on a 12-element universe at grade 4"
            if ok else "witness did not reproduce")
    return [_Eval("s-star-transitivity-witness", 6, [], (), note, ok)]


_POSITIVE, _NEGATIVE = "holds", "fails-in-general"


def _claims_check(tag: str) -> list[_Eval]:
    claims = load_parthood_claims()["claims"][tag]
    fixture = standard_fixture()
    relation = build_parthood(tag, fixture.universe, fixture.granulation,
                              alpha=STANDARD_ALPHA, k=STANDARD_GRADE)
    profile = analyze_properties(relation)
    evals = []
    for prop, claim in claims.items():
        status = profile.status(prop)
        clause = f"claims.{tag}.{prop}"
        if claim == _POSITIVE:
            ok = status.status == "holds"
            ces = []
            if not ok and status.witness is not None:
                ces.append(Counterexample("standard", "K0",
                                          str(STANDARD_ALPHA),
                                          status.witness))
            note = "" if ok else "positive claim refuted by the engine"
            if not ok and status.status == "conditional":
                note += f" ({status.condition})"
            evals.append(_Eval(clause, 1, ces, (), note, ok))
        else:
            found = status.status in ("fails", "conditional")
            note = ("witness found, as claimed" if found
                    else "no witness on this fixture; the negative "
                         "claim is untested here")
            if status.status == "conditional":
                note += f" ({status.condition})"
            evals.append(_Eval(clause, 1, [], (), note, True))
    return evals


def _rational_check() -> list[_Eval]:
    fixture = standard_fixture()
    universe = fixture.universe
    g = fixture.granulation
    designated = (universe.subset(("x4",)), universe.subset(("x1", "x2")))
    st_rel = build_parthood("st", universe, g, tset=designated)

    def lower_op(x: ESet) -> ESet:
        return vprs_lower(x, g, None, STANDARD_ALPHA)

    expected_points = {
        universe.subset(("x4",)).mask: universe.subset(("x4",)).mask,
        universe.subset(("x1", "x2")).mask:
            universe.subset(("x1", "x2")).mask,
        universe.subset(("x1", "x2", "x3")).mask:
            universe.subset(("x1", "x2", "x3")).mask,
        universe.full_mask: universe.subset(("x1", "x2", "x3")).mask,
    }
    reports = {rep.name: rep
               for rep in check_rational_proposition(
                   universe, lower_op, st_rel)}

    def from_report(name: str, note: str = "") -> _Eval:
        rep = reports[name]
        ces = [Counterexample("standard", "K0", str(STANDARD_ALPHA), w)
               for w in rep.witnesses]
        return _Eval(name, 1, ces, rep.parameters, note, rep.holds)

    hyp = reports["framework-hypothesis"].holds
    evals = [from_report(
        "framework-hypothesis", "" if hyp else
        "the designated-witness predicate sits outside the hypothesis; "
        "theorem clauses are gated")]
    ces: list[Counterexample] = []
    for m in range(universe.full_mask + 1):
        res = rational_lower(ESet(universe, m), lower_op, st_rel)
        want = expected_points.get(m)
        assert res.value is not None
        if want is None:
            if not res.trivial:
                ces.append(Counterexample(
                    "standard", "K0", str(STANDARD_ALPHA),
                    _wit(universe, a=m, value=res.value.mask)))
        elif res.trivial or res.value.mask != want:
            ces.append(Counterexample(
                "standard", "K0", str(STANDARD_ALPHA),
                _wit(universe, a=m, value=res.value.mask,
                     expected=want)))
    evals.append(_Eval("standard-points", universe.full_mask + 1, ces, (),
                       "nontrivial exactly at the four recorded points"
                       if not ces else ""))

    spec = ApproxSpec(g)
    up_op, lo_op = spec.operator("u"), spec.operator("l")
    one = universe.subset(("x1",))
    strict = build_parthood("s6", universe, g, k=3)
    loose = build_parthood("s6", universe, g, k=0)
    res_strict = rational_upper(one, up_op, lo_op, strict)
    res_loose = rational_upper(one, up_op, lo_op, loose)
    ok_upper = (not res_strict.defined and res_loose.defined
                and res_loose.value is not None
                and res_loose.value.members == ("x1", "x2", "x3"))
    evals.append(_Eval(
        "upper-worked-example", 2, [], (),
        "undefined at grade 3, defined at grade 0" if ok_upper
        else "worked example did not reproduce", ok_upper))

    evals += [from_report("idempotent"), from_report("lower-compatible"),
              from_report("s-monotone")]
    evals.append(_Eval(
        "s-monotone-under-hypothesis", 1, [], (),
        "vacuous: hypothesis not met" if not hyp else "",
        (not hyp) or reports["s-monotone"].holds))
    evals.append(from_report("lower-compatible-open",
                             "open question; reported, not asserted"))
    return evals


def _correspond_check(fixture: Fixture, alpha: Fraction) -> list[_Eval]:
    universe = fixture.universe
    evals = []
    for clause, build in (("upper-blocks", build_upper_correspondence),
                          ("lower-blocks", build_lower_correspondence)):
        partition = build(universe, fixture.granulation, alpha)
        ces = (Counterexample(fixture.name, "K0", str(alpha),
                              (("threshold", (str(block.threshold),)),
                               binding("first-member", block.members[0])))
               for block in partition.blocks if not block.verified)
        evals.append(_Eval(clause, len(partition.blocks), ces))
    return evals


def _nonrepresentability_check() -> list[_Eval]:
    fixture = standard_fixture()
    report = check_nonrepresentability(fixture.universe, 1)
    sizes = dict(report.parameters).get("nonrepresentable-sizes", "")
    singles = {("x1",), ("x2",), ("x3",), ("x4",)}
    witnessed = {w[0][1] for w in report.witnesses}
    ok = (not report.holds and sizes == "0,1,2"
          and singles <= witnessed)
    return [_Eval("nonrepresentability-k1", 1, [], (),
                  f"nonrepresentable sizes: {sizes}", ok)]


def _ggs_check() -> list[_Eval]:
    fixture = standard_fixture()
    universe = fixture.universe
    g = fixture.granulation
    spec = ApproxSpec(g)
    lo, up = spec.operator("l"), spec.operator("u")
    evals = []
    for clause, reports in (
            ("axioms-classical", check_ggs_axioms(universe, lo, up)),
            ("admissibility-classical",
             check_admissibility(universe, g, lo, up))):
        ces = (Counterexample("standard", "", "",
                              w + (("axiom", (rep.name,)),))
               for rep in reports for w in rep.witnesses)
        evals.append(_Eval(clause, len(reports), ces))
    return evals


def _table_diff_check() -> list[_Eval]:
    report = diff_tables()
    evals = []
    for table in report.tables:
        data = load_reference_table(table.table_id)
        alpha = str(Fraction(data["alpha"]))
        for col in table.columns:
            ces = (Counterexample("standard", "K0", alpha,
                                  (("row", (cell.row,)),
                                   ("engine", cell.engine),
                                   ("reference", cell.reference)))
                   for cell in col.mismatches)
            note = "" if not col.mismatches else (
                f"{len(col.mismatches)} published cell(s) diverge from "
                "the engine derivation")
            evals.append(_Eval(f"{table.table_id}.{col.column}",
                               col.total, ces, (), note))
    return evals


_CLAIM_TAGS = ("s3", "s5", "s6", "s7", "s9", "s0l", "s0u")

def _run_checks(suite_id: str, fixtures: Sequence[Fixture]
                ) -> Iterator[_Eval]:
    """Run every check of one suite, in report order."""
    tuned = [(f, ktag, _kappa_from_tag(ktag), alpha) for f in fixtures
             for ktag in DEFAULT_KAPPA_TAGS for alpha in DEFAULT_ALPHAS]
    if suite_id == "table-diff":
        yield from _table_diff_check()
    elif suite_id in ("vprs-alpha", "vprs-star", "ri-cap"):
        for f, ktag, kap, alpha in tuned:
            yield from _vprs_check(suite_id, f, ktag, kap, alpha)
    elif suite_id == "grif":
        for f in fixtures:
            yield from _grif_check(f)
    elif suite_id == "rif-axioms":
        yield from _rif_axioms_check()
    elif suite_id == "prif":
        for ktag in _PRIF_KAPPA_TAGS:
            for size in (3, 4, 5):
                yield from _prif_check(ktag, size)
    elif suite_id == "parthood":
        for f, _, kap, alpha in tuned:
            yield from _s5_s7_check(f, kap, alpha)
        for f in fixtures:
            for k in (0, 1, 2):
                yield from _parthood_grade_check(f, k)
        yield from _s3_extension_check()
        yield from _pu_classes_check()
        for f, _, kap, alpha in tuned:
            yield from _s0u_from_pu_check(f, kap, alpha)
        yield from _s_star_witness_check()
        for tag in _CLAIM_TAGS:
            yield from _claims_check(tag)
    elif suite_id == "rational":
        yield from _rational_check()
    elif suite_id == "correspond":
        for f in fixtures[:21]:
            for alpha in CORRESPOND_ALPHAS:
                yield from _correspond_check(f, alpha)
        yield from _nonrepresentability_check()
    elif suite_id == "ggs":
        yield from _ggs_check()


_MAX_COUNTEREXAMPLES = 5


def _merge(evals: Iterable[_Eval]) -> tuple[ClauseOutcome, ...]:
    """One outcome per clause, in the order clauses first appear."""
    acc: dict[str, dict] = {}
    for ev in evals:
        slot = acc.setdefault(ev.clause, {
            "checked": 0, "ces": [], "gates": set(), "notes": [],
            "ok": True,
        })
        slot["checked"] += ev.checked
        # A full clause never starts a later check's failure generator.
        slot["ces"] += itertools.islice(
            ev.ces, _MAX_COUNTEREXAMPLES - len(slot["ces"]))
        slot["gates"].update(ev.gates)
        if ev.note and ev.note not in slot["notes"]:
            slot["notes"].append(ev.note)
        if ev.ok is not None:
            slot["ok"] = slot["ok"] and ev.ok
    return tuple(
        ClauseOutcome(
            clause=clause, holds=slot["ok"] and not slot["ces"],
            checked=slot["checked"],
            counterexamples=tuple(slot["ces"]),
            gates=tuple(sorted(slot["gates"])),
            note="; ".join(slot["notes"]))
        for clause, slot in acc.items())


def run_theorem_suite(suite_id: str, *, seed: int = 0,
                      random_count: int = 50) -> SuiteResult:
    """Run one verification suite (or ``all``) over the battery.

    Checks run sequentially in report order, and each clause is reported
    where it first appears; ``all`` runs every suite in turn and prefixes
    each clause with its suite.
    """
    if suite_id not in SUITE_IDS:
        raise ValueError(
            f"unknown suite {suite_id!r}; valid identifiers: "
            f"{', '.join(SUITE_IDS)}"
        )
    if random_count < 0:
        raise ValueError("random_count must be nonnegative")
    fixtures = battery(seed, random_count)
    params = (
        ("seed", str(seed)),
        ("fixtures", str(len(fixtures))),
        ("alphas", ",".join(str(a) for a in DEFAULT_ALPHAS)),
        ("kappas", ",".join(DEFAULT_KAPPA_TAGS)),
    )
    if suite_id != "all":
        return SuiteResult(suite_id, _merge(_run_checks(suite_id, fixtures)),
                           params)
    outcomes = tuple(replace(o, clause=f"{sub}:{o.clause}")
                     for sub in SUITE_IDS[:-1]
                     for o in _merge(_run_checks(sub, fixtures)))
    return SuiteResult("all", outcomes, params)


def counterexample_to_json(ce: Counterexample) -> dict:
    return {
        "fixture": ce.fixture,
        "kappa": ce.kappa,
        "alpha": ce.alpha,
        "bindings": {name: list(values) for name, values in ce.bindings},
    }


def suite_result_to_json(result: SuiteResult) -> dict:
    return {
        "suite": result.suite,
        "parameters": {k: v for k, v in result.parameters},
        "outcomes": [
            {
                "clause": o.clause,
                "holds": o.holds,
                "checked": o.checked,
                "gates": {k: v for k, v in o.gates},
                "note": o.note,
                "counterexamples": [counterexample_to_json(ce)
                                    for ce in o.counterexamples],
            }
            for o in result.outcomes
        ],
    }


def compare_with_expected(results: Iterable[SuiteResult]) -> tuple[str, ...]:
    """Compare suite verdicts against the shipped manifest.

    Only the suites actually present in ``results`` are compared. The
    return value lists every discrepancy; an empty tuple means the run
    reproduced the expected picture exactly, documented divergences
    included.
    """
    expected = load_expected_outcomes()
    actual: dict[str, bool] = {}
    suites_run: set[str] = set()
    for result in results:
        for o in result.outcomes:
            key = o.clause if ":" in o.clause else f"{result.suite}:{o.clause}"
            actual[key] = o.holds
            suites_run.add(key.split(":", 1)[0])
    mismatches = []
    relevant = {k: v for k, v in expected.items()
                if k.split(":", 1)[0] in suites_run}
    for key in sorted(set(relevant) | set(actual)):
        want = relevant.get(key)
        got = actual.get(key)
        if want is None:
            verdict = "holds" if got else "refuted"
            mismatches.append(
                f"{key}: no expected verdict in the manifest (got {verdict})")
        elif got is None:
            mismatches.append(
                f"{key}: expected {want} but the run produced no verdict")
        else:
            got_verdict = "holds" if got else "refuted"
            if got_verdict != want:
                mismatches.append(
                    f"{key}: expected {want}, got {got_verdict}")
    return tuple(mismatches)
