"""Acceptance suite.

One test per acceptance criterion, each ending in a single printed
PASS/FAIL line. Criterion 6 asserts the expected-outcomes manifest's
verdicts for its 17 theorem clauses: 13 hold with zero counterexamples
and four (``uA-cmo``, ``uA-cmo*``, ``lA-capc``, ``lARI-cap``) are refuted.
It re-checks each refutation at the engine's witness through the public
``Fraction`` operators, and again on the cells of the published reference
tables, so an unexpected pass fails as loudly as an unexpected refutation.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from roughpart import (
    build_parthood,
    build_pu,
    check_axiom,
    check_nonrepresentability,
    compare_with_expected,
    diff_tables,
    kappa_k0,
    kappa_st,
    load_expected_outcomes,
    load_reference_table,
    rational_lower,
    run_theorem_suite,
    standard_fixture,
    vprs_lower,
    vprs_star_upper,
    vprs_upper,
)
from roughpart.cli import main
from test_parthood import GRADE_ONE_PAIRS

ALPHA = Fraction(3, 10)


def _announce(line: str) -> None:
    print(line)


def _witness(ce) -> str:
    values = "; ".join(f"{name}={{{','.join(vals)}}}"
                       for name, vals in ce.bindings)
    where = ce.fixture
    if ce.alpha:
        where += f", alpha={ce.alpha}"
    return f"{values} [{where}]"


def _column(report, table_id, name):
    for table in report.tables:
        if table.table_id == table_id:
            for col in table.columns:
                if col.column == name:
                    return col
    raise AssertionError(f"{table_id}/{name} missing from the diff report")


def test_criterion_01_first_reference_table():
    start = time.perf_counter()
    report = diff_tables(["bited-gvprs"])
    elapsed = time.perf_counter() - start
    for exact in ("l", "u_b", "l_alpha", "u_alpha"):
        col = _column(report, "bited-gvprs", exact)
        assert col.matched == 16 and col.total == 16, exact
    col = _column(report, "bited-gvprs", "u")
    assert col.matched == 15 and col.total == 16
    cell = col.mismatches[0]
    assert cell.row == "{x1}"
    assert cell.engine == ("x1", "x2", "x3")
    assert cell.reference == ("x1", "x2")
    assert elapsed < 1.0
    _announce(f"criterion 1: PASS - four columns exact, the documented "
              f"single-cell divergence confirmed ({elapsed:.2f}s)")


def test_criterion_02_second_reference_table():
    start = time.perf_counter()
    report = diff_tables(["one-grade"])
    elapsed = time.perf_counter() - start
    strict = _column(report, "one-grade", "l_grade_strict")
    assert strict.matched == 16 and not strict.mismatches
    expected_rows = {
        "u_grade": {"{x1}", "{x2}", "{x3}", "{x1,x4}", "{x2,x4}", "{x3,x4}"},
        "l_alpha_star": {"{x1,x3}", "{x3,x4}", "{}"},
        "u_alpha_star": {"{}"},
    }
    for name, rows in expected_rows.items():
        col = _column(report, "one-grade", name)
        assert {m.row for m in col.mismatches} == rows, name
        for m in col.mismatches:
            assert m.engine != m.reference
    assert elapsed < 1.0
    diverging = sum(len(v) for v in expected_rows.values())
    _announce(f"criterion 2: PASS - strict lower column exact, "
              f"{diverging} diverging cells reported with both values "
              f"({elapsed:.2f}s)")


def test_criterion_03_grade_one_extension():
    fx = standard_fixture()
    start = time.perf_counter()
    relation = build_parthood("s3", fx.universe, fx.granulation, k=1)
    got = {(a.members, b.members) for a, b in relation.extension()}
    elapsed = time.perf_counter() - start
    assert relation.size == 33
    assert got == GRADE_ONE_PAIRS
    assert elapsed < 1.0
    _announce(f"criterion 3: PASS - all 33 pairs reproduced exactly "
              f"({elapsed:.2f}s)")


def test_criterion_04_rational_lower_points():
    fx = standard_fixture()
    universe = fx.universe
    designated = (universe.subset(("x4",)), universe.subset(("x1", "x2")))
    st_rel = build_parthood("st", universe, fx.granulation, tset=designated)

    def lower(x):
        return vprs_lower(x, fx.granulation, None, ALPHA)

    expected = {
        ("x4",): ("x4",),
        ("x1", "x2"): ("x1", "x2"),
        ("x1", "x2", "x3"): ("x1", "x2", "x3"),
        ("x1", "x2", "x3", "x4"): ("x1", "x2", "x3"),
    }
    nontrivial = {}
    for a in universe.subsets():
        res = rational_lower(a, lower, st_rel)
        assert res.defined
        if not res.trivial:
            nontrivial[a.members] = res.value.members
    assert nontrivial == expected
    _announce("criterion 4: PASS - defined everywhere, nontrivial at "
              "exactly the four recorded points")


def test_criterion_05_upper_stability_classes():
    fx = standard_fixture()
    result = build_pu(fx.universe, fx.granulation, alpha=ALPHA)
    labels = tuple(tuple(m.label() for m in cls) for cls in result.classes)
    assert labels == (
        ("{}",),
        ("{x1}", "{x2}", "{x1,x2}", "{x3}", "{x1,x3}", "{x2,x3}",
         "{x1,x2,x3}", "{x1,x2,x3,x4}"),
        ("{x4}",),
        ("{x1,x4}", "{x2,x4}", "{x1,x2,x4}", "{x3,x4}", "{x1,x3,x4}",
         "{x2,x3,x4}"),
    )
    values = result.class_upper_values
    assert tuple(v.label() for v in values) == (
        "{}", "{x1,x2,x3}", "{x4}", "{x1,x2,x3,x4}")
    assert not values[1] <= values[2] and not values[2] <= values[1]
    value_of = {}
    for cls, value in zip(result.classes, values):
        for member in cls:
            value_of[member.mask] = value
    for a in fx.universe.subsets():
        for b in fx.universe.subsets():
            derived = value_of[a.mask] <= value_of[b.mask]
            assert result.relation.holds(a, b) == derived
    _announce("criterion 5: PASS - four classes with the recorded upper "
              "values, middle pair incomparable, relation equals the "
              "derived class order")


def _cmo(up, a, b):
    """Cumulative monotony of an upper operator, as (premise, conclusion):
    ``a <= b <= up(a)`` should give ``up(a) <= up(b)``."""
    return a <= b and b <= up(a), up(a) <= up(b)


def _capc(lo, a, b):
    """Cap-closure of a lower operator, as (premise, conclusion):
    ``lo(a) & lo(b) <= lo(a & b)`` for every pair."""
    return True, (lo(a) & lo(b)) <= lo(a & b)


def _refutes(shape, op, a, b) -> bool:
    premise, conclusion = shape(op, a, b)
    return premise and not conclusion


def _published(table, column, universe):
    """The operator a reference table publishes in one of its columns."""
    index = table["columns"].index(column)
    rows = table["rows"]
    return lambda x: universe.subset(rows[x.label()][index])


def _ri_gate(outcome, tag, size, alpha):
    return dict(outcome.gates)[f"RI[{tag},n={size},delta={1 - alpha}]"]


_FULL = ("x1", "x2", "x3", "x4")

# The clauses the manifest records as refuted: the clause's shape, the
# public operator it is stated for, and the published column and cells
# that already refute it at the table's alpha.
_REFUTED = {
    "uA-cmo": (_cmo, vprs_upper, "bited-gvprs", "u_alpha",
               ("x1", "x4"), _FULL),
    "uA-cmo*": (_cmo, vprs_star_upper, "one-grade", "u_alpha_star",
                ("x1", "x4"), _FULL),
    "lA-capc": (_capc, vprs_lower, "bited-gvprs", "l_alpha",
                ("x1", "x2"), ("x2", "x3")),
    "lARI-cap": (_capc, vprs_lower, "bited-gvprs", "l_alpha",
                 ("x1", "x2"), ("x2", "x3")),
}

# Measure tags the suites sweep, keyed by the measure's description as a
# counterexample records it.
_MEASURES = {kap.describe(): (tag, kap) for tag, kap in (
    ("K0", kappa_k0()),
    ("Kst(1/5,4/5)", kappa_st(Fraction(1, 5), Fraction(4, 5))),
)}


def test_criterion_06_theorem_suite():
    named = {
        "vprs-alpha": ("li", "luA", "lA-idem", "lA-cmo", "uA-cmo",
                       "lA-capc"),
        "vprs-star": ("lA-cmo*", "uA-cmo*", "luA*", "luAA"),
        "ri-cap": ("lARI-cap",),
        "grif": ("ulu2", "llu2", "mo", "refl", "bot", "top"),
    }
    start = time.perf_counter()
    results = [run_theorem_suite(suite, random_count=50)
               for suite in named]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert compare_with_expected(results) == ()
    outcomes = {}
    for result in results:
        for o in result.outcomes:
            if o.clause in named[result.suite]:
                outcomes[o.clause] = o
    assert len(outcomes) == 17

    # The manifest's verdicts, and the engine's, for the 17 clauses.
    manifest = load_expected_outcomes()
    expected = {clause: manifest[f"{suite}:{clause}"]
                for suite, clauses in named.items() for clause in clauses}
    assert {c for c, v in expected.items() if v == "refuted"} \
        == set(_REFUTED)
    assert {c for c, v in expected.items() if v == "holds"} \
        == set(outcomes) - set(_REFUTED)
    wrong = []
    for clause in sorted(outcomes):
        o = outcomes[clause]
        if o.holds and expected[clause] != "holds":
            wrong.append(f"{clause}: unexpectedly holds")
        elif not o.holds and expected[clause] == "holds":
            wrong.append(f"{clause}: unexpectedly refuted at "
                         f"{_witness(o.counterexamples[0])}")
    assert not wrong, "; ".join(wrong)
    for o in outcomes.values():
        assert bool(o.counterexamples) != o.holds, o.clause

    # Each engine refutation, re-checked at its first retained witness
    # through the public Fraction operators.
    fx = standard_fixture()
    universe = fx.universe
    for clause, (shape, op, *_) in _REFUTED.items():
        ce = outcomes[clause].counterexamples[0]
        assert ce.fixture == fx.name, _witness(ce)
        tag, kap = _MEASURES[ce.kappa]
        alpha = Fraction(ce.alpha)
        bound = dict(ce.bindings)
        a, b = universe.subset(bound["a"]), universe.subset(bound["b"])
        assert _refutes(shape, lambda x: op(x, fx.granulation, kap, alpha),
                        a, b), f"{clause} not refuted at {_witness(ce)}"
        if clause == "lARI-cap":
            # The RI hypothesis is met, so the refutation is not vacuous.
            assert _ri_gate(outcomes[clause], tag, universe.size,
                            alpha) == "holds"
            assert check_axiom(kap, "RI", universe, delta=1 - alpha).holds

    # The same four refutations on the published cells, and through the
    # engine's operators at the table's alpha under the table's measure.
    for clause, (shape, op, table_id, column, a_names,
                 b_names) in _REFUTED.items():
        table = load_reference_table(table_id)
        assert Fraction(table["alpha"]) == ALPHA
        a, b = universe.subset(a_names), universe.subset(b_names)
        assert _refutes(shape, _published(table, column, universe), a, b), \
            f"{clause} not refuted by {table_id}/{column}"
        assert _refutes(
            shape, lambda x: op(x, fx.granulation, kappa_k0(), ALPHA),
            a, b), f"{clause} not refuted at {a.label()}, {b.label()}"
        if clause == "lARI-cap":
            assert _ri_gate(outcomes[clause], "K0", universe.size,
                            ALPHA) == "holds"
    _announce(f"criterion 6: PASS - 13 clauses hold with zero "
              f"counterexamples, the manifest's 4 refutations "
              f"({', '.join(sorted(_REFUTED))}) re-checked through the "
              f"public operators and on the published tables "
              f"({elapsed:.1f}s)")


def test_criterion_07_measure_axioms():
    start = time.perf_counter()
    axioms = run_theorem_suite("rif-axioms", random_count=0)
    implications = run_theorem_suite("prif", random_count=0)
    elapsed = time.perf_counter() - start
    assert compare_with_expected([axioms, implications]) == ()
    for result in (axioms, implications):
        for o in result.outcomes:
            assert o.holds, o.clause
    by_name = {o.clause: o for o in axioms.outcomes}
    assert "reproduced" in by_name["ri-np-counterexample"].note
    _announce(f"criterion 7: PASS - sweep axioms, the non-reproducing "
              f"counterexample, both rescaled classes, and every "
              f"implication verified ({elapsed:.1f}s)")


def test_criterion_08_grade_correspondences():
    start = time.perf_counter()
    result = run_theorem_suite("correspond", random_count=50)
    elapsed = time.perf_counter() - start
    assert compare_with_expected([result]) == ()
    for o in result.outcomes:
        assert o.holds, o.clause
    fx = standard_fixture()
    report = check_nonrepresentability(fx.universe, 1)
    flagged = {w[0][1] for w in report.witnesses}
    for name in fx.universe.elements:
        assert (name,) in flagged
    _announce(f"criterion 8: PASS - both correspondences verified "
              f"block-wise on every fixture, singletons flagged at "
              f"grade one ({elapsed:.1f}s)")


def test_criterion_09_parthood_routes_and_witness():
    start = time.perf_counter()
    result = run_theorem_suite("parthood", random_count=50)
    elapsed = time.perf_counter() - start
    assert compare_with_expected([result]) == ()
    by_name = {o.clause: o for o in result.outcomes}
    witness = by_name["s-star-transitivity-witness"]
    assert witness.holds and not witness.counterexamples
    equality = by_name["s5-equals-s7"]
    assert equality.holds
    assert equality.checked >= 51
    _announce(f"criterion 9: PASS - the 12-element transitivity witness "
              f"reproduces and both lower routes agree on every fixture "
              f"({elapsed:.1f}s)")


def test_criterion_10_byte_determinism(tmp_path, capsys):
    paths = [tmp_path / f"run{i}.json" for i in range(3)]
    start = time.perf_counter()
    for path in paths:
        code = main(["verify", "--suite", "all", "--seed", "3",
                     "--random-count", "12", "--format", "json",
                     "--out", str(path)])
        assert code == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    payload = json.loads(blobs[0].decode("utf-8"))
    assert payload["mismatches"] == []
    _announce(f"criterion 10: PASS - three runs, one "
              f"byte-identical report ({elapsed:.1f}s)")
