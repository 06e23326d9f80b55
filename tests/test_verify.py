from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    ClauseOutcome,
    SUITE_IDS,
    SuiteResult,
    TABLE_IDS,
    Universe,
    battery,
    compare_with_expected,
    diff_tables,
    fixture_from_table,
    load_expected_outcomes,
    load_reference_table,
    random_granulation,
    run_theorem_suite,
    standard_fixture,
    suite_result_to_json,
)
from roughpart import approx, parthood
from roughpart.cli import main


def _mismatch_rows(report, table_id, column):
    for table in report.tables:
        if table.table_id == table_id:
            for col in table.columns:
                if col.column == column:
                    return [m.row for m in col.mismatches]
    raise AssertionError(f"{table_id}/{column} not in report")


def test_reference_table_diffs_are_the_documented_ones():
    report = diff_tables()
    assert tuple(t.table_id for t in report.tables) == TABLE_IDS
    first, second = report.tables
    assert not first.all_matched and not second.all_matched

    assert _mismatch_rows(report, "bited-gvprs", "u") == ["{x1}"]
    for col in ("l", "u_b", "l_alpha", "u_alpha"):
        assert _mismatch_rows(report, "bited-gvprs", col) == []
    cell = first.columns[1].mismatches[0]
    assert cell.engine == ("x1", "x2", "x3")
    assert cell.reference == ("x1", "x2")

    assert _mismatch_rows(report, "one-grade", "l_grade_strict") == []
    assert set(_mismatch_rows(report, "one-grade", "u_grade")) == {
        "{x1}", "{x2}", "{x3}", "{x1,x4}", "{x2,x4}", "{x3,x4}"}
    assert set(_mismatch_rows(report, "one-grade", "l_alpha_star")) == {
        "{x1,x3}", "{x3,x4}", "{}"}
    assert _mismatch_rows(report, "one-grade", "u_alpha_star") == ["{}"]

    for table in report.tables:
        for col in table.columns:
            assert col.total == 16
            assert col.matched == 16 - len(col.mismatches)


def test_table_fixture_is_a_second_route_to_the_standard_one():
    rebuilt = fixture_from_table(load_reference_table("bited-gvprs"))
    std = standard_fixture()
    assert rebuilt.universe == std.universe
    assert rebuilt.granulation.masks == std.granulation.masks
    assert rebuilt.neighborhoods == std.neighborhoods


def test_battery_is_seeded_and_shaped():
    fixtures = battery(seed=7, random_count=9)
    assert len(fixtures) == 10
    assert fixtures[0].name == "standard"
    assert [f.universe.size for f in fixtures[1:]] == \
        [3, 4, 5, 6, 3, 4, 5, 6, 3]
    again = battery(seed=7, random_count=9)
    assert [f.granulation.masks for f in again] == \
        [f.granulation.masks for f in fixtures]
    other = battery(seed=8, random_count=9)
    assert [f.granulation.masks for f in other] != \
        [f.granulation.masks for f in fixtures]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2 ** 32))
def test_random_granulations_cover_their_universe(size, seed):
    universe = Universe(tuple(f"e{i}" for i in range(size)))
    g = random_granulation(universe, random.Random(seed))
    covered = 0
    for m in g.masks:
        assert m != 0
        covered |= m
    assert covered == universe.full_mask
    assert len(set(g.masks)) == len(g.masks)


@pytest.mark.parametrize("suite_id,count", [
    ("table-diff", 0),
    ("rif-axioms", 0),
    ("prif", 0),
    ("parthood", 2),
    ("rational", 0),
    ("correspond", 2),
    ("ggs", 0),
    ("grif", 3),
])
def test_light_runs_match_the_manifest(suite_id, count):
    result = run_theorem_suite(suite_id, random_count=count)
    assert result.suite == suite_id
    assert compare_with_expected([result]) == ()


def test_comparison_flags_flips_aliens_and_gaps():
    result = run_theorem_suite("ri-cap", random_count=2)
    expected = load_expected_outcomes()
    assert compare_with_expected([result]) == ()

    flipped = SuiteResult(result.suite, tuple(
        ClauseOutcome(o.clause, not o.holds, o.checked)
        for o in result.outcomes), result.parameters)
    want = expected["ri-cap:lARI-cap"]
    messages = compare_with_expected([flipped])
    assert len(messages) == len(result.outcomes)
    assert any(f"expected {want}," in m for m in messages)

    alien = SuiteResult(result.suite, result.outcomes + (
        ClauseOutcome("lARI-cup", True, 1),), result.parameters)
    messages = compare_with_expected([alien])
    assert messages == (
        "ri-cap:lARI-cup: no expected verdict in the manifest (got holds)",)

    blocks = run_theorem_suite("correspond", random_count=0)
    assert compare_with_expected([blocks]) == ()
    gappy = SuiteResult(blocks.suite, tuple(
        o for o in blocks.outcomes if o.clause != "nonrepresentability-k1"),
        blocks.parameters)
    messages = compare_with_expected([gappy])
    assert messages == (
        "correspond:nonrepresentability-k1: expected holds but the run "
        "produced no verdict",)


def test_suite_entry_takes_a_suite_a_seed_and_a_count():
    params = inspect.signature(run_theorem_suite).parameters
    assert list(params) == ["suite_id", "seed", "random_count"]


def test_umbrella_suite_prefixes_clause_names():
    result = run_theorem_suite("all", random_count=1)
    assert result.suite == "all"
    prefixes = {o.clause.split(":", 1)[0] for o in result.outcomes}
    assert prefixes == set(SUITE_IDS) - {"all"}
    assert compare_with_expected([result]) == ()


def test_suite_json_shape_and_validation(capsys):
    with pytest.raises(ValueError, match="valid identifiers"):
        run_theorem_suite("vprs")
    with pytest.raises(ValueError, match="random_count"):
        run_theorem_suite("ri-cap", random_count=-3)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random-count", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a nonnegative integer" in err
    assert "Traceback" not in err
    result = run_theorem_suite("ri-cap", random_count=1)
    payload = suite_result_to_json(result)
    assert payload["suite"] == "ri-cap"
    assert payload["parameters"]["fixtures"] == "2"
    out = payload["outcomes"][0]
    assert out["clause"] == "lARI-cap"
    assert out["holds"] is False
    assert out["checked"] > 0
    ce = out["counterexamples"][0]
    assert set(ce) == {"fixture", "kappa", "alpha", "bindings"}
    assert all(isinstance(v, list) for v in ce["bindings"].values())


def test_suites_share_one_vprs_table_per_combination():
    """Every suite of ``all`` reads the same cached tables: 5 fixtures,
    2 measures and 4 precisions make 40 distinct tables."""
    approx._vprs_tables.cache_clear()
    run_theorem_suite("all", random_count=4)
    assert approx._vprs_tables.cache_info().misses == 40


def test_s0u_from_pu_refutes_a_changed_floor(monkeypatch):
    """The clause rebuilds the measure floor over every pair, so an s0u
    built to the wrong floor is caught."""
    monkeypatch.setitem(parthood._FLOOR_OF, "s0u", lambda alpha: 1 - alpha)
    result = run_theorem_suite("parthood", random_count=2)
    outcome = next(o for o in result.outcomes if o.clause == "s0u-from-pu")
    assert not outcome.holds
    assert outcome.counterexamples
