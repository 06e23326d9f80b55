from __future__ import annotations

import inspect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    ClauseOutcome,
    ESet,
    Fixture,
    SUITE_IDS,
    SuiteResult,
    TABLE_IDS,
    Universe,
    battery,
    classical_lower,
    classical_upper,
    compare_with_expected,
    diff_tables,
    eval_bgrif,
    fixture_from_table,
    load_expected_outcomes,
    load_reference_table,
    random_granulation,
    run_theorem_suite,
    standard_fixture,
    suite_result_to_json,
    vprs_tables,
)
from roughpart import approx, inclusion, parthood, verify
from roughpart.cli import main
from roughpart.verify import Counterexample, _Eval, _merge
from conftest import measures, precisions, small_fixtures


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
    2 measures and 4 precisions make 40 distinct tables. They are cut
    from one threshold-free rank table per (fixture, measure), 10 in
    all, whatever the precision."""
    approx._vprs_tables.cache_clear()
    inclusion._granule_ranks.cache_clear()
    run_theorem_suite("all", random_count=4)
    assert approx._vprs_tables.cache_info().misses == 40
    assert inclusion._granule_ranks.cache_info().misses == 10


def test_suites_share_one_rank_table_per_measure_and_size():
    """Every measure test of ``all`` reads one rank table per (measure,
    universe size): K0 on sizes 1 to 6 (the RV and RI sweeps), K1 and K2
    on 3 to 5 (prif), Kst(1/5,4/5) on 3 to 6 and Kst(1/5,1) on 5 make 17
    tables. Every cache that holds results read off the tables starts
    empty, so each table is asked for.

    The measure floors of s0u read one floor table per (measure, size,
    rank cut): the four precisions fall into 2 to 4 cuts for each of K0
    and Kst(1/5,4/5) on sizes 3 to 6, 22 tables, and the s0l claim on
    the standard fixture (K0 at 7/10 on four elements) adds one."""
    for cached in (inclusion._rank_table, approx._vprs_tables,
                   verify._kappa_from_tag, verify._class_tags,
                   verify._ri_gate, inclusion._floor_rows):
        cached.cache_clear()
    run_theorem_suite("all", random_count=4)
    assert inclusion._rank_table.cache_info().misses == 17
    assert inclusion._floor_rows.cache_info().misses == 23


def test_s0u_from_pu_refutes_a_changed_floor(monkeypatch):
    """The clause rebuilds the measure floor over every pair, so an s0u
    built to the wrong floor is caught."""
    monkeypatch.setitem(parthood._FLOOR_OF, "s0u", lambda alpha: 1 - alpha)
    result = run_theorem_suite("parthood", random_count=2)
    outcome = next(o for o in result.outcomes if o.clause == "s0u-from-pu")
    assert not outcome.holds
    assert outcome.counterexamples


def test_s6_equals_s3_refutes_a_changed_venn_test(monkeypatch):
    """s3 comes from a Venn-count test and s6 from the superset rows, so
    an s3 test that no longer asks a to lie inside b is caught."""
    monkeypatch.setitem(parthood._VENN_OF, "s3",
                        lambda k: lambda p, i, y: i > k)
    result = run_theorem_suite("parthood", random_count=2)
    outcome = next(o for o in result.outcomes if o.clause == "s6-equals-s3")
    assert not outcome.holds
    assert outcome.counterexamples


def _plain_lower_cmo(lo, full):
    pairs = [(a, b) for a in range(full + 1) for b in range(full + 1)
             if lo[a] & ~b == 0 and b & ~a == 0]
    return len(pairs), [{"a": a, "b": b} for a, b in pairs
                        if lo[a] & ~lo[b]]


def _plain_upper_cmo(up, full):
    pairs = [(a, b) for a in range(full + 1) for b in range(full + 1)
             if a & ~b == 0 and b & ~up[a] == 0]
    return len(pairs), [{"a": a, "b": b} for a, b in pairs
                        if up[a] & ~up[b]]


def _plain_cap_closure(lo, full):
    pairs = [(a, b) for a in range(full + 1) for b in range(a, full + 1)]
    return len(pairs), [{"a": a, "b": b} for a, b in pairs
                        if lo[a] & lo[b] & ~lo[a & b]]


def _plain_grif(fixture):
    """Every clause of the grif check as (checked, every counterexample,
    gates), from nested loops over the public evaluation route."""
    universe = fixture.universe
    full = universe.full_mask
    lo_op = lambda s: classical_lower(s, fixture.granulation)
    up_op = lambda s: classical_upper(s, fixture.granulation)
    img = {side: [op(ESet(universe, m)).mask for m in range(full + 1)]
           for side, op in (("l", lo_op), ("u", up_op))}
    cl, cu = img["l"], img["u"]
    clauses = ("ulu2", "llu2", "mo", "refl", "bot", "top",
               "route-agreement")
    checked = dict.fromkeys(clauses, 0)
    ces = {c: [] for c in clauses}

    def ce(clause, extra=(), **named):
        ces[clause].append(Counterexample(fixture.name, "nu", "", tuple(
            (k, ESet(universe, m).members) for k, m in named.items())
            + extra))

    def bg(a, b, sigma, pi):
        return eval_bgrif(ESet(universe, a), ESet(universe, b), sigma, pi,
                          lo_op, up_op)

    forms = [(sigma, pi) for sigma in "lu" for pi in "lu"]
    for a in range(full + 1):
        for b in range(full + 1):
            checked["ulu2"] += 1
            checked["llu2"] += 1
            if (cu[a] & cl[b]).bit_count() > (cu[a] & cu[b]).bit_count():
                ce("ulu2", a=a, b=b)
            if (cl[a] & cl[b]).bit_count() > (cl[a] & cu[b]).bit_count():
                ce("llu2", a=a, b=b)
    for side in "lu":
        for e in range(full + 1):
            for b in range(full + 1):
                if b & ~e == 0:
                    checked["mo"] += 1
                    if img[side][b] & ~img[side][e]:
                        ce("mo", b=b, e=e, extra=(("side", (side,)),))
    top_definite = cl[full] == full and cu[full] == full
    for m in range(full + 1):
        checked["refl"] += 1
        if bg(m, m, "l", "l") != 1 or bg(m, m, "u", "u") != 1 \
                or bg(m, m, "l", "u") > 1:
            ce("refl", a=m)
        for sigma, pi in forms:
            checked["bot"] += 1
            if bg(0, m, sigma, pi) != 1:
                ce("bot", b=m, extra=(("form", (sigma + pi,)),))
            if top_definite:
                checked["top"] += 1
                if bg(m, full, sigma, pi) != 1:
                    ce("top", a=m, extra=(("form", (sigma + pi,)),))
    sample = range(min(full + 1, 16))
    for a in sample:
        for b in sample:
            for sigma, pi in forms:
                checked["route-agreement"] += 1
                fa, fb = img[sigma][a], img[pi][b]
                via = Fraction(1) if fa == 0 else \
                    Fraction((fa & fb).bit_count(), fa.bit_count())
                if bg(a, b, sigma, pi) != via:
                    ce("route-agreement", a=a, b=b,
                       extra=(("form", (sigma + pi,)),))
    gate = (("top-definite", "yes" if top_definite else
             "no: top clause skipped"),)
    return {c: (checked[c], ces[c], gate if c == "top" else ())
            for c in clauses}


@settings(max_examples=40, deadline=None)
@given(small_fixtures(), measures(), precisions)
def test_sweeps_count_and_fail_like_plain_loops(fx, kappa, alpha):
    universe, g, _ = fx
    full = universe.full_mask
    tables = vprs_tables(g, kappa, alpha)
    for table in (tables.lower, tables.upper, tables.star_lower,
                  tables.star_upper):
        for sweep, plain in ((verify._lower_cmo, _plain_lower_cmo),
                             (verify._upper_cmo, _plain_upper_cmo),
                             (verify._cap_closure, _plain_cap_closure)):
            checked, fails = sweep(table, full)
            want_checked, want = plain(table, full)
            assert checked == want_checked, sweep.__name__
            assert list(itertools.islice(fails, 5)) == want[:5]
    fixture = Fixture("f", universe, g)
    want = _plain_grif(fixture)
    evals = verify._grif_check(fixture)
    assert [ev.clause for ev in evals] == list(want)
    for ev in evals:
        checked, ces, gates = want[ev.clause]
        assert ev.checked == checked, ev.clause
        assert list(itertools.islice(ev.ces, 5)) == ces[:5], ev.clause
        assert ev.gates == gates


def _route_agreement():
    (outcome,) = [o for o in run_theorem_suite("grif").outcomes
                  if o.clause == "route-agreement"]
    return outcome


def test_route_agreement_calls_the_public_route_on_every_sample(
        monkeypatch):
    """route-agreement evaluates 4·min(2^n, 16)² sampled (a, b, form)
    triples per fixture, each through the public route."""
    calls = []
    real = verify.eval_bgrif

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "eval_bgrif", counting)
    total = 0
    for fixture in battery():
        calls.clear()
        (ev,) = [ev for ev in verify._grif_check(fixture)
                 if ev.clause == "route-agreement"]
        assert list(ev.ces) == []
        want = 4 * min(fixture.universe.full_mask + 1, 16) ** 2
        assert len(calls) == ev.checked == want, fixture.name
        total += want
    assert total == 42240


def test_route_agreement_refutes_a_wrong_public_route(monkeypatch):
    """A public route off by 1/7 at one sampled pair, or giving 0 on an
    empty sigma-image, refutes route-agreement with that pair first."""
    real = verify.eval_bgrif

    def off_by_a_seventh(a, b, sigma, pi, lower, upper):
        value = real(a, b, sigma, pi, lower, upper)
        hit = a.universe.size == 5 and (a.mask, b.mask, sigma + pi) \
            == (6, 11, "ul")
        return value + Fraction(1, 7) if hit else value

    monkeypatch.setattr(verify, "eval_bgrif", off_by_a_seventh)
    outcome = _route_agreement()
    u5 = Universe(("e1", "e2", "e3", "e4", "e5"))
    assert not outcome.holds
    # The first fixture on five elements is the battery's third.
    assert outcome.counterexamples[0] == Counterexample(
        "rnd-002-n5", "nu", "", (("a", ESet(u5, 6).members),
                                 ("b", ESet(u5, 11).members),
                                 ("form", ("ul",))))

    empty = []

    def zero_on_empty(a, b, sigma, pi, lower, upper):
        if (lower if sigma == "l" else upper)(a).is_empty:
            empty.append((a, b, sigma + pi))
            return Fraction(0)
        return real(a, b, sigma, pi, lower, upper)

    monkeypatch.setattr(verify, "eval_bgrif", zero_on_empty)
    outcome = _route_agreement()
    a, b, form = empty[0]
    assert not outcome.holds
    assert outcome.counterexamples[0] == Counterexample(
        "standard", "nu", "", (("a", a.members), ("b", b.members),
                               ("form", (form,))))


def test_merge_takes_five_counterexamples_and_starts_no_later_check():
    ce = Counterexample("f", "K0", "1/5", (("a", ("e1",)),))

    def never_started():
        raise AssertionError("a full clause started a later check")
        yield

    (outcome,) = _merge([_Eval("c", 1, itertools.repeat(ce)),
                         _Eval("c", 2, never_started())])
    assert outcome.counterexamples == (ce,) * 5
    assert outcome.checked == 3
    assert not outcome.holds
