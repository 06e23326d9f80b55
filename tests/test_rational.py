from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    LOWER_MODES,
    ESet,
    Granulation,
    ParthoodRelation,
    Universe,
    build_parthood,
    check_rational_proposition,
    classical_lower,
    classical_upper,
    rational_lower,
    rational_upper,
    vprs_lower,
)
from conftest import operator_pairs, subsets_by_label

ALPHA = Fraction(3, 10)

SUBSTANTIAL_VALUES = {
    ("x4",): ("x4",),
    ("x1", "x2"): ("x1", "x2"),
    ("x1", "x2", "x3"): ("x1", "x2", "x3"),
    ("x1", "x2", "x3", "x4"): ("x1", "x2", "x3"),
}

EXHAUSTIVE_VALUES = {
    ("x4",): ("x4",),
    ("x1", "x2"): ("x1", "x2"),
    ("x1", "x4"): ("x4",),
    ("x2", "x4"): ("x4",),
    ("x3", "x4"): ("x4",),
    ("x1", "x2", "x3"): ("x1", "x2"),
    ("x1", "x2", "x4"): ("x1", "x2"),
    ("x2", "x3", "x4"): ("x4",),
    ("x1", "x3", "x4"): ("x4",),
    ("x1", "x2", "x3", "x4"): ("x1", "x2"),
}


@pytest.fixture(scope="module")
def setting(std):
    designated = (std.universe.subset(("x4",)),
                  std.universe.subset(("x1", "x2")))
    st_rel = build_parthood("st", std.universe, std.granulation,
                            tset=designated)

    def lower_op(x):
        return vprs_lower(x, std.granulation, None, ALPHA)

    return st_rel, lower_op


def test_substantial_mode_points(std, setting):
    st_rel, lower_op = setting
    for a in std.universe.subsets():
        res = rational_lower(a, lower_op, st_rel)
        assert res.defined and res.mode == "substantial"
        want = SUBSTANTIAL_VALUES.get(a.members)
        if want is None:
            assert res.trivial
            assert res.value == std.universe.empty
            assert res.notes == (
                "no substantial lower value; trivial fallback",)
        else:
            assert not res.trivial
            assert res.value.members == want
            assert res.witnesses == (("source", a),)


def test_exhaustive_mode_points(std, setting):
    st_rel, lower_op = setting
    for a in std.universe.subsets():
        res = rational_lower(a, lower_op, st_rel, mode="exhaustive")
        want = EXHAUSTIVE_VALUES.get(a.members)
        if want is None:
            assert res.trivial
        else:
            assert not res.trivial
            assert res.value.members == want
            source = dict(res.witnesses)["source"]
            assert source <= a
            assert lower_op(source) == res.value


def test_exhaustive_can_shrink_or_rescue(std, setting):
    st_rel, lower_op = setting
    s = subsets_by_label(std)
    tight = rational_lower(s["{x1,x2,x3}"], lower_op, st_rel)
    wide = rational_lower(s["{x1,x2,x3}"], lower_op, st_rel,
                          mode="exhaustive")
    assert tight.value.members == ("x1", "x2", "x3")
    assert wide.value.members == ("x1", "x2")
    dead = rational_lower(s["{x1,x4}"], lower_op, st_rel)
    alive = rational_lower(s["{x1,x4}"], lower_op, st_rel, mode="exhaustive")
    assert dead.trivial and not alive.trivial


def test_lower_mode_validation(std, setting):
    st_rel, lower_op = setting
    assert LOWER_MODES == ("substantial", "exhaustive")
    with pytest.raises(ValueError, match="valid modes"):
        rational_lower(std.universe.empty, lower_op, st_rel, mode="greedy")


def test_upper_worked_example(std):
    s = subsets_by_label(std)
    one = s["{x1}"]

    def up(x):
        return classical_upper(x, std.granulation)

    def lo(x):
        return classical_lower(x, std.granulation)

    strict = build_parthood("s6", std.universe, std.granulation, k=3)
    loose = build_parthood("s6", std.universe, std.granulation, k=0)
    blocked = rational_upper(one, up, lo, strict)
    assert not blocked.defined
    assert blocked.value is None
    assert blocked.notes == ("no operator image qualifies",)
    found = rational_upper(one, up, lo, loose)
    assert found.defined
    assert found.value == s["{x1,x2,x3}"]
    assert found.witnesses == (("candidate", s["{x1,x2,x3}"]),
                               ("preimage", s["{x1}"]))


@pytest.mark.parametrize("entry", [
    lambda x, op, rel: rational_lower(x, op, rel),
    lambda x, op, rel: rational_lower(x, op, rel, mode="exhaustive"),
    lambda x, op, rel: rational_upper(x, op, op, rel),
    lambda x, op, rel: check_rational_proposition(x.universe, op, rel,
                                                  upper=op),
], ids=["substantial", "exhaustive", "upper", "proposition"])
def test_a_relation_over_another_universe_is_refused(std, entry):
    # Same size, other names; the lower image is empty everywhere, so no
    # sweep ever reaches a pair of the relation.
    other = Universe(("y1", "y2", "y3", "y4"))
    rel = build_parthood("s3", other, Granulation.of(other, (("y1", "y2"),
                                                             ("y3", "y4"))))

    def empty(x):
        return x.universe.empty

    with pytest.raises(ValueError, match="different universe"):
        entry(std.universe.subset(("x1",)), empty, rel)


def test_proposition_reports(std, setting):
    st_rel, lower_op = setting
    reports = {r.name: r for r in check_rational_proposition(
        std.universe, lower_op, st_rel)}
    assert set(reports) == {"framework-hypothesis", "idempotent",
                            "lower-compatible", "s-monotone",
                            "lower-compatible-open"}
    hyp = reports["framework-hypothesis"]
    assert not hyp.holds
    params = dict(hyp.parameters)
    assert params["reflexive"] == "fails"
    assert params["lower-operator-laws"] == "fail"
    assert reports["idempotent"].holds
    assert reports["lower-compatible"].holds
    assert not reports["s-monotone"].holds
    assert reports["s-monotone"].witnesses
    open_rep = reports["lower-compatible-open"]
    assert not open_rep.holds
    gate = dict(open_rep.parameters)
    assert gate["hypothesis"] == "not-met"
    assert gate["status"].startswith("open question")


def test_proposition_lower_laws_hold_for_classical_lower(std, setting):
    st_rel, _ = setting

    def lo(x):
        return classical_lower(x, std.granulation)

    reports = {r.name: r for r in check_rational_proposition(
        std.universe, lo, st_rel)}
    params = dict(reports["framework-hypothesis"].parameters)
    assert params["lower-operator-laws"] == "hold"
    assert params["reflexive"] == "fails"
    assert not reports["framework-hypothesis"].holds


def test_proposition_reports_with_upper(std, setting):
    st_rel, lower_op = setting

    def up(x):
        return classical_upper(x, std.granulation)

    reports = {r.name: r for r in check_rational_proposition(
        std.universe, lower_op, st_rel, upper=up)}
    assert "upper-compatible" in reports and \
        "upper-compatible-open" in reports
    upc = reports["upper-compatible"]
    assert upc.holds
    covered = dict(upc.parameters)["defined-points"]
    defined, total = covered.split("/")
    assert int(total) == 16
    assert 0 < int(defined) <= 16


# Reports and exhaustive rational lower values of the s0u relation below,
# as the search produced them when it called the lower operator per
# candidate.
S0U_REPORTS = [
    ("framework-hypothesis", False, (),
     (("join-compatible", "fails"), ("l-euclidean", "fails"),
      ("mutual-rough-equal", "holds"), ("part-compatible", "fails"),
      ("r-euclidean", "fails"), ("reflexive", "holds"),
      ("lower-operator-laws", "hold"))),
    ("idempotent", True, (), (("hypothesis", "not-met"),)),
    ("lower-compatible", True, (), (("hypothesis", "not-met"),)),
    ("s-monotone", False,
     ((("a", ("e2", "e3", "e4")), ("b", ("e2", "e3", "e4", "e5", "e6"))),),
     (("hypothesis", "not-met"),)),
    ("lower-compatible-open", True, (),
     (("hypothesis", "not-met"),
      ("status", "open question; reported, not asserted"))),
]
S0U_EXHAUSTIVE_VALUES = [
    0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 14, 15,
    16, 16, 16, 19, 16, 16, 16, 19, 16, 16, 16, 19, 16, 16, 30, 31,
    0, 33, 0, 35, 0, 33, 0, 35, 0, 33, 0, 35, 0, 33, 14, 47,
    16, 49, 16, 51, 16, 49, 16, 51, 56, 57, 56, 59, 56, 57, 16, 63,
]


def test_exhaustive_proposition_reads_one_lower_table():
    u = Universe(tuple(f"e{i}" for i in range(1, 7)))
    g = Granulation.of(u, (("e1", "e2"), ("e2", "e3", "e4"), ("e5",),
                           ("e4", "e5", "e6"), ("e1", "e6")))
    relation = build_parthood("s0u", u, g, alpha=Fraction(1, 5))
    calls = 0

    def lower(x):
        nonlocal calls
        calls += 1
        return classical_lower(x, g)

    reports = check_rational_proposition(u, lower, relation,
                                         mode="exhaustive")
    assert calls <= 2 * 2 ** u.size
    assert [(r.name, r.holds, r.witnesses, r.parameters)
            for r in reports] == S0U_REPORTS
    values = [rational_lower(x, lower, relation, mode="exhaustive").value
              for x in u.subsets()]
    assert [v.mask for v in values] == S0U_EXHAUSTIVE_VALUES


# The two upper reports and rational upper values of the same s0u
# relation, as the search produced them when it rebuilt both image tables
# per subset.
S0U_UPPER_REPORTS = [
    ("upper-compatible", True, (),
     (("hypothesis", "not-met"), ("defined-points", "62/64"))),
    ("upper-compatible-open", False,
     ((("a", ("e4",)),), (("a", ("e3", "e4")),), (("a", ("e4", "e5")),)),
     (("hypothesis", "not-met"), ("defined-points", "62/64"),
      ("status", "open question; reported, not asserted"))),
]
S0U_UPPER_VALUES = [
    0, 35, 14, 35, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15,
    56, 57, 59, 59, None, 63, 63, 63, 56, 57, 59, 59, None, 63, 63, 63,
    56, 35, 35, 35, 47, 47, 47, 47, 56, 57, 47, 47, 47, 47, 47, 47,
    56, 57, 59, 59, 63, 63, 63, 63, 56, 57, 59, 59, 63, 63, 63, 63,
]


def test_upper_proposition_reads_one_table_per_operator():
    u = Universe(tuple(f"e{i}" for i in range(1, 7)))
    g = Granulation.of(u, (("e1", "e2"), ("e2", "e3", "e4"), ("e5",),
                           ("e4", "e5", "e6"), ("e1", "e6")))
    relation = build_parthood("s0u", u, g, alpha=Fraction(1, 5))
    calls = {"lower": 0, "upper": 0}

    def lower(x):
        calls["lower"] += 1
        return classical_lower(x, g)

    def upper(x):
        calls["upper"] += 1
        return classical_upper(x, g)

    for mode in LOWER_MODES:
        calls.update(lower=0, upper=0)
        reports = check_rational_proposition(u, lower, relation,
                                             upper=upper, mode=mode)
        assert calls["lower"] <= 2 * 2 ** u.size, mode
        assert calls["upper"] <= 2 * 2 ** u.size, mode
        assert [(r.name, r.holds, r.witnesses, r.parameters)
                for r in reports] == S0U_REPORTS + S0U_UPPER_REPORTS
    values = [rational_upper(x, upper, lower, relation).value
              for x in u.subsets()]
    assert [None if v is None else v.mask for v in values] \
        == S0U_UPPER_VALUES


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.sampled_from(LOWER_MODES), st.data())
def test_sweep_reports_keep_the_first_failures_of_a_plain_sweep(
        pair, mode, data):
    u, _, lo, up = pair
    masks = range(u.full_mask + 1)
    rows = data.draw(st.lists(st.integers(0, 2 ** len(masks) - 1),
                              min_size=len(masks), max_size=len(masks)))
    relation = ParthoodRelation("custom", u, tuple(rows))
    sets = [ESet(u, m) for m in masks]

    def lower(x):
        return sets[lo[x.mask]]

    def upper(x):
        return sets[up[x.mask]]

    def ps(a, b):
        return rows[a] >> b & 1

    def w(**named):
        return tuple((k, sets[m].members) for k, m in named.items())

    rl = [rational_lower(x, lower, relation, mode=mode).value.mask
          for x in sets]
    ru = [rational_upper(x, upper, lower, relation).value for x in sets]
    defined = [(m, v.mask) for m, v in zip(masks, ru) if v is not None]
    plain = {
        "idempotent": [w(a=m) for m in masks if rl[rl[m]] != rl[m]],
        "lower-compatible": [w(a=m) for m in masks if rl[m] & ~lo[m]],
        "s-monotone": [w(a=a, b=b) for b in masks for a in masks
                       if a & ~b == 0 and not ps(rl[a], rl[b])][:1],
        "lower-compatible-open": [w(a=m) for m in masks
                                  if not ps(rl[m], lo[m])],
        "upper-compatible": [w(a=m) for m, v in defined if v & ~up[m]],
        "upper-compatible-open": [w(a=m) for m, v in defined
                                  if not ps(v, up[m])],
    }
    reports = check_rational_proposition(u, lower, relation, upper=upper,
                                         mode=mode)
    assert [r.name for r in reports] == ["framework-hypothesis", *plain]
    for r in reports[1:]:
        fails = plain[r.name]
        assert r.holds == (not fails), r.name
        assert r.witnesses == tuple(fails[:3]), r.name


def plain_lower(a, lower, relation, mode):
    """The rational lower value of ``a`` by the docstring's definition,
    with ``relation.holds`` and ``ESet`` inclusion."""
    u = a.universe
    if mode == "substantial":
        v = lower(a)
        if not v.is_empty and relation.holds(v, a):
            return (v, (("source", a),), False, ())
        return (u.empty, (), True,
                ("no substantial lower value; trivial fallback",))
    definites = [e for e in u.subsets() if not e.is_empty and lower(e) == e]
    qualifying = [c for c in u.subsets() if c <= a and all(
        relation.holds(e, a) for e in definites if e <= c)]
    best = max(qualifying, key=lambda c: lower(c).cardinality)
    if lower(best).is_empty:
        return (u.empty, (), True,
                ("no substantial candidate; trivial fallback",))
    return (lower(best), (("source", best),), False, ())


def plain_upper(a, upper, lower, relation):
    """The rational upper value of ``a`` by the docstring's definition."""
    u = a.universe
    definites = [e for e in u.subsets() if not e.is_empty and lower(e) == e]
    images = {}
    for z in u.subsets():
        images.setdefault(upper(z), z)
    qualifying = [b for b in sorted(images, key=lambda b: (b.cardinality,
                                                           b.mask))
                  if a <= b and b <= upper(a)
                  and all(relation.holds(e, b) for e in definites if e <= b)]
    if not qualifying:
        return (None, (), False, ("no operator image qualifies",))
    b = qualifying[0]
    notes = ((f"{len(qualifying) - 1} larger candidate(s) also qualify",)
             if len(qualifying) > 1 else ())
    return (b, (("candidate", b), ("preimage", images[b])), False, notes)


def assert_plain_values(u, lo, up, rows, mode):
    relation = ParthoodRelation("custom", u, tuple(rows))
    sets = list(u.subsets())

    def lower(x):
        return sets[lo[x.mask]]

    def upper(x):
        return sets[up[x.mask]]

    def got(res):
        return (res.value, res.witnesses, res.trivial, res.notes)

    for x in sets:
        assert got(rational_lower(x, lower, relation, mode=mode)) \
            == plain_lower(x, lower, relation, mode), x
        assert got(rational_upper(x, upper, lower, relation)) \
            == plain_upper(x, upper, lower, relation), x


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.sampled_from(LOWER_MODES), st.data())
def test_searches_match_a_plain_loop_over_the_definitions(pair, mode, data):
    u, _, lo, up = pair
    n = u.full_mask + 1
    rows = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n,
                              max_size=n))
    assert_plain_values(u, lo, up, rows, mode)


def test_searches_match_a_plain_loop_where_size_and_mask_order_differ():
    # Random tables rarely make two upper candidates whose size order and
    # mask order disagree; here {e2} and {e0,e1} both qualify at {}.
    u = Universe(("e0", "e1", "e2"))
    assert_plain_values(u, [0] * 8, [7, 3, 4, 7, 4, 3, 3, 7], [0] * 8,
                        "exhaustive")
