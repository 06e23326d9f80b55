from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from roughpart import (
    CapExceeded,
    ESet,
    Granulation,
    RelationSpec,
    Universe,
    build_neighborhood_granulation,
    check_admissibility,
    check_ggs_axioms,
    classical_lower,
    classical_upper,
    iter_submasks,
    neighborhood_map,
    vprs_lower,
    vprs_upper,
)

U6 = Universe(("a", "b", "c", "d", "e", "f"))

masks6 = st.integers(min_value=0, max_value=U6.full_mask)


def members_of(mask: int) -> set[str]:
    return set(ESet(U6, mask).members)


def test_universe_of_sorts_and_rejects_duplicates():
    u = Universe.of(["b", "a", "c"])
    assert u.elements == ("a", "b", "c")
    with pytest.raises(ValueError):
        Universe(("a", "a"))


def test_universe_subset_and_index():
    u = Universe(("x1", "x2", "x3"))
    s = u.subset(("x3", "x1"))
    assert s.members == ("x1", "x3")
    assert s.mask == 0b101
    assert u.index("x2") == 1
    with pytest.raises(ValueError):
        u.subset(("zz",))


def test_eset_label_formats():
    u = Universe(("x1", "x2"))
    assert u.empty.label() == "{}"
    assert u.full.label() == "{x1,x2}"


@given(masks6, masks6)
def test_eset_boolean_algebra_matches_set_semantics(am, bm):
    a, b = ESet(U6, am), ESet(U6, bm)
    assert members_of((a & b).mask) == members_of(am) & members_of(bm)
    assert members_of((a | b).mask) == members_of(am) | members_of(bm)
    assert members_of((a - b).mask) == members_of(am) - members_of(bm)
    assert members_of(a.complement().mask) == set(U6.elements) - members_of(am)
    assert (a <= b) == (members_of(am) <= members_of(bm))
    assert (a < b) == (members_of(am) < members_of(bm))
    assert a.cardinality == len(members_of(am))


def test_inclusion_is_partial_not_total():
    u = Universe(("x1", "x2", "x3", "x4"))
    a = u.subset(("x1", "x2"))
    b = u.subset(("x2", "x3"))
    assert not a <= b
    assert not b <= a


def test_iter_submasks_enumerates_all_subsets_starting_empty():
    got = list(iter_submasks(0b1010))
    assert got[0] == 0
    assert sorted(got) == [0, 0b0010, 0b1000, 0b1010]
    assert list(iter_submasks(0)) == [0]


def test_granulation_rejects_empty_and_duplicate_granules():
    u = Universe(("x1", "x2"))
    with pytest.raises(ValueError):
        Granulation(u, (u.empty,))
    g1 = u.subset(("x1",))
    with pytest.raises(ValueError):
        Granulation(u, (g1, g1))


def test_granulation_of_drops_empties_and_dedupes():
    u = Universe(("x1", "x2"))
    g = Granulation.of(u, [("x1",), (), ("x1",), ("x2",)])
    assert g.masks == (0b01, 0b10)
    assert g.covers


def test_tolerance_closure_contains_reflexive_and_symmetric_pairs():
    u = Universe(("x1", "x2", "x3"))
    rel = RelationSpec((("x1", "x2"),), "tolerance")
    closed = rel.closed_pairs(u)
    assert (0, 0) in closed and (1, 1) in closed and (2, 2) in closed
    assert (0, 1) in closed and (1, 0) in closed
    assert (0, 2) not in closed


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
       st.sampled_from(("reflexive", "symmetric", "tolerance", "equivalence")))
def test_closures_are_idempotent(pairs, closure):
    u = Universe(("p", "q", "r", "s", "t"))
    names = u.elements
    named = tuple((names[i], names[j]) for i, j in pairs)
    first = RelationSpec(named, closure).closed_pairs(u)
    back = tuple((names[i], names[j]) for i, j in first)
    assert RelationSpec(back, closure).closed_pairs(u) == first


def test_predecessor_neighborhoods_on_the_worked_relation(std):
    expected = {
        "x1": ("x1", "x2"),
        "x2": ("x1", "x2", "x3"),
        "x3": ("x2", "x3"),
        "x4": ("x4",),
    }
    assert {name: n.members for name, n in std.neighborhoods} == expected
    assert std.granulation.masks == (0b0011, 0b0111, 0b0110, 0b1000)


def test_successor_and_predecessor_differ_without_symmetry():
    u = Universe(("x1", "x2"))
    rel = RelationSpec((("x1", "x2"),), "none")
    pred = dict(neighborhood_map(u, rel, "predecessor"))
    succ = dict(neighborhood_map(u, rel, "successor"))
    assert pred["x2"].members == ("x1",)
    assert pred["x1"].members == ()
    assert succ["x1"].members == ("x2",)
    assert succ["x2"].members == ()


def test_neighborhood_granulation_drops_empty_neighborhoods():
    u = Universe(("x1", "x2"))
    rel = RelationSpec((("x1", "x2"),), "none")
    g = build_neighborhood_granulation(u, rel, "predecessor")
    assert g.masks == (0b01,)
    assert not g.covers


def test_subsets_cap_guard():
    with pytest.raises(CapExceeded):
        next(Universe(tuple(f"x{i}" for i in range(25))).subsets())
    assert next(Universe(tuple(f"x{i}" for i in range(24))).subsets()).is_empty


def test_ggs_axioms_all_hold_for_classical_operators(std):
    g = std.granulation

    def lo(x):
        return classical_lower(x, g)

    def up(x):
        return classical_upper(x, g)

    reports = check_ggs_axioms(std.universe, g, lo, up)
    assert [r.name for r in reports] == [
        "PT1", "PT2", "G1", "G2", "G3", "G4", "G5",
        "UL1", "UL2", "UL3", "TB"]
    assert all(r.holds for r in reports)


def test_ggs_axioms_report_failing_operator_axioms(std):
    g = std.granulation

    def lo(x):
        return classical_upper(x, g)

    def up(x):
        return x.universe.full

    reports = check_ggs_axioms(std.universe, g, lo, up)
    assert [r.name for r in reports] == [
        "PT1", "PT2", "G1", "G2", "G3", "G4", "G5",
        "UL1", "UL2", "UL3", "TB"]
    failing = {r.name for r in reports if not r.holds}
    assert failing == {"UL1", "UL3"}
    by_name = {r.name: r for r in reports}
    for w in by_name["UL1"].witnesses:
        a = std.universe.subset(dict(w)["a"])
        assert not lo(a) <= a
    assert by_name["UL3"].witness_dicts() == [
        {"bottom": (), "top": ("x1", "x2", "x3", "x4")}]


def test_admissibility_holds_for_classical_operators(std):
    g = std.granulation

    def lo(x):
        return classical_lower(x, g)

    def up(x):
        return classical_upper(x, g)

    reports = check_admissibility(std.universe, g, lo, up)
    assert [r.name for r in reports] == [
        "weak-representability", "lower-stability", "mereological-fullness"]
    assert all(r.holds for r in reports)


def test_ul2_fails_for_precision_thresholded_operators(std):
    g = std.granulation

    def lo(x):
        return vprs_lower(x, g, None, "3/10")

    def up(x):
        return vprs_upper(x, g, None, "3/10")

    reports = {r.name: r for r in check_ggs_axioms(std.universe, g, lo, up)}
    assert not reports["UL2"].holds
    assert reports["UL2"].witnesses
