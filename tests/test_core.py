from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    CapExceeded,
    ESet,
    Granulation,
    RelationSpec,
    Universe,
    build_neighborhood_granulation,
    check_admissibility,
    check_axiom,
    check_ggs_axioms,
    classical_lower,
    classical_upper,
    evaluate_axiom_instance,
    iter_submasks,
    kappa_k0,
    kappa_st,
    neighborhood_map,
    vprs_lower,
    vprs_upper,
)
from roughpart.approx import require_alpha
from roughpart.core import _exact, _parent, _swap, _swaps, venn_rows
from conftest import operator_pairs

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

    reports = check_ggs_axioms(std.universe, lo, up)
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

    reports = check_ggs_axioms(std.universe, lo, up)
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


def test_admissibility_refuses_a_granulation_of_another_universe():
    u = Universe(("x1", "x2"))
    foreign = Universe(("y1", "y2"))
    g = Granulation.of(foreign, [["y1"], ["y2"]])

    def op(x):
        return x

    with pytest.raises(ValueError, match="different universe"):
        check_admissibility(u, g, op, op)


def test_ul2_fails_for_precision_thresholded_operators(std):
    g = std.granulation

    def lo(x):
        return vprs_lower(x, g, None, "3/10")

    def up(x):
        return vprs_upper(x, g, None, "3/10")

    reports = {r.name: r for r in check_ggs_axioms(std.universe, lo, up)}
    assert not reports["UL2"].holds
    assert reports["UL2"].witnesses


def _plain_failures(u, g, lo, up):
    """Every failing instance of each swept structural condition, in
    sweep order, from plain loops over the whole powerset."""
    masks = range(u.full_mask + 1)
    full = u.full_mask

    def w(**named):
        return tuple((k, ESet(u, m).members) for k, m in named.items())

    def union_inside(v):
        out = 0
        for h in g.masks:
            if h & ~v == 0:
                out |= h
        return out

    weak = []
    for a in masks:
        for tag, v in (("lower", lo[a]), ("upper", up[a])):
            if union_inside(v) != v:
                weak.append(w(a=a) + (("operator", (tag,)),) + w(value=v))
    definite = [z for z in masks if lo[z] == z and up[z] == z]
    return {
        "UL1": [w(a=a) for a in masks if lo[a] & ~a
                or lo[lo[a]] != lo[a] or up[a] & ~up[up[a]]],
        "UL2": [w(a=a, b=b) for b in masks for a in masks
                if a & ~b == 0 and (lo[a] & ~lo[b] or up[a] & ~up[b])],
        "UL3": [w(bottom=0, top=full)] if lo[0] or up[0] else [],
        "weak-representability": weak,
        "lower-stability": [w(granule=h, a=a) for h in g.masks
                            for a in masks if h & ~a == 0 and h & ~lo[a]],
        "mereological-fullness": [
            w(granule1=h, granule2=k) for h in g.masks for k in g.masks
            if not [z for z in definite
                    if (h | k) & ~z == 0 and z not in (h, k)]],
    }


@settings(max_examples=60, deadline=None)
@given(operator_pairs())
def test_reports_keep_the_first_failures_of_a_plain_sweep(pair):
    u, g, lo, up = pair

    def lower(x):
        return ESet(u, lo[x.mask])

    def upper(x):
        return ESet(u, up[x.mask])

    plain = _plain_failures(u, g, lo, up)
    reports = check_ggs_axioms(u, lower, upper) \
        + check_admissibility(u, g, lower, upper)
    for r in reports:
        fails = plain.get(r.name, [])
        assert r.holds == (not fails), r.name
        assert r.witnesses == tuple(fails[:3]), r.name


U1 = Universe(("e1",))


@pytest.mark.parametrize("call", [
    require_alpha,
    lambda x: kappa_st(x, "4/5"),
    lambda x: check_axiom(kappa_k0(), "RV", U1, delta=x),
    lambda x: evaluate_axiom_instance(
        kappa_k0(), "RV", dict.fromkeys("abc", U1.full), delta=x),
], ids=["require_alpha", "kappa_st", "check_axiom", "evaluate_instance"])
def test_thresholds_are_exact(call):
    """A float holds only the nearest binary value of 1/5, which moves
    pairs across a threshold, so every threshold entry point refuses it."""
    for good in ("1/5", Fraction(1, 5), 0):
        call(good)
    for bad in (0.2, True, "fifth", "1/0"):
        with pytest.raises(ValueError, match="expected a fraction string"):
            call(bad)


def test_an_exact_threshold_is_returned_as_it_is():
    """A Fraction needs no rebuilding; every other accepted form is
    rebuilt as an equal Fraction."""
    fifth = Fraction(1, 5)
    assert _exact(fifth) is fifth
    assert _exact("1/5") == fifth and type(_exact(3)) is Fraction



_RANDOM_COUNTS = random.Random(5)
_VENN_TABLE = {(p, i, y): _RANDOM_COUNTS.random() < 0.5
               for p in range(9) for i in range(9) for y in range(9)}


@pytest.mark.parametrize("test", [
    lambda p, i, y: i == p,
    lambda p, i, y: y > 0 or i == p,
    lambda p, i, y: i > 2 * y,
    lambda p, i, y: (p + 2 * i + 3 * y) % 4 == 1,
    lambda p, i, y: _VENN_TABLE[p, i, y],
], ids=["inside", "not-proper-subset", "meet-outweighs", "mod-4", "table"])
def test_venn_rows_match_a_plain_double_loop(test):
    """Bit b of row a is set exactly when the test holds at (|a|, |a∩b|,
    |b∖a|), for every pair of every universe of up to eight elements."""
    for size in range(9):
        masks = range(1 << size)
        assert venn_rows(size, test) == tuple(
            sum(1 << bm for bm in masks
                if test(am.bit_count(), (am & bm).bit_count(),
                        (bm & ~am).bit_count()))
            for am in masks), size


def test_venn_rows_ask_each_count_triple_once():
    """The kernel reads the test once per count triple that fits the
    universe, never per pair or per row."""
    for size in range(9):
        asked = []
        venn_rows(size, lambda p, i, y: asked.append((p, i, y)) or i == p)
        assert len(asked) == len(set(asked)), size
        assert all(0 <= i <= p <= size and 0 <= y <= size - p
                   for p, i, y in asked), size


_NINE_RANDOM = random.Random(9)
_NINE_TABLE = {(p, i, y): _NINE_RANDOM.random() < 0.5
               for p in range(10) for i in range(10) for y in range(10)}


def _plain_row(size, test, am):
    return sum(1 << bm for bm in range(1 << size)
               if test(am.bit_count(), (am & bm).bit_count(),
                       (bm & ~am).bit_count()))


@pytest.mark.parametrize("test", [
    lambda p, i, y: i == p,
    lambda p, i, y: _NINE_TABLE[p, i, y],
], ids=["inside", "table"])
def test_venn_rows_match_a_plain_double_loop_on_nine_elements(test):
    """The plain double loop of the test above at n = 9, where all but
    ten rows come from a parent's row by a swap."""
    assert venn_rows(9, test) == tuple(_plain_row(9, test, am)
                                       for am in range(1 << 9))


def test_transposition_parents_swap_plain_rows():
    """Every mask that is not a prefix {0..p-1} has a parent of the same
    size and a smaller mask, and one delta swap over the two elements
    exchanged takes the parent's plain-loop row to the mask's own."""
    def test(p, i, y):
        return _VENN_TABLE[p, i, y]

    for size in range(9):
        swaps = _swaps(size)
        for am in range(1 << size):
            if am & (am + 1) == 0:
                continue
            parent, i, j = _parent(am)
            assert parent.bit_count() == am.bit_count(), (size, am)
            assert parent < am and i < j, (size, am)
            assert _swap(_plain_row(size, test, parent), i, j, swaps) \
                == _plain_row(size, test, am), (size, am)
