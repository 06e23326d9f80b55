from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    ApproxSpec,
    ESet,
    Granulation,
    OPERATOR_IDS,
    Universe,
    bited_upper,
    classical_lower,
    classical_upper,
    graded_lower,
    graded_lower_strict,
    graded_regions,
    graded_upper,
    kappa_k0,
    pointwise_lower,
    pointwise_upper,
    vprs_lower,
    vprs_negative,
    vprs_regions,
    vprs_star_lower,
    vprs_star_upper,
    vprs_tables,
    vprs_upper,
)
from roughpart.approx import require_alpha, require_grade
from conftest import measures, precisions, small_fixtures, subsets_by_label

ALPHA = Fraction(3, 10)


def test_classical_operators_on_the_worked_rows(std):
    s = subsets_by_label(std)
    g = std.granulation
    assert classical_lower(s["{x1,x2,x3,x4}"], g) == s["{x1,x2,x3,x4}"]
    assert classical_lower(s["{x2,x3,x4}"], g) == s["{x2,x3,x4}"]
    assert classical_lower(s["{x1}"], g) == s["{}"]
    assert classical_upper(s["{x1}"], g) == s["{x1,x2,x3}"]
    assert bited_upper(s["{x1}"], g) == s["{x1}"]
    assert bited_upper(s["{x2}"], g) == s["{x1,x2,x3}"]


def test_precision_lower_keeps_only_well_shared_granules(std):
    s = subsets_by_label(std)
    g = std.granulation
    assert vprs_lower(s["{x1,x2,x3,x4}"], g, None, ALPHA) == s["{x1,x2,x3}"]
    assert vprs_lower(s["{x2,x3,x4}"], g, None, ALPHA) == s["{}"]
    assert vprs_lower(s["{x1,x2,x4}"], g, None, ALPHA) == s["{}"]
    assert vprs_upper(s["{x1}"], g, None, ALPHA) == s["{x1,x2,x3}"]
    assert vprs_negative(s["{x1,x2,x3,x4}"], g, None, ALPHA) == s["{x4}"]


def test_region_decompositions(std):
    s = subsets_by_label(std)
    g = std.granulation
    regions = vprs_regions(s["{x1,x2}"], g, None, ALPHA)
    assert regions.lower == s["{x1,x2}"]
    assert regions.upper == s["{x1,x2,x3}"]
    assert regions.positive == s["{x1,x2}"]
    assert regions.negative == s["{}"]
    assert regions.boundary == s["{x3}"]
    graded = graded_regions(s["{x1,x2}"], g, 1)
    assert graded.positive == s["{x1,x2,x3}"]
    assert graded.negative == s["{}"]
    assert graded.boundary_upper == s["{}"]
    assert graded.boundary_lower == s["{x4}"]


def test_star_forms_ignore_containment_clauses(std):
    s = subsets_by_label(std)
    g = std.granulation
    assert vprs_star_lower(s["{}"], g, None, ALPHA) == s["{x1,x2,x3,x4}"]
    assert vprs_star_upper(s["{}"], g, None, ALPHA) == s["{x1,x2,x3,x4}"]
    assert vprs_star_lower(s["{x1,x3}"], g, None, ALPHA) == s["{x1,x2,x3}"]
    assert vprs_star_upper(s["{x1,x4}"], g, None, ALPHA) \
        == s["{x1,x2,x3,x4}"]


def test_pointwise_operators_use_neighborhoods(std):
    s = subsets_by_label(std)
    kappa = kappa_k0()
    a = s["{x1,x2}"]
    assert pointwise_lower(a, std.neighborhoods, kappa, ALPHA) == s["{x1,x2}"]
    assert pointwise_upper(a, std.neighborhoods, kappa, ALPHA) \
        == s["{x1,x2,x3}"]


def test_pointwise_operators_demand_exact_coverage(std):
    s = subsets_by_label(std)
    partial = std.neighborhoods[:2]
    with pytest.raises(ValueError):
        pointwise_lower(s["{x1}"], partial, kappa_k0(), ALPHA)


def test_neighborhood_map_refuses_a_repeated_name():
    u = Universe(("x1", "x2"))
    g = Granulation.of(u, [["x1"], ["x2"]])
    twice = (("x1", u.subset(("x1",))), ("x1", u.subset(("x2",))),
             ("x2", u.subset(("x2",))))
    with pytest.raises(ValueError, match="twice"):
        pointwise_lower(u.subset(("x2",)), twice, kappa_k0(), 0)
    with pytest.raises(ValueError, match="twice"):
        pointwise_upper(u.subset(("x2",)), twice, kappa_k0(), 0)
    with pytest.raises(ValueError, match="twice"):
        ApproxSpec(g, None, 0, 0, twice)


GRANULE_OPERATORS = (
    classical_lower, classical_upper, bited_upper,
    vprs_lower, vprs_upper, vprs_negative, vprs_star_lower, vprs_star_upper,
)
GRADED_OPERATORS = (graded_upper, graded_lower, graded_lower_strict)


@pytest.mark.parametrize("op", GRANULE_OPERATORS + GRADED_OPERATORS,
                         ids=lambda op: op.__name__)
def test_granule_operators_refuse_a_set_of_another_universe(std, op):
    """A set over a universe other than the granulation's is refused,
    even when its mask fits the granulation's universe."""
    other = Universe(("y1", "y2", "y3", "y4"))
    grade = (0,) if op in GRADED_OPERATORS else ()
    with pytest.raises(ValueError, match="different universes"):
        op(other.subset(("y1",)), std.granulation, *grade)


def test_graded_operators_count_rather_than_measure(std):
    s = subsets_by_label(std)
    g = std.granulation
    assert graded_upper(s["{x1,x2}"], g, 1) == s["{x1,x2,x3}"]
    assert graded_upper(s["{x1}"], g, 1) == s["{}"]
    assert graded_lower_strict(s["{x1,x2}"], g, 1) == s["{x1,x2}"]
    assert graded_lower(s["{}"], g, 1) == s["{x4}"]


def test_parameter_validation():
    assert require_alpha("2/5") == Fraction(2, 5)
    with pytest.raises(ValueError):
        require_alpha("1/2")
    with pytest.raises(ValueError):
        require_alpha("-1/10")
    assert require_grade(3) == 3
    with pytest.raises(ValueError):
        require_grade(-1)
    with pytest.raises(ValueError):
        require_grade(True)


def test_operator_registry(std):
    spec = ApproxSpec(std.granulation, None, ALPHA, 1, std.neighborhoods)
    for op_id in OPERATOR_IDS:
        image = spec.operator(op_id)(std.universe.subset(("x1",)))
        assert isinstance(image, ESet)
    with pytest.raises(ValueError, match="l_alpha"):
        spec.operator("lower")


def test_pointwise_operator_ids_require_neighborhoods(std):
    spec = ApproxSpec(std.granulation, None, ALPHA, 1)
    with pytest.raises(ValueError):
        spec.operator("l_alpha_pt")


@settings(max_examples=120, deadline=None)
@given(small_fixtures())
def test_zero_precision_upper_is_classical_lower_is_tighter(ugx):
    u, g, x = ugx
    assert vprs_upper(x, g, None, 0) == classical_upper(x, g)
    assert vprs_lower(x, g, None, 0) <= classical_lower(x, g)


@settings(max_examples=120, deadline=None)
@given(small_fixtures(), st.integers(0, 3))
def test_grade_monotony(ugx, k):
    u, g, x = ugx
    assert graded_upper(x, g, k + 1) <= graded_upper(x, g, k)
    assert graded_lower(x, g, k) <= graded_lower(x, g, k + 1)
    assert graded_lower_strict(x, g, k + 1) <= graded_lower_strict(x, g, k)


@settings(max_examples=120, deadline=None)
@given(small_fixtures(), st.sampled_from([Fraction(1, 10), Fraction(1, 4),
                                          Fraction(2, 5)]))
def test_precision_lower_sits_inside_its_argument_and_upper(ugx, alpha):
    u, g, x = ugx
    lo = vprs_lower(x, g, None, alpha)
    up = vprs_upper(x, g, None, alpha)
    assert lo <= x
    assert lo <= up
    star_lo = vprs_star_lower(x, g, None, alpha)
    star_up = vprs_star_upper(x, g, None, alpha)
    assert lo <= star_lo
    assert up <= star_up
    assert star_lo <= star_up


@settings(max_examples=120, deadline=None)
@given(small_fixtures(), measures(), precisions)
def test_vprs_tables_match_the_per_set_operators(ugx, kappa, alpha):
    u, g, _ = ugx
    tables = vprs_tables(g, kappa, alpha)
    for x in u.subsets():
        m = x.mask
        assert tables.lower[m] == vprs_lower(x, g, kappa, alpha).mask
        assert tables.upper[m] == vprs_upper(x, g, kappa, alpha).mask
        assert tables.star_lower[m] == \
            vprs_star_lower(x, g, kappa, alpha).mask
        assert tables.star_upper[m] == \
            vprs_star_upper(x, g, kappa, alpha).mask


def _plain_images(x, granulation, neighborhoods, kappa, alpha, k):
    """Every operator's image of ``x``, as a set of member names,
    recomputed from its docstring with plain loops over member sets."""
    xs = frozenset(x.members)
    outside = frozenset(x.universe.elements) - xs

    def union(keep):
        out = set()
        for g in granulation:
            gs = frozenset(g.members)
            if keep(gs, kappa(x, g)):
                out |= gs
        return out

    def points(keep):
        return {name for name, n in neighborhoods if keep(kappa(x, n))}

    return {
        "l": union(lambda g, v: g <= xs),
        "u": union(lambda g, v: bool(g & xs)),
        "u_b": union(lambda g, v: bool(g & xs))
        - union(lambda g, v: g <= outside),
        "l_alpha": union(lambda g, v: g <= xs and v >= 1 - alpha),
        "u_alpha": union(lambda g, v: bool(g & xs) and v > alpha),
        "neg_alpha": union(lambda g, v: bool(g & xs) and v <= alpha),
        "l_alpha_star": union(lambda g, v: v >= 1 - alpha),
        "u_alpha_star": union(lambda g, v: v > alpha),
        "l_alpha_pt": points(lambda v: v >= 1 - alpha),
        "u_alpha_pt": points(lambda v: v > alpha),
        "l_grade": union(lambda g, v: len(g - xs) <= k),
        "l_grade_strict": union(lambda g, v: g <= xs and len(g & xs) > k),
        "u_grade": union(lambda g, v: len(g & xs) > k),
    }


@settings(max_examples=150, deadline=None)
@given(small_fixtures(), measures(), precisions, st.integers(0, 3),
       st.data())
def test_every_operator_matches_a_plain_loop(ugx, kappa, alpha, k, data):
    u, g, _ = ugx
    neighborhoods = tuple(
        (name, ESet(u, data.draw(st.integers(0, u.full_mask))))
        for name in u.elements)
    spec = ApproxSpec(g, kappa, alpha, k, neighborhoods)
    for x in u.subsets():
        want = _plain_images(x, g, neighborhoods, kappa, alpha, k)
        assert set(want) == set(OPERATOR_IDS)
        for op_id in OPERATOR_IDS:
            got = spec.operator(op_id)(x)
            assert set(got.members) == want[op_id], (op_id, x.label())
