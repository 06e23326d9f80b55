from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from roughpart import (
    build_lower_correspondence,
    build_upper_correspondence,
    check_nonrepresentability,
    graded_lower,
    kappa_k0,
    lower_threshold,
    upper_threshold,
    vprs_star_lower,
    vprs_star_upper,
)
from conftest import precisions, small_fixtures

ALPHAS = (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))

# size -> threshold, per precision, both sides.
UPPER_THRESHOLDS = {
    Fraction(1, 5): (0, 1, 1, 1, 1),
    Fraction(3, 10): (0, 1, 1, 1, 2),
    Fraction(2, 5): (0, 1, 1, 2, 2),
}
LOWER_THRESHOLDS = {
    Fraction(1, 5): (0, 1, 2, 3, 4),
    Fraction(3, 10): (0, 1, 2, 3, 3),
    Fraction(2, 5): (0, 1, 2, 2, 3),
}


def test_threshold_formulas(std):
    for alpha in ALPHAS:
        for x in std.universe.subsets():
            n = x.cardinality
            assert upper_threshold(x, alpha) == UPPER_THRESHOLDS[alpha][n]
            assert lower_threshold(x, alpha) == LOWER_THRESHOLDS[alpha][n]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_upper_partition_verifies_both_routes(std, alpha):
    part = build_upper_correspondence(std.universe, std.granulation, alpha)
    assert part.side == "upper" and part.alpha == alpha
    assert part.all_verified
    thresholds = [b.threshold for b in part.blocks]
    assert thresholds == sorted(thresholds)
    assert all(b.grade == b.threshold - 1 for b in part.blocks)
    assert sum(len(b.members) for b in part.blocks) == 16
    for x in std.universe.subsets():
        block = part.block_of(x)
        assert block.threshold == upper_threshold(x, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lower_partition_verifies_both_routes(std, alpha):
    part = build_lower_correspondence(std.universe, std.granulation, alpha)
    assert part.all_verified
    assert sum(len(b.members) for b in part.blocks) == 16
    for x in std.universe.subsets():
        assert part.block_of(x).threshold == lower_threshold(x, alpha)


@settings(max_examples=60, deadline=None)
@given(small_fixtures(), precisions)
def test_partitions_agree_with_a_direct_count(fixture, alpha):
    """On random granulations, each side's blocks partition the powerset
    by threshold, and the starred K0 image of every subset is the union
    of the granules sharing at least the threshold's count of members,
    counted here over member names."""
    u, g, _ = fixture
    for build, threshold, star in (
            (build_upper_correspondence, upper_threshold, vprs_star_upper),
            (build_lower_correspondence, lower_threshold, vprs_star_lower)):
        part = build(u, g, alpha)
        assert part.all_verified
        masks = sorted(x.mask for b in part.blocks for x in b.members)
        assert masks == list(range(u.full_mask + 1))
        for block in part.blocks:
            for x in block.members:
                assert threshold(x, alpha) == block.threshold
        for x in u.subsets():
            need = threshold(x, alpha)
            want = set()
            for granule in g:
                if len(set(granule.members) & set(x.members)) >= need:
                    want |= set(granule.members)
            got = star(x, g, kappa_k0(), alpha)
            assert set(got.members) == want


def test_lower_note_counts_deficit_agreement(std):
    alpha = Fraction(3, 10)
    part = build_lower_correspondence(std.universe, std.granulation, alpha)
    assert "deficit literal agrees" in part.note
    stated = int(part.note.rsplit(" on ", 1)[1].split("/")[0])
    agree = 0
    for x in std.universe.subsets():
        deficit = x.cardinality - lower_threshold(x, alpha)
        via_deficit = graded_lower(x, std.granulation, deficit)
        via_measure = vprs_star_lower(x, std.granulation, None, alpha)
        agree += via_deficit == via_measure
    assert stated == agree


def test_nonrepresentability_grades(std):
    u = std.universe
    zero = check_nonrepresentability(u, 0)
    assert not zero.holds
    assert len(zero.witnesses) == 1
    assert zero.witnesses[0][0] == ("x", ())
    assert dict(zero.parameters)["nonrepresentable-sizes"] == "0"

    one = check_nonrepresentability(u, 1)
    assert not one.holds
    assert dict(one.parameters)["nonrepresentable-sizes"] == "0,1,2"
    flagged = {w[0][1] for w in one.witnesses}
    assert len(flagged) == 11
    for name in u.elements:
        assert (name,) in flagged

    two = check_nonrepresentability(u, 2)
    assert dict(two.parameters)["nonrepresentable-sizes"] == "0,1,2,3,4"
    assert len(two.witnesses) == 16


def test_partition_validation(std):
    with pytest.raises(ValueError, match="alpha"):
        build_upper_correspondence(std.universe, std.granulation,
                                   Fraction(1, 2))
    with pytest.raises(ValueError):
        check_nonrepresentability(std.universe, -1)
