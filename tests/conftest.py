from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from roughpart import (
    ESet,
    Fixture,
    Granulation,
    Universe,
    classical_lower,
    classical_upper,
    kappa_k0,
    kappa_k1,
    kappa_k2,
    kappa_st,
    standard_fixture,
)
from roughpart.core import image_table


@pytest.fixture(scope="session")
def std() -> Fixture:
    return standard_fixture()


def subsets_by_label(fixture: Fixture) -> dict[str, object]:
    """Label-keyed map of every subset of the fixture universe."""
    universe = fixture.universe
    return {s.label(): s for s in universe.subsets()}


def small_fixtures():
    universes = st.integers(min_value=2, max_value=5)

    @st.composite
    def build(draw):
        n = draw(universes)
        u = Universe(tuple(f"e{i}" for i in range(n)))
        count = draw(st.integers(1, n + 1))
        masks = draw(st.lists(st.integers(1, u.full_mask),
                              min_size=count, max_size=count, unique=True))
        covered = 0
        for m in masks:
            covered |= m
        if covered != u.full_mask:
            rest = u.full_mask & ~covered
            if rest not in masks:
                masks.append(rest)
        g = Granulation(u, tuple(ESet(u, m) for m in masks))
        xm = draw(st.integers(0, u.full_mask))
        return u, g, ESet(u, xm)

    return build()


def measures():
    """K0, K1, K2, or a two-threshold rescaling Kst(s, t) with s < t."""
    bounds = st.fractions(0, 1, max_denominator=10)
    kst = st.tuples(bounds, bounds).filter(lambda p: p[0] < p[1]).map(
        lambda p: kappa_st(*p))
    return st.one_of(st.sampled_from([kappa_k0(), kappa_k1(), kappa_k2()]),
                     kst)


precisions = st.fractions(0, Fraction(1, 2), max_denominator=20).filter(
    lambda a: a < Fraction(1, 2))


@st.composite
def operator_pairs(draw):
    """A universe of at most four elements, a covering granulation, and a
    lower and an upper image table indexed by mask: the granulation's
    classical pair, or two arbitrary tables that obey no law."""
    n = draw(st.integers(1, 4))
    u = Universe(tuple(f"e{i}" for i in range(n)))
    full = u.full_mask
    masks = draw(st.lists(st.integers(1, full), min_size=1,
                          max_size=n + 1, unique=True))
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        masks.append(full & ~covered)
    g = Granulation(u, tuple(ESet(u, m) for m in masks))
    if draw(st.booleans()):
        return (u, g, image_table(u, lambda x: classical_lower(x, g)),
                image_table(u, lambda x: classical_upper(x, g)))
    table = st.lists(st.integers(0, full), min_size=full + 1,
                     max_size=full + 1)
    return u, g, draw(table), draw(table)
