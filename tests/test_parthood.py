from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    PARTHOOD_TAGS,
    PROPERTY_NAMES,
    ESet,
    Granulation,
    ParthoodRelation,
    Universe,
    analyze_properties,
    build_parthood,
    build_pu,
    equalizers,
    kappa_k0,
    kappa_k1,
    kappa_st,
    random_granulation,
    vprs_lower,
    vprs_star_lower,
    vprs_upper,
)
from roughpart import parthood
from roughpart.core import binding
from roughpart.parthood import _pack, _transpose, _union_open, _unpack
from conftest import measures, precisions, small_fixtures, subsets_by_label

ALPHA = Fraction(3, 10)

EXPECTED_SIZES = {
    "s3": 33, "s5": 187, "s5*": 171, "s6": 33, "s7": 187,
    "s9": 137, "s*": 45, "s0l": 73, "s0u": 144, "pu": 171,
}

# One status letter per property, in PROPERTY_NAMES order:
# H holds, F fails, C conditional.
EXPECTED_STATUSES = {
    "s3":  "C H H H H H H H H F",
    "s5":  "H F H H F F F F H F",
    "s5*": "H F H H F F F F H F",
    "s6":  "C H H H H H H H H F",
    "s7":  "H F H H F F F F H F",
    "s9":  "H F H F F F F H H F",
    "s0l": "H F H H F F F F F F",
    "s0u": "H F H F F F F H F F",
    "s*":  "C F F H H H F F F F",
}

GRADE_ONE_PAIRS = {
    (('x1', 'x2'), ('x1', 'x2')), (('x1', 'x2'), ('x1', 'x2', 'x3')),
    (('x1', 'x2'), ('x1', 'x2', 'x3', 'x4')), (('x1', 'x2'), ('x1', 'x2', 'x4')),
    (('x1', 'x2', 'x3'), ('x1', 'x2', 'x3')),
    (('x1', 'x2', 'x3'), ('x1', 'x2', 'x3', 'x4')),
    (('x1', 'x2', 'x3', 'x4'), ('x1', 'x2', 'x3', 'x4')),
    (('x1', 'x2', 'x4'), ('x1', 'x2', 'x3', 'x4')),
    (('x1', 'x2', 'x4'), ('x1', 'x2', 'x4')), (('x1', 'x3'), ('x1', 'x2', 'x3')),
    (('x1', 'x3'), ('x1', 'x2', 'x3', 'x4')), (('x1', 'x3'), ('x1', 'x3')),
    (('x1', 'x3'), ('x1', 'x3', 'x4')),
    (('x1', 'x3', 'x4'), ('x1', 'x2', 'x3', 'x4')),
    (('x1', 'x3', 'x4'), ('x1', 'x3', 'x4')),
    (('x1', 'x4'), ('x1', 'x2', 'x3', 'x4')), (('x1', 'x4'), ('x1', 'x2', 'x4')),
    (('x1', 'x4'), ('x1', 'x3', 'x4')), (('x1', 'x4'), ('x1', 'x4')),
    (('x2', 'x3'), ('x1', 'x2', 'x3')), (('x2', 'x3'), ('x1', 'x2', 'x3', 'x4')),
    (('x2', 'x3'), ('x2', 'x3')), (('x2', 'x3'), ('x2', 'x3', 'x4')),
    (('x2', 'x3', 'x4'), ('x1', 'x2', 'x3', 'x4')),
    (('x2', 'x3', 'x4'), ('x2', 'x3', 'x4')),
    (('x2', 'x4'), ('x1', 'x2', 'x3', 'x4')), (('x2', 'x4'), ('x1', 'x2', 'x4')),
    (('x2', 'x4'), ('x2', 'x3', 'x4')), (('x2', 'x4'), ('x2', 'x4')),
    (('x3', 'x4'), ('x1', 'x2', 'x3', 'x4')), (('x3', 'x4'), ('x1', 'x3', 'x4')),
    (('x3', 'x4'), ('x2', 'x3', 'x4')), (('x3', 'x4'), ('x3', 'x4')),
}


def _standard(tag, std, **extra):
    return build_parthood(tag, std.universe, std.granulation,
                          alpha=ALPHA, k=1, **extra)


def test_registry_constants():
    assert PARTHOOD_TAGS == ("s3", "s5", "s5*", "s6", "s7", "s9", "s*",
                             "s0l", "s0u", "st", "pu")
    assert PROPERTY_NAMES == (
        "reflexive", "part-compatible", "mutual-rough-equal",
        "join-compatible", "l-euclidean", "r-euclidean",
        "antisymmetric", "join-stable", "transitive", "symmetric")


def test_extension_sizes(std):
    for tag, size in EXPECTED_SIZES.items():
        assert _standard(tag, std).size == size, tag
    designated = (std.universe.subset(("x4",)),
                  std.universe.subset(("x1", "x2")))
    assert _standard("st", std, tset=designated).size == 33
    assert _standard("st", std).size == 0


def test_grade_one_extension_is_frozen(std):
    rel = _standard("s3", std)
    got = {(a.members, b.members) for a, b in rel.extension()}
    assert got == GRADE_ONE_PAIRS
    first = rel.extension()[0]
    assert first[0].members == ("x1", "x2")
    assert first[1].members == ("x1", "x2")


def test_route_pairs_coincide(std):
    assert _standard("s5", std).pairs == _standard("s7", std).pairs
    for k in (0, 1, 2):
        s6 = build_parthood("s6", std.universe, std.granulation, k=k)
        s3 = build_parthood("s3", std.universe, std.granulation, k=k)
        assert s6.pairs == s3.pairs


def test_property_matrix(std):
    marks = {"H": "holds", "F": "fails", "C": "conditional"}
    for tag, row in EXPECTED_STATUSES.items():
        profile = analyze_properties(_standard(tag, std))
        assert tuple(s.name for s in profile.statuses) == PROPERTY_NAMES
        got = {s.name: s.status for s in profile.statuses}
        want = {name: marks[m]
                for name, m in zip(PROPERTY_NAMES, row.split())}
        assert got == want, tag


def test_part_compatibility_witness_is_semantic(std):
    s = subsets_by_label(std)
    rel = _standard("s5", std)
    profile = analyze_properties(rel)
    status = profile.status("part-compatible")
    assert status.witness == (("a", ("x1",)), ("b", ()))
    assert rel.holds(s["{x1}"], s["{}"])
    assert not s["{x1}"] <= s["{}"]


def test_join_compatibility_witness_is_semantic(std):
    rel = _standard("s9", std)
    status = analyze_properties(rel).status("join-compatible")
    assert status.status == "fails"
    w = dict(status.witness)
    a = std.universe.subset(w["a"])
    e = std.universe.subset(w["e"])
    b = std.universe.subset(w["b"])
    assert rel.holds(a, e) and rel.holds(a, b)
    assert not rel.holds(a, b | e)


def test_conditional_reflexivity_restates_the_grade(std):
    rel = _standard("s3", std)
    status = analyze_properties(rel).status("reflexive")
    assert status.status == "conditional"
    assert status.witness is None
    assert "cardinality above the grade" in status.condition
    for x in std.universe.subsets():
        assert rel.holds(x, x) == (x.cardinality > 1)


def test_profile_lookup_rejects_unknown_names(std):
    profile = analyze_properties(_standard("s3", std))
    with pytest.raises(KeyError):
        profile.status("euclidean")


def test_upper_stability_classes(std):
    s = subsets_by_label(std)
    result = build_pu(std.universe, std.granulation, alpha=ALPHA)
    labels = tuple(tuple(m.label() for m in cls) for cls in result.classes)
    assert labels == (
        ("{}",),
        ("{x1}", "{x2}", "{x1,x2}", "{x3}", "{x1,x3}", "{x2,x3}",
         "{x1,x2,x3}", "{x1,x2,x3,x4}"),
        ("{x4}",),
        ("{x1,x4}", "{x2,x4}", "{x1,x2,x4}", "{x3,x4}", "{x1,x3,x4}",
         "{x2,x3,x4}"),
    )
    values = tuple(v.label() for v in result.class_upper_values)
    assert values == ("{}", "{x1,x2,x3}", "{x4}", "{x1,x2,x3,x4}")
    mid_a, mid_b = result.class_upper_values[1], result.class_upper_values[2]
    assert not mid_a <= mid_b and not mid_b <= mid_a
    relation = result.relation
    assert relation.size == 171
    kappa = kappa_k0()
    for a in std.universe.subsets():
        ua = vprs_upper(a, std.granulation, kappa, ALPHA)
        for b in std.universe.subsets():
            ub = vprs_upper(b, std.granulation, kappa, ALPHA)
            assert relation.holds(a, b) == (ua <= ub)
    assert relation.holds(s["{x1}"], s["{x1,x4}"])
    assert not relation.holds(s["{x4}"], s["{x1,x2,x3}"])


def test_equalizer_families(std):
    s = subsets_by_label(std)
    kappa = kappa_k0()
    a, b = s["{x1,x2}"], s["{x2,x3}"]
    right, left = equalizers(kappa, a, b)
    score = kappa(a, b)
    assert score == Fraction(1, 2)
    assert len(right) == 8
    assert all(kappa(a, c) == score for c in right)
    assert all(kappa(c, b) == score for c in left)
    masks = [c.mask for c in right]
    assert masks == sorted(masks)


def test_designated_parts_must_be_granules(std):
    stray = std.universe.subset(("x1", "x3"))
    with pytest.raises(ValueError, match="not in the granulation"):
        _standard("st", std, tset=(stray,))


def test_designated_parts_from_another_universe_are_refused():
    """A granule of another universe is refused even when its mask is
    the mask of a granule here."""
    u = Universe(("a", "b"))
    g = Granulation.of(u, [["a"], ["b"]])
    h = Universe(("x", "y", "z")).subset(["x"])
    with pytest.raises(ValueError, match="not in the granulation"):
        build_parthood("st", u, g, tset=[h])


def test_analysis_refuses_rows_that_do_not_fit_the_powerset():
    """Rows pack side by side into one int, so a row with a bit past
    2^n, or a missing row, is refused rather than read into its
    neighbour."""
    u = Universe(("x1", "x2"))
    for rows in ((0b1111, 0b10000, 0, 0), (0b1111, 0b1111, 0b1111)):
        with pytest.raises(ValueError, match="one row of 2\\^n bits"):
            analyze_properties(ParthoodRelation("custom", u, rows))


def test_tag_and_universe_validation(std):
    with pytest.raises(ValueError, match="valid identifiers"):
        build_parthood("s4", std.universe, std.granulation)
    rel = _standard("s3", std)
    other = Universe(("y1", "y2"))
    with pytest.raises(ValueError, match="different universe"):
        rel.holds(other.subset(("y1",)), other.subset(("y2",)))


@st.composite
def tuned_fixtures(draw):
    """A small fixture with every tuning a tag reads: measure, precision,
    grade and designated granules."""
    u, g, _ = draw(small_fixtures())
    granules = list(g)
    tset = draw(st.lists(st.sampled_from(granules), max_size=2, unique=True))
    return (u, g, draw(measures()), draw(precisions), draw(st.integers(0, 3)),
            tuple(tset))


def plain_parthood(tag, u, g, kappa, alpha, k, tset):
    """Holding pairs by a double loop over subsets, through the per-set
    operators and the measure itself."""
    subs = list(u.subsets())
    lo = {x: vprs_lower(x, g, kappa, alpha) for x in subs}
    slo = {x: vprs_star_lower(x, g, kappa, alpha) for x in subs}
    up = {x: vprs_upper(x, g, kappa, alpha) for x in subs}
    prof = {x: {h.mask for h in g if kappa(x, h) >= alpha} for x in subs}
    inside = {x: [h for h in g if h <= x and kappa(x, h) >= 1 - alpha]
              for x in subs}
    pred = {
        "s3": lambda a, b: (a & b).cardinality > k and a <= b,
        "s6": lambda a, b: a <= b and a.cardinality > k,
        "s*": lambda a, b: (a & b).cardinality > k and not b < a,
        "st": lambda a, b: a <= b and any(t <= a for t in tset),
        "s5": lambda a, b: lo[a] <= lo[b],
        "s5*": lambda a, b: slo[a] <= slo[b],
        "s7": lambda a, b: all(h <= lo[b] for h in inside[a]),
        "s9": lambda a, b: prof[a] <= prof[b],
        "s0l": lambda a, b: lo[a] <= lo[b] and kappa(a, b) >= 1 - alpha,
        "s0u": lambda a, b: up[a] <= up[b] and kappa(a, b) >= alpha,
        "pu": lambda a, b: up[a] <= up[b],
    }[tag]
    return {(a.mask, b.mask) for a in subs for b in subs if pred(a, b)}


def test_grade_tags_match_a_plain_double_loop_on_seven_elements():
    """s3 and s* come from Venn-count rows, s6 and st from superset rows
    kept or dropped whole. On a seeded granulation of seven elements,
    beyond the Hypothesis fixtures, each agrees with the plain double
    loop at grades 0 to 3."""
    u = Universe(tuple(f"e{i}" for i in range(7)))
    rng = random.Random(7)
    g = random_granulation(u, rng)
    tset = tuple(rng.sample(g.granules, 2))
    for k in range(4):
        for tag in ("s3", "s6", "s*", "st"):
            rel = build_parthood(tag, u, g, k=k, tset=tset)
            want = plain_parthood(tag, u, g, kappa_k0(), Fraction(0), k,
                                  tset)
            assert want and set(rel.pairs) == want, (tag, k)


@pytest.mark.parametrize("tag", ["s0l", "s0u"])
def test_measure_floor_not_flagged_invariant_matches_a_plain_double_loop(tag):
    """A measure not flagged invariant cuts the preorder pair by pair,
    not through a floor table; the relation is the plain double loop's
    and the one its invariant twin builds."""
    u = Universe(tuple(f"e{i}" for i in range(4)))
    g = random_granulation(u, random.Random(3))
    cut = False
    for kappa in (kappa_k0(), kappa_st("1/5", "4/5", kappa_k1())):
        plain = dataclasses.replace(kappa, invariant=False)
        assert kappa.invariant and not plain.invariant
        for alpha in (Fraction(0), Fraction(1, 5), Fraction(2, 5)):
            rel = build_parthood(tag, u, g, kappa=plain, alpha=alpha)
            want = plain_parthood(tag, u, g, plain, alpha, 0, ())
            assert set(rel.pairs) == want, (kappa, alpha)
            assert rel.rows == build_parthood(tag, u, g, kappa=kappa,
                                              alpha=alpha).rows
            image = "s5" if tag == "s0l" else "pu"
            cut |= want != plain_parthood(image, u, g, plain, alpha, 0, ())
    assert cut


@settings(max_examples=40, deadline=None)
@given(tuned_fixtures())
def test_every_tag_matches_a_plain_double_loop(tuned):
    u, g, kappa, alpha, k, tset = tuned
    for tag in PARTHOOD_TAGS:
        rel = build_parthood(tag, u, g, kappa=kappa, alpha=alpha, k=k,
                             tset=tset)
        want = plain_parthood(tag, u, g, kappa, alpha, k, tset)
        assert set(rel.pairs) == want, tag
        assert rel.size == len(want), tag
        assert {(a.mask, b.mask) for a, b in rel.extension()} == want, tag
        for a in u.subsets():
            for b in u.subsets():
                assert rel.holds(a, b) == ((a.mask, b.mask) in want), tag


def plain_equivalence(rel):
    """Rough equality by tag, through the per-set operators."""
    ctx = rel.context
    if ctx is None or rel.tag in ("s3", "s6", "s*", "st"):
        return lambda a, b: a == b
    g, kappa, alpha = ctx.granulation, ctx.kappa, ctx.alpha
    if rel.tag == "s9":
        def prof(x):
            return tuple(kappa(x, h) >= alpha for h in g)
        return lambda a, b: prof(a) == prof(b)
    op = {"s5": vprs_lower, "s7": vprs_lower, "s0l": vprs_lower,
          "s5*": vprs_star_lower, "s0u": vprs_upper, "pu": vprs_upper}[rel.tag]

    def same(a, b):
        return op(a, g, kappa, alpha) == op(b, g, kappa, alpha)
    if rel.tag in ("s0l", "s0u"):
        need = 1 - alpha if rel.tag == "s0l" else alpha
        return lambda a, b: (same(a, b) and kappa(a, b) >= need
                             and kappa(b, a) >= need)
    return same


def plain_profile(rel, pairs, max_witnesses):
    """Property statuses by sweeping pairs and triples of masks, first
    witness in sorted pair order."""
    universe = rel.universe
    masks = range(universe.full_mask + 1)
    eq = plain_equivalence(rel)

    def ev(m):
        return ESet(universe, m)

    def w(**kw):
        return tuple(binding(name, ev(m)) for name, m in kw.items())

    above_grade = ("cardinality above the grade",
                   lambda ctx, a: a.cardinality > ctx.k)
    reflexive_on = {
        "s3": above_grade, "s6": above_grade, "s*": above_grade,
        "st": ("some designated granule inside the set",
               lambda ctx, a: any(t <= a for t in ctx.tset)),
    }
    out = []

    def settle(name, fails):
        if not fails:
            out.append((name, "holds", None, None))
            return
        ctx = rel.context
        cond = reflexive_on.get(rel.tag)
        if name == "reflexive" and cond is not None and ctx is not None:
            text, test = cond
            if all(((m, m) in pairs) == test(ctx, ev(m)) for m in masks):
                out.append((name, "conditional", None,
                            f"reflexive exactly on sets with {text}"))
                return
        out.append((name, "fails", fails[0], None))

    fails = [w(a=m) for m in masks if (m, m) not in pairs]
    settle("reflexive", fails[:max_witnesses])

    fails = [w(a=am, b=bm) for am, bm in sorted(pairs) if am & ~bm]
    settle("part-compatible", fails[:max_witnesses])

    fails = []
    for am, bm in sorted(pairs):
        if (bm, am) in pairs and am < bm and not eq(ev(am), ev(bm)):
            fails.append(w(a=am, b=bm))
    settle("mutual-rough-equal", fails[:max_witnesses])

    fails = []
    for am, em in sorted(pairs):
        for bm in masks:
            if (am, bm) in pairs and (am, bm | em) not in pairs:
                fails.append(w(a=am, e=em, b=bm))
                break
        if len(fails) >= max_witnesses:
            break
    settle("join-compatible", fails)

    fails = []
    for bm, am in sorted(pairs):
        for em in masks:
            if (bm, em) in pairs and am & ~em == 0 \
                    and (am, em) not in pairs:
                fails.append(w(a=am, b=bm, e=em))
                break
        if len(fails) >= max_witnesses:
            break
    settle("l-euclidean", fails)

    fails = []
    for am, bm in sorted(pairs):
        for em in masks:
            if (em, bm) in pairs and am & ~em == 0 \
                    and (am, em) not in pairs:
                fails.append(w(a=am, b=bm, e=em))
                break
        if len(fails) >= max_witnesses:
            break
    settle("r-euclidean", fails)

    fails = []
    for am, bm in sorted(pairs):
        if (bm, am) in pairs and am != bm:
            fails.append(w(a=am, b=bm))
            if len(fails) >= max_witnesses:
                break
    settle("antisymmetric", fails)

    fails = []
    for am, em in sorted(pairs):
        for bm in masks:
            if (bm, em) in pairs and (am | bm, em) not in pairs:
                fails.append(w(a=am, b=bm, e=em))
                break
        if len(fails) >= max_witnesses:
            break
    settle("join-stable", fails)

    fails = []
    for am, bm in sorted(pairs):
        for cm in masks:
            if (bm, cm) in pairs and (am, cm) not in pairs:
                fails.append(w(a=am, b=bm, c=cm))
                break
        if len(fails) >= max_witnesses:
            break
    settle("transitive", fails)

    fails = [w(a=am, b=bm) for am, bm in sorted(pairs)
             if (bm, am) not in pairs]
    settle("symmetric", fails[:max_witnesses])
    return out


@settings(max_examples=80, deadline=None)
@given(tuned_fixtures(), st.sampled_from(PARTHOOD_TAGS),
       st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                max_size=3))
def test_property_profile_matches_plain_sweeps(tuned, tag, flips):
    u, g, kappa, alpha, k, tset = tuned
    rel = build_parthood(tag, u, g, kappa=kappa, alpha=alpha, k=k, tset=tset)
    pairs = plain_parthood(tag, u, g, kappa, alpha, k, tset)
    relations = [(rel, pairs)]
    if flips:
        # A near miss of the tag: a few pairs toggled, no tuning attached.
        full = u.full_mask
        custom = pairs ^ {(a & full, b & full) for a, b in flips}
        rows = [0] * (full + 1)
        for a, b in custom:
            rows[a] |= 1 << b
        relations.append(
            (ParthoodRelation("custom", u, tuple(rows)), custom))
    for relation, held in relations:
        profile = analyze_properties(relation)
        got = [(s.name, s.status, s.witness, s.condition)
               for s in profile.statuses]
        assert got == plain_profile(relation, held, 3), relation.tag


def plain_rule_witnesses(rows):
    """The first witness of each join rule and each euclidean rule by
    plain loops over pairs: over the pairs of each row for
    join-compatible, and over the pairs of each column for join-stable,
    each pair once with b after its partner; over the pairs of each row
    for l-euclidean, and over each pair (a, b) and the column of b for
    r-euclidean, in sorted pair order."""
    masks = range(len(rows))
    cols = [sum(1 << am for am in masks if rows[am] >> bm & 1)
            for bm in masks]
    row_bits = [[bm for bm in masks if row >> bm & 1] for row in rows]
    col_bits = [[am for am in masks if col >> am & 1] for col in cols]
    compatible = ((am, em, bm) for am in masks
                  for i, em in enumerate(row_bits[am])
                  for bm in row_bits[am][i + 1:]
                  if not rows[am] >> (bm | em) & 1)
    stable = ((am, bm, em) for am in masks for em in row_bits[am]
              for bm in col_bits[em] if bm > am
              and not cols[em] >> (am | bm) & 1)
    left = ((am, bm, em) for bm in masks for am in row_bits[bm]
            for em in row_bits[bm]
            if am & ~em == 0 and not rows[am] >> em & 1)
    right = ((am, bm, em) for am in masks for bm in row_bits[am]
             for em in col_bits[bm]
             if am & ~em == 0 and not rows[am] >> em & 1)
    return {"join-compatible": (("a", "e", "b"), next(compatible, None)),
            "join-stable": (("a", "b", "e"), next(stable, None)),
            "l-euclidean": (("a", "b", "e"), next(left, None)),
            "r-euclidean": (("a", "b", "e"), next(right, None))}


def _check_rule_witnesses(relations):
    """Assert the analyzer's status and first witness of each rule in
    :func:`plain_rule_witnesses`; return the plain first witnesses."""
    found = []
    for relation in relations:
        profile = analyze_properties(relation)
        plain = plain_rule_witnesses(relation.rows)
        for name, (names, first) in plain.items():
            status = profile.status(name)
            if first is None:
                assert (status.status, status.witness) == ("holds", None), \
                    (relation.tag, name)
            else:
                assert status.status == "fails", (relation.tag, name)
                assert status.witness == tuple(
                    binding(var, ESet(relation.universe, m))
                    for var, m in zip(names, first)), (relation.tag, name)
        found.append({name: first for name, (_, first) in plain.items()})
    return found


def test_join_rules_match_plain_pair_loops_on_seven_elements():
    """The analyzer decides the join rules over the whole packed relation
    and the euclidean rules over the pairs a ⊆ e it lacks, and runs its
    witness loops only on the failing lines. On a seeded granulation of
    seven elements, four built relations and a near miss of one (a few
    pairs flipped) give the statuses and first witnesses of the plain
    pair loops for both join rules and both euclidean rules."""
    u = Universe(tuple(f"e{i}" for i in range(7)))
    g = random_granulation(u, random.Random(7))
    relations = [build_parthood(tag, u, g, kappa=kappa_k0(),
                                alpha=Fraction(1, 5), k=1)
                 for tag in ("s5", "s*", "pu", "s0u")]
    rows = list(relations[0].rows)
    for am, bm in ((3, 7), (12, 45), (64, 127), (5, 96)):
        rows[am] ^= 1 << bm
    relations.append(ParthoodRelation("custom", u, tuple(rows)))
    found = _check_rule_witnesses(relations)
    assert {f[name] is None for f in found
            for name in ("join-compatible", "join-stable")} == {True, False}


def test_rule_witnesses_past_row_zero_and_across_failing_columns():
    """Near misses of s3 (a few pairs a ⊆ e dropped) whose first failing
    row of each rewritten rule is far from row 0, and random relations
    whose join-stable test fails in most columns: each gives the plain
    loops' first witness for join-stable and both euclidean rules."""
    u = Universe(tuple(f"e{i}" for i in range(7)))
    g = random_granulation(u, random.Random(7))
    relations = []
    for dropped in (((96, 104), (112, 127)), ((97, 99),)):
        rows = list(build_parthood("s3", u, g, k=1).rows)
        for am, em in dropped:
            rows[am] &= ~(1 << em)
        relations.append(ParthoodRelation("custom", u, tuple(rows)))
    rng = random.Random(24)
    for density in (0.2, 0.5):
        rows = [sum(1 << bm for bm in range(128) if rng.random() < density)
                if am >= 40 else 0 for am in range(128)]
        relations.append(ParthoodRelation("custom", u, tuple(rows)))
    found = _check_rule_witnesses(relations)
    for name, row in (("join-stable", 0), ("l-euclidean", 1),
                      ("r-euclidean", 0)):
        assert min(f[name][row] for f in found[:2]) >= 32, name
    for relation in relations[2:]:
        cols = [sum(1 << am for am in range(128)
                    if relation.rows[am] >> bm & 1) for bm in range(128)]
        failing = sum(any(not col >> (p | q) & 1
                          for p in range(128) if col >> p & 1
                          for q in range(128) if col >> q & 1)
                      for col in cols)
        assert failing >= 100


def test_transitivity_screens_each_distinct_row_once(monkeypatch):
    """Rows 0 and 1 are equal and transitive; row 2 is the first that is
    not (it holds 3, row 3 holds 5, and row 2 lacks 5), and row 6 equals
    it. The analyzer screens the two distinct rows up to row 2 once each
    and reports the first witness of the plain triple loop."""
    u = Universe(("e0", "e1", "e2"))
    held = {0: (1,), 1: (1,), 2: (3,), 3: (3, 5), 4: (4,), 5: (5,),
            6: (3,), 7: ()}
    rows = tuple(sum(1 << b for b in held[a]) for a in range(8))
    plain = next((a, b, c) for a in range(8) for b in held[a]
                 for c in held[b] if c not in held[a])
    assert plain == (2, 3, 5)
    screen, screened = parthood._row_escapes, []

    def counted(row, lines):
        screened.append(row)
        return screen(row, lines)

    monkeypatch.setattr(parthood, "_row_escapes", counted)
    status = analyze_properties(
        ParthoodRelation("custom", u, rows)).status("transitive")
    assert status.status == "fails"
    assert status.witness == tuple(binding(var, ESet(u, m))
                                   for var, m in zip("abc", plain))
    assert screened == [rows[0], rows[2]]


def _random_family(rng, size):
    """A family of masks as a bitset: random, closed under union, or
    closed but for one union of two other members; with or without the
    empty set."""
    top = 1 << size
    kind = rng.randrange(3)
    if kind == 0:
        density = rng.random()
        return sum(1 << m for m in range(top) if rng.random() < density)
    closed = set()
    for gen in rng.sample(range(top), rng.randint(1, min(top, 4))):
        closed |= {gen} | {gen | c for c in closed}
    unions = [m for m in closed
              if any(p | q == m for p in closed for q in closed
                     if p != m and q != m)]
    if kind == 2 and unions:
        closed.discard(rng.choice(unions))
    return sum(1 << m for m in closed)


def _plain_cols(rows):
    masks = range(len(rows))
    return [sum(1 << am for am in masks if rows[am] >> bm & 1)
            for bm in masks]


def _plain_union_open(lines):
    """The bitset of lines whose members are not closed under pairwise
    union."""
    out = 0
    for a, line in enumerate(lines):
        members = [m for m in range(len(lines)) if line >> m & 1]
        if any(not line >> (p | q) & 1 for p in members for q in members):
            out |= 1 << a
    return out


@pytest.mark.parametrize("size", range(8))
def test_union_closure_kernel_matches_a_plain_pairwise_test(size):
    """The zeta-transform test over a packed relation flags exactly the
    rows, and after the transpose the columns, that a plain pairwise
    test finds not closed under union. Below n = 3 a line is narrower
    than a byte."""
    rng = random.Random(size)
    verdicts = set()
    for _ in range(6):
        lines = [_random_family(rng, size) for _ in range(1 << size)]
        # Repeated lines are tested once.
        half = len(lines) // 2
        lines[len(lines) - half:] = rng.sample(lines, half)
        want = _plain_union_open(lines)
        assert _union_open(lines, size) == want
        packed = _transpose(_pack(_plain_cols(lines), 1 << size), size)
        assert _union_open(_unpack(packed, 1 << size, 1 << size),
                           size) == want
        verdicts |= {want >> a & 1 for a in range(1 << size)}
        verdicts |= {("empty", lines[a] & 1) for a in range(1 << size)
                     if not want >> a & 1}
    if size >= 2:
        assert verdicts >= {0, 1, ("empty", 0)}


@pytest.mark.parametrize("size", range(8))
def test_transpose_matches_a_plain_column_build(size):
    rng = random.Random(size)
    for density in (0.1, 0.5, 0.9):
        rows = [sum(1 << m for m in range(1 << size)
                    if rng.random() < density) for _ in range(1 << size)]
        width = 1 << size
        packed = _pack(rows, width)
        assert packed == sum(row << (a << size) for a, row in enumerate(rows))
        assert _unpack(packed, width, width) == rows
        assert _unpack(_transpose(packed, size), width, width) \
            == _plain_cols(rows)
