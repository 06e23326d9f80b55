from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    ESet,
    InclusionFn,
    Universe,
    VALID_AXIOMS,
    check_axiom,
    check_prif_implications,
    classify_rif,
    dependence_degree,
    eval_bgrif,
    eval_cgrif,
    eval_classification_error,
    eval_k0,
    eval_k1,
    eval_k2,
    eval_kst,
    evaluate_axiom_instance,
    classical_lower,
    classical_upper,
    kappa_k0,
    kappa_k1,
    kappa_k2,
    kappa_st,
)
import roughpart.inclusion as inclusion
from roughpart.inclusion import SWEPT_AXIOMS
from conftest import subsets_by_label


def test_share_measure_spot_values(std):
    s = subsets_by_label(std)
    g1 = std.universe.subset(("x1", "x2"))
    g4 = std.universe.subset(("x4",))
    assert eval_k0(s["{x1,x4}"], g1) == Fraction(1, 2)
    assert eval_k0(s["{x1,x2,x3,x4}"], g4) == Fraction(1, 4)
    assert eval_k0(std.universe.empty, g1) == 1


def test_union_and_complement_measures_spot_values(std):
    s = subsets_by_label(std)
    a, b = s["{x1,x2}"], s["{x2,x3}"]
    assert eval_k1(a, b) == Fraction(2, 3)
    assert eval_k2(a, b) == Fraction(3, 4)
    assert eval_classification_error(a, b) == Fraction(1, 2)
    assert dependence_degree(a, b) == 0


def test_two_threshold_rescaling():
    u = Universe(("x1", "x2", "x3", "x4"))
    a = u.subset(("x1", "x4"))
    g1 = u.subset(("x1", "x2"))
    assert eval_kst(a, g1, "1/5", "4/5") == Fraction(1, 2)
    assert eval_kst(a, g1, "1/2", "4/5") == 0
    assert eval_kst(a, g1, "1/5", "1/2") == 1


def test_two_threshold_validation():
    with pytest.raises(ValueError):
        kappa_st("1/2", "1/2")
    with pytest.raises(ValueError):
        kappa_st("-1/5", "4/5")
    with pytest.raises(ValueError):
        kappa_st("1/5", "6/5")


def test_granulation_aware_measures(std):
    g = std.granulation
    s = subsets_by_label(std)

    def lo(x):
        return classical_lower(x, g)

    def up(x):
        return classical_upper(x, g)

    a, top = s["{x1,x2}"], s["{x1,x2,x3,x4}"]
    assert eval_bgrif(a, top, "u", "l", lo, up) == 1
    assert eval_cgrif(a, top, "u", "l", lo, up) == Fraction(3, 2)


def test_k0_lands_in_every_class():
    u = Universe(("e1", "e2", "e3", "e4"))
    assert classify_rif(kappa_k0(), u) == ("gRIF", "pRIF", "qRIF", "wqRIF")


def test_classify_rif_decides_each_axiom_once(monkeypatch):
    calls = []
    real = inclusion.check_axiom

    def recording(kappa, axiom_id, universe, **kw):
        calls.append(axiom_id)
        return real(kappa, axiom_id, universe, **kw)

    monkeypatch.setattr(inclusion, "check_axiom", recording)
    u = Universe(("e1", "e2", "e3"))
    assert classify_rif(kappa_k0(), u) == ("gRIF", "pRIF", "qRIF", "wqRIF")
    assert calls == ["R0", "IR0", "R2", "R3", "RV"]


def test_union_and_complement_measures_are_graded():
    u = Universe(("e1", "e2", "e3", "e4"))
    for kappa in (kappa_k1(), kappa_k2()):
        assert "gRIF" in classify_rif(kappa, u)


def test_unit_top_threshold_stays_quasi():
    u = Universe(("e1", "e2", "e3", "e4", "e5"))
    tags = classify_rif(kappa_st("1/5", 1), u)
    assert "qRIF" in tags


def test_interior_thresholds_drop_quasi_but_keep_weak_and_threshold_class():
    u = Universe(("e1", "e2", "e3", "e4", "e5"))
    tags = classify_rif(kappa_st("1/5", "4/5"), u)
    assert "wqRIF" in tags
    assert "pRIF" in tags
    assert "qRIF" not in tags


def test_share_measure_fails_the_complement_sum_axiom():
    u = Universe(("e1", "e2", "e3"))
    report = check_axiom(kappa_k0(), "R6", u)
    assert not report.holds
    assert report.witnesses


def test_share_measure_passes_the_guarded_axioms():
    u = Universe(("e1", "e2", "e3", "e4"))
    for axiom in ("U1", "R0", "IR0", "R1", "R2", "R3", "R4", "IR4", "R5",
                  "RB"):
        assert check_axiom(kappa_k0(), axiom, u).holds, axiom


def test_share_measure_passes_threshold_preservation_small_sizes():
    for size in (2, 3, 4):
        u = Universe(tuple(f"e{i}" for i in range(size)))
        assert check_axiom(kappa_k0(), "RV", u).holds
        assert check_axiom(kappa_k0(), "RI", u).holds


def test_meet_premise_cannot_be_dropped():
    u = Universe.of(("1", "2", "3", "5", "6", "7", "8", "9"))
    bindings = {"a": u.subset(("1", "2", "3", "6")),
                "b": u.subset(("3", "5", "7", "8", "9")),
                "c": u.subset(("2", "5", "6"))}
    assert not evaluate_axiom_instance(kappa_k0(), "RI-np", bindings,
                                       delta=Fraction(1, 5))
    assert evaluate_axiom_instance(kappa_k0(), "RI", bindings,
                                   delta=Fraction(1, 5))


def test_swept_axiom_is_decided_at_every_threshold():
    # Kst(13/27,25/26) fails only in a narrow interval ending at 13/337,
    # which holds no tenth and no fraction with a denominator up to the
    # universe size. The table measure is 1 except at ({p}, {p,q}) and
    # ({q}, {p,q}), where it is 1/2, and at ({}, {p,q}), where it is 0, so
    # RI-np fails only for thresholds in (0, 1/2], read off pairs whose
    # second set is not inside the first.
    two = Universe(("p", "q"))
    values = {(am, bm): Fraction(1) for am in range(4) for bm in range(4)}
    values.update({(1, 3): Fraction(1, 2), (2, 3): Fraction(1, 2),
                   (0, 3): Fraction(0)})
    for kappa, u, delta in (
            (kappa_st("13/27", "25/26"), Universe(("a", "b", "c")), "13/337"),
            (_table_kappa(two, values), two, "1/2")):
        report = check_axiom(kappa, "RI-np", u)
        assert not report.holds, delta
        for w in report.witnesses:
            named = dict(w)
            assert named.pop("delta") == (delta,)
            bindings = {n: u.subset(m) for n, m in named.items()}
            assert not evaluate_axiom_instance(kappa, "RI-np", bindings,
                                               delta=delta)


def _table_kappa(universe: Universe, values: dict[tuple[int, int], Fraction]
                 ) -> InclusionFn:
    def fn(u, am, bm):
        return values[(am, bm)]

    return InclusionFn("table", fn)


quarters = st.sampled_from([Fraction(n, 4) for n in range(5)])


@st.composite
def random_measures(draw):
    u = Universe(("p", "q", "r"))
    values = {}
    for am in range(u.full_mask + 1):
        for bm in range(u.full_mask + 1):
            values[(am, bm)] = draw(quarters)
    return u, _table_kappa(u, values)


_INSTANCE_NAMES = {"U1": ("a",), "R0": ("a", "b"), "IR0": ("a", "b"),
                   "R1": ("a", "b"), "R2": ("a", "b", "c"),
                   "R3": ("a", "b", "c"), "R4": ("a", "b"), "IR4": ("a", "b"),
                   "R5": ("a", "b"), "RB": ("a",), "R6": ("a", "b", "c"),
                   "RV": ("a", "b", "c"), "RI": ("a", "b", "c"),
                   "RI-np": ("a", "b", "c")}


def _brute_failures(kappa, axiom, universe, deltas):
    """Every failing instance as (threshold, witness), over the product of
    all subsets and the given thresholds."""
    names = _INSTANCE_NAMES[axiom]
    sets = list(universe.subsets())
    out = []
    for delta in deltas:
        for combo in itertools.product(sets, repeat=len(names)):
            bindings = dict(zip(names, combo))
            if not evaluate_axiom_instance(kappa, axiom, bindings,
                                           delta=delta):
                w = tuple((n, s.members) for n, s in bindings.items())
                if delta is not None:
                    w += (("delta", (str(delta),)),)
                out.append((delta, w))
    return out


@st.composite
def near_shipped_measures(draw):
    """A shipped measure on three elements with up to three table cells
    overwritten, so that failures are few and verdicts can hold."""
    u = Universe(("p", "q", "r"))
    base = draw(st.sampled_from([kappa_k0(), kappa_k1(), kappa_k2(),
                                 kappa_st("1/5", "4/5")]))
    cells = range(u.full_mask + 1)
    values = {(am, bm): base.on_masks(u, am, bm)
              for am in cells for bm in cells}
    for _ in range(draw(st.integers(0, 3))):
        key = (draw(st.sampled_from(cells)), draw(st.sampled_from(cells)))
        values[key] = draw(quarters)
    return u, _table_kappa(u, values)


@settings(max_examples=20, deadline=None)
@given(st.one_of(random_measures(), near_shipped_measures()),
       st.integers(1, 4),
       st.sampled_from([Fraction(n, 4) for n in range(5)]
                       + [Fraction(1, 3), Fraction(3, 10)]))
def test_sweep_agrees_with_instance_evaluation(um, max_witnesses, pinned):
    universe, kappa = um
    sets = list(universe.subsets())
    values = sorted({kappa(x, c) for x in sets for c in sets})
    # Every instance keeps its verdict between two consecutive values, so
    # the values and one point inside each gap decide every threshold.
    dense = values + [(p + q) / 2 for p, q in zip(values, values[1:])]
    runs = [(a, None) for a in VALID_AXIOMS if a not in SWEPT_AXIOMS]
    runs += [(a, d) for a in SWEPT_AXIOMS for d in (pinned, None)]
    for axiom, delta in runs:
        report = check_axiom(kappa, axiom, universe, delta=delta,
                             max_witnesses=max_witnesses)
        if axiom not in SWEPT_AXIOMS:
            deltas = swept = (None,)
        elif delta is None:
            # The witnesses' thresholds are the values on the pairs that
            # the axiom's instances read.
            deltas = dense
            swept = {kappa(x, c) for x in sets for c in sets
                     if axiom == "RI-np" or c <= x}
        else:
            deltas = swept = (delta,)
        brute = _brute_failures(kappa, axiom, universe, deltas)
        assert report.holds == (not brute), (axiom, delta)
        at_swept = [w for d, w in brute if d in swept]
        assert len(report.witnesses) == min(max_witnesses, len(at_swept))
        assert len(set(report.witnesses)) == len(report.witnesses)
        for w in report.witnesses:
            assert w in at_swept, (axiom, delta, w)
            named = dict(w)
            own = Fraction(named.pop("delta")[0]) if "delta" in named \
                else None
            bindings = {n: universe.subset(m) for n, m in named.items()}
            assert not evaluate_axiom_instance(kappa, axiom, bindings,
                                               delta=own)


@settings(max_examples=20, deadline=None)
@given(random_measures())
def test_implication_lattice_holds_for_arbitrary_measures(um):
    universe, kappa = um
    reports = check_prif_implications(kappa, universe)
    assert [r.name for r in reports] == [
        "prif1", "prif2", "prif3", "prif4", "prif5", "prif6", "prif7",
        "prif8", "prif9", "u1-of-r1", "u1-of-r0"]
    failed = [r.name for r in reports if not r.holds]
    assert failed == []


def test_implication_lattice_for_the_shipped_family():
    u = Universe(("e1", "e2", "e3", "e4"))
    for kappa in (kappa_k0(), kappa_k1(), kappa_k2(),
                  kappa_st("1/5", "4/5")):
        assert all(r.holds for r in check_prif_implications(kappa, u))


def test_check_axiom_rejects_unknown_identifiers():
    u = Universe(("e1",))
    with pytest.raises(ValueError):
        check_axiom(kappa_k0(), "R99", u)
