from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roughpart import (
    ESet,
    Granulation,
    InclusionFn,
    Universe,
    VALID_AXIOMS,
    check_axiom,
    check_prif_implications,
    classify_rif,
    dependence_degree,
    eval_bgrif,
    eval_cgrif,
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
from conftest import operator_pairs, subsets_by_label


def test_share_measure_spot_values(std):
    s = subsets_by_label(std)
    g1 = std.universe.subset(("x1", "x2"))
    g4 = std.universe.subset(("x4",))
    assert kappa_k0()(s["{x1,x4}"], g1) == Fraction(1, 2)
    assert kappa_k0()(s["{x1,x2,x3,x4}"], g4) == Fraction(1, 4)
    assert kappa_k0()(std.universe.empty, g1) == 1


def test_union_and_complement_measures_spot_values(std):
    s = subsets_by_label(std)
    a, b = s["{x1,x2}"], s["{x2,x3}"]
    assert kappa_k1()(a, b) == Fraction(2, 3)
    assert kappa_k2()(a, b) == Fraction(3, 4)
    assert dependence_degree(a, b) == 0


def test_two_threshold_rescaling():
    u = Universe(("x1", "x2", "x3", "x4"))
    a = u.subset(("x1", "x4"))
    g1 = u.subset(("x1", "x2"))
    assert kappa_st("1/5", "4/5")(a, g1) == Fraction(1, 2)
    assert kappa_st("1/2", "4/5")(a, g1) == 0
    assert kappa_st("1/5", "1/2")(a, g1) == 1


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


@pytest.mark.parametrize("evaluate", [eval_bgrif, eval_cgrif])
def test_granular_measures_refuse_mixed_universes_and_bad_sides(evaluate):
    u = Universe(("e1", "e2", "e3"))
    v = Universe(("f1", "f2", "f3"))
    a, b = u.subset(("e1",)), u.subset(("e2",))
    same = lambda x: x
    elsewhere = lambda x: ESet(v, x.mask | 1)
    with pytest.raises(ValueError, match="different universes"):
        evaluate(a, v.subset(("f2",)), "l", "u", same, same)
    # A lower operator that answers in another universe, read against
    # the upper image of the second argument.
    with pytest.raises(ValueError, match="different universes"):
        evaluate(a, b, "l", "u", elsewhere, same)
    # Both images in one other universe: they agree with each other but
    # not with the arguments.
    with pytest.raises(ValueError, match="different universes"):
        evaluate(a, a, "l", "l", elsewhere, elsewhere)
    # An empty image of another universe, in front of the empty return.
    nowhere = lambda x: v.empty
    for sigma, pi in (("l", "u"), ("u", "l")):
        with pytest.raises(ValueError, match="different universes"):
            evaluate(a, b, sigma, pi, nowhere, same)
    for sigma, pi in (("x", "u"), ("l", "b"), ("", "l")):
        with pytest.raises(ValueError, match="approximation side"):
            evaluate(a, b, sigma, pi, same, same)


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.data())
def test_granular_measures_match_plain_fractions(ops, data):
    """Both granular measures equal a Fraction over member sets, for the
    classical pair and for image tables that obey no law."""
    u, _, lo, up = ops
    a, b = (ESet(u, data.draw(st.integers(0, u.full_mask)))
            for _ in range(2))
    ops = {"l": lambda x: ESet(u, lo[x.mask]),
           "u": lambda x: ESet(u, up[x.mask])}
    for sigma, pi in itertools.product("lu", repeat=2):
        fa, fb = set(ops[sigma](a)), set(ops[pi](b))
        da = set(ops[pi](a))
        want_b = Fraction(len(fa & fb), len(fa)) if fa else 1
        want_c = Fraction(len(fa & fb), len(da)) if da else 1
        assert eval_bgrif(a, b, sigma, pi, ops["l"], ops["u"]) == want_b
        assert eval_cgrif(a, b, sigma, pi, ops["l"], ops["u"]) == want_c


def test_k0_lands_in_every_class():
    u = Universe(("e1", "e2", "e3", "e4"))
    assert classify_rif(kappa_k0(), u) == ("gRIF", "pRIF", "qRIF", "wqRIF")


def test_classify_rif_decides_each_axiom_once(monkeypatch):
    calls = []
    real = inclusion._axiom_holds

    def recording(kappa, axiom_id, universe, *args):
        calls.append(axiom_id)
        return real(kappa, axiom_id, universe, *args)

    monkeypatch.setattr(inclusion, "_axiom_holds", recording)
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


def _assert_sweeps_match_brute_force(kappa, universe, pinned, sweep=True):
    """``check_axiom`` on every axiom, the swept ones at each pinned
    threshold and, with ``sweep``, swept, against the instance-by-instance
    brute force."""
    sets = list(universe.subsets())
    values = sorted({kappa(x, c) for x in sets for c in sets})
    # Every instance keeps its verdict between two consecutive values, so
    # the values and one point inside each gap decide every threshold.
    dense = values + [(p + q) / 2 for p, q in zip(values, values[1:])]
    # The brute force reads the same values from a plain lookup table.
    oracle = _table_kappa(universe, {(x.mask, c.mask): kappa(x, c)
                                     for x in sets for c in sets})
    runs = [(a, None) for a in VALID_AXIOMS if a not in SWEPT_AXIOMS]
    runs += [(a, d) for a in SWEPT_AXIOMS
             for d in (*pinned, None) if d is not None or sweep]
    for axiom, delta in runs:
        report = check_axiom(kappa, axiom, universe, delta=delta)
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
        brute = _brute_failures(oracle, axiom, universe, deltas)
        assert report.holds == (not brute), (axiom, delta)
        at_swept = [w for d, w in brute if d in swept]
        assert len(report.witnesses) == min(3, len(at_swept))
        assert len(set(report.witnesses)) == len(report.witnesses)
        for w in report.witnesses:
            assert w in at_swept, (axiom, delta, w)
            named = dict(w)
            own = Fraction(named.pop("delta")[0]) if "delta" in named \
                else None
            bindings = {n: universe.subset(m) for n, m in named.items()}
            assert not evaluate_axiom_instance(kappa, axiom, bindings,
                                               delta=own)
        if axiom in SWEPT_AXIOMS and delta is None and report.witnesses:
            # The sweep's first failure is the first one at its threshold.
            first = report.witnesses[0]
            at = check_axiom(kappa, axiom, universe,
                             delta=Fraction(dict(first)["delta"][0]))
            assert at.witnesses[0] == first, (axiom, first)


@settings(max_examples=20, deadline=None)
@given(st.one_of(random_measures(), near_shipped_measures()),
       st.sampled_from([Fraction(n, 4) for n in range(5)]
                       + [Fraction(1, 3), Fraction(3, 10)]))
def test_sweep_agrees_with_instance_evaluation(um, pinned):
    universe, kappa = um
    _assert_sweeps_match_brute_force(kappa, universe, (pinned,))


_SHIPPED = (kappa_k0(), kappa_k1(), kappa_k2(), kappa_st("1/5", "4/5"),
            kappa_st("13/27", "25/26"), kappa_st("1/5", "4/5", kappa_k1()),
            kappa_st("1/4", "3/4", kappa_k2()))


@pytest.mark.parametrize("kappa", _SHIPPED, ids=InclusionFn.describe)
def test_rank_sweep_agrees_with_instance_evaluation(kappa):
    """The shipped measures decide every axiom on their rank tables. The
    pinned threshold 1/3 is a value of K0, K1 and K2 on three elements,
    and 3/10 is a value of none of these measures, so its cut falls
    inside a gap. Every report also equals the one the same measure gives
    on the ``Fraction`` route, witnesses in order."""
    assert kappa.invariant
    plain = dataclasses.replace(kappa, invariant=False)
    pinned = (Fraction(1, 3), Fraction(3, 10))
    for size in (3, 4):
        universe = Universe(tuple("pqrs"[:size]))
        # Swept thresholds on four elements take the brute force ten
        # times as long as the rest; the Fraction route covers them.
        _assert_sweeps_match_brute_force(kappa, universe, pinned,
                                         sweep=size == 3)
        for axiom in VALID_AXIOMS:
            for delta in (None, *pinned) if axiom in SWEPT_AXIOMS \
                    else (None,):
                assert check_axiom(kappa, axiom, universe, delta=delta) \
                    == check_axiom(plain, axiom, universe, delta=delta)


def _two_apart(universe, am, bm):
    return Fraction(1) if (am & ~bm).bit_count() >= 2 else Fraction(1, 2)


# A measure on the count |a∖b| alone, so invariant. On two or more
# elements it fails RV at its top threshold 1 only (a = c = {} and
# b = {p,q}); at the lowest swept value no swept axiom can fail.
_TOP_ONLY = InclusionFn("two-apart", _two_apart, invariant=True)


@pytest.mark.parametrize("kappa", _SHIPPED + (_TOP_ONLY,),
                         ids=InclusionFn.describe)
def test_type_sweep_agrees_with_the_mask_sweep(kappa):
    """The Venn-type sweep of an invariant measure, empty universe and
    empty regions included, gives the report of the mask sweep that the
    same measure gets when it is not flagged invariant: swept and at
    either pinned threshold of the rank sweep test above."""
    plain = dataclasses.replace(kappa, invariant=False)
    wide = kappa.describe() in ("K0", "Kst(s=1/5,t=4/5,base=K0)")
    for size in (0, 1, 2, 5) if wide else (0, 1, 2):
        universe = Universe(tuple("pqrst"[:size]))
        for axiom in VALID_AXIOMS:
            for delta in (None, Fraction(1, 3), Fraction(3, 10)) \
                    if axiom in SWEPT_AXIOMS else (None,):
                assert check_axiom(kappa, axiom, universe, delta=delta) \
                    == check_axiom(plain, axiom, universe, delta=delta), \
                    (size, axiom, delta)


def test_a_holding_invariant_verdict_starts_no_mask_sweep(monkeypatch):
    """K0 holds every axiom but R6 and RI-np on four elements, and decides
    each of them from its Venn types alone."""
    def refuse(masks, val, one):
        raise AssertionError("the mask sweep started")

    universe = Universe(("p", "q", "r", "s"))
    for axiom in VALID_AXIOMS:
        monkeypatch.setitem(inclusion._INSTANCES, axiom, refuse)
    for axiom in VALID_AXIOMS:
        if axiom not in ("R6", "RI-np"):
            assert check_axiom(kappa_k0(), axiom, universe).holds, axiom
    with pytest.raises(AssertionError, match="mask sweep"):
        check_axiom(kappa_k0(), "R6", universe)



@pytest.mark.parametrize("kappa", _SHIPPED, ids=InclusionFn.describe)
def test_verdict_helper_agrees_with_the_report(kappa):
    """The verdict-only helper gives ``check_axiom(...).holds`` for every
    axiom, on the type screen of the invariant measure and on the mask
    sweep of its plain copy, with the threshold swept or pinned."""
    plain = dataclasses.replace(kappa, invariant=False)
    for size in range(6):
        universe = Universe(tuple("pqrst"[:size]))
        for axiom in VALID_AXIOMS:
            for delta in (None, Fraction(1, 3), Fraction(3, 10)) \
                    if axiom in SWEPT_AXIOMS else (None,):
                for measure in (kappa, plain):
                    assert inclusion._axiom_holds(
                        measure, axiom, universe, delta) == check_axiom(
                        measure, axiom, universe, delta=delta).holds, \
                        (measure.invariant, size, axiom, delta)


def test_verdict_only_callers_start_no_mask_sweep(monkeypatch):
    """Kst(1/5,4/5) fails R2 and five more axioms on five elements, and
    the class tags and the implication verdicts still come from the Venn
    types alone."""
    def refuse(masks, val, one):
        raise AssertionError("the mask sweep started")

    universe = Universe(("p", "q", "r", "s", "t"))
    kappa = kappa_st("1/5", "4/5")
    for axiom in VALID_AXIOMS:
        monkeypatch.setitem(inclusion._INSTANCES, axiom, refuse)
    assert classify_rif(kappa, universe) == ("pRIF", "wqRIF")
    reports = check_prif_implications(kappa, universe)
    assert all(r.holds and not r.witnesses for r in reports)
    assert dict(reports[0].parameters) == {
        "kappa": "Kst(s=1/5,t=4/5,base=K0)", "IR0": "false",
        "IR4": "true", "R0": "true", "R1": "false", "R2": "false",
        "R3": "true", "R4": "false", "R5": "false", "R6": "false",
        "RB": "true", "U1": "true"}


def _bars_and_combinations(size, arity):
    """The Venn types as the engine once generated them: one choice of
    2^arity − 1 bar positions per type, region r the block of bits
    between bars r − 1 and r."""
    regions = 1 << arity
    members = [[r for r in range(regions) if r >> j & 1]
               for j in range(arity)]
    types = []
    for bars in itertools.combinations(range(size + regions - 1),
                                       regions - 1):
        edges = [1, *(1 << (bar - r) for r, bar in enumerate(bars)),
                 1 << size]
        types.append(tuple(sum(edges[r + 1] - edges[r] for r in rs)
                           for rs in members))
    return tuple(types)


def test_venn_types_keep_the_bars_and_combinations_order():
    for size in range(9):
        for arity in range(4):
            assert inclusion._venn_types(size, arity) \
                == _bars_and_combinations(size, arity), (size, arity)


def _screen(kappa, axiom, size, thetas):
    """The thresholds among ``thetas`` at which some Venn type of three
    sets fails the swept ``axiom``, tested one threshold at a time on
    ``Fraction`` values."""
    universe = Universe(tuple("pqrstu"[:size]))
    val = functools.partial(kappa.on_masks, universe)
    cases = set()
    # A case (x, y, z) fails at d when x and y reach d and z does not.
    for a, b, c in _bars_and_combinations(size, 3):
        if axiom == "RV":
            if not c & ~a and not a & ~b:
                cases.add((val(b, c), val(b, c), val(a, c)))
        elif axiom == "RI-np" or not c & ~(a & b):
            cases.add((val(a, c), val(b, c), val(a & b, c)))
    return {d for d in thetas
            if any(x >= d and y >= d and z < d for x, y, z in cases)}


def _swept_thresholds(kappa, axiom, size):
    universe = Universe(tuple("pqrstu"[:size]))
    masks = range(universe.full_mask + 1)
    return {kappa.on_masks(universe, x, c) for x in masks for c in masks
            if axiom == "RI-np" or not c & ~x}


@pytest.mark.parametrize("kappa", _SHIPPED, ids=InclusionFn.describe)
def test_failing_spans_keep_the_screened_thresholds(kappa):
    """The thresholds kept from the failing spans are those at which a
    per-threshold screen over the Venn types finds a failing type: over
    the whole sweep, and with the threshold pinned at each value of the
    measure, at 0, 1/3 and 1."""
    for size in range(7):
        universe = Universe(tuple("pqrstu"[:size]))
        values = inclusion._rank_table(kappa.fn, size)[0]
        pinned = set(values) | {Fraction(0), Fraction(1, 3), Fraction(1)}
        for axiom in SWEPT_AXIOMS:
            thetas = _swept_thresholds(kappa, axiom, size)
            kept, _, _ = inclusion._axiom_failures(kappa, axiom, universe,
                                                   None)
            assert [values[d] for d in kept] == sorted(
                _screen(kappa, axiom, size, thetas)), (size, axiom)
            failing = _screen(kappa, axiom, size, pinned)
            for delta in sorted(pinned):
                kept, _, _ = inclusion._axiom_failures(
                    kappa, axiom, universe, delta)
                assert bool(kept) == (delta in failing), (size, axiom, delta)


def test_a_failing_invariant_verdict_sweeps_only_failing_thresholds(
        monkeypatch):
    """The mask sweep of a failing verdict evaluates instances only at the
    thresholds at which the per-threshold screen finds a failing type.
    On four elements each of these measures fails some swept axiom, and
    has swept thresholds at which no type fails."""
    calls = []
    real_test = inclusion._failure_test

    def recording_test(*args):
        test = real_test(*args)

        def record(d, *masks):
            calls.append(d)
            return test(d, *masks)
        return record

    monkeypatch.setattr(inclusion, "_failure_test", recording_test)
    universe = Universe(("p", "q", "r", "s"))
    spared = 0
    for kappa in (kappa_k0(), kappa_k1(), kappa_st("1/5", "4/5"), _TOP_ONLY):
        values = inclusion._rank_table(kappa.fn, universe.size)[0]
        for axiom in SWEPT_AXIOMS:
            calls.clear()
            if check_axiom(kappa, axiom, universe).holds:
                continue
            thetas = _swept_thresholds(kappa, axiom, universe.size)
            failing = _screen(kappa, axiom, universe.size, thetas)
            swept = {values[d] for d in calls}
            assert swept and swept <= failing, (kappa.describe(), axiom)
            spared += len(thetas - failing)
    assert spared


def _row_pairs(rows):
    return {(am, bm) for am, row in enumerate(rows)
            for bm in range(len(rows)) if row >> bm & 1}


@pytest.mark.parametrize("kappa", _SHIPPED, ids=InclusionFn.describe)
def test_threshold_tests_agree_with_the_measure(kappa):
    """``at_least`` and the ``floor_rows`` table against the ``Fraction``
    values on every pair, at every value of the measure, every midpoint
    between two, and 0 and 1, plus one threshold below and one above the
    unit interval. The table is the non-strict cut; the strict one is
    ``at_least`` alone."""
    for size in range(6):
        universe = Universe(tuple("pqrst"[:size]))
        sets = list(universe.subsets())
        vals = {(a.mask, b.mask): kappa(a, b) for a in sets for b in sets}
        values = sorted(set(vals.values()))
        assert inclusion._rank_table(kappa.fn, size)[0] == tuple(values)
        thetas = set(values) | {(p + q) / 2 for p, q in
                                zip(values, values[1:])}
        thetas |= {Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)}
        for theta in sorted(thetas):
            for strict in (False, True):
                test = kappa.at_least(universe, theta, strict=strict)
                want = {pair for pair, v in vals.items()
                        if (v > theta if strict else v >= theta)}
                assert {pair for pair in vals if test(*pair)} == want, \
                    (size, theta, strict)
                if not strict:
                    rows = kappa.floor_rows(universe, theta)
                    assert _row_pairs(rows) == want, (size, theta)


_RANKED = (kappa_k0(), kappa_k1(), kappa_k2(), kappa_st("1/5", "4/5"),
           kappa_st("1/5", "4/5", kappa_k1()))


@pytest.mark.parametrize(
    "kappa", _RANKED + tuple(dataclasses.replace(k, invariant=False)
                             for k in _RANKED),
    ids=lambda k: k.describe() + ("" if k.invariant else "-plain"))
def test_granule_ranks_match_the_measure_on_every_mask(kappa):
    """Every column entry of the threshold-free rank table names the
    ``Fraction`` value of its (mask, granule) pair, on universes of 0 to
    8 elements whose granules include the full set, every singleton and
    every run of two and of three consecutive elements. A measure not
    flagged invariant ranks exactly the values that occur."""
    for size in range(9):
        u = Universe(tuple(f"e{i}" for i in range(size)))
        full = u.full_mask
        masks = [full] + [1 << i for i in range(size)] + [
            run << i for run in (3, 7) for i in range(size)
            if run << i <= full]
        g = Granulation(u, tuple(ESet(u, m) for m in dict.fromkeys(masks)
                                 if m))
        values, columns = kappa.granule_ranks(g)
        assert list(values) == sorted(set(values))
        assert len(columns) == len(g.masks)
        seen = set()
        for gm, column in zip(g.masks, columns):
            assert len(column) == full + 1
            for x, r in enumerate(column):
                assert values[r] == kappa.on_masks(u, x, gm), (size, x, gm)
                seen.add(r)
        if not kappa.invariant:
            assert seen == set(range(len(values)))


def test_measures_without_a_cardinality_form_stay_on_their_function():
    """A measure not flagged invariant reads its function, whatever its
    tag, and never the table of a measure that shares the tag."""
    u = Universe(("p", "q", "r"))
    sets = list(u.subsets())
    k0 = kappa_k0()

    def swapped(universe, am, bm):
        return k0.on_masks(universe, bm, am)

    table = _table_kappa(u, {(a.mask, b.mask): kappa_k1()(a, b)
                             for a in sets for b in sets})
    custom = (InclusionFn("K0", swapped), InclusionFn("K0", k0.fn),
              kappa_st("1/5", "4/5", table))
    assert InclusionFn("K0", k0.fn) == k0
    for kappa in custom:
        assert not kappa.invariant
        for theta in (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                      Fraction(1)):
            for strict in (False, True):
                test = kappa.at_least(u, theta, strict=strict)
                want = {(a.mask, b.mask) for a in sets for b in sets
                        if (kappa(a, b) > theta if strict
                            else kappa(a, b) >= theta)}
                assert {(a.mask, b.mask) for a in sets for b in sets
                        if test(a.mask, b.mask)} == want
                if not strict:
                    assert _row_pairs(kappa.floor_rows(u, theta)) == want
    assert any(swapped(u, a.mask, b.mask) != k0(a, b)
               for a in sets for b in sets)


def test_measures_sharing_a_tag_read_their_own_tables():
    """Two ``Kst`` measures share a tag and differ in their base; two
    built from equal arguments are distinct objects. Each reads a table
    of its own, keyed by its mask function."""
    u = Universe(("p", "q", "r", "s"))
    sets = list(u.subsets())
    over_k0, again, over_k1 = (kappa_st("1/5", "4/5"), kappa_st("1/5", "4/5"),
                               kappa_st("1/5", "4/5", kappa_k1()))
    assert over_k0.tag == over_k1.tag and over_k0 != again
    tables = [inclusion._rank_table(k.fn, u.size)
              for k in (over_k0, again, over_k1)]
    assert tables[0] is not tables[1]
    assert any(tables[0][1](a.mask, b.mask) != tables[2][1](a.mask, b.mask)
               for a in sets for b in sets)
    for kappa in (over_k0, over_k1):
        test = kappa.at_least(u, Fraction(1, 2))
        assert all(test(a.mask, b.mask) == (kappa(a, b) >= Fraction(1, 2))
                   for a in sets for b in sets)


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
