"""Inclusion measures on subsets and the axioms that sort them into classes.

An inclusion measure maps a pair of subsets to a degree in [0, 1] that says
how far the first sits inside the second. Four concrete families ship here:
the cardinality ratio ``K0`` with its complementary classification error,
the union-normalized ``K1``, the implication-style ``K2``, and the
two-threshold rescaling ``Kst`` of any base measure. Granulation-aware
variants (:func:`eval_bgrif`, :func:`eval_cgrif`) measure overlap between
chosen approximations of their arguments; the co-granular form is
intentionally not clamped, so it can exceed 1.

:func:`check_axiom` evaluates one named axiom exhaustively over a finite
universe and reports refuting witnesses. :func:`classify_rif` turns those
verdicts into the standard class tags and
:func:`check_prif_implications` confirms the implication lattice between
axioms that any [0, 1]-valued measure must respect.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .core import (
    EXHAUSTIVE_CAP,
    CheckReport,
    ESet,
    Granulation,
    Universe,
    Witness,
    _check_cap,
    _exact,
    _sweep_report,
    binding,
    iter_submasks,
    venn_rows,
)

ZERO = Fraction(0)
ONE = Fraction(1)

VALID_AXIOMS = ("U1", "R0", "IR0", "R1", "R2", "R3", "R4", "IR4", "R5",
                "RB", "R6", "RV", "RI", "RI-np")

SWEPT_AXIOMS = ("RV", "RI", "RI-np")

CLASS_TAGS = ("gRIF", "pRIF", "qRIF", "wqRIF")

MaskFn = Callable[[Universe, int, int], Fraction]
PairTest = Callable[[int, int], bool]
# Values of a measure, ascending, and the rank among them of its value on
# each (subset, granule) pair, one column of masks per granule.
GranuleRanks = tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class InclusionFn:
    """A named inclusion measure with frozen tuning parameters.

    Calling an instance on two subsets of the same universe returns an
    exact :class:`~fractions.Fraction`; ``on_masks`` is the same value
    without the universe check. Both stay on ``Fraction`` arithmetic and
    are the reference for the threshold tests of :meth:`at_least`.

    ``invariant`` declares that the measure is invariant under
    permutations of the universe: set it only when ``fn`` depends on the
    Venn counts |a∩b|, |a∖b|, |b∖a| of the pair and the universe size
    alone. The built-in measures set it, and whole-powerset sweeps then
    compare ranks in one cached table per (``fn``, size) instead of
    ``Fraction`` values. It takes no part in equality, hashing or
    ``repr``; a measure built as ``InclusionFn(tag, fn, parameters)`` is
    not invariant and stays on ``fn``.
    """

    tag: str
    fn: MaskFn = field(repr=False)
    parameters: tuple[tuple[str, str], ...] = ()
    invariant: bool = field(default=False, repr=False, compare=False)

    def __call__(self, a: ESet, b: ESet) -> Fraction:
        if a.universe != b.universe:
            raise ValueError("subsets belong to different universes")
        return self.fn(a.universe, a.mask, b.mask)

    def on_masks(self, universe: Universe, am: int, bm: int) -> Fraction:
        return self.fn(universe, am, bm)

    def at_least(self, universe: Universe, theta: Fraction, *,
                 strict: bool = False) -> PairTest:
        """The test ``kappa(a, b) >= theta`` (``>`` when ``strict``) on
        mask pairs of ``universe``, for sweeps over many pairs."""
        if not self.invariant:
            fn = self.fn
            if strict:
                return lambda am, bm: fn(universe, am, bm) > theta
            return lambda am, bm: fn(universe, am, bm) >= theta
        values, rank = _rank_table(self.fn, universe.size)
        cut = (bisect_right if strict else bisect_left)(values, theta)
        return lambda am, bm: rank(am, bm) >= cut

    def floor_rows(self, universe: Universe,
                   theta: Fraction) -> tuple[int, ...]:
        """The test of :meth:`at_least` over every pair, as bitset rows:
        bit ``b`` of row ``a`` is set exactly when ``kappa(a, b) >=
        theta``. An invariant measure builds one table per (measure,
        size, rank cut) from its Venn counts; any other evaluates every
        pair once per (measure, universe, threshold)."""
        if not self.invariant:
            return _plain_floor_rows(self, universe, theta)
        values, _ = _rank_table(self.fn, universe.size)
        return _floor_rows(self.fn, universe.size,
                           bisect_left(values, theta))

    def granule_ranks(self, granulation: Granulation) -> GranuleRanks:
        """The rank of the measure's value on every (subset, granule)
        pair of ``granulation``, one column per granule, with the
        ascending values the ranks index; cached per (granulation,
        measure). See :func:`_granule_ranks`."""
        return _granule_ranks(granulation, self.fn, self.invariant)

    def describe(self) -> str:
        if not self.parameters:
            return self.tag
        inner = ",".join(f"{k}={v}" for k, v in self.parameters)
        return f"{self.tag}({inner})"


@functools.cache
def _rank_table(fn: MaskFn, size: int
                ) -> tuple[tuple[Fraction, ...], Callable[[int, int], int]]:
    """The distinct values of the invariant measure ``fn`` on a universe
    of ``size`` elements, ascending, and the rank among them of each mask
    pair's value. Each Venn-count triple (i, x, y) = (|a∩b|, |a∖b|,
    |b∖a|) that fits the universe is evaluated once, with ``Fraction``,
    at one pair with those counts on a canonical universe; a pair's rank
    is one lookup by its counts."""
    side = size + 1
    universe = Universe(tuple(f"e{k}" for k in range(size)))
    cells = {(i * side + x) * side + y:
             fn(universe, (1 << (i + x)) - 1,
                ((1 << i) - 1) | (((1 << y) - 1) << (i + x)))
             for i in range(side) for x in range(side - i)
             for y in range(side - i - x)}
    values = tuple(sorted(set(cells.values())))
    index = {v: r for r, v in enumerate(values)}
    ranks = [-1] * side ** 3
    for cell, v in cells.items():
        ranks[cell] = index[v]

    def rank(am: int, bm: int) -> int:
        meet = am & bm
        return ranks[(meet.bit_count() * side
                      + (am ^ meet).bit_count()) * side
                     + (bm ^ meet).bit_count()]

    return values, rank


@functools.cache
def _floor_rows(fn: MaskFn, size: int, cut: int) -> tuple[int, ...]:
    """Bitset rows of the pairs whose rank under the invariant measure
    ``fn`` is at least ``cut``, from the Venn counts: counts (p, i, y)
    pass when the rank at a canonical p-element set and a set meeting
    it in i elements and leaving it by y reaches the cut."""
    _, rank = _rank_table(fn, size)
    return venn_rows(size, lambda p, i, y: rank(
        (1 << p) - 1, ((1 << i) - 1) | (((1 << y) - 1) << p)) >= cut)


@functools.cache
def _plain_floor_rows(kappa: InclusionFn, universe: Universe,
                      theta: Fraction) -> tuple[int, ...]:
    """:meth:`InclusionFn.floor_rows` of a measure not flagged
    invariant, one ``Fraction`` value per pair."""
    reaches = kappa.at_least(universe, theta)
    masks = range(universe.full_mask + 1)
    return tuple(sum(1 << bm for bm in masks if reaches(am, bm))
                 for am in masks)


@functools.cache
def _granule_ranks(granulation: Granulation, fn: MaskFn,
                   invariant: bool) -> GranuleRanks:
    """Ascending ``values`` of the measure ``fn`` and one column per
    granule g_j: ``columns[j][x]`` is the rank of fn(x, g_j) among the
    values, for every mask x. No threshold enters, so one table serves
    every precision.

    An ``invariant`` measure takes its values and ranks from
    :func:`_rank_table`, so its values are all those of the universe
    size: with |g| fixed, fn(x, g) depends only on the cell (|x∩g|,
    |x∖g|), so a granule's cells are ranked once at canonical pairs and
    each mask reads its cell. Any other measure is evaluated once per
    (mask, granule) with ``Fraction``, and its values are those that
    occur."""
    universe = granulation.universe
    size = universe.size
    if not invariant:
        masks = range(universe.full_mask + 1)
        cols = [[fn(universe, x, g) for x in masks]
                for g in granulation.masks]
        values = tuple(sorted({v for col in cols for v in col}))
        index = {v: r for r, v in enumerate(values)}
        return values, tuple(tuple(map(index.__getitem__, col))
                             for col in cols)
    values, rank = _rank_table(fn, size)
    side = size + 1
    columns = []
    for g in granulation.masks:
        q = g.bit_count()
        # Cell i·side + j: the sets meeting g in i elements and leaving
        # it by j, ranked at one canonical pair with those counts.
        cells = [0] * side * side
        for i in range(q + 1):
            for j in range(side - q):
                cells[i * side + j] = rank(
                    (1 << (i + j)) - 1,
                    ((1 << i) - 1) | (((1 << (q - i)) - 1) << (i + j)))
        # The cell of every mask, grown one element at a time: an element
        # of g moves a mask one i up, any other element one j up.
        at = [0]
        for e in range(size):
            step = side if g >> e & 1 else 1
            at += [c + step for c in at]
        columns.append(tuple(map(cells.__getitem__, at)))
    return values, tuple(columns)


def _same_universe(a: ESet, *others: ESet) -> None:
    for b in others:
        if a.universe is not b.universe and a.universe != b.universe:
            raise ValueError("subsets belong to different universes")


def _k0_masks(universe: Universe, am: int, bm: int) -> Fraction:
    if am == 0:
        return ONE
    return Fraction((am & bm).bit_count(), am.bit_count())


def _k1_masks(universe: Universe, am: int, bm: int) -> Fraction:
    union = am | bm
    if union == 0:
        return ONE
    return Fraction(bm.bit_count(), union.bit_count())


def _k2_masks(universe: Universe, am: int, bm: int) -> Fraction:
    size = universe.size
    if size == 0:
        return ONE
    value = (universe.full_mask & ~am) | bm
    return Fraction(value.bit_count(), size)


_K0 = InclusionFn("K0", _k0_masks, invariant=True)
_K1 = InclusionFn("K1", _k1_masks, invariant=True)
_K2 = InclusionFn("K2", _k2_masks, invariant=True)


def kappa_k0() -> InclusionFn:
    """Fraction of the first argument lying in the second; 1 on empty."""
    return _K0


def kappa_k1() -> InclusionFn:
    """Second argument's share of the union; 1 when the union is empty."""
    return _K1


def kappa_k2() -> InclusionFn:
    """Size of (complement of first, joined with second) over the universe."""
    return _K2


def _validate_thresholds(s: Fraction, t: Fraction) -> None:
    if not (ZERO <= s < t <= ONE):
        raise ValueError("thresholds must satisfy 0 <= s < t <= 1")


def kappa_st(s: Fraction | int | str, t: Fraction | int | str,
             base: InclusionFn | None = None) -> InclusionFn:
    """Two-threshold rescaling of ``base`` (default ``K0``).

    Values at or below ``s`` collapse to 0, values at or above ``t``
    collapse to 1, and the open band in between rescales linearly. The
    result is invariant exactly when ``base`` is.
    """
    s = _exact(s)
    t = _exact(t)
    _validate_thresholds(s, t)
    inner = base if base is not None else _K0

    def fn(universe: Universe, am: int, bm: int) -> Fraction:
        v = inner.on_masks(universe, am, bm)
        if v <= s:
            return ZERO
        if v >= t:
            return ONE
        return (v - s) / (t - s)

    return InclusionFn("Kst", fn,
                       (("s", str(s)), ("t", str(t)), ("base", inner.tag)),
                       inner.invariant)


_SIDES = ("l", "u")

# The value of a granular measure, one Fraction per (overlap, size).
_ratio = functools.cache(Fraction)


def _pick(side: str, lower: Callable[[ESet], ESet],
          upper: Callable[[ESet], ESet]) -> Callable[[ESet], ESet]:
    if side not in _SIDES:
        raise ValueError(f"approximation side must be one of {_SIDES}")
    return lower if side == "l" else upper


def eval_bgrif(a: ESet, b: ESet, sigma: str, pi: str,
               lower: Callable[[ESet], ESet],
               upper: Callable[[ESet], ESet]) -> Fraction:
    """Granulation-aware inclusion: overlap of the sigma-approximation of
    ``a`` with the pi-approximation of ``b``, normalized by the former.
    Empty denominator gives 1."""
    _same_universe(a, b)
    fa = _pick(sigma, lower, upper)(a)
    fb = _pick(pi, lower, upper)(b)
    if not (fa.universe is fb.universe is a.universe):
        _same_universe(a, fa, fb)
    if fa.is_empty:
        return ONE
    return _ratio((fa.mask & fb.mask).bit_count(), fa.cardinality)


def eval_cgrif(a: ESet, b: ESet, sigma: str, pi: str,
               lower: Callable[[ESet], ESet],
               upper: Callable[[ESet], ESet]) -> Fraction:
    """Co-normalized variant of :func:`eval_bgrif`: same numerator divided
    by the size of the pi-approximation of ``a``. Not clamped, so values
    above 1 are possible and meaningful (they flag the normalization
    mismatch). Empty denominator gives 1."""
    _same_universe(a, b)
    fa = _pick(sigma, lower, upper)(a)
    fb = _pick(pi, lower, upper)(b)
    da = _pick(pi, lower, upper)(a)
    if not (fa.universe is fb.universe is da.universe is a.universe):
        _same_universe(a, fa, fb, da)
    if da.is_empty:
        return ONE
    return _ratio((fa.mask & fb.mask).bit_count(), da.cardinality)


def dependence_degree(a: ESet, b: ESet) -> Fraction:
    """Signed deviation of the overlap from independence under the uniform
    distribution on the universe."""
    _same_universe(a, b)
    size = a.universe.size
    if size == 0:
        raise ValueError("dependence degree needs a nonempty universe")
    pa = Fraction(a.cardinality, size)
    pb = Fraction(b.cardinality, size)
    pab = Fraction((a & b).cardinality, size)
    return pab - pa * pb


def _failure_test(axiom_id: str, val: Callable[[int, int], object],
                  one: object, zero: object, comp: Callable[[object], object],
                  full: int) -> Callable[..., bool]:
    """The test ``test(d, *masks)`` that one instance of ``axiom_id``
    fails, premise included, with masks in _INSTANCE_VARS order and ``d``
    the threshold of a swept axiom (None otherwise). It sees the measure
    through order-preserving primitives: ``val`` on a mask pair, the
    images ``one`` and ``zero`` of 1 and 0, and ``comp`` mapping a value's
    image to the image of 1 minus it."""
    return {
        "U1": lambda d, a: val(a, a) != one,
        "R0": lambda d, a, b: not a & ~b and val(a, b) != one,
        "IR0": lambda d, a, b: a & ~b and val(a, b) == one,
        "R1": lambda d, a, b: (val(a, b) == one) != (not a & ~b),
        "R2": lambda d, a, b, c: val(b, c) == one and val(a, b) > val(a, c),
        "R3": lambda d, a, b, c: not b & ~c and val(a, b) > val(a, c),
        "R4": lambda d, a, b: a & b and val(a, b) == zero,
        "IR4": lambda d, a, b: a and not a & b and val(a, b) != zero,
        "R5": lambda d, a, b: a and (val(a, b) == zero) != (not a & b),
        "RB": lambda d, a: a and val(a, 0) != zero,
        "R6": lambda d, a, b, c: a and b | c == full
        and val(a, c) != comp(val(a, b)),
        "RV": lambda d, a, b, c: not c & ~a and not a & ~b
        and val(b, c) >= d and val(a, c) < d,
        "RI": lambda d, a, b, c: not c & ~(a & b) and val(a, c) >= d
        and val(b, c) >= d and val(a & b, c) < d,
        "RI-np": lambda d, a, b, c: val(a, c) >= d and val(b, c) >= d
        and val(a & b, c) < d,
    }[axiom_id]


def _pairs(masks: range, val: object, one: object
           ) -> Iterator[tuple[int, ...]]:
    return itertools.product(masks, repeat=2)


# The mask sweep of each axiom, ``instances(masks, val, one)``: every
# instance in witness order, skipping only instances whose premise fails.
_INSTANCES: dict[str, Callable[..., Iterator[tuple[int, ...]]]] = {
    "U1": lambda masks, val, one: ((a,) for a in masks),
    "R0": lambda masks, val, one: (
        (a, b) for b in masks for a in iter_submasks(b)),
    "IR0": _pairs,
    "R1": _pairs,
    "R2": lambda masks, val, one: (
        (a, b, c) for b in masks for c in masks if val(b, c) == one
        for a in masks),
    "R3": lambda masks, val, one: (
        (a, b, c) for c in masks for b in iter_submasks(c) for a in masks),
    "R4": _pairs,
    "IR4": _pairs,
    "R5": _pairs,
    "RB": lambda masks, val, one: ((a,) for a in masks),
    "R6": lambda masks, val, one: (
        (a, b, (masks[-1] ^ b) | s) for b in masks
        for s in iter_submasks(b) for a in masks),
    "RV": lambda masks, val, one: (
        (a, b, c) for b in masks for a in iter_submasks(b)
        for c in iter_submasks(a)),
    "RI": lambda masks, val, one: (
        (a, b, c) for a in masks for b in masks
        for c in iter_submasks(a & b)),
    "RI-np": lambda masks, val, one: itertools.product(masks, repeat=3),
}


@functools.cache
def _venn_types(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """One mask tuple per Venn-count type of ``arity`` subsets of a
    ``size``-element universe, empty regions included. Region r holds the
    elements in exactly the sets j with bit j of r set, and is a block of
    consecutive bits. Regions are laid down one level at a time, in every
    size that fits, so the splits of ``size`` come in lexicographic order;
    the last lies in every set and takes the rest. Set j's partial mask
    sits in bits j·(size + 1) up of one int."""
    width, last = size + 1, (1 << arity) - 1
    level = [(0, 0)]
    for r in range(last):
        spread = sum(1 << j * width for j in range(arity) if r >> j & 1)
        level = [(at + k, bits | ((1 << k) - 1 << at) * spread)
                 for at, bits in level for k in range(size - at + 1)]
    full, rest = (1 << size) - 1, sum(1 << j * width for j in range(arity))
    shifts = range(0, arity * width, width)
    return tuple(tuple([bits >> s & full for s in shifts]) for bits in
                 (bits | (full >> at << at) * rest for at, bits in level))


@functools.cache
def _failing_spans(fn: MaskFn, axiom_id: str, size: int
                   ) -> tuple[tuple[int, int], ...]:
    """The distinct nonempty spans (lo, hi] of threshold ranks at which a
    Venn type fails the swept ``axiom_id`` under the invariant ``fn``:
    (val(a, c), val(b, c)] for RV if c ⊆ a ⊆ b, and (val(a∩b, c),
    min(val(a, c), val(b, c))] for RI if c ⊆ a∩b, and for RI-np."""
    _, val = _rank_table(fn, size)
    spans = set()
    for a, b, c in _venn_types(size, 3):
        if axiom_id == "RV":
            if not c & ~a and not a & ~b:
                spans.add((val(a, c), val(b, c)))
        elif axiom_id == "RI-np" or not c & ~(a & b):
            spans.add((val(a & b, c), min(val(a, c), val(b, c))))
    return tuple(sorted((lo, hi) for lo, hi in spans if lo < hi))


_INSTANCE_VARS = {
    "U1": ("a",),
    "R0": ("a", "b"),
    "IR0": ("a", "b"),
    "R1": ("a", "b"),
    "R2": ("a", "b", "c"),
    "R3": ("a", "b", "c"),
    "R4": ("a", "b"),
    "IR4": ("a", "b"),
    "R5": ("a", "b"),
    "RB": ("a",),
    "R6": ("a", "b", "c"),
    "RV": ("a", "b", "c"),
    "RI": ("a", "b", "c"),
    "RI-np": ("a", "b", "c"),
}


def _require_axiom(axiom_id: str) -> None:
    if axiom_id not in VALID_AXIOMS:
        raise ValueError(
            f"unknown axiom {axiom_id!r}; valid identifiers: "
            f"{', '.join(VALID_AXIOMS)}"
        )


def evaluate_axiom_instance(kappa: InclusionFn, axiom_id: str,
                            bindings: Mapping[str, ESet], *,
                            delta: Fraction | None = None) -> bool:
    """Evaluate one axiom at explicit bindings.

    Returns True when the instance is satisfied (vacuously so when its
    premise fails). Swept axioms require ``delta``. This is the slow,
    direct route; the sweeps in :func:`check_axiom` re-derive the same
    semantics independently, and the test suite cross-checks the two.
    """
    _require_axiom(axiom_id)
    needed = _INSTANCE_VARS[axiom_id]
    missing = [v for v in needed if v not in bindings]
    if missing:
        raise ValueError(
            f"axiom {axiom_id} needs bindings for {', '.join(needed)}"
        )
    vals = [bindings[v] for v in needed]
    universe = vals[0].universe
    for v in vals[1:]:
        if v.universe != universe:
            raise ValueError("bindings belong to different universes")
    if axiom_id in SWEPT_AXIOMS:
        if delta is None:
            raise ValueError(f"axiom {axiom_id} needs a delta threshold")
        delta = _exact(delta)
    elif delta is not None:
        raise ValueError(f"axiom {axiom_id} takes no delta threshold")

    if axiom_id == "U1":
        (a,) = vals
        return kappa(a, a) == ONE
    if axiom_id == "R0":
        a, b = vals
        return not a <= b or kappa(a, b) == ONE
    if axiom_id == "IR0":
        a, b = vals
        return kappa(a, b) != ONE or a <= b
    if axiom_id == "R1":
        a, b = vals
        return (kappa(a, b) == ONE) == (a <= b)
    if axiom_id == "R2":
        a, b, c = vals
        return kappa(b, c) != ONE or kappa(a, b) <= kappa(a, c)
    if axiom_id == "R3":
        a, b, c = vals
        return not b <= c or kappa(a, b) <= kappa(a, c)
    if axiom_id == "R4":
        a, b = vals
        return kappa(a, b) != ZERO or (a & b).is_empty
    if axiom_id == "IR4":
        a, b = vals
        if a.is_empty or not (a & b).is_empty:
            return True
        return kappa(a, b) == ZERO
    if axiom_id == "R5":
        a, b = vals
        if a.is_empty:
            return True
        return (kappa(a, b) == ZERO) == ((a & b).is_empty)
    if axiom_id == "RB":
        (a,) = vals
        return a.is_empty or kappa(a, universe.empty) == ZERO
    if axiom_id == "R6":
        a, b, c = vals
        if a.is_empty or (b | c) != universe.full:
            return True
        return kappa(a, b) + kappa(a, c) == ONE
    if axiom_id == "RV":
        a, b, c = vals
        if not (c <= a and a <= b):
            return True
        return kappa(b, c) < delta or kappa(a, c) >= delta
    if axiom_id == "RI":
        a, b, c = vals
        if not c <= (a & b):
            return True
        if kappa(a, c) < delta or kappa(b, c) < delta:
            return True
        return kappa(a & b, c) >= delta
    # RI-np: the meet premise is dropped.
    a, b, c = vals
    if kappa(a, c) < delta or kappa(b, c) < delta:
        return True
    return kappa(a & b, c) >= delta


def _axiom_failures(kappa: InclusionFn, axiom_id: str, universe: Universe,
                    delta: Fraction | None
                    ) -> tuple[tuple, tuple, Iterator[Witness]]:
    """The setup of :func:`check_axiom` and :func:`_axiom_holds`: the
    thresholds that the Venn-type screen keeps, the report parameters, and
    the lazy failing witnesses in sweep order."""
    _require_axiom(axiom_id)
    if delta is not None and axiom_id not in SWEPT_AXIOMS:
        raise ValueError(f"axiom {axiom_id} takes no delta threshold")
    delta = None if delta is None else _exact(delta)
    _check_cap(universe.size, EXHAUSTIVE_CAP, f"the {axiom_id} sweep")
    masks = range(universe.full_mask + 1)
    params = [("kappa", kappa.describe())]
    if not kappa.invariant:
        val = functools.cache(functools.partial(kappa.on_masks, universe))
        values = None
        one, zero, comp, cut = ONE, ZERO, ONE.__sub__, delta
    else:
        # Values become their ranks among the measure's values, so every
        # comparison an axiom makes is an int comparison.
        values, val = _rank_table(kappa.fn, universe.size)
        index = {v: r for r, v in enumerate(values)}
        one, zero = index.get(ONE, -1), index.get(ZERO, -1)
        comp = [index.get(ONE - v, -1) for v in values].__getitem__
        cut = None if delta is None else bisect_left(values, delta)
    if delta is not None:
        deltas = (cut,)
        labels = {cut: str(delta)}
        params.append(("delta", str(delta)))
    elif axiom_id in SWEPT_AXIOMS:
        nested = axiom_id != "RI-np"
        pairs = ((x, c) for x, c in _venn_types(universe.size, 2)
                 if not (nested and c & ~x)) if kappa.invariant else (
            (x, c) for x in masks
            for c in (iter_submasks(x) if nested else masks))
        deltas = tuple(sorted({val(x, c) for x, c in pairs}))
        labels = {d: str(d if values is None else values[d]) for d in deltas}
        params.append(("delta", f"sweep[{len(deltas)}]"))
    else:
        deltas, labels = (None,), {}
    names = _INSTANCE_VARS[axiom_id]
    test = _failure_test(axiom_id, val, one, zero, comp, universe.full_mask)
    # An invariant measure's verdict depends only on Venn counts: a swept
    # axiom keeps the thresholds inside some type's failing span, and any
    # other runs its test once per type. Masks are swept at those kept.
    if kappa.invariant and axiom_id in SWEPT_AXIOMS:
        spans = _failing_spans(kappa.fn, axiom_id, universe.size)
        deltas = tuple(d for d in deltas
                       if any(lo < d <= hi for lo, hi in spans))
    elif kappa.invariant and not any(
            test(None, *ms) for ms in _venn_types(universe.size, len(names))):
        deltas = ()
    instances = _INSTANCES[axiom_id]
    return deltas, tuple(params), (
        tuple(binding(k, ESet(universe, m)) for k, m in zip(names, ms))
        + ((("delta", (labels[d],)),) if d is not None else ())
        for d in deltas for ms in instances(masks, val, one) if test(d, *ms))


def check_axiom(kappa: InclusionFn, axiom_id: str, universe: Universe, *,
                delta: Fraction | None = None) -> CheckReport:
    """Exhaustively test one axiom for ``kappa`` over a finite universe.

    Swept axioms (RV, RI, RI-np) quantify over a threshold as well: pass
    ``delta`` to pin it, or leave it None to decide every threshold. An
    instance that fails at some threshold also fails at one of the
    measure's own values: at val(b, c) for RV, and at the smaller of
    val(a, c) and val(b, c) for RI and RI-np. So the sweep runs over the
    distinct values on the pairs those instances read, in ascending order:
    (x, c) with c inside x for RV and RI, and every pair for RI-np.

    An invariant measure is first decided per Venn-count type of the
    bound sets: a swept axiom keeps the thresholds inside some type's
    span (:func:`_failing_spans`), any other tests each type once; if
    nothing is kept, the axiom holds without a mask sweep. The masks are
    then swept, as for any other measure, in the order of ``_INSTANCES``
    at the kept thresholds, and the first failures are kept.
    """
    _, params, failures = _axiom_failures(kappa, axiom_id, universe, delta)
    return _sweep_report(axiom_id, failures, universe.size, params)


def _axiom_holds(kappa: InclusionFn, axiom_id: str, universe: Universe,
                 delta: Fraction | None = None) -> bool:
    """``check_axiom(...).holds`` without the witnesses. The type screen
    decides an invariant measure exactly, so no mask is swept for it; any
    other measure's sweep stops at its first failure."""
    kept, _, failures = _axiom_failures(kappa, axiom_id, universe, delta)
    return not kept if kappa.invariant else next(failures, None) is None


def classify_rif(kappa: InclusionFn, universe: Universe) -> tuple[str, ...]:
    """Class tags earned by ``kappa`` on the given universe, sorted.

    The graded class demands equivalence with inclusion plus unit-preimage
    monotony; the quasi class keeps the forward half only; the weak quasi
    class trades the monotony for its order form; the precision class asks
    for the chain-stability axiom at every threshold.
    """
    return _rif_classes(functools.cache(
        lambda axiom: _axiom_holds(kappa, axiom, universe)))


def _rif_classes(holds: Callable[[str], bool]) -> tuple[str, ...]:
    """Class tags from ``holds``; RV must be decided at every threshold."""
    r0 = holds("R0")
    tags = []
    if r0 and holds("IR0") and holds("R2"):
        tags.append("gRIF")
    if r0 and holds("R2"):
        tags.append("qRIF")
    if r0 and holds("R3"):
        tags.append("wqRIF")
    if r0 and holds("RV"):
        tags.append("pRIF")
    return tuple(sorted(tags))


_IMPLICATION_AXIOMS = ("U1", "R0", "IR0", "R1", "R2", "R3", "R4", "IR4",
                       "R5", "RB", "R6")


def check_prif_implications(kappa: InclusionFn,
                            universe: Universe) -> tuple[CheckReport, ...]:
    """Verify the implication lattice between axiom verdicts.

    Each implication below holds for every [0, 1]-valued measure on a
    powerset, so a failure here is an engine inconsistency rather than a
    property of ``kappa``. The reports carry the individual axiom verdicts
    in their parameters so a violation is diagnosable.
    """
    t = {axiom: _axiom_holds(kappa, axiom, universe)
         for axiom in _IMPLICATION_AXIOMS}

    implications = (
        ("prif1", (not t["R1"]) or (t["R2"] == t["R3"])),
        ("prif2", t["R1"] == (t["R0"] and t["IR0"])),
        ("prif3", not (t["R0"] and t["R2"]) or t["R3"]),
        ("prif4", not (t["IR0"] and t["R3"]) or t["R2"]),
        ("prif5", not t["IR4"] or t["RB"]),
        ("prif6", (t["IR4"] and t["R4"]) == t["R5"]),
        ("prif7", not (t["R0"] and t["R6"]) or t["IR4"]),
        ("prif8", not (t["IR0"] and t["R6"]) or t["R4"]),
        ("prif9", not (t["R1"] and t["R6"]) or t["R5"]),
        ("u1-of-r1", not t["R1"] or t["U1"]),
        ("u1-of-r0", not t["R0"] or t["U1"]),
    )
    params = tuple((axiom, "true" if v else "false")
                   for axiom, v in sorted(t.items()))
    params = (("kappa", kappa.describe()),) + params
    return tuple(
        CheckReport(name, holds, (), universe.size, params)
        for name, holds in implications
    )
