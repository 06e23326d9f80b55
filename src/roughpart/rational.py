"""Rational approximations: definability filtered through substantiality.

A rational lower approximation keeps only as much of the lower
approximation as the substantial parthood can vouch for; a rational upper
approximation looks for an operator image that already contains the set,
stays inside its plain upper approximation, and is substantially entered
by every nonempty definite subset it contains. Definite here always means
a nonempty fixed point of the lower operator; the empty set is excluded
from the quantifiers on purpose, since most substantial predicates reject
it and would otherwise poison every candidate.

Two lower modes ship. The default ``substantial`` mode accepts the lower
approximation itself when it is nonempty and substantially part of the
set, and otherwise falls back to the empty value, marked trivial. The
``exhaustive`` mode searches all contained candidates and keeps the one
with the largest lower image, which can rescue value at points the
default mode leaves trivial. Both modes always produce a result; the
upper construction is genuinely partial and can fail to produce one.

:func:`check_rational_proposition` evaluates the compatibility statements
tying these maps to their plain counterparts. The statements are theorems
only when the substantial predicate meets the framework hypothesis, so
the hypothesis is checked and reported alongside; the two substantial
compatibility statements are open in general and are reported without
ever being asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    EXHAUSTIVE_CAP,
    CheckReport,
    ESet,
    Operator,
    Universe,
    _check_cap,
    _sweep_report,
    binding,
    image_table,
    iter_submasks,
)
from .parthood import ParthoodRelation, analyze_properties

Substantial = Callable[[ESet, ESet], bool]

LOWER_MODES = ("substantial", "exhaustive")


@dataclass(frozen=True)
class RationalResult:
    """Outcome of one rational approximation.

    ``witnesses`` are labeled subsets explaining the value: the source
    candidate for a lower value, the candidate and its preimage for an
    upper value. ``trivial`` marks a lower result that fell back to empty
    because nothing substantial was available.
    """

    defined: bool
    value: ESet | None
    witnesses: tuple[tuple[str, ESet], ...] = ()
    trivial: bool = False
    mode: str = ""
    notes: tuple[str, ...] = ()


def _as_predicate(substantial: Substantial | ParthoodRelation) -> Substantial:
    if isinstance(substantial, ParthoodRelation):
        return substantial.holds
    return substantial


def _nonempty_definites(universe: Universe, lo: Sequence[int]) -> list[ESet]:
    return [ESet(universe, m) for m in range(1, len(lo)) if lo[m] == m]


def _exhaustive_lower(a: ESet, lo: Sequence[int], definites: list[ESet],
                      ps: Substantial) -> RationalResult:
    """The ``exhaustive`` search of :func:`rational_lower`, reading lower
    images from ``lo``, the lower table indexed by mask."""
    universe = a.universe
    best = source = 0
    for m in iter_submasks(a.mask):
        if lo[m].bit_count() > best.bit_count() and \
                all(e.mask & ~m or ps(e, a) for e in definites):
            best, source = lo[m], m
    if not best:
        return RationalResult(True, universe.empty, (), True, "exhaustive",
                              ("no substantial candidate; trivial fallback",))
    return RationalResult(True, ESet(universe, best),
                          (("source", ESet(universe, source)),), False,
                          "exhaustive")


def rational_lower(a: ESet, lower: Operator,
                   substantial: Substantial | ParthoodRelation, *,
                   mode: str = "substantial") -> RationalResult:
    """Rational lower approximation of ``a``.

    Always defined. In ``substantial`` mode the value is the lower
    approximation of ``a`` itself when that is nonempty and substantially
    part of ``a``, else the trivial empty value. In ``exhaustive`` mode
    every candidate contained in ``a`` is considered; a candidate
    qualifies when each nonempty definite subset of it is substantially
    part of ``a``, and the qualifying candidate with the largest lower
    image wins (smallest mask on ties).
    """
    if mode not in LOWER_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; valid modes: {', '.join(LOWER_MODES)}")
    ps = _as_predicate(substantial)
    universe = a.universe
    if mode == "substantial":
        v = lower(a)
        if not v.is_empty and ps(v, a):
            return RationalResult(True, v, (("source", a),), False, mode)
        return RationalResult(True, universe.empty, (), True, mode,
                              ("no substantial lower value; trivial fallback",))

    _check_cap(universe.size * 2, EXHAUSTIVE_CAP,
               "the exhaustive rational lower search")
    lo = image_table(universe, lower)
    return _exhaustive_lower(a, lo, _nonempty_definites(universe, lo), ps)


def rational_upper(a: ESet, upper: Operator, lower: Operator,
                   substantial: Substantial | ParthoodRelation
                   ) -> RationalResult:
    """Rational upper approximation of ``a``; partial by design.

    Candidates are the images of the upper operator, smallest first, then
    by mask. A candidate must contain ``a``, sit inside the plain upper
    approximation of ``a``, and be substantially entered by every
    nonempty definite subset it contains. The first qualifying candidate
    is the value; its witnesses are the candidate and the smallest
    preimage producing it. When nothing qualifies the result is
    undefined.
    """
    universe = a.universe
    _check_cap(universe.size * 2, EXHAUSTIVE_CAP, "the rational upper search")
    definites = _nonempty_definites(universe, image_table(universe, lower))
    return _upper_search(a, image_table(universe, upper), definites,
                         _as_predicate(substantial))


def _upper_search(a: ESet, up: Sequence[int], definites: list[ESet],
                  ps: Substantial) -> RationalResult:
    """The candidate search of :func:`rational_upper`, reading upper
    images from ``up``, the upper table indexed by mask."""
    universe = a.universe
    preimage: dict[int, int] = {}
    for m, v in enumerate(up):
        preimage.setdefault(v, m)
    aup = ESet(universe, up[a.mask])
    candidates = sorted(preimage,
                        key=lambda v: (v.bit_count(), v))
    qualifying: list[ESet] = []
    for vmask in candidates:
        b = ESet(universe, vmask)
        if not (a <= b and b <= aup):
            continue
        if all(not e <= b or ps(e, b) for e in definites):
            qualifying.append(b)
    if not qualifying:
        return RationalResult(False, None, (), False, "upper",
                              ("no operator image qualifies",))
    chosen = qualifying[0]
    z = ESet(universe, preimage[chosen.mask])
    notes = ()
    if len(qualifying) > 1:
        notes = (f"{len(qualifying) - 1} larger candidate(s) also qualify",)
    return RationalResult(True, chosen, (("candidate", chosen), ("preimage", z)),
                          False, "upper", notes)


_HYPOTHESIS_PROPS = ("reflexive", "part-compatible", "mutual-rough-equal",
                     "join-compatible", "l-euclidean", "r-euclidean")


def _relation_for(universe: Universe,
                  substantial: Substantial | ParthoodRelation
                  ) -> ParthoodRelation:
    if isinstance(substantial, ParthoodRelation):
        return substantial
    subsets = [ESet(universe, m) for m in range(universe.full_mask + 1)]
    rows = tuple(sum(1 << b.mask for b in subsets if substantial(a, b))
                 for a in subsets)
    return ParthoodRelation("custom", universe, rows)


def check_rational_proposition(universe: Universe, lower: Operator,
                               substantial: Substantial | ParthoodRelation, *,
                               upper: Operator | None = None,
                               mode: str = "substantial"
                               ) -> tuple[CheckReport, ...]:
    """Evaluate the compatibility statements for the rational maps.

    The first report checks the framework hypothesis on the substantial
    predicate together with the lower operator laws the proofs lean on.
    The remaining reports are empirical sweeps; they are theorems only
    under that hypothesis, so every report carries the hypothesis verdict
    in its parameters. The two reports suffixed ``-open`` record the
    substantial compatibility questions, which have no general answer;
    they are informational and must not be asserted.
    """
    ps = _as_predicate(substantial)
    _check_cap(universe.size * 2, EXHAUSTIVE_CAP,
               "the rational proposition sweep")
    relation = _relation_for(universe, substantial)
    profile = analyze_properties(relation)
    hyp_parts = {
        name: profile.status(name).status == "holds"
        for name in _HYPOTHESIS_PROPS
    }

    full = universe.full_mask
    masks = range(full + 1)
    lo = image_table(universe, lower)
    # Deflationary, idempotent and monotone: each superset of a set keeps
    # its lower image.
    lower_laws = all(
        lo[m] & ~m == 0 and lo[lo[m]] == lo[m]
        and all(lo[m] & ~lo[m | s] == 0 for s in iter_submasks(full & ~m))
        for m in masks)

    hypothesis = all(hyp_parts.values()) and lower_laws
    hyp_params = tuple(
        [(name, "holds" if ok else "fails")
         for name, ok in sorted(hyp_parts.items())]
        + [("lower-operator-laws", "hold" if lower_laws else "fail")]
    )
    reports = [CheckReport("framework-hypothesis", hypothesis, (),
                           universe.size, hyp_params)]
    gate = (("hypothesis", "met" if hypothesis else "not-met"),)

    definites = _nonempty_definites(universe, lo)

    def rl(x: ESet) -> ESet:
        if mode == "exhaustive":
            res = _exhaustive_lower(x, lo, definites, ps)
        else:
            res = rational_lower(x, lower, ps, mode=mode)
        assert res.value is not None
        return res.value

    def ev(m: int) -> ESet:
        return ESet(universe, m)

    rlo = image_table(universe, rl)
    size = universe.size
    status = (("status", "open question; reported, not asserted"),)
    reports += [
        _sweep_report("idempotent", ((binding("a", ev(m)),) for m in masks
                                     if rlo[rlo[m]] != rlo[m]), size, gate),
        _sweep_report("lower-compatible", ((binding("a", ev(m)),)
                                           for m in masks if rlo[m] & ~lo[m]),
                      size, gate),
        # The verify report and its golden file record one witness here.
        _sweep_report("s-monotone", itertools.islice((
            (binding("a", ev(a)), binding("b", ev(b)))
            for b in masks for a in iter_submasks(b)
            if not ps(ev(rlo[a]), ev(rlo[b]))), 1), size, gate),
        _sweep_report("lower-compatible-open", (
            (binding("a", ev(m)),) for m in masks
            if not ps(ev(rlo[m]), ev(lo[m]))), size, gate + status),
    ]

    if upper is not None:
        up = image_table(universe, upper)
        values = [(m, res.value.mask) for m in masks
                  for res in [_upper_search(ev(m), up, definites, ps)]
                  if res.value is not None]
        coverage = (("defined-points", f"{len(values)}/{full + 1}"),)
        reports += [
            _sweep_report("upper-compatible", (
                (binding("a", ev(m)),) for m, v in values if v & ~up[m]),
                size, gate + coverage),
            _sweep_report("upper-compatible-open", (
                (binding("a", ev(m)),) for m, v in values
                if not ps(ev(v), ev(up[m]))), size, gate + coverage + status),
        ]
    return tuple(reports)
