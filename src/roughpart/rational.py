"""Rational approximations: definability filtered through substantiality.

A rational lower approximation keeps only as much of the lower
approximation as the substantial parthood can vouch for; a rational upper
approximation looks for an operator image that already contains the set,
stays inside its plain upper approximation, and is substantially entered
by every nonempty definite subset it contains. Definite here always means
a nonempty fixed point of the lower operator; the empty set is excluded
from the quantifiers on purpose, since most substantial relations reject
it and would otherwise poison every candidate.

Two lower modes ship. The default ``substantial`` mode accepts the lower
approximation itself when it is nonempty and substantially part of the
set, and otherwise falls back to the empty value, marked trivial. The
``exhaustive`` mode searches all contained candidates and keeps the one
with the largest lower image, which can rescue value at points the
default mode leaves trivial. Both modes always produce a result; the
upper construction is genuinely partial and can fail to produce one.
Every entry refuses a relation over another universe before it sweeps.

:func:`check_rational_proposition` evaluates the compatibility statements
tying these maps to their plain counterparts. The statements are theorems
only when the substantial relation meets the framework hypothesis, so
the hypothesis is checked and reported alongside; the two substantial
compatibility statements are open in general and are reported without
ever being asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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


def _refuse_foreign(relation: ParthoodRelation, universe: Universe) -> None:
    if relation.universe != universe:
        raise ValueError("the substantial relation belongs to a different "
                         "universe")


def _check_mode(mode: str) -> None:
    if mode not in LOWER_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; valid modes: {', '.join(LOWER_MODES)}")


def _lower_result(universe: Universe, mode: str, value: int,
                  source: int) -> RationalResult:
    if not value:
        note = "no substantial lower value" if mode == "substantial" \
            else "no substantial candidate"
        return RationalResult(True, universe.empty, (), True, mode,
                              (f"{note}; trivial fallback",))
    return RationalResult(True, ESet(universe, value),
                          (("source", ESet(universe, source)),), False, mode)


class _Search:
    """The rational maps of one substantial relation over its universe,
    read from the lower and upper image tables ``lo`` and ``up`` (indexed
    by mask) with bit tests on the relation's rows.

    It keeps the nonempty definites and the upper candidates that every
    nonempty definite inside them substantially enters, each with its
    smallest preimage, smallest first and then by mask. That screen does
    not depend on the approximated set, so it runs once.
    """

    def __init__(self, relation: ParthoodRelation, lo: Sequence[int],
                 up: Sequence[int] = ()) -> None:
        self.universe, self.lo, self.up = relation.universe, lo, up
        self.rows = rows = relation.rows
        self.definites = [m for m in range(1, len(lo)) if lo[m] == m]
        preimage: dict[int, int] = {}
        for m, v in enumerate(up):
            preimage.setdefault(v, m)
        self.candidates = [
            (v, preimage[v])
            for v in sorted(preimage, key=lambda v: (v.bit_count(), v))
            if all(e & ~v or rows[e] >> v & 1 for e in self.definites)]

    def lower(self, a: int, mode: str) -> RationalResult:
        lo, rows = self.lo, self.rows
        if mode == "substantial":
            v = lo[a] if rows[lo[a]] >> a & 1 else 0
            return _lower_result(self.universe, mode, v, a)
        # A submask qualifies when no definite inside it fails to be
        # substantially part of ``a``.
        bad = [e for e in self.definites
               if e & ~a == 0 and not rows[e] >> a & 1]
        best = source = 0
        for m in iter_submasks(a):
            if lo[m].bit_count() > best.bit_count() and \
                    all(e & ~m for e in bad):
                best, source = lo[m], m
        return _lower_result(self.universe, mode, best, source)

    def upper(self, a: int) -> RationalResult:
        qualifying = [(v, z) for v, z in self.candidates
                      if a & ~v == 0 and v & ~self.up[a] == 0]
        if not qualifying:
            return RationalResult(False, None, (), False, "upper",
                                  ("no operator image qualifies",))
        chosen, z = (ESet(self.universe, m) for m in qualifying[0])
        notes = ()
        if len(qualifying) > 1:
            notes = (f"{len(qualifying) - 1} larger candidate(s) also "
                     "qualify",)
        return RationalResult(True, chosen,
                              (("candidate", chosen), ("preimage", z)),
                              False, "upper", notes)


def rational_lower(a: ESet, lower: Operator, substantial: ParthoodRelation,
                   *, mode: str = "substantial") -> RationalResult:
    """Rational lower approximation of ``a``.

    Always defined. In ``substantial`` mode the value is the lower
    approximation of ``a`` itself when that is nonempty and substantially
    part of ``a``, else the trivial empty value. In ``exhaustive`` mode
    every candidate contained in ``a`` is considered; a candidate
    qualifies when each nonempty definite subset of it is substantially
    part of ``a``, and the qualifying candidate with the largest lower
    image wins (smallest mask on ties).
    """
    _check_mode(mode)
    universe = a.universe
    if mode == "exhaustive":
        _check_cap(universe.size * 2, EXHAUSTIVE_CAP,
                   "the exhaustive rational lower search")
    _refuse_foreign(substantial, universe)
    if mode == "substantial":
        v = lower(a).mask
        v = v if substantial.rows[v] >> a.mask & 1 else 0
        return _lower_result(universe, mode, v, a.mask)
    return _Search(substantial,
                   image_table(universe, lower)).lower(a.mask, mode)


def rational_upper(a: ESet, upper: Operator, lower: Operator,
                   substantial: ParthoodRelation) -> RationalResult:
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
    _refuse_foreign(substantial, universe)
    return _Search(substantial, image_table(universe, lower),
                   image_table(universe, upper)).upper(a.mask)


_HYPOTHESIS_PROPS = ("reflexive", "part-compatible", "mutual-rough-equal",
                     "join-compatible", "l-euclidean", "r-euclidean")


def check_rational_proposition(universe: Universe, lower: Operator,
                               substantial: ParthoodRelation, *,
                               upper: Operator | None = None,
                               mode: str = "substantial"
                               ) -> tuple[CheckReport, ...]:
    """Evaluate the compatibility statements for the rational maps.

    The first report checks the framework hypothesis on the substantial
    relation together with the lower operator laws the proofs lean on.
    The remaining reports are empirical sweeps; they are theorems only
    under that hypothesis, so every report carries the hypothesis verdict
    in its parameters. The two reports suffixed ``-open`` record the
    substantial compatibility questions, which have no general answer;
    they are informational and must not be asserted.
    """
    _check_mode(mode)
    _check_cap(universe.size * 2, EXHAUSTIVE_CAP,
               "the rational proposition sweep")
    _refuse_foreign(substantial, universe)
    profile = analyze_properties(substantial)
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

    up = image_table(universe, upper) if upper is not None else ()
    search = _Search(substantial, lo, up)
    rlo = [search.lower(m, mode).value.mask for m in masks]
    rows = substantial.rows

    def ev(m: int) -> ESet:
        return ESet(universe, m)

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
            if not rows[rlo[a]] >> rlo[b] & 1), 1), size, gate),
        _sweep_report("lower-compatible-open", (
            (binding("a", ev(m)),) for m in masks
            if not rows[rlo[m]] >> lo[m] & 1), size, gate + status),
    ]

    if upper is not None:
        values = [(m, res.value.mask) for m in masks
                  for res in [search.upper(m)] if res.value is not None]
        coverage = (("defined-points", f"{len(values)}/{full + 1}"),)
        reports += [
            _sweep_report("upper-compatible", (
                (binding("a", ev(m)),) for m, v in values if v & ~up[m]),
                size, gate + coverage),
            _sweep_report("upper-compatible-open", (
                (binding("a", ev(m)),) for m, v in values
                if not rows[v] >> up[m] & 1), size, gate + coverage + status),
        ]
    return tuple(reports)
