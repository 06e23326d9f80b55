"""Bridges between precision thresholds and counting grades.

For the cardinality measure, membership of a granule in a starred
precision approximation of ``x`` is decided by how many elements the
granule shares with ``x``. That turns each precision ``alpha`` into a
per-subset counting threshold: strictly more than ``floor(alpha * |x|)``
shared elements on the upper side, at least ``ceil((1 - alpha) * |x|)``
on the lower side. Subsets with equal thresholds are interchangeable as
far as the graded operators can see, so each precision induces a
partition of the powerset into grade blocks.

Every block member is verified along both routes independently: once via
the inclusion measure and once via the counting threshold. The empty set
has no usable share, so it is assigned threshold 0 by convention, where
both routes collect every granule.

Not every grade is reachable from a precision: a grade ``k`` on a subset
of size at most ``2k`` would need a precision outside [0, 1/2).
:func:`check_nonrepresentability` reports exactly those subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    EXHAUSTIVE_CAP,
    CheckReport,
    ESet,
    Granulation,
    Universe,
    _check_cap,
    binding,
)
from .approx import graded_lower, require_alpha, require_grade, vprs_tables
from .inclusion import kappa_k0

SIDES = ("upper", "lower")


@dataclass(frozen=True)
class GradeBlock:
    """Subsets sharing one counting threshold.

    ``grade`` is the strict-count reading of the threshold (one less),
    matching the graded upper operator's parameter. ``verified`` says the
    measure route and the counting route agreed on every member.
    """

    threshold: int
    grade: int
    members: tuple[ESet, ...]
    verified: bool
    note: str = ""


@dataclass(frozen=True)
class GradePartition:
    alpha: Fraction
    side: str
    blocks: tuple[GradeBlock, ...]
    note: str = ""

    @property
    def all_verified(self) -> bool:
        return all(b.verified for b in self.blocks)

    def block_of(self, x: ESet) -> GradeBlock:
        for b in self.blocks:
            if any(m.mask == x.mask for m in b.members):
                return b
        raise KeyError(x.label())


def upper_threshold(x: ESet, alpha: Fraction) -> int:
    """Minimal shared count a granule needs on the upper side."""
    if x.is_empty:
        return 0
    return math.floor(alpha * x.cardinality) + 1


def lower_threshold(x: ESet, alpha: Fraction) -> int:
    """Minimal shared count a granule needs on the lower side."""
    if x.is_empty:
        return 0
    return math.ceil((1 - alpha) * x.cardinality)


def _build(universe: Universe, granulation: Granulation, alpha: Fraction,
           side: str) -> GradePartition:
    _check_cap(universe.size, EXHAUSTIVE_CAP, "the correspondence sweep")
    if granulation.universe != universe:
        raise ValueError("granulation belongs to a different universe")
    tables = vprs_tables(granulation, kappa_k0(), alpha)
    via_measure = tables.star_upper if side == "upper" else tables.star_lower
    thresh = upper_threshold if side == "upper" else lower_threshold
    by_size = [thresh(ESet(universe, (1 << p) - 1), alpha)
               for p in range(universe.size + 1)]
    by_threshold: dict[int, list[tuple[ESet, bool]]] = {}
    for m, image in enumerate(via_measure):
        x = ESet(universe, m)
        t = by_size[m.bit_count()]
        via_count = granulation.union(lambda g: (g & m).bit_count() >= t)
        by_threshold.setdefault(t, []).append((x, image == via_count))
    blocks = []
    for t in sorted(by_threshold):
        entries = by_threshold[t]
        ok = all(v for _, v in entries)
        note = "" if ok else "routes disagree on some members"
        blocks.append(GradeBlock(
            threshold=t, grade=t - 1,
            members=tuple(x for x, _ in entries),
            verified=ok, note=note))
    note = f"{side} side at precision {alpha}"
    if side == "lower":
        agree = 0
        total = universe.full_mask + 1
        for m, image in enumerate(via_measure):
            x = ESet(universe, m)
            deficit = x.cardinality - by_size[x.cardinality]
            if graded_lower(x, granulation, deficit).mask == image:
                agree += 1
        note += (f"; deficit literal agrees with the measure route on "
                 f"{agree}/{total} subsets")
    return GradePartition(alpha, side, tuple(blocks), note)


def build_upper_correspondence(universe: Universe, granulation: Granulation,
                               alpha: Fraction | int | str) -> GradePartition:
    """Partition the powerset by upper-side counting thresholds, verifying
    membership along both routes for every subset."""
    return _build(universe, granulation, require_alpha(alpha), "upper")


def build_lower_correspondence(universe: Universe, granulation: Granulation,
                               alpha: Fraction | int | str) -> GradePartition:
    """Lower-side counterpart of :func:`build_upper_correspondence`. The
    partition note also records how often the deficit reading of the
    graded lower operator reproduces the measure route; the two agree
    only sometimes, which is the point of keeping both readings."""
    return _build(universe, granulation, require_alpha(alpha), "lower")


def check_nonrepresentability(universe: Universe, k: int) -> CheckReport:
    """Find the subsets on which grade ``k`` matches no precision.

    A nonempty subset of size ``n`` needs a precision with
    ``floor(alpha * n) = k``, which exists in [0, 1/2) exactly when
    ``k / n`` is below one half. Sizes up to ``2k`` fail, and the empty
    set always does. The report holds when every subset is representable,
    and otherwise lists each failing subset as a witness, smallest mask
    first.
    """
    require_grade(k)
    _check_cap(universe.size, EXHAUSTIVE_CAP, "the representability sweep")
    witnesses = []
    bad_sizes = set()
    for m in range(universe.full_mask + 1):
        x = ESet(universe, m)
        n = x.cardinality
        if n == 0 or Fraction(k, n) >= Fraction(1, 2):
            witnesses.append((binding("x", x),))
            bad_sizes.add(n)
    params = (("k", str(k)),
              ("nonrepresentable-sizes",
               ",".join(str(s) for s in sorted(bad_sizes)) or "none"))
    return CheckReport("grade-precision-representability", not witnesses,
                       tuple(witnesses), universe.size, params)
