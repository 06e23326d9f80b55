"""Granular approximation operators: classical, precision-tuned, and graded.

Every operator aggregates granules. The classical pair uses containment
and overlap. The precision-tuned family replaces those tests with an
inclusion measure held against a threshold derived from a precision
``alpha`` in [0, 1/2): the measure is always evaluated with the
approximated set as its first argument. The starred variants drop the
containment and overlap clauses entirely, keeping only the measure test,
which changes behavior on sets the granulation cannot see. The graded
family counts shared elements against an integer grade instead.

A pointwise pair evaluates elementwise through a neighborhood map rather
than by aggregating whole granules.

All arithmetic is exact; thresholds are :class:`~fractions.Fraction`
values and never floats.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import le, lt
from typing import Callable, Mapping, Sequence

from .core import ESet, Granulation, Universe, _exact
from .inclusion import InclusionFn, kappa_k0

HALF = Fraction(1, 2)

OPERATOR_IDS = (
    "l", "u", "u_b",
    "l_alpha", "u_alpha", "neg_alpha",
    "l_alpha_star", "u_alpha_star",
    "l_alpha_pt", "u_alpha_pt",
    "l_grade", "l_grade_strict", "u_grade",
)

NeighborhoodMap = Sequence[tuple[str, ESet]]


def require_alpha(alpha: Fraction | int | str) -> Fraction:
    """Validate a precision value: exact, in [0, 1/2)."""
    a = _exact(alpha)
    if not 0 <= a < HALF:
        raise ValueError("alpha must lie in [0, 1/2)")
    return a


def require_grade(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("grade must be a nonnegative integer")
    return k


def _union(x: ESet, granulation: Granulation,
           keep: Callable[[int], bool]) -> ESet:
    """The union of the granules whose mask passes ``keep``, as a subset
    of the universe of ``x``, which must be the granulation's."""
    if x.universe != granulation.universe:
        raise ValueError("set and granulation belong to different universes")
    return ESet(x.universe, granulation.union(keep))


def classical_lower(x: ESet, granulation: Granulation) -> ESet:
    """Union of the granules contained in ``x``."""
    return _union(x, granulation, lambda g: g & ~x.mask == 0)


def classical_upper(x: ESet, granulation: Granulation) -> ESet:
    """Union of the granules meeting ``x``."""
    return _union(x, granulation, lambda g: g & x.mask != 0)


def bited_upper(x: ESet, granulation: Granulation) -> ESet:
    """Classical upper approximation minus the lower approximation of the
    complement. Trims the upper estimate by everything that definitely
    belongs outside."""
    return _union(x, granulation, lambda g: g & x.mask != 0) - \
        _union(x, granulation, lambda g: g & x.mask == 0)


def _kappa_or_default(kappa: InclusionFn | None) -> InclusionFn:
    return kappa if kappa is not None else kappa_k0()


def vprs_lower(x: ESet, granulation: Granulation,
               kappa: InclusionFn | None = None,
               alpha: Fraction | int | str = 0) -> ESet:
    """Granules inside ``x`` whose measured share of ``x`` reaches
    ``1 - alpha``.

    The measure reads the approximated set first, so a granule counts
    when it captures enough of ``x``, not when enough of the granule lies
    inside ``x``. At ``alpha = 0`` this is far stricter than the classical
    lower approximation: only a granule equal to ``x`` qualifies."""
    kappa = _kappa_or_default(kappa)
    threshold = 1 - require_alpha(alpha)
    u, xm = x.universe, x.mask
    return _union(x, granulation, lambda g: g & ~xm == 0 and
                  kappa.on_masks(u, xm, g) >= threshold)


def vprs_upper(x: ESet, granulation: Granulation,
               kappa: InclusionFn | None = None,
               alpha: Fraction | int | str = 0) -> ESet:
    """Granules meeting ``x`` whose measured share exceeds ``alpha``."""
    kappa = _kappa_or_default(kappa)
    alpha = require_alpha(alpha)
    u, xm = x.universe, x.mask
    return _union(x, granulation, lambda g: g & xm != 0 and
                  kappa.on_masks(u, xm, g) > alpha)


def vprs_negative(x: ESet, granulation: Granulation,
                  kappa: InclusionFn | None = None,
                  alpha: Fraction | int | str = 0) -> ESet:
    """Granules meeting ``x`` whose measured share stays at or below
    ``alpha``: the confidently rejected region."""
    kappa = _kappa_or_default(kappa)
    alpha = require_alpha(alpha)
    u, xm = x.universe, x.mask
    return _union(x, granulation, lambda g: g & xm != 0 and
                  kappa.on_masks(u, xm, g) <= alpha)


@dataclass(frozen=True)
class Regions:
    """Positive, negative, and boundary regions of a precision-tuned pair."""

    lower: ESet
    upper: ESet
    positive: ESet
    negative: ESet
    boundary: ESet


def vprs_regions(x: ESet, granulation: Granulation,
                 kappa: InclusionFn | None = None,
                 alpha: Fraction | int | str = 0) -> Regions:
    lo = vprs_lower(x, granulation, kappa, alpha)
    up = vprs_upper(x, granulation, kappa, alpha)
    neg = vprs_negative(x, granulation, kappa, alpha)
    return Regions(lower=lo, upper=up, positive=lo, negative=neg,
                   boundary=up - lo)


def vprs_star_lower(x: ESet, granulation: Granulation,
                    kappa: InclusionFn | None = None,
                    alpha: Fraction | int | str = 0) -> ESet:
    """Clause-free lower form: every granule whose measured share of ``x``
    reaches ``1 - alpha``, with no containment requirement. On the empty
    set the default measure reports full inclusion for every granule, so
    the result is the whole granulation's union; that is the intended
    reading, not an accident."""
    kappa = _kappa_or_default(kappa)
    threshold = 1 - require_alpha(alpha)
    u, xm = x.universe, x.mask
    return _union(x, granulation,
                  lambda g: kappa.on_masks(u, xm, g) >= threshold)


def vprs_star_upper(x: ESet, granulation: Granulation,
                    kappa: InclusionFn | None = None,
                    alpha: Fraction | int | str = 0) -> ESet:
    """Clause-free upper form: granules whose measured share exceeds
    ``alpha``."""
    kappa = _kappa_or_default(kappa)
    alpha = require_alpha(alpha)
    u, xm = x.universe, x.mask
    return _union(x, granulation, lambda g: kappa.on_masks(u, xm, g) > alpha)


@dataclass(frozen=True)
class VprsTables:
    """The four precision-tuned images of every subset, indexed by mask:
    :func:`vprs_lower`, :func:`vprs_upper`, :func:`vprs_star_lower` and
    :func:`vprs_star_upper`, as masks."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    star_lower: tuple[int, ...]
    star_upper: tuple[int, ...]


def vprs_tables(granulation: Granulation,
                kappa: InclusionFn | None = None,
                alpha: Fraction | int | str = 0) -> VprsTables:
    """All four precision-tuned images over the whole powerset.

    The measure's (mask, granule) ranks come from one table per
    (granulation, measure) that holds no threshold
    (:meth:`InclusionFn.granule_ranks`); a precision only cuts that
    table at two ranks, the first value above ``alpha`` and the first at
    least ``1 - alpha``. Images are cached per (granulation, measure,
    precision); measures compare their evaluation functions by identity,
    so a key names exactly one measure."""
    return _vprs_tables(granulation, _kappa_or_default(kappa),
                        require_alpha(alpha))


@functools.cache
def _vprs_tables(granulation: Granulation, kappa: InclusionFn,
                 alpha: Fraction) -> VprsTables:
    values, columns = kappa.granule_ranks(granulation)
    above = bisect_right(values, alpha)
    reaches = bisect_left(values, 1 - alpha)
    grans = tuple(zip(granulation.masks, columns))
    lo, up, slo, sup = [], [], [], []
    for x in range(granulation.universe.full_mask + 1):
        lm = um = sl = su = 0
        for gm, col in grans:
            r = col[x]
            if r >= above:
                su |= gm
                if gm & x:
                    um |= gm
                if r >= reaches:
                    sl |= gm
                    if gm & ~x == 0:
                        lm |= gm
        lo.append(lm)
        up.append(um)
        slo.append(sl)
        sup.append(su)
    return VprsTables(tuple(lo), tuple(up), tuple(slo), tuple(sup))


def _as_neighborhoods(universe: Universe,
                      neighborhoods: NeighborhoodMap | Mapping[str, ESet]
                      ) -> tuple[tuple[str, ESet], ...]:
    if isinstance(neighborhoods, Mapping):
        items = tuple(neighborhoods.items())
    else:
        items = tuple(neighborhoods)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("neighborhood map names an element twice")
    if set(names) != set(universe.elements):
        raise ValueError("neighborhood map must cover the universe exactly")
    for name, n in items:
        if n.universe != universe:
            raise ValueError("neighborhood bound to a different universe")
    return items


# The score test of each pointwise operator at a checked precision:
# 1 - alpha <= v for the lower, alpha < v for the upper.
_POINTWISE_KEEP = {
    "l_alpha_pt": lambda alpha: functools.partial(le, 1 - alpha),
    "u_alpha_pt": lambda alpha: functools.partial(lt, alpha),
}


def _points(x: ESet, items: tuple[tuple[str, ESet], ...],
            universe: Universe, kappa: InclusionFn | None,
            keep: Callable[[Fraction], bool]) -> ESet:
    """The points whose neighborhood's score against ``x`` passes
    ``keep``, from a map already checked to cover ``universe``, which
    must be the universe of ``x``."""
    if x.universe != universe:
        raise ValueError("set and neighborhood map belong to different "
                         "universes")
    kappa = _kappa_or_default(kappa)
    out = 0
    for name, n in items:
        if keep(kappa.on_masks(universe, x.mask, n.mask)):
            out |= 1 << universe.index(name)
    return ESet(universe, out)


def pointwise_lower(x: ESet, neighborhoods: NeighborhoodMap | Mapping[str, ESet],
                    kappa: InclusionFn | None = None,
                    alpha: Fraction | int | str = 0) -> ESet:
    """Elementwise lower region: the points whose neighborhood scores at
    least ``1 - alpha`` against ``x``."""
    return _points(x, _as_neighborhoods(x.universe, neighborhoods),
                   x.universe, kappa,
                   _POINTWISE_KEEP["l_alpha_pt"](require_alpha(alpha)))


def pointwise_upper(x: ESet, neighborhoods: NeighborhoodMap | Mapping[str, ESet],
                    kappa: InclusionFn | None = None,
                    alpha: Fraction | int | str = 0) -> ESet:
    """Elementwise upper region: the points whose neighborhood scores
    strictly above ``alpha`` against ``x``."""
    return _points(x, _as_neighborhoods(x.universe, neighborhoods),
                   x.universe, kappa,
                   _POINTWISE_KEEP["u_alpha_pt"](require_alpha(alpha)))


def graded_upper(x: ESet, granulation: Granulation, k: int) -> ESet:
    """Granules sharing strictly more than ``k`` elements with ``x``."""
    k = require_grade(k)
    return _union(x, granulation, lambda g: (g & x.mask).bit_count() > k)


def graded_lower(x: ESet, granulation: Granulation, k: int) -> ESet:
    """Granules leaking at most ``k`` elements outside ``x``. This is the
    deficit reading of the lower grade; it admits granules that barely
    touch ``x`` when they are small enough."""
    k = require_grade(k)
    return _union(x, granulation, lambda g: (g & ~x.mask).bit_count() <= k)


def graded_lower_strict(x: ESet, granulation: Granulation, k: int) -> ESet:
    """Granules contained in ``x`` that also share strictly more than
    ``k`` elements with it: the containment reading of the lower grade."""
    k = require_grade(k)
    return _union(x, granulation, lambda g: g & ~x.mask == 0 and
                  (g & x.mask).bit_count() > k)


@dataclass(frozen=True)
class GradedRegions:
    """Region split for a graded pair.

    The two boundary fields are one-sided differences: granule counting is
    not monotone enough to keep the deficit lower inside the upper, so
    both directions carry information.
    """

    lower: ESet
    upper: ESet
    positive: ESet
    negative: ESet
    boundary_upper: ESet
    boundary_lower: ESet


def graded_regions(x: ESet, granulation: Granulation, k: int) -> GradedRegions:
    lo = graded_lower(x, granulation, k)
    up = graded_upper(x, granulation, k)
    full = x.universe.full
    return GradedRegions(
        lower=lo, upper=up,
        positive=up & lo,
        negative=full - (lo | up),
        boundary_upper=up - lo,
        boundary_lower=lo - up,
    )


@dataclass(frozen=True)
class ApproxSpec:
    """A bound family of operators sharing one granulation and tuning.

    ``operator`` resolves an identifier from :data:`OPERATOR_IDS` to a
    one-argument callable. Pointwise identifiers need ``neighborhoods``.
    """

    granulation: Granulation
    kappa: InclusionFn | None = None
    alpha: Fraction = Fraction(0)
    k: int = 0
    neighborhoods: tuple[tuple[str, ESet], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", require_alpha(self.alpha))
        require_grade(self.k)
        if self.neighborhoods is not None:
            object.__setattr__(
                self, "neighborhoods",
                _as_neighborhoods(self.granulation.universe,
                                  self.neighborhoods))

    def operator(self, op_id: str):
        g = self.granulation
        kap = self.kappa
        alpha = self.alpha
        k = self.k
        simple = {
            "l": lambda x: classical_lower(x, g),
            "u": lambda x: classical_upper(x, g),
            "u_b": lambda x: bited_upper(x, g),
            "l_alpha": lambda x: vprs_lower(x, g, kap, alpha),
            "u_alpha": lambda x: vprs_upper(x, g, kap, alpha),
            "neg_alpha": lambda x: vprs_negative(x, g, kap, alpha),
            "l_alpha_star": lambda x: vprs_star_lower(x, g, kap, alpha),
            "u_alpha_star": lambda x: vprs_star_upper(x, g, kap, alpha),
            "l_grade": lambda x: graded_lower(x, g, k),
            "l_grade_strict": lambda x: graded_lower_strict(x, g, k),
            "u_grade": lambda x: graded_upper(x, g, k),
        }
        if op_id in simple:
            return simple[op_id]
        if op_id in _POINTWISE_KEEP:
            if self.neighborhoods is None:
                raise ValueError(
                    f"operator {op_id!r} needs a neighborhood map")
            # The map was checked once, in __post_init__.
            nb, keep = self.neighborhoods, _POINTWISE_KEEP[op_id](alpha)
            return lambda x: _points(x, nb, g.universe, kap, keep)
        raise ValueError(
            f"unknown operator {op_id!r}; valid identifiers: "
            f"{', '.join(OPERATOR_IDS)}"
        )
