"""Substantial parthood predicates over a granulated universe.

A substantial parthood strengthens plain inclusion with evidence: shared
bulk, stability of approximations, or designated witnesses. Each tag in
:data:`PARTHOOD_TAGS` names one predicate family; :func:`build_parthood`
materializes the chosen predicate as an explicit relation over the full
powerset so that structural properties can be checked exhaustively.

:func:`analyze_properties` evaluates the framework conditions for such a
relation: reflexivity, compatibility with inclusion, equivalence of mutual
parts, closure under joins on the right, the two euclidean transfer rules,
antisymmetry, stability of joins on the left, transitivity, and symmetry.
Some families are reflexive only on sets above their grade; the analyzer
recognizes exact conditional forms of that kind instead of reporting a
bare failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .core import (
    EXHAUSTIVE_CAP,
    TRIPLE_CAP,
    ESet,
    Granulation,
    Universe,
    Witness,
    _check_cap,
    binding,
)
from .approx import require_alpha, require_grade, vprs_tables
from .inclusion import InclusionFn, kappa_k0

PARTHOOD_TAGS = ("s3", "s5", "s5*", "s6", "s7", "s9", "s*",
                 "s0l", "s0u", "st", "pu")

PROPERTY_NAMES = ("reflexive", "part-compatible", "mutual-rough-equal",
                  "join-compatible", "l-euclidean", "r-euclidean",
                  "antisymmetric", "join-stable", "transitive", "symmetric")

Equivalence = Callable[[ESet, ESet], bool]

# The precision-tuned image each image-comparing tag reads; s0l and s0u
# also hold the measure to a threshold.
_IMAGE_OF = {"s5": "lower", "s7": "lower", "s0l": "lower",
             "s5*": "star_lower", "s0u": "upper", "pu": "upper"}


@dataclass(frozen=True)
class BuildContext:
    """Tuning a relation was built with, kept for later analysis."""

    granulation: Granulation
    kappa: InclusionFn
    alpha: Fraction
    k: int
    tset: tuple[ESet, ...]


@dataclass(frozen=True)
class ParthoodRelation:
    """An explicit parthood relation: every holding pair, materialized."""

    tag: str
    universe: Universe
    pairs: frozenset[tuple[int, int]]
    parameters: tuple[tuple[str, str], ...] = ()
    context: BuildContext | None = field(default=None, repr=False,
                                         compare=False)

    def holds(self, a: ESet, b: ESet) -> bool:
        if a.universe != self.universe or b.universe != self.universe:
            raise ValueError("subsets belong to a different universe")
        return (a.mask, b.mask) in self.pairs

    def extension(self) -> tuple[tuple[ESet, ESet], ...]:
        return tuple(
            (ESet(self.universe, am), ESet(self.universe, bm))
            for am, bm in sorted(self.pairs)
        )

    @property
    def size(self) -> int:
        return len(self.pairs)


def _as_tset(granulation: Granulation,
             tset: Iterable[ESet] | None) -> tuple[ESet, ...]:
    if tset is None:
        return ()
    out = []
    for h in tset:
        if h not in granulation:
            raise ValueError(
                f"designated granule {h.label()} is not in the granulation")
        out.append(h)
    return tuple(out)


def build_parthood(tag: str, universe: Universe, granulation: Granulation, *,
                   kappa: InclusionFn | None = None,
                   alpha: Fraction | int | str = 0, k: int = 0,
                   tset: Iterable[ESet] | None = None,
                   cap: int = EXHAUSTIVE_CAP,
                   override: bool = False) -> ParthoodRelation:
    """Materialize one parthood predicate over the whole powerset.

    The sweep enumerates all pairs of subsets, so it is guarded as a
    sweep of twice the universe size. Grade-style tags read ``k``,
    precision-style tags read ``kappa`` and ``alpha``, and the designated
    tag ``st`` reads ``tset`` (granules that must come from the
    granulation; the default is none, making the relation empty).
    """
    if tag not in PARTHOOD_TAGS:
        raise ValueError(
            f"unknown parthood tag {tag!r}; valid identifiers: "
            f"{', '.join(PARTHOOD_TAGS)}"
        )
    if granulation.universe != universe:
        raise ValueError("granulation belongs to a different universe")
    _check_cap(universe.size * 2, cap, override,
               "the pairwise parthood sweep")
    kap = kappa if kappa is not None else kappa_k0()
    alpha = require_alpha(alpha)
    k = require_grade(k)
    designated = _as_tset(granulation, tset)
    ctx = BuildContext(granulation, kap, alpha, k, designated)
    full = universe.full_mask
    masks = range(full + 1)

    pred: Callable[[int, int], bool]
    if tag == "s3":
        def pred(am, bm):
            return (am & bm).bit_count() > k and am & ~bm == 0
    elif tag == "s6":
        def pred(am, bm):
            return am & ~bm == 0 and am.bit_count() > k
    elif tag == "s*":
        def pred(am, bm):
            proper = bm & ~am == 0 and bm != am
            return (am & bm).bit_count() > k and not proper
    elif tag == "st":
        tmasks = tuple(h.mask for h in designated)

        def pred(am, bm):
            return am & ~bm == 0 and any(t & ~am == 0 for t in tmasks)
    elif tag in ("s5", "s5*", "s0l", "s0u", "pu"):
        img = getattr(vprs_tables(granulation, kap, alpha), _IMAGE_OF[tag])
        if tag in ("s0l", "s0u"):
            need = 1 - alpha if tag == "s0l" else alpha

            def pred(am, bm):
                return img[am] & ~img[bm] == 0 and \
                    kap.on_masks(universe, am, bm) >= need
        else:
            def pred(am, bm):
                return img[am] & ~img[bm] == 0
    elif tag == "s7":
        # Same intent as s5, rebuilt granule by granule instead of through
        # the lower-approximation images; the two routes must agree.
        lo = vprs_tables(granulation, kap, alpha).lower
        need = 1 - alpha
        inside = [[g for g in granulation.masks
                   if g & ~am == 0 and kap.on_masks(universe, am, g) >= need]
                  for am in masks]

        def pred(am, bm):
            return all(g & ~lo[bm] == 0 for g in inside[am])
    elif tag == "s9":
        alpha_at_least = []
        gmasks = granulation.masks
        for m in masks:
            prof = 0
            for i, g in enumerate(gmasks):
                if kap.on_masks(universe, m, g) >= alpha:
                    prof |= 1 << i
            alpha_at_least.append(prof)

        def pred(am, bm):
            return alpha_at_least[am] & ~alpha_at_least[bm] == 0

    pairs = frozenset(
        (am, bm) for am in masks for bm in masks if pred(am, bm))
    params = [("kappa", kap.describe()), ("alpha", str(alpha)),
              ("k", str(k))]
    if tag == "st":
        params.append(("designated",
                       ",".join(h.label() for h in designated) or "none"))
    return ParthoodRelation(tag, universe, pairs, tuple(params), ctx)


@dataclass(frozen=True)
class PuResult:
    """The upper-stability preorder together with its value classes."""

    relation: ParthoodRelation
    classes: tuple[tuple[ESet, ...], ...]
    class_upper_values: tuple[ESet, ...]


def build_pu(universe: Universe, granulation: Granulation, *,
             kappa: InclusionFn | None = None,
             alpha: Fraction | int | str = 0,
             cap: int = EXHAUSTIVE_CAP, override: bool = False) -> PuResult:
    """Build the preorder comparing upper approximations, plus the classes
    of subsets sharing one upper value. Classes come sorted by their
    smallest member, members sorted within each class."""
    relation = build_parthood("pu", universe, granulation, kappa=kappa,
                              alpha=alpha, cap=cap, override=override)
    up = vprs_tables(granulation, kappa, alpha).upper
    groups: dict[int, list[int]] = {}
    for m, value in enumerate(up):
        groups.setdefault(value, []).append(m)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    classes = tuple(
        tuple(ESet(universe, m) for m in sorted(members))
        for _, members in ordered
    )
    values = tuple(ESet(universe, value) for value, _ in ordered)
    return PuResult(relation, classes, values)


@dataclass(frozen=True)
class PropertyStatus:
    """Verdict for one structural property.

    ``status`` is ``holds``, ``fails``, or ``conditional``. A conditional
    verdict means the property fails in general but an exact restatement
    was verified; the restatement is in ``condition``.
    """

    name: str
    status: str
    witness: Witness | None = None
    condition: str | None = None


@dataclass(frozen=True)
class PropertyProfile:
    tag: str
    statuses: tuple[PropertyStatus, ...]
    parameters: tuple[tuple[str, str], ...] = ()

    def status(self, name: str) -> PropertyStatus:
        for s in self.statuses:
            if s.name == name:
                return s
        raise KeyError(name)


def _default_equivalence(relation: ParthoodRelation) -> Equivalence:
    """Rough equality appropriate to the relation's tag.

    Mutual parts are only ever claimed equal up to what the predicate can
    see: approximation images for the image-comparing tags, threshold
    profiles for the profile tag, and literal equality otherwise.
    """
    ctx = relation.context
    tag = relation.tag
    if ctx is None or tag in ("s3", "s6", "s*", "st"):
        return lambda a, b: a.mask == b.mask
    g, kap, alpha = ctx.granulation, ctx.kappa, ctx.alpha
    if tag == "s9":
        def prof(x: ESet) -> tuple[bool, ...]:
            return tuple(kap(x, h) >= alpha for h in g)
        return lambda a, b: prof(a) == prof(b)
    img = getattr(vprs_tables(g, kap, alpha), _IMAGE_OF[tag])
    if tag in ("s0l", "s0u"):
        need = 1 - alpha if tag == "s0l" else alpha
        return lambda a, b: (img[a.mask] == img[b.mask]
                             and kap(a, b) >= need and kap(b, a) >= need)
    return lambda a, b: img[a.mask] == img[b.mask]


_REFLEXIVITY_CONDITIONS: dict[str, tuple[str, Callable[..., bool]]] = {
    "s3": ("cardinality above the grade",
           lambda ctx, a: a.cardinality > ctx.k),
    "s6": ("cardinality above the grade",
           lambda ctx, a: a.cardinality > ctx.k),
    "s*": ("cardinality above the grade",
           lambda ctx, a: a.cardinality > ctx.k),
    "st": ("some designated granule inside the set",
           lambda ctx, a: any(t <= a for t in ctx.tset)),
}


def analyze_properties(relation: ParthoodRelation, *,
                       equivalence: Equivalence | None = None,
                       max_witnesses: int = 1,
                       cap: int = TRIPLE_CAP,
                       override: bool = False) -> PropertyProfile:
    """Check the framework conditions for a materialized relation.

    Pair properties sweep all pairs, triple properties all triples, so
    the universe is guarded by the triple cap. ``equivalence`` overrides
    the tag's default rough equality for the mutual-parts condition.
    """
    universe = relation.universe
    _check_cap(universe.size, cap, override, "the property triple sweep")
    eq = equivalence if equivalence is not None \
        else _default_equivalence(relation)
    full = universe.full_mask
    masks = range(full + 1)
    pairs = relation.pairs

    def ev(m: int) -> ESet:
        return ESet(universe, m)

    def w(**kw: int) -> Witness:
        return tuple(binding(name, ev(m)) for name, m in kw.items())

    statuses: list[PropertyStatus] = []

    def settle(name: str, fails: list[Witness]) -> None:
        if not fails:
            statuses.append(PropertyStatus(name, "holds"))
            return
        ctx = relation.context
        cond = _REFLEXIVITY_CONDITIONS.get(relation.tag)
        if name == "reflexive" and cond is not None and ctx is not None:
            text, test = cond
            if all(((m, m) in pairs) == test(ctx, ev(m)) for m in masks):
                statuses.append(
                    PropertyStatus(name, "conditional", None,
                                   f"reflexive exactly on sets with {text}"))
                return
        statuses.append(PropertyStatus(name, "fails", fails[0]))

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

    return PropertyProfile(relation.tag, tuple(statuses),
                           relation.parameters)


def equalizers(kappa: InclusionFn, a: ESet, b: ESet, *,
               cap: int = EXHAUSTIVE_CAP,
               override: bool = False) -> tuple[tuple[ESet, ...],
                                                tuple[ESet, ...]]:
    """The two equalizer families of a pair under a measure: subsets that
    reproduce the pair's score when substituted on the right, and on the
    left. Results are sorted by mask."""
    if a.universe != b.universe:
        raise ValueError("subsets belong to different universes")
    universe = a.universe
    _check_cap(universe.size, cap, override, "the equalizer sweep")
    score = kappa(a, b)
    right = []
    left = []
    for m in range(universe.full_mask + 1):
        c = ESet(universe, m)
        if kappa(a, c) == score:
            right.append(c)
        if kappa(c, b) == score:
            left.append(c)
    return tuple(right), tuple(left)
