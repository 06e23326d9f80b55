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

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    EXHAUSTIVE_CAP,
    TRIPLE_CAP,
    ESet,
    Granulation,
    Universe,
    Witness,
    _bit_planes,
    _check_cap,
    binding,
    iter_bits,
    venn_rows,
)
from .approx import require_alpha, require_grade, vprs_tables
from .inclusion import InclusionFn, kappa_k0

PARTHOOD_TAGS = ("s3", "s5", "s5*", "s6", "s7", "s9", "s*",
                 "s0l", "s0u", "st", "pu")

PROPERTY_NAMES = ("reflexive", "part-compatible", "mutual-rough-equal",
                  "join-compatible", "l-euclidean", "r-euclidean",
                  "antisymmetric", "join-stable", "transitive", "symmetric")

# The image each image-comparing tag compares by inclusion: a
# precision-tuned table from the VPRS kernel, or for s9 the profile of
# granules the set reaches the precision on.
_IMAGE_OF = {"s5": "lower", "s7": "lower", "s0l": "lower",
             "s5*": "star_lower", "s0u": "upper", "pu": "upper",
             "s9": "profile"}
# s0l and s0u also hold the measure to a floor set by the precision.
_FLOOR_OF = {"s0l": lambda alpha: 1 - alpha, "s0u": lambda alpha: alpha}
# s3 and s* as tests at grade k on the Venn counts p = |a|, i = |a∩b|,
# y = |b∖a|: a inside b for s3, b no proper subset of a for s*.
_VENN_OF = {"s3": lambda k: lambda p, i, y: i > k and i == p,
            "s*": lambda k: lambda p, i, y: i > k and (y > 0 or i == p)}


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
    """An explicit parthood relation, one bitset row per subset mask: bit
    ``b`` of ``rows[a]`` is set exactly when the pair (a, b) holds."""

    tag: str
    universe: Universe
    rows: tuple[int, ...]
    parameters: tuple[tuple[str, str], ...] = ()
    context: BuildContext | None = field(default=None, repr=False,
                                         compare=False)

    def holds(self, a: ESet, b: ESet) -> bool:
        if a.universe != self.universe or b.universe != self.universe:
            raise ValueError("subsets belong to a different universe")
        return self.rows[a.mask] >> b.mask & 1 == 1

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every holding pair of masks, sorted; derived from the rows."""
        return tuple((am, bm) for am, row in enumerate(self.rows)
                     for bm in iter_bits(row))

    def extension(self) -> tuple[tuple[ESet, ESet], ...]:
        return tuple((ESet(self.universe, am), ESet(self.universe, bm))
                     for am, bm in self.pairs)

    @property
    def size(self) -> int:
        return sum(row.bit_count() for row in self.rows)


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


def _image(tag: str, ctx: BuildContext) -> Sequence[int]:
    """The image of every subset mask under an image-comparing tag."""
    g, kap, alpha = ctx.granulation, ctx.kappa, ctx.alpha
    if _IMAGE_OF[tag] == "profile":
        # Granule i's bit, looked up by rank for every mask at once.
        values, columns = kap.granule_ranks(g)
        cut = bisect_left(values, alpha)
        profile = [0] * (g.universe.full_mask + 1)
        for i, col in enumerate(columns):
            by_rank = [0] * cut + [1 << i] * (len(values) - cut)
            profile = list(map(or_, profile, map(by_rank.__getitem__, col)))
        return profile
    return getattr(vprs_tables(g, kap, alpha), _IMAGE_OF[tag])


def _image_classes(img: Sequence[int]) -> dict[int, int]:
    """The bitset of masks sharing each distinct image."""
    members: dict[int, int] = {}
    for m, value in enumerate(img):
        members[value] = members.get(value, 0) | 1 << m
    return members


def _preorder_rows(img: Sequence[int]) -> list[int]:
    """Rows of the preorder ``img[a] <= img[b]``, one OR of image classes
    per distinct image."""
    members = _image_classes(img)
    above = {low: sum(bits for value, bits in members.items()
                      if low & ~value == 0)
             for low in members}
    return [above[value] for value in img]


@functools.cache
def _supersets(size: int) -> tuple[int, ...]:
    """Entry ``a`` is the bitset of every superset of ``a`` among the
    masks of a ``size``-element universe."""
    planes = _bit_planes(size)
    up = [(1 << (1 << size)) - 1]
    for a in range(1, 1 << size):
        up.append(up[a & (a - 1)] & planes[a & -a][0])
    return tuple(up)


def _join_escapes(line: int, p: int,
                  planes: dict[int, tuple[int, int]]) -> Iterator[int]:
    """The q after ``p`` in the bitset ``line`` whose join with ``p``
    falls outside ``line``, ascending. One bit-plane fold per element of
    ``p`` turns ``line`` into the bitset of its joins with ``p``, and the
    pair loop runs only when some join is outside."""
    joins, rest = line, p
    while rest:
        bit = rest & -rest
        high, low = planes[bit]
        joins = (joins & high) | ((joins & low) << bit)
        rest ^= bit
    if joins & ~line == 0:
        return
    for q in iter_bits(line & ~((2 << p) - 1)):
        if not line >> (p | q) & 1:
            yield q


# A relation over a size-element universe packs into one int of 4^size
# bits, line a (a row or a column) at bit a·2^size, so that one
# big-integer operation acts on every line at once.

def _tile(block: int, period: int, width: int) -> int:
    """``block`` repeated every ``period`` bits across ``width`` bits,
    for powers of two ``period <= width``."""
    while period < width:
        block |= block << period
        period *= 2
    return block


@functools.cache
def _packed_masks(size: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                      int]:
    """Masks over a packed relation, from the bit planes of ``size``:
    per element i, the bits of every line whose mask holds i; per
    transpose round k, the bits whose line index lacks element k and
    whose mask within the line holds it; and bit 0 of every line."""
    planes = _bit_planes(size)
    width = 1 << size
    total = width << size
    highs = tuple(_tile(planes[1 << i][0], width, total)
                  for i in range(size))
    swaps = tuple(_tile(_tile(planes[1 << k][0], width, width << k),
                        width << (k + 1), total) for k in range(size))
    return highs, swaps, _tile(1, width, total)


def _pack(lines: Sequence[int], width: int) -> int:
    """A power-of-two count of lines of ``width`` bits as one int, line
    a at bit a·width."""
    parts = list(lines)
    while len(parts) > 1:
        parts = [lo | hi << width for lo, hi in zip(parts[::2], parts[1::2])]
        width *= 2
    return parts[0]


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The ``count`` lines of ``width`` bits of a packed int, the
    inverse of :func:`_pack`."""
    parts, span = [packed], width * count
    while span > width:
        span //= 2
        cut = (1 << span) - 1
        parts = [part for whole in parts
                 for part in (whole & cut, whole >> span)]
    return parts


def _transpose(packed: int, size: int) -> int:
    """The packed relation with rows and columns swapped: round k swaps
    bit k of the line index with bit k of the mask within the line."""
    for k, mask in enumerate(_packed_masks(size)[1]):
        shift = ((1 << size) - 1) << k
        moved = (packed ^ packed >> shift) & mask
        packed ^= moved | moved << shift
    return packed


def _union_open(lines: Sequence[int], size: int) -> int:
    """The bitset of the lines, each a family of masks of a
    ``size``-element universe, that are not closed under union.

    A family F is closed exactly when every nonempty fixed point of
    J(x) = ∪{f ∈ F : f ⊆ x} is in F. J over every x is the
    OR-over-subsets (zeta) transform, run bit-sliced over the distinct
    lines packed side by side: bit x of plane j holds whether j ∈ J(x),
    and one shifted OR per element and plane carries each member up to
    its supersets. The empty set is a fixed point that F need not hold.
    """
    distinct = list(dict.fromkeys(lines))
    count = 1 << (len(distinct) - 1).bit_length()
    width = 1 << size
    everything = (1 << count * width) - 1
    highs, _, empties = _packed_masks(size)
    if count < width:  # fewer lines than masks: cut the masks to fit
        highs = [high & everything for high in highs]
    packed = _pack(distinct + [0] * (count - len(distinct)), width)
    joins = [packed & high for high in highs]
    for i, high in enumerate(highs):
        low, shift = everything ^ high, 1 << i
        joins = [plane | (plane & low) << shift for plane in joins]
    settled = packed | (empties & everything)
    for plane, high in zip(joins, highs):
        settled |= plane ^ high
    failing = {line for line, bits in zip(
        distinct, _unpack(settled ^ everything, width, count)) if bits}
    return sum(1 << a for a, line in enumerate(lines) if line in failing)


def build_parthood(tag: str, universe: Universe, granulation: Granulation, *,
                   kappa: InclusionFn | None = None,
                   alpha: Fraction | int | str = 0, k: int = 0,
                   tset: Iterable[ESet] | None = None) -> ParthoodRelation:
    """Materialize one parthood predicate over the whole powerset.

    The relation covers all pairs of subsets, so it is guarded as a
    sweep of twice the universe size. Grade-style tags read ``k``,
    precision-style tags read ``kappa`` and ``alpha``, and the designated
    tag ``st`` reads ``tset`` (granules that must come from the
    granulation; the default is none, making the relation empty).
    Image-comparing tags build one preorder over their distinct images.
    """
    if tag not in PARTHOOD_TAGS:
        raise ValueError(
            f"unknown parthood tag {tag!r}; valid identifiers: "
            f"{', '.join(PARTHOOD_TAGS)}"
        )
    if granulation.universe != universe:
        raise ValueError("granulation belongs to a different universe")
    _check_cap(universe.size * 2, EXHAUSTIVE_CAP,
               "the pairwise parthood sweep")
    kap = kappa if kappa is not None else kappa_k0()
    alpha = require_alpha(alpha)
    k = require_grade(k)
    designated = _as_tset(granulation, tset)
    ctx = BuildContext(granulation, kap, alpha, k, designated)
    masks = range(universe.full_mask + 1)

    if tag in _VENN_OF:
        rows = venn_rows(universe.size, _VENN_OF[tag](k))
    elif tag == "s6":
        rows = [row if am.bit_count() > k else 0
                for am, row in enumerate(_supersets(universe.size))]
    elif tag == "st":
        tmasks = tuple(h.mask for h in designated)
        rows = [row if any(t & ~am == 0 for t in tmasks) else 0
                for am, row in enumerate(_supersets(universe.size))]
    elif tag == "s7":
        # Same intent as s5, rebuilt granule by granule instead of
        # through the preorder of lower images; the two must agree. Row
        # a is the meet, over the granules inside a that a reaches the
        # precision on, of the sets whose lower image holds the granule.
        lo = vprs_tables(granulation, kap, alpha).lower
        reaches = kap.at_least(universe, 1 - alpha)
        holding = {g: sum(1 << bm for bm in masks if g & ~lo[bm] == 0)
                   for g in granulation.masks}
        rows = []
        for am in masks:
            row = (1 << len(masks)) - 1
            for g, bits in holding.items():
                if g & ~am == 0 and reaches(am, g):
                    row &= bits
            rows.append(row)
    else:
        rows = _preorder_rows(_image(tag, ctx))
        if tag in _FLOOR_OF:
            theta = _FLOOR_OF[tag](alpha)
            if kap.invariant:
                floor = kap.floor_rows(universe, theta)
                rows = [row & cut for row, cut in zip(rows, floor)]
            else:
                # Only the preorder's pairs, not the whole floor table.
                reaches = kap.at_least(universe, theta)
                rows = [sum(1 << bm for bm in iter_bits(row)
                            if reaches(am, bm))
                        for am, row in enumerate(rows)]

    params = [("kappa", kap.describe()), ("alpha", str(alpha)),
              ("k", str(k))]
    if tag == "st":
        params.append(("designated",
                       ",".join(h.label() for h in designated) or "none"))
    return ParthoodRelation(tag, universe, tuple(rows), tuple(params), ctx)


@dataclass(frozen=True)
class PuResult:
    """The upper-stability preorder together with its value classes."""

    relation: ParthoodRelation
    classes: tuple[tuple[ESet, ...], ...]
    class_upper_values: tuple[ESet, ...]


def build_pu(universe: Universe, granulation: Granulation, *,
             kappa: InclusionFn | None = None,
             alpha: Fraction | int | str = 0) -> PuResult:
    """Build the preorder comparing upper approximations, plus the classes
    of subsets sharing one upper value. Classes come sorted by their
    smallest member, members sorted within each class."""
    relation = build_parthood("pu", universe, granulation, kappa=kappa,
                              alpha=alpha)
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


def _rough_equal_rows(relation: ParthoodRelation) -> list[int]:
    """Rough equality appropriate to the relation's tag, as bitset rows.

    Mutual parts are only ever claimed equal up to what the predicate can
    see: approximation images or threshold profiles for the
    image-comparing tags, and literal equality otherwise. The s0l and s0u
    measure floor needs no second test: a built relation holds a mutual
    pair only once both directions have passed it.
    """
    ctx = relation.context
    if ctx is None or relation.tag not in _IMAGE_OF:
        return [1 << m for m in range(len(relation.rows))]
    img = _image(relation.tag, ctx)
    members = _image_classes(img)
    return [members[value] for value in img]


_ABOVE_GRADE = ("cardinality above the grade",
                lambda ctx, a: a.cardinality > ctx.k)
_REFLEXIVITY_CONDITIONS: dict[str, tuple[str, Callable[..., bool]]] = {
    "s3": _ABOVE_GRADE, "s6": _ABOVE_GRADE, "s*": _ABOVE_GRADE,
    "st": ("some designated granule inside the set",
           lambda ctx, a: any(t <= a for t in ctx.tset)),
}


def _first_bits(cases: Iterable[tuple[int, ...]]
                ) -> Iterator[tuple[int, ...]]:
    """Cases with a nonzero last entry, that bitset cut to its lowest bit."""
    for *fixed, bits in cases:
        if bits:
            yield (*fixed, (bits & -bits).bit_length() - 1)


def _row_escapes(row: int, rows: Sequence[int]) -> int:
    """The masks that the rows of the members of ``row`` hold and
    ``row`` lacks: zero exactly when the relation's pairs (a, b), (b, c)
    give (a, c) in every row a equal to ``row``."""
    reach = 0
    for bm in iter_bits(row):
        reach |= rows[bm]
    return reach & ~row


def analyze_properties(relation: ParthoodRelation) -> PropertyProfile:
    """Check the framework conditions for a materialized relation.

    Pair properties are row and column expressions, and triple
    properties range over all triples, so the universe is guarded by the
    triple cap. A failing property reports its first witness in sorted
    pair order.
    """
    universe = relation.universe
    _check_cap(universe.size, TRIPLE_CAP, "the property triple sweep")
    eq = _rough_equal_rows(relation)
    size = universe.size
    masks = range(universe.full_mask + 1)
    rows = relation.rows
    if len(rows) != len(masks) or any(row >> len(masks) for row in rows):
        raise ValueError("a relation needs one row of 2^n bits per subset")
    cols = _unpack(_transpose(_pack(rows, 1 << size), size), 1 << size,
                   1 << size)
    planes, up = _bit_planes(size), _supersets(size)

    def ev(m: int) -> ESet:
        return ESet(universe, m)

    def w(**kw: int) -> Witness:
        return tuple(binding(name, ev(m)) for name, m in kw.items())

    def unjoined(am: int) -> Iterator[tuple[int, ...]]:
        return ((am, em, bm) for em in iter_bits(rows[am])
                for bm in _join_escapes(rows[am], em, planes))

    def left_escapes(bm: int) -> Iterator[tuple[int, ...]]:
        return _first_bits((bm, am, rows[bm] & up[am] & ~rows[am])
                           for am in iter_bits(rows[bm]))

    def right_escapes(am: int) -> Iterator[tuple[int, ...]]:
        return _first_bits((am, bm, cols[bm] & up[am] & ~rows[am])
                           for bm in iter_bits(rows[am]))

    def untransferred(am: int) -> Iterator[tuple[int, ...]]:
        return _first_bits((am, bm, rows[bm] & ~rows[am])
                           for bm in iter_bits(rows[am]))

    # Failures of transitivity in row m exist or not by the row alone,
    # so each distinct row is screened once.
    escapes: dict[int, int] = {}

    def intransitive(am: int) -> bool:
        row = rows[am]
        if row not in escapes:
            escapes[row] = _row_escapes(row, rows)
        return escapes[row] != 0

    # The euclidean rules fail only through a pair a ⊆ e that the
    # relation lacks: r-euclidean in row a when some row of such an e
    # meets row a, l-euclidean in each row b holding both a and e.
    def right_fails(am: int) -> bool:
        return rows[am] != 0 and any(rows[em] & rows[am] for em
                                     in iter_bits(up[am] & ~rows[am]))

    left_open = 0
    for am in masks:
        if cols[am]:
            reach = 0
            for em in iter_bits(up[am] & ~rows[am]):
                reach |= cols[em]
            left_open |= cols[am] & reach
    open_rows = _union_open(rows, size)
    open_cols = _union_open(cols, size)

    # Each property yields its failures lazily, in sorted pair order.
    # Where a whole-relation test finds the failing lines first, the
    # witness loop runs on the first failing row (iter_bits(x & -x)
    # yields the lowest bit of x) or, for join-stable, the failing
    # columns only.
    failures: dict[str, Iterator[Witness]] = {
        "reflexive": (w(a=m) for m in masks if not rows[m] >> m & 1),
        "part-compatible": (w(a=a, b=b) for a, b in _first_bits(
            (m, rows[m] & ~up[m]) for m in masks)),
        "mutual-rough-equal": (w(a=a, b=b) for a, b in _first_bits(
            (m, rows[m] & cols[m] & ~eq[m] & ~((2 << m) - 1))
            for m in masks)),
        # A failing join is symmetric in its two sets, so the first
        # witness of either join rule has b after its partner e or a.
        "join-compatible": (w(a=a, e=e, b=b)
                            for row in iter_bits(open_rows & -open_rows)
                            for a, e, b in unjoined(row)),
        "l-euclidean": (w(a=a, b=b, e=e)
                        for row in iter_bits(left_open & -left_open)
                        for b, a, e in left_escapes(row)),
        "r-euclidean": (w(a=a, b=b, e=e)
                        for row in islice(filter(right_fails, masks), 1)
                        for a, b, e in right_escapes(row)),
        "antisymmetric": (w(a=a, b=b) for a, b in _first_bits(
            (m, rows[m] & cols[m] & ~(1 << m)) for m in masks)),
        "join-stable": (
            w(a=am, b=bm, e=em) for am in masks
            for em in iter_bits(rows[am] & open_cols)
            for bm in _join_escapes(cols[em], am, planes)),
        "transitive": (w(a=a, b=b, c=c)
                       for row in islice(filter(intransitive, masks), 1)
                       for a, b, c in untransferred(row)),
        "symmetric": (w(a=a, b=b) for a, b in _first_bits(
            (m, rows[m] & ~cols[m]) for m in masks)),
    }

    statuses: list[PropertyStatus] = []
    ctx = relation.context
    cond = _REFLEXIVITY_CONDITIONS.get(relation.tag)
    for name, fails in failures.items():
        witness = next(fails, None)
        if witness is None:
            statuses.append(PropertyStatus(name, "holds"))
        elif name == "reflexive" and cond is not None and ctx is not None \
                and all(bool(rows[m] >> m & 1) == cond[1](ctx, ev(m))
                        for m in masks):
            statuses.append(PropertyStatus(
                name, "conditional", None,
                f"reflexive exactly on sets with {cond[0]}"))
        else:
            statuses.append(PropertyStatus(name, "fails", witness))
    return PropertyProfile(relation.tag, tuple(statuses),
                           relation.parameters)


def equalizers(kappa: InclusionFn, a: ESet,
               b: ESet) -> tuple[tuple[ESet, ...], tuple[ESet, ...]]:
    """The two equalizer families of a pair under a measure: subsets that
    reproduce the pair's score when substituted on the right, and on the
    left. Results are sorted by mask."""
    if a.universe != b.universe:
        raise ValueError("subsets belong to different universes")
    universe = a.universe
    _check_cap(universe.size, EXHAUSTIVE_CAP, "the equalizer sweep")
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
