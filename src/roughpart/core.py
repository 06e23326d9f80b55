"""Finite universes, subsets, granulations, and structural axiom checks.

The engine works over an explicitly listed finite universe. Subsets are
immutable bitmask views (:class:`ESet`) bound to their universe, which keeps
exhaustive sweeps over powersets cheap enough for the verifier while staying
value-typed: two subsets are equal exactly when they contain the same
elements of the same universe.

A :class:`Granulation` is an ordered collection of distinct nonempty subsets
(the granules). Granulations can be given directly or derived from a binary
relation through :func:`build_neighborhood_granulation`.

Structural checks (:func:`check_ggs_axioms`, :func:`check_admissibility`)
evaluate the lattice-with-operators axioms and the granularity conditions of
the underlying framework for a supplied pair of approximation operators,
returning one :class:`CheckReport` per axiom.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

EXHAUSTIVE_CAP = 24
TRIPLE_CAP = 12

CLOSURES = ("none", "reflexive", "symmetric", "tolerance", "equivalence")
NEIGHBORHOOD_MODES = ("predecessor", "successor")

Operator = Callable[["ESet"], "ESet"]

Binding = tuple[str, tuple[str, ...]]
Witness = tuple[Binding, ...]


class CapExceeded(ValueError):
    """An exhaustive sweep was requested over too large a powerset."""


def _check_cap(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapExceeded(
            f"{what} over a universe of size {size} exceeds the cap of {cap}")


def _exact(value: object) -> Fraction:
    """A threshold as an exact fraction: a ``Fraction``, an ``int`` or a
    fraction string. A float holds only the nearest binary value of a
    decimal such as 0.2, so it is refused, and so is a ``bool``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (Fraction, int, str)) and \
            not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("expected a fraction string")


@dataclass(frozen=True)
class Universe:
    """An ordered finite universe of distinct element names."""

    elements: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("universe elements must be distinct")
        for name in self.elements:
            if not isinstance(name, str) or not name:
                raise ValueError("universe elements must be nonempty strings")

    @classmethod
    def of(cls, names: Iterable[str]) -> "Universe":
        """Build a universe with elements in lexical order."""
        return cls(tuple(sorted(set(names))))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise ValueError(f"unknown element {name!r}") from None

    def subset(self, names: Iterable[str] = ()) -> "ESet":
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return ESet(self, mask)

    @property
    def empty(self) -> "ESet":
        return ESet(self, 0)

    @property
    def full(self) -> "ESet":
        return ESet(self, self.full_mask)

    def subsets(self) -> Iterator["ESet"]:
        """All subsets in mask order. Guarded by the exhaustive cap."""
        _check_cap(self.size, EXHAUSTIVE_CAP, "a powerset sweep")
        for mask in range(self.full_mask + 1):
            yield ESet(self, mask)


@dataclass(frozen=True)
class ESet:
    """An immutable subset of a universe, stored as a bitmask.

    Comparison operators follow set semantics: ``a <= b`` is inclusion and
    ``a < b`` proper inclusion. These are partial orders, so never sort
    instances directly; sort by ``.mask`` instead.
    """

    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.universe.full_mask:
            raise ValueError("subset mask out of range for its universe")

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.universe.elements)
            if self.mask >> i & 1
        )

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def label(self) -> str:
        """Canonical row label, e.g. ``{x1,x2}`` (members in universe order)."""
        return "{" + ",".join(self.members) + "}"

    def _coerce(self, other: "ESet") -> None:
        if other.universe is not self.universe \
                and other.universe != self.universe:
            raise ValueError("subsets belong to different universes")

    def __and__(self, other: "ESet") -> "ESet":
        self._coerce(other)
        return ESet(self.universe, self.mask & other.mask)

    def __or__(self, other: "ESet") -> "ESet":
        self._coerce(other)
        return ESet(self.universe, self.mask | other.mask)

    def __sub__(self, other: "ESet") -> "ESet":
        self._coerce(other)
        return ESet(self.universe, self.mask & ~other.mask)

    def complement(self) -> "ESet":
        return ESet(self.universe, self.universe.full_mask & ~self.mask)

    def __le__(self, other: "ESet") -> bool:
        self._coerce(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ESet") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "ESet") -> bool:
        return other <= self

    def __gt__(self, other: "ESet") -> bool:
        return other < self

    def __contains__(self, name: str) -> bool:
        return self.mask >> self.universe.index(name) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in increasing numeric order, including 0."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def iter_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@functools.cache
def _bit_planes(size: int) -> dict[int, tuple[int, int]]:
    """Bitsets over the masks of a ``size``-element universe: each
    one-element mask maps to the masks that hold it and the masks that
    do not."""
    masks = range(1 << size)
    everything = (1 << len(masks)) - 1
    planes = {}
    for i in range(size):
        high = sum(1 << m for m in masks if m >> i & 1)
        planes[1 << i] = (high, everything ^ high)
    return planes


def _grow(meets: list[int], plane: tuple[int, int]) -> list[int]:
    """The meet vector of a set grown by one element outside it, from the
    set's own: the b that hold the element, ``plane[0]``, move up one
    entry, and the b that lack it, ``plane[1]``, stay."""
    high, low = plane
    return [meets[0] & low,
            *((m & low) | (prev & high) for prev, m in zip(meets, meets[1:])),
            meets[-1] & high]


@functools.cache
def _swaps(size: int) -> dict[tuple[int, int], int]:
    """Per pair of elements i < j, the bitset of masks with i and not j."""
    planes = _bit_planes(size)
    return {(i, j): planes[1 << i][0] & planes[1 << j][1]
            for j in range(size) for i in range(j)}


def _parent(am: int) -> tuple[int, int, int]:
    """A mask that is not a prefix {0..p-1} with its highest element j
    moved down to its lowest gap i (same size, smaller mask), i and j."""
    j = am.bit_length() - 1
    i = (~am & (am + 1)).bit_length() - 1
    return am ^ (1 << j) ^ (1 << i), i, j


def _swap(row: int, i: int, j: int, swaps: dict) -> int:
    """``row`` with the bits of masks b and (i j)·b exchanged, for i < j:
    one delta swap."""
    shift = (1 << j) - (1 << i)
    t = (row ^ row >> shift) & swaps[i, j]
    return row ^ t ^ t << shift


def venn_rows(size: int, test: Callable[[int, int, int], bool]
              ) -> tuple[int, ...]:
    """Bitset rows over the masks of a ``size``-element universe: bit
    ``b`` of row ``a`` is set exactly when ``test(|a|, |a∩b|, |b∖a|)``.

    The test runs once per count triple. The row of a prefix {0..p-1} is
    the OR over i of entry i of its meet vector (the b meeting it in i
    elements) masked by ``keep[p][i]``, the sets of every size i + y at
    which the test passes. Any other row is its parent's (:func:`_parent`)
    under one delta swap: a few big-int operations on 2^n bits."""
    planes = _bit_planes(size)
    chain = [[(1 << (1 << size)) - 1]]
    for e in range(size):  # up to the full set's vector: sets by size
        chain.append(_grow(chain[-1], planes[1 << e]))
    keep = [[sum(chain[-1][i + y] for y in range(size - p + 1)
                 if test(p, i, y))
             for i in range(p + 1)] for p in range(size + 1)]
    rows = [0] * (1 << size)
    for p, meets in enumerate(chain):
        rows[(1 << p) - 1] = sum(m & k for m, k in zip(meets, keep[p]) if k)
    swaps = _swaps(size)
    for am in range(1 << size):
        if am & (am + 1):
            parent, i, j = _parent(am)
            rows[am] = _swap(rows[parent], i, j, swaps)
    return tuple(rows)


@dataclass(frozen=True)
class Granulation:
    """An ordered tuple of distinct nonempty granules over one universe."""

    universe: Universe
    granules: tuple[ESet, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.granules:
            if g.universe != self.universe:
                raise ValueError("granule bound to a different universe")
            if g.is_empty:
                raise ValueError("granules must be nonempty")
            if g.mask in seen:
                raise ValueError(f"duplicate granule {g.label()}")
            seen.add(g.mask)

    @classmethod
    def of(cls, universe: Universe,
           granules: Iterable[Iterable[str]]) -> "Granulation":
        """Normalize raw member lists: drop empty granules, keep first of
        any duplicates, preserve the given order otherwise."""
        out: list[ESet] = []
        seen: set[int] = set()
        for names in granules:
            g = universe.subset(names)
            if g.is_empty or g.mask in seen:
                continue
            seen.add(g.mask)
            out.append(g)
        return cls(universe, tuple(out))

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.granules)

    def union(self, keep: Callable[[int], bool]) -> int:
        """The mask of the union of the granules whose mask passes
        ``keep``."""
        out = 0
        for g in self.granules:
            if keep(g.mask):
                out |= g.mask
        return out

    @property
    def covers(self) -> bool:
        return self.union(lambda g: True) == self.universe.full_mask

    def __len__(self) -> int:
        return len(self.granules)

    def __iter__(self) -> Iterator[ESet]:
        return iter(self.granules)

    def __contains__(self, item: ESet) -> bool:
        return item in self.granules


@dataclass(frozen=True)
class RelationSpec:
    """A binary relation given by pairs plus a closure to apply.

    Closures: ``none`` keeps the pairs as given, ``reflexive`` adds every
    loop, ``symmetric`` adds every converse pair, ``tolerance`` is reflexive
    plus symmetric, and ``equivalence`` additionally closes transitively.
    """

    pairs: tuple[tuple[str, str], ...]
    closure: str = "none"

    def __post_init__(self) -> None:
        if self.closure not in CLOSURES:
            raise ValueError(
                f"unknown closure {self.closure!r}; valid: {', '.join(CLOSURES)}"
            )

    def closed_pairs(self, universe: Universe) -> frozenset[tuple[int, int]]:
        rel = {(universe.index(a), universe.index(b)) for a, b in self.pairs}
        if self.closure in ("reflexive", "tolerance", "equivalence"):
            rel |= {(i, i) for i in range(universe.size)}
        if self.closure in ("symmetric", "tolerance", "equivalence"):
            rel |= {(j, i) for i, j in rel}
        if self.closure == "equivalence":
            changed = True
            while changed:
                changed = False
                for i, j in list(rel):
                    for j2, k in list(rel):
                        if j == j2 and (i, k) not in rel:
                            rel.add((i, k))
                            changed = True
        return frozenset(rel)


def neighborhood_map(universe: Universe, relation: RelationSpec,
                     mode: str = "predecessor") -> tuple[tuple[str, ESet], ...]:
    """Per-element neighborhoods of the closed relation, in universe order.

    ``predecessor`` maps x to everything related INTO x; ``successor`` maps
    x to everything x relates to.
    """
    if mode not in NEIGHBORHOOD_MODES:
        raise ValueError(
            f"unknown neighborhood mode {mode!r}; "
            f"valid: {', '.join(NEIGHBORHOOD_MODES)}"
        )
    rel = relation.closed_pairs(universe)
    out = []
    for i, name in enumerate(universe.elements):
        if mode == "predecessor":
            mask = sum(1 << j for j, k in rel if k == i)
        else:
            mask = sum(1 << k for j, k in rel if j == i)
        out.append((name, ESet(universe, mask)))
    return tuple(out)


def build_neighborhood_granulation(universe: Universe, relation: RelationSpec,
                                   mode: str = "predecessor") -> Granulation:
    """Granulation made of the distinct nonempty neighborhoods."""
    nbhd = neighborhood_map(universe, relation, mode)
    return Granulation.of(universe, (n.members for _, n in nbhd))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check: a verdict plus refuting witnesses.

    A witness is a tuple of (variable, members) bindings; re-evaluating the
    checked statement at any listed witness falsifies it.
    """

    name: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()
    universe_size: int = 0
    parameters: tuple[tuple[str, str], ...] = ()

    def witness_dicts(self) -> list[dict[str, tuple[str, ...]]]:
        return [dict(w) for w in self.witnesses]


def binding(name: str, value: ESet) -> Binding:
    return (name, value.members)


def image_table(universe: Universe, op: Operator) -> list[int]:
    """The mask of ``op`` applied to every subset, indexed by subset mask."""
    return [op(ESet(universe, m)).mask for m in range(universe.full_mask + 1)]


_MAX_WITNESSES = 3


def _sweep_report(name: str, failures: Iterable[Witness], size: int,
                  parameters: tuple[tuple[str, str], ...] = ()
                  ) -> CheckReport:
    """The report of a sweep: it holds when ``failures`` yields nothing,
    and keeps the first witnesses in sweep order. A lazy ``failures``
    stops at the cap."""
    witnesses = tuple(itertools.islice(failures, _MAX_WITNESSES))
    return CheckReport(name, not witnesses, witnesses, size, parameters)


# Axioms that only restate inclusion, union and intersection on bitmasks.
_LATTICE_AXIOMS = ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5")


def check_ggs_axioms(universe: Universe, lower: Operator,
                     upper: Operator) -> tuple[CheckReport, ...]:
    """Evaluate the framework's structural axioms for a set instantiation.

    The parthood is inclusion and the lattice operations are union and
    intersection, so the order axioms (PT1, PT2, G1-G5) and the bounds
    axiom TB hold by construction; they are reported as holding, under
    their names, so that a report covers the whole axiom list. The
    operator axioms UL1, UL2 and UL3 depend on ``lower`` and ``upper`` and
    are swept over the whole powerset.
    """
    _check_cap(universe.size, EXHAUSTIVE_CAP, "the structural axiom check")
    lo = image_table(universe, lower)
    up = image_table(universe, upper)
    n = universe.full_mask
    masks = range(n + 1)

    def w(**kw: int) -> Witness:
        return tuple(binding(k, ESet(universe, m)) for k, m in kw.items())

    sweeps = [(name, ()) for name in _LATTICE_AXIOMS]
    sweeps.append(("UL1", (
        w(a=a) for a in masks
        if lo[a] & ~a or lo[lo[a]] != lo[a] or up[a] & ~up[up[a]])))
    sweeps.append(("UL2", (
        w(a=a, b=b) for b in masks for a in iter_submasks(b)
        if lo[a] & ~lo[b] or up[a] & ~up[b])))
    sweeps.append(("UL3", [w(bottom=0, top=n)]
                   if lo[0] != 0 or up[0] != 0 or lo[n] & ~n or up[n] & ~n
                   else ()))
    sweeps.append(("TB", ()))
    return tuple(_sweep_report(name, failures, universe.size)
                 for name, failures in sweeps)


def check_admissibility(universe: Universe, granulation: Granulation,
                        lower: Operator,
                        upper: Operator) -> tuple[CheckReport, ...]:
    """Check the three granularity conditions for the operator pair.

    The first demands that every approximation is a union of granules, the
    second that a granule inside a set survives into its lower
    approximation, and the third that every two granules sit properly
    inside some common subset that is its own lower and upper
    approximation.
    """
    _check_cap(universe.size, EXHAUSTIVE_CAP, "the admissibility check")
    if granulation.universe != universe:
        raise ValueError("granulation belongs to a different universe")
    lo = image_table(universe, lower)
    up = image_table(universe, upper)
    gmasks = granulation.masks
    masks = range(universe.full_mask + 1)

    def e(name: str, mask: int) -> Binding:
        return binding(name, ESet(universe, mask))

    definite = [z for z in masks if lo[z] == z and up[z] == z]
    return (
        _sweep_report("weak-representability", (
            (e("a", a), ("operator", (tag,)), e("value", v))
            for a in masks for tag, v in (("lower", lo[a]), ("upper", up[a]))
            if granulation.union(lambda g: g & ~v == 0) != v),
            universe.size),
        _sweep_report("lower-stability", (
            (e("granule", g), e("a", a)) for g in gmasks for a in masks
            if g & ~a == 0 and g & ~lo[a]), universe.size),
        _sweep_report("mereological-fullness", (
            (e("granule1", g), e("granule2", h))
            for g in gmasks for h in gmasks
            if not any(g & ~z == 0 and h & ~z == 0 and z != g and z != h
                       for z in definite)), universe.size),
    )
