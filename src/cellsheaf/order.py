"""Finite preorders and posets, monotone maps, and the poset quotient.

Relations are stored as dense boolean tables over an ordered carrier of
opaque string identifiers. The carrier order fixes all tie-breaking, so
every derived object (quotient representatives, Hasse edge lists, open
set listings) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import NotAntisymmetricError, UnknownElementError, ValidationError


class PreOrder:
    """A reflexive, transitive relation on a finite ordered carrier."""

    __slots__ = ("elements", "_idx", "_leq", "_hash")

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[bool]]):
        # `leq` must already be reflexively and transitively closed;
        # use build_preorder to close a generating set of pairs.
        self.elements = tuple(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise ValidationError("duplicate element identifiers")
        self._leq = tuple(tuple(map(bool, row)) for row in leq)
        n = len(self.elements)
        if len(self._leq) != n or any(len(row) != n for row in self._leq):
            raise ValidationError("relation table does not match carrier size")
        for i in range(n):
            if not self._leq[i][i]:
                raise ValidationError("relation table is not reflexive")
        self._hash = hash((self.elements, self._leq))

    def index(self, x: str) -> int:
        try:
            return self._idx[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return self._leq[self.index(x)][self.index(y)]

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def up_set(self, x: str) -> frozenset[str]:
        i = self.index(x)
        return frozenset(e for j, e in enumerate(self.elements) if self._leq[i][j])

    def down_set(self, x: str) -> frozenset[str]:
        i = self.index(x)
        return frozenset(e for j, e in enumerate(self.elements) if self._leq[j][i])

    def related_pairs(self, strict: bool = False) -> list[tuple[str, str]]:
        out = []
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                if self._leq[i][j] and not (strict and i == j):
                    out.append((x, y))
        return out

    def is_poset(self) -> bool:
        n = len(self.elements)
        return all(
            not (self._leq[i][j] and self._leq[j][i])
            for i in range(n)
            for j in range(i + 1, n)
        )

    def sort_key(self, members: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted(self.index(x) for x in members))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._idx

    def __eq__(self, other):
        return (
            isinstance(other, PreOrder)
            and other.elements == self.elements
            and other._leq == self._leq
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = [(x, y) for x, y in self.related_pairs(strict=True)]
        return f"{type(self).__name__}({list(self.elements)}, {pairs})"


class Poset(PreOrder):
    """A preorder that is additionally antisymmetric.

    The Hasse reduction is computed at most once per instance and kept in
    `_hasse` (see hasse_edges).
    """

    __slots__ = ("_hasse",)

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[bool]]):
        super().__init__(elements, leq)
        self._hasse = None
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                if self._leq[i][j] and self._leq[j][i]:
                    raise NotAntisymmetricError(self.elements[i], self.elements[j])


def build_preorder(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> PreOrder:
    """Smallest preorder on `elements` containing the generating pairs."""
    elements = tuple(elements)
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    # row i is a bitmask of the j with i <= j
    rows = [1 << i for i in range(n)]
    for x, y in pairs:
        if x not in idx:
            raise UnknownElementError(f"unknown element {x!r} in relation pair")
        if y not in idx:
            raise UnknownElementError(f"unknown element {y!r} in relation pair")
        rows[idx[x]] |= 1 << idx[y]
    # Warshall closure: i <= k and k <= j give i <= j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return PreOrder(elements, [_bits(row, n) for row in rows])


def _bits(mask: int, n: int) -> tuple[bool, ...]:
    """The n low bits of `mask`, least significant first."""
    return tuple(map("1".__eq__, reversed(format(mask, f"0{n}b"))))


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(row: tuple[bool, ...]) -> int:
    """Bitmask with bit j set where row[j] holds; the inverse of _bits."""
    return int(bytes(row[::-1]).translate(_DIGITS), 2)


def build_poset(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    p = build_preorder(elements, pairs)
    return Poset(p.elements, p._leq)


def as_poset(p: PreOrder) -> Poset:
    """Re-type a preorder as a poset; raises if antisymmetry fails."""
    if isinstance(p, Poset):
        return p
    return Poset(p.elements, p._leq)


@dataclass(frozen=True)
class MonotoneMap:
    """A carrier map between preorders; monotonicity is checked, not assumed."""

    source: PreOrder
    target: PreOrder
    mapping: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        missing = [x for x in self.source.elements if x not in self.mapping]
        if missing:
            raise ValidationError(f"map does not cover elements {missing}")
        for x in self.source.elements:
            self.target.index(self.mapping[x])

    def __call__(self, x: str) -> str:
        self.source.index(x)
        return self.mapping[x]

    def is_monotone(self) -> bool:
        return all(
            self.target.leq(self.mapping[x], self.mapping[y])
            for x, y in self.source.related_pairs(strict=True)
        )


def identity_map(p: PreOrder) -> MonotoneMap:
    return MonotoneMap(p, p, {x: x for x in p.elements})


@dataclass(frozen=True)
class QuotientResult:
    """Poset of mutual-comparability classes together with the projection."""

    quotient: Poset
    projection: MonotoneMap
    classes: tuple[tuple[str, ...], ...]


def quotient_to_poset(p: PreOrder) -> QuotientResult:
    """Collapse each class {y : x <= y <= x} to its first-listed representative.

    On the closed relation these classes are exactly the strongly connected
    components of the relation digraph. The induced order on representatives
    is antisymmetric by construction.
    """
    rep: dict[str, str] = {}
    classes: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for x in p.elements:
        if x in seen:
            continue
        cls = sorted(
            (y for y in p.elements if p.leq(x, y) and p.leq(y, x)),
            key=p.index,
        )
        for y in cls:
            rep[y] = cls[0]
            seen.add(y)
        classes.append(tuple(cls))
    reps = [cls[0] for cls in classes]
    leq = [[p.leq(a, b) for b in reps] for a in reps]
    quotient = Poset(reps, leq)
    projection = MonotoneMap(p, quotient, dict(rep))
    return QuotientResult(quotient, projection, tuple(classes))


def factor_through_quotient(f: MonotoneMap, q: QuotientResult) -> MonotoneMap:
    """The unique monotone map g on the quotient with g(class of x) = f(x)."""
    if f.source != q.projection.source:
        raise ValidationError("map and quotient have different sources")
    if not f.target.is_poset():
        raise ValidationError("factoring requires the target to be a poset")
    if not f.is_monotone():
        raise ValidationError("only monotone maps factor through the quotient")
    mapping = {}
    for cls in q.classes:
        values = {f.mapping[y] for y in cls}
        if len(values) != 1:
            # mutually comparable points map to mutually comparable values,
            # which in a poset coincide; reaching here means f was invalid
            raise ValidationError(f"map is not constant on class {cls}")
        mapping[cls[0]] = values.pop()
    return MonotoneMap(q.quotient, f.target, mapping)


def hasse_edges(p: PreOrder) -> list[tuple[str, str]]:
    """Covering pairs: x < y with nothing strictly between.

    Pairs are ordered by the index of x, then of y. The reduction is done
    once per Poset instance; every call returns a fresh list. A preorder
    that is not antisymmetric raises NotAntisymmetricError.
    """
    p = as_poset(p)
    if p._hasse is None:
        elements = p.elements
        # above[i] is a bitmask of the j with i < j; the covers of i are
        # the points above it that lie above nothing else above it
        above = [_mask(row) & ~(1 << i) for i, row in enumerate(p._leq)]
        edges = []
        for i, up in enumerate(above):
            through = 0
            rest = up
            while rest:
                low = rest & -rest
                through |= above[low.bit_length() - 1]
                rest ^= low
            covers = up & ~through
            while covers:
                low = covers & -covers
                edges.append((elements[i], elements[low.bit_length() - 1]))
                covers ^= low
        p._hasse = tuple(edges)
    return list(p._hasse)
