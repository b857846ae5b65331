"""The Alexandrov topology of a finite preorder.

Open sets are exactly the up-closed subsets; the open stars U_x = {y : x <= y}
form a basis, and arbitrary intersections of opens stay open. Open sets
are stored explicitly as member sets, which keeps containment and equality
plain set operations; up-closure and enumeration work on masks over the
preorder's bitmask rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EnumerationLimitError, NotOpenError
from .order import PreOrder, iter_bits, quotient_to_poset

DEFAULT_MAX_ELEMENTS = 20


@dataclass(frozen=True)
class OpenSet:
    """An up-closed subset of a preorder; construction validates up-closure."""

    space: PreOrder
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        witness = open_violation(self.space, self.members)
        if witness is not None:
            raise NotOpenError(*witness)

    @property
    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members, key=self.space.index))

    def sort_key(self) -> tuple:
        return (len(self.members), self.space.sort_key(self.members))

    def union(self, other: "OpenSet") -> "OpenSet":
        return OpenSet(self.space, self.members | other.members)

    def intersection(self, other: "OpenSet") -> "OpenSet":
        return OpenSet(self.space, self.members & other.members)

    def __contains__(self, x) -> bool:
        return x in self.members

    def __le__(self, other: "OpenSet") -> bool:
        return self.members <= other.members

    def __repr__(self):
        return "{" + ", ".join(self.sorted_members) + "}"


def open_violation(space: PreOrder, members: Iterable[str]) -> tuple[str, str] | None:
    """A witness (x, y) with x in the set, x <= y, y missing; None if open.

    x is the first member in carrier order with a missing point above it,
    and y the first such missing point.
    """
    index, up, elements = space.index, space._up, space.elements
    mask = 0
    for x in members:
        mask |= 1 << index(x)
    for i in iter_bits(mask):
        missing = up[i] & ~mask
        if missing:
            return elements[i], elements[(missing & -missing).bit_length() - 1]
    return None


def is_open(space: PreOrder, members: Iterable[str]) -> bool:
    return open_violation(space, members) is None


def open_star(space: PreOrder, x: str) -> OpenSet:
    """The smallest open set containing x: everything above x."""
    return OpenSet(space, space.up_set(x))


def empty_open(space: PreOrder) -> OpenSet:
    return OpenSet(space, frozenset())


def whole_space(space: PreOrder) -> OpenSet:
    return OpenSet(space, frozenset(space.elements))


def union_of_stars(space: PreOrder, points: Iterable[str]) -> OpenSet:
    members: frozenset = frozenset()
    for x in points:
        members |= space.up_set(x)
    return OpenSet(space, members)


def enumerate_opens(space: PreOrder, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[OpenSet]:
    """All open sets, sorted by (size, member indices).

    Up-sets of a preorder are unions of mutual-comparability classes, so the
    enumeration runs on the poset quotient and maps classes back. The count
    is the number of antichains of the quotient, hence the size guard.
    """
    n = len(space)
    if n > max_elements:
        raise EnumerationLimitError(n, max_elements)
    q = quotient_to_poset(space)
    up, down, elements = space._up, space._down, space.elements
    sizes = [row.bit_count() for row in q.quotient._down]
    # each open is a mask over the carrier; the classes are added maximal
    # first, so that every point strictly above a class is already decided
    found = [0]
    for c in sorted(range(len(sizes)), key=lambda c: (sizes[c], c), reverse=True):
        r = space.index(q.classes[c][0])
        cls = up[r] & down[r]
        need = up[r] & ~cls
        found += [m | cls for m in found if m & need == need]
    opens = [OpenSet(space, frozenset(map(elements.__getitem__, iter_bits(m)))) for m in found]
    opens.sort(key=OpenSet.sort_key)
    return opens
