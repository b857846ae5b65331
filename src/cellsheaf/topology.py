"""The Alexandrov topology of a finite preorder.

Open sets are exactly the up-closed subsets; the open stars U_x = {y : x <= y}
form a basis, and arbitrary intersections of opens stay open. Everything is
stored explicitly as member sets, which keeps containment and equality plain
set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EnumerationLimitError, NotOpenError
from .order import PreOrder, quotient_to_poset

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
    """A witness (x, y) with x in the set, x <= y, y missing; None if open."""
    members = frozenset(members)
    for x in sorted(members, key=space.index):
        for y in sorted(space.up_set(x), key=space.index):
            if y not in members:
                return (x, y)
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
    poset = q.quotient
    members_of = {cls[0]: frozenset(cls) for cls in q.classes}
    # process maximal representatives first so that including an element
    # only requires its already-decided strict successors to be present
    order = sorted(
        poset.elements, key=lambda e: (len(poset.down_set(e)), poset.index(e)),
        reverse=True,
    )
    strict_up = {e: poset.up_set(e) - {e} for e in poset.elements}
    found: list[frozenset] = []

    def extend(i: int, current: set[str]):
        if i == len(order):
            total: frozenset = frozenset()
            for rep in current:
                total |= members_of[rep]
            found.append(total)
            return
        e = order[i]
        extend(i + 1, current)
        if strict_up[e] <= current:
            current.add(e)
            extend(i + 1, current)
            current.remove(e)

    extend(0, set())
    opens = [OpenSet(space, m) for m in found]
    opens.sort(key=OpenSet.sort_key)
    return opens

