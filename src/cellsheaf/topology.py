"""The Alexandrov topology of a finite preorder.

Open sets are exactly the up-closed subsets; the open stars U_x = {y : x <= y}
form a basis, and arbitrary intersections and unions of opens stay open.
An open set is identified by its carrier mask over the preorder's bitmask
rows: bit i is the point with carrier index i. A set given by its members
(from a document, the command line or a caller) is checked for up-closure
when the OpenSet is made. A set that is open by theorem is built from its
mask with no check: a star is an `_up` row, the intersection and the union
of two opens are `&` and `|` of their masks, and every mask that
`enumerate_opens` makes is an up-set by construction.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import EnumerationLimitError, NotOpenError, ValidationError
from .order import PreOrder, iter_bits, linear_extension

DEFAULT_MAX_ELEMENTS = 20


class OpenSet:
    """An up-closed subset of a preorder, held as its carrier mask.

    `OpenSet(space, members)` validates up-closure. `members` (a frozenset)
    and `sorted_members` (carrier order, which is bit order) are read off
    the mask when first asked for. Two opens are equal when they live on
    equal spaces and have the same members.
    """

    __slots__ = ("space", "mask", "_key", "_sorted", "_members")

    def __init__(self, space: PreOrder, members: Iterable[str]):
        # the members in the order given, so the first unknown one is named
        members = tuple(members)
        mask = _mask_of(space, members)
        witness = _violation(space, mask)
        if witness is not None:
            raise NotOpenError(*witness)
        self.space, self.mask, self._members = space, mask, frozenset(members)
        self._key = self._sorted = None

    @classmethod
    def _trusted(cls, space: PreOrder, mask: int, key: tuple | None = None) -> "OpenSet":
        """The open with carrier mask `mask`, which must be up-closed by
        theorem; nothing is checked."""
        self = object.__new__(cls)
        self.space, self.mask, self._key = space, mask, key
        self._sorted = self._members = None
        return self

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.sorted_members)
        return self._members

    @property
    def sorted_members(self) -> tuple[str, ...]:
        if self._sorted is None:
            self._sorted = tuple(map(self.space.elements.__getitem__, self.sort_key()[1]))
        return self._sorted

    def sort_key(self) -> tuple:
        """(size, member indices in carrier order), computed once."""
        if self._key is None:
            self._key = (self.mask.bit_count(), tuple(iter_bits(self.mask)))
        return self._key

    def union(self, other: "OpenSet") -> "OpenSet":
        self._same_space(other)
        return OpenSet._trusted(self.space, self.mask | other.mask)

    def intersection(self, other: "OpenSet") -> "OpenSet":
        self._same_space(other)
        return OpenSet._trusted(self.space, self.mask & other.mask)

    def _same_space(self, other: "OpenSet"):
        if other.space is not self.space and other.space != self.space:
            raise ValidationError("open sets live on different carriers")

    def __contains__(self, x) -> bool:
        i = self.space._idx.get(x)
        return i is not None and self.mask >> i & 1 == 1

    def __le__(self, other: "OpenSet") -> bool:
        if not isinstance(other, OpenSet):
            return NotImplemented
        self._same_space(other)
        return not self.mask & ~other.mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpenSet):
            return NotImplemented
        return self.mask == other.mask and (
            other.space is self.space or other.space == self.space)

    def __hash__(self):
        return hash((self.space, self.mask))

    def __repr__(self):
        return "{" + ", ".join(self.sorted_members) + "}"


def _mask_of(space: PreOrder, members: Iterable[str]) -> int:
    index = space.index
    mask = 0
    for x in members:
        mask |= 1 << index(x)
    return mask


def _violation(space: PreOrder, mask: int) -> tuple[str, str] | None:
    up, elements = space._up, space.elements
    for i in iter_bits(mask):
        missing = up[i] & ~mask
        if missing:
            return elements[i], elements[(missing & -missing).bit_length() - 1]
    return None


def open_violation(space: PreOrder, members: Iterable[str]) -> tuple[str, str] | None:
    """A witness (x, y) with x in the set, x <= y, y missing; None if open.

    x is the first member in carrier order with a missing point above it,
    and y the first such missing point.
    """
    return _violation(space, _mask_of(space, members))


def is_open(space: PreOrder, members: Iterable[str]) -> bool:
    return open_violation(space, members) is None


def open_star(space: PreOrder, x: str) -> OpenSet:
    """The smallest open set containing x: everything above x."""
    return OpenSet._trusted(space, space._up[space.index(x)])


def union_of_stars(space: PreOrder, points: Iterable[str]) -> OpenSet:
    up, index = space._up, space.index
    mask = 0
    for x in points:
        mask |= up[index(x)]
    return OpenSet._trusted(space, mask)


def empty_open(space: PreOrder) -> OpenSet:
    return union_of_stars(space, ())


def whole_space(space: PreOrder) -> OpenSet:
    return union_of_stars(space, space.elements)


def enumerate_opens(space: PreOrder, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[OpenSet]:
    """All open sets, sorted by (size, member indices).

    Up-sets of a preorder are unions of mutual-comparability classes, so
    the masks are built class by class. The count is the number of
    antichains of the poset of classes, hence the size guard.
    """
    n = len(space)
    if n > max_elements:
        raise EnumerationLimitError(n, max_elements)
    up, down = space._up, space._down
    # each class is taken by its first point, down the linear extension, so
    # every point strictly above a class is decided before the class is added
    found = [0]
    for r in reversed(linear_extension(down)):
        cls, need = up[r] & down[r], up[r] & ~down[r]
        if cls & -cls == 1 << r:  # r is the first point of its class
            found += [m | cls for m in found if m & need == need]
    # the masks are distinct, so the sort never compares two of them
    keyed = sorted((m.bit_count(), tuple(iter_bits(m)), m) for m in found)
    return [OpenSet._trusted(space, m, (size, bits)) for size, bits, m in keyed]
