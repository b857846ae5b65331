"""Finite preorders and posets, monotone maps, and the poset quotient.

A relation is stored once, as one int bitmask row per element of an
ordered carrier of opaque string identifiers (see PreOrder); every query
here and in `topology` and `sheaf` reads those rows. The carrier order
fixes all tie-breaking, so every derived object (quotient
representatives, Hasse edge lists, open set listings) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotAntisymmetricError, UnknownElementError, ValidationError


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def linear_extension(down: Sequence[int]) -> list[int]:
    """The points of a preorder by (|down-set|, index), from its `_down` rows:
    a linear extension, as x < y strictly makes down(x) a proper part of
    down(y). A class shares one down-set, so its first-listed point leads."""
    sizes = [row.bit_count() for row in down]
    return sorted(range(len(sizes)), key=sizes.__getitem__)


class PreOrder:
    """A reflexive, transitive relation on a finite ordered carrier.

    The relation is held as bitmask rows over carrier positions: bit j of
    `_up[i]` is set when elements[i] <= elements[j], and bit i of
    `_down[j]` under the same condition. `_up` is given to the constructor
    and `_down` derived from it once; build_preorder closes both from the
    generating pairs and hands them over through `_closed`. These two tuples
    of ints are the one form of the relation that other modules rely on.
    """

    __slots__ = ("elements", "_idx", "_up", "_down", "_hash")

    def __init__(self, elements: Sequence[str], up: Sequence[int]):
        # `up` must already be reflexively and transitively closed;
        # use build_preorder to close a generating set of pairs.
        self.elements = tuple(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise ValidationError("duplicate element identifiers")
        self._up = tuple(up)
        n = len(self.elements)
        if len(self._up) != n or any(
                not isinstance(row, int) or row >> n for row in self._up):
            raise ValidationError("relation table does not match carrier size")
        down = [0] * n
        for i, row in enumerate(self._up):
            if not row >> i & 1:
                raise ValidationError("relation table is not reflexive")
            bit = 1 << i
            for j in iter_bits(row):
                down[j] |= bit
        self._down = tuple(down)
        self._hash = hash((self.elements, self._up))

    @classmethod
    def _closed(cls, elements: tuple, idx: dict, up: list, down: list) -> "PreOrder":
        """The preorder whose rows `up` and `down` are already closed and
        transposed to each other; nothing is checked."""
        self = object.__new__(cls)
        self.elements, self._idx, self._up, self._down = elements, idx, tuple(up), tuple(down)
        self._hash = hash((elements, self._up))
        return self

    def index(self, x: str) -> int:
        try:
            return self._idx[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return self._up[self.index(x)] >> self.index(y) & 1 == 1

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def up_set(self, x: str) -> frozenset[str]:
        return frozenset(map(self.elements.__getitem__, iter_bits(self._up[self.index(x)])))

    def down_set(self, x: str) -> frozenset[str]:
        return frozenset(map(self.elements.__getitem__, iter_bits(self._down[self.index(x)])))

    def related_pairs(self, strict: bool = False) -> list[tuple[str, str]]:
        elements, out = self.elements, []
        for i, (x, row) in enumerate(zip(elements, self._up)):
            if strict:
                row &= ~(1 << i)
            out.extend((x, elements[j]) for j in iter_bits(row))
        return out

    def is_poset(self) -> bool:
        return all(u & d == 1 << i for i, (u, d) in enumerate(zip(self._up, self._down)))

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
            and other._up == self._up
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

    def __init__(self, elements: Sequence[str], up: Sequence[int]):
        super().__init__(elements, up)
        self._hasse = None
        self._check_antisymmetric()

    def _check_antisymmetric(self):
        for i, (u, d) in enumerate(zip(self._up, self._down)):
            # the first i with a mutual partner has none below it, so the
            # lowest partner is the first j > i
            both = u & d & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise NotAntisymmetricError(self.elements[i], self.elements[j])


def build_preorder(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> PreOrder:
    """Smallest preorder on `elements` containing the generating pairs."""
    elements = tuple(elements)
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, y in pairs:
        if x not in idx:
            raise UnknownElementError(f"unknown element {x!r} in relation pair")
        if y not in idx:
            raise UnknownElementError(f"unknown element {y!r} in relation pair")
        i, j = idx[x], idx[y]
        succ[i].append(j)
        pred[j].append(i)
    if len(idx) != n:
        raise ValidationError("duplicate element identifiers")
    # the up-set of i is what i reaches along the pairs, its down-set what
    # reaches i: the same closure over the reversed pairs
    return PreOrder._closed(elements, idx, _reach(succ), _reach(pred))


def _reach(succ: list[list[int]]) -> list[int]:
    """Row v: the bitmask of v and of every point reachable from v.

    One iterative pass of Tarjan's strongly connected components. A
    component is emitted after every component it reaches, so its row is
    its members' bits or-ed with the finished rows of their successors; a
    successor inside the component has no row yet and adds nothing. A row
    is 0 exactly while its point is visited but its component not emitted.
    """
    n = len(succ)
    rows = [0] * n
    number = [0] * n      # visit number, from 1; 0 while unvisited
    low = [0] * n         # least visit number reached on the open stack
    at = [0] * n          # position on `stack`
    stack: list[int] = []
    count = 0
    for root in range(n):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        at[root] = len(stack)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    at[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if not rows[w] and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == number[v]:
                    members = stack[at[v]:]
                    del stack[at[v]:]
                    row = 0
                    for m in members:
                        row |= 1 << m
                    for m in members:
                        for w in succ[m]:
                            row |= rows[w]
                    for m in members:
                        rows[m] = row
    return rows


def build_poset(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    return as_poset(build_preorder(elements, pairs))


def as_poset(p: PreOrder) -> Poset:
    """Re-type a preorder as a poset; raises if antisymmetry fails.

    The poset shares the preorder's rows, index and hash; only antisymmetry
    is checked.
    """
    if isinstance(p, Poset):
        return p
    q = Poset.__new__(Poset)
    q.elements, q._idx, q._up, q._down, q._hash = p.elements, p._idx, p._up, p._down, p._hash
    q._hasse = None
    q._check_antisymmetric()
    return q


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
    components of the relation digraph. The quotient is the closure of the
    pairs from each representative to the classes that cover its own, so
    its order is antisymmetric by construction, and no step walks the bits
    of the relation.
    """
    elements, up, down = p.elements, p._up, p._down
    classes: list[tuple[str, ...]] = []
    reps: list[int] = []
    seen = 0
    for i in range(len(elements)):
        if not seen >> i & 1:
            cls = up[i] & down[i]
            seen |= cls
            classes.append(tuple(map(elements.__getitem__, iter_bits(cls))))
            reps.append(i)
    # each point _covers keeps is the first listed of its class: a representative
    pairs = [(elements[i], elements[j])
             for i, covers in zip(reps, _covers(up, down, reps)) for j in iter_bits(covers)]
    quotient = build_poset([elements[i] for i in reps], pairs)
    # the pairs are the quotient's covering pairs, in hasse_edges' order
    quotient._hasse = tuple(pairs)
    projection = MonotoneMap(p, quotient, {y: cls[0] for cls in classes for y in cls})
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
        p._hasse = tuple(
            (elements[i], elements[j])
            for i, covers in enumerate(_covers(p._up, p._down, range(len(elements))))
            for j in iter_bits(covers))
    return list(p._hasse)


def _covers(up: Sequence[int], down: Sequence[int], points: Iterable[int]) -> list[int]:
    """For each of `points`, the mask of the first-listed point of each
    class that is minimal among the points strictly above its own class; on
    a poset, exactly its covers. Its cost is a binary search of a few mask
    ands per cover: no step walks the bits of the relation.
    """
    n = len(up)
    # prefix[k] is the mask of the first k points of the linear extension
    ranked = linear_extension(down)
    prefix = [0] * (n + 1)
    for k, i in enumerate(ranked):
        prefix[k + 1] = prefix[k] | 1 << i
    out = []
    for i in points:
        # peel minimal points off the strict up-set of i: each is a cover,
        # and it takes its class and every point above it out with it
        rest, covers, lo = up[i] & ~down[i], 0, 0
        while rest:
            # the first ranked point in rest is minimal there: find the
            # least k with rest & prefix[k], given rest & prefix[lo] == 0
            hi = n
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if rest & prefix[mid]:
                    hi = mid
                else:
                    lo = mid
            j = ranked[hi - 1]
            covers |= 1 << j
            rest &= ~up[j]
            lo = hi
        out.append(covers)
    return out
