"""Morphisms between cellular sheaves on a shared base poset.

A morphism is one matrix per point commuting with both sheaves'
restriction maps. The point data determines everything else: induced maps
on section spaces over arbitrary opens, induced maps on stalks, and the
injective/surjective/isomorphism classification, which is decided
pointwise.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping

from .errors import NaturalityError, ShapeError, ValidationError
from .linalg import Matrix, _map_blocks, _products_agree
from .record import Record
from .sheaf import (
    CellularSheaf,
    DirectLimitStalk,
    _check_carrier,
    sections_over,
    stalk_direct_limit,
)
from .topology import DEFAULT_MAX_ELEMENTS, OpenSet


class SheafMorphism:
    """Per-point matrices from one sheaf to another over the same base."""

    def __init__(self, source: CellularSheaf, target: CellularSheaf,
                 components: Mapping[str, Matrix]):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._section_maps: dict[int, Matrix] = {}  # section_map's memo, by mask

    def component(self, p: str) -> Matrix:
        self.source.base.index(p)
        return self.components[p]

    def __eq__(self, other):
        return (
            isinstance(other, SheafMorphism)
            and other.source == self.source
            and other.target == self.target
            and other.components == self.components
        )

    def __repr__(self):
        return f"SheafMorphism(on {list(self.components)})"


def build_morphism(source: CellularSheaf, target: CellularSheaf,
                   components: Mapping[str, Matrix]) -> SheafMorphism:
    """Validate shapes and commutation with restrictions on covering pairs.

    Commutation on covering pairs implies commutation on every comparable
    pair, since both sides compose along chains.
    """
    if source.base != target.base:
        raise ValidationError("morphisms require the same base poset")
    if source.field != target.field:
        raise ValidationError("morphisms require the same field")
    for p in source.base.elements:
        m = components.get(p)
        if m is None:
            raise ShapeError(f"no component matrix for element {p!r}")
        if m.rows != target.dim(p) or m.cols != source.dim(p):
            raise ShapeError(
                f"component at {p} is {m.rows}x{m.cols},"
                f" expected {target.dim(p)}x{source.dim(p)}"
            )
        if m.field != source.field:
            raise ShapeError(f"component at {p} uses a different field")
    extra = set(components) - set(source.base.elements)
    if extra:
        raise ShapeError(f"components given for unknown elements {sorted(extra)}")
    for p, q in source.hasse:
        a, b = target.restriction(p, q), components[p]
        c, d = components[q], source.restriction(p, q)
        if not _products_agree(a, b, c, d):
            raise NaturalityError(p, q, a @ b, c @ d)
    return SheafMorphism(source, target, components)


def identity_morphism(sheaf: CellularSheaf) -> SheafMorphism:
    return build_morphism(sheaf, sheaf, {
        p: Matrix.identity(sheaf.field, sheaf.dim(p)) for p in sheaf.base.elements
    })


def zero_morphism(source: CellularSheaf, target: CellularSheaf) -> SheafMorphism:
    return build_morphism(source, target, {
        p: Matrix.zeros(source.field, target.dim(p), source.dim(p))
        for p in source.base.elements
    })


def section_map(morphism: SheafMorphism, U: OpenSet) -> Matrix:
    """Induced map between section spaces over U, in their canonical bases.

    Each source basis family is mapped point by point, on ints: the
    component at x, over its denominator, is applied to the family's block
    at x and scaled to the lcm of the components' denominators. The image
    is a family of the target, its blocks in the same carrier order. The
    result is memoised on the morphism.
    """
    if U.space is not morphism.source.base:
        _check_carrier(morphism.source, U)
    cached = morphism._section_maps.get(U.mask)
    if cached is not None:
        return cached
    src_space = sections_over(morphism.source, U)
    tgt_space = sections_over(morphism.target, U)
    dims, elements = morphism.source._dims, morphism.source.base.elements
    basis = src_space.basis._matrix
    images, common = _map_blocks(basis._ints, [
        (off, dims[x], morphism.components[elements[x]]) for x, off in src_space.starts.items()])
    target = tgt_space.basis
    columns = target._coordinates_at(images, range(target.ambient_dim))
    result = morphism._section_maps[U.mask] = Matrix._of_columns(
        morphism.source.field, tgt_space.dim, columns, common * basis._den)
    return result


def stalk_map_direct_limit(morphism: SheafMorphism, p: str,
                           max_elements: int = DEFAULT_MAX_ELEMENTS
                           ) -> tuple[Matrix, DirectLimitStalk, DirectLimitStalk]:
    """Induced map between the literal direct-limit stalks.

    Returns (induced matrix, source limit, target limit); the induced matrix
    acts on the limits' quotient coordinates. Composing with the limits'
    witnesses recovers the induced map in point coordinates, which is the
    morphism's component at p.
    """
    src_limit = stalk_direct_limit(morphism.source, p, max_elements)
    tgt_limit = stalk_direct_limit(morphism.target, p, max_elements)
    field = morphism.source.field
    nbhd = src_limit.neighbourhoods
    starts = [src_limit.offsets[U.mask] for U in nbhd]
    columns = []
    for free_col in src_limit.free_columns:
        # the one neighbourhood whose block holds the column: the last to
        # start at or before it, as a block of dimension 0 holds nothing
        k = bisect_right(starts, free_col) - 1
        U = nbhd[k]
        section_columns, den = section_map(morphism, U)._columns()
        image = field.lift((section_columns[free_col - starts[k]],), den)[0]
        big_tgt = [field.zero] * tgt_limit.total
        off_tgt = tgt_limit.offsets[U.mask]  # each neighbourhood has its own block
        big_tgt[off_tgt: off_tgt + len(image)] = image
        columns.append(tgt_limit.project(big_tgt))
    induced = Matrix(field, len(columns), tgt_limit.dim, columns).transpose()
    return induced, src_limit, tgt_limit


class MorphismFlags(Record):
    __slots__ = ("injective", "surjective", "isomorphism")

    def __init__(self, injective: bool, surjective: bool, isomorphism: bool):
        self.injective, self.surjective, self.isomorphism = injective, surjective, isomorphism


def classify(morphism: SheafMorphism) -> MorphismFlags:
    """Pointwise classification; a morphism is an isomorphism exactly when
    every point map is invertible."""
    injective = all(m.is_injective() for m in morphism.components.values())
    surjective = all(m.is_surjective() for m in morphism.components.values())
    return MorphismFlags(injective, surjective, injective and surjective)

