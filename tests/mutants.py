"""Named mutants of the production code: each a patch of one function that
`check` relies on, for the mutant table of `tests/test_mutants.py`.

    with MUTANTS["restriction-onto-star-doubled"]():
        ...  # every call in the block sees the broken function

Each entry is a context manager factory. A mutant is deterministic and
acts only on sheaves built outside it: run the code under test on a fresh
sheaf (`fresh_copy`), so that no memo holds a value made before the patch.
"""

from __future__ import annotations

from unittest import mock

import cellsheaf.sheaf as sheaf_module
from cellsheaf import CellularSheaf, Matrix
from cellsheaf.linalg import _basis
from cellsheaf.order import iter_bits


def fresh_copy(sheaf: CellularSheaf) -> CellularSheaf:
    """The same data as a new sheaf: its covering-pair maps and nothing
    memoised, so that derived maps, section spaces and restrictions are
    made again under whatever patch is active."""
    elements = sheaf.base.elements
    maps = {(elements[z], elements[q]): sheaf._maps[z, q]
            for q, zs in enumerate(sheaf._lower) for z in zs}
    return CellularSheaf(sheaf.base, sheaf.field, sheaf.dims, maps, sheaf.hasse)


def _minimal_points(sheaf, mask: int) -> list[int]:
    return [x for x in iter_bits(mask) if not any(mask >> y & 1 for y in sheaf._lower[x])]


def _wrapping(owner, name: str, make):
    """A mutant factory: `owner.name` replaced by make(original)."""
    return lambda: mock.patch.object(owner, name, make(getattr(owner, name)))


def _drop_first_equation_block(original):
    # the first block of equations of each solve goes missing
    difference_rows = sheaf_module._difference_rows

    def sections_over(sheaf, U):
        calls = []

        def rows(*args):
            calls.append(None)
            return [] if len(calls) == 1 else difference_rows(*args)

        with mock.patch.object(sheaf_module, "_difference_rows", rows):
            return original(sheaf, U)
    return sections_over


def _drop_last_family(original):
    # the space over an open with two or more minimal points loses the last
    # family of its basis
    def sections_over(sheaf, U):
        solved = U.mask in sheaf._section_cache
        space = original(sheaf, U)
        if solved or space.dim == 0 or len(_minimal_points(sheaf, U.mask)) < 2:
            return space
        basis = space.basis
        smaller = sheaf_module.SectionSpace(sheaf, U, _basis(
            sheaf.field, basis.ambient_dim, list(basis._matrix._ints[:-1])))
        sheaf._section_cache[U.mask] = smaller
        return smaller
    return sections_over


def _double_onto_stars(original):
    # a restriction from a larger open onto a star comes out doubled
    def restriction_matrix(sheaf, U, V):
        m = original(sheaf, U, V)
        if V.mask != U.mask and V.mask in sheaf.base._up:
            return m.scale(2)
        return m
    return restriction_matrix


def _swap_two_columns(original):
    # a restriction out of an open of three or more points has its first two
    # columns swapped
    def restriction_matrix(sheaf, U, V):
        m = original(sheaf, U, V)
        if len(U.members) < 3 or m.cols < 2:
            return m
        return Matrix._make(m.field, m.rows, m.cols,
                            tuple((row[1], row[0], *row[2:]) for row in m._ints), m._den)
    return restriction_matrix


def _double_derived_pairs(original):
    # a pair p < q that is not memoised when asked for is derived doubled
    def _restrict(self, pi, qi):
        if (pi, qi) in self._maps:
            return self._maps[pi, qi]
        m = self._maps[pi, qi] = original(self, pi, qi).scale(2)
        return m
    return _restrict


def _lose_a_sign(original):
    # the difference rows come out as a sum: b plus a, not b minus a
    def _difference_rows(field, width, a, i0, b, j0):
        return original(field, width, -a, i0, b, j0)
    return _difference_rows


def _read_the_band_before(original):
    # each band after the first is decided under the key of the band before
    # it, so that it reads that band's kept verdict
    def _exact_by_bands(phi, psi, bands, verdicts):
        keys = [band[4] for band in bands]
        return original(phi, psi, [(*band[:4], keys[k - 1] if k else keys[0])
                                   for k, band in enumerate(bands)], verdicts)
    return _exact_by_bands


def _rank_one_short(original):
    # a rank that is not full is one short
    def rank(self):
        r = original(self)
        return r - 1 if 0 < r < min(self.rows, self.cols) else r
    return rank


# name -> a factory of the context manager that patches the mutant in
MUTANTS = {
    "sections-drop-an-equation-block":
        _wrapping(sheaf_module, "sections_over", _drop_first_equation_block),
    "sections-drop-a-basis-family":
        _wrapping(sheaf_module, "sections_over", _drop_last_family),
    "restriction-onto-star-doubled":
        _wrapping(sheaf_module, "restriction_matrix", _double_onto_stars),
    "restriction-columns-swapped":
        _wrapping(sheaf_module, "restriction_matrix", _swap_two_columns),
    "derived-pair-doubled":
        _wrapping(CellularSheaf, "_restrict", _double_derived_pairs),
    "difference-rows-lose-a-sign":
        _wrapping(sheaf_module, "_difference_rows", _lose_a_sign),
    "band-read-one-early":
        _wrapping(sheaf_module, "_exact_by_bands", _read_the_band_before),
    "rank-one-short":
        _wrapping(Matrix, "rank", _rank_one_short),
}

