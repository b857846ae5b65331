"""Cellular sheaves of vector spaces on finite posets.

A sheaf assigns a vector space dimension to every point and a matrix to
every covering pair. The matrix of any other pair p <= q is the product
along a chain of covering pairs, derived when first asked for. All chains
must agree; that is checked once, where two lower covers of a point meet,
at the maximal points below both. Sections over an open set are
compatible families of point values, fixed by their values on the minimal
points of the set and computed exactly as the kernel of an equalizer
there. The stalk at a point is computed two independent ways:
as the value space at the point (with the canonical comparison map), and
literally as a quotient of the direct sum of section spaces over every
neighbourhood, eliminated along the lattice of neighbourhoods in the
coordinates of the sections over the point's star. Verification routines
check exactness of the gluing sequences for basic and general covers by
finite enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, combinations, count
from math import lcm
from operator import mul

from .errors import (
    EnumerationLimitError,
    FunctorialityError,
    GlueConflictError,
    ShapeError,
    ValidationError,
)
from .linalg import (
    Matrix,
    QQ,
    SubspaceBasis,
    _basis,
    _map_blocks,
    _products_agree,
    _rows_vanish,
    kernel_basis,
    vstack,
)
from .order import Poset, as_poset, hasse_edges, iter_bits, linear_extension
from .record import Record
from .topology import (
    DEFAULT_MAX_ELEMENTS,
    OpenSet,
    enumerate_opens,
    open_star,
)


class CellularSheaf:
    """Point dimensions plus one restriction matrix per covering pair.

    Instances are immutable after construction; build with build_sheaf,
    which rejects data whose chains compose inconsistently. Inside, a point
    is its carrier index: `_dims` is a tuple, `_lower` lists each point's
    lower covers, and the memo of `_restrict` is keyed by index pairs. The
    matrix for any other pair p <= q is derived when first asked for and
    memoised, as are section spaces and restriction matrices. `_order`, the
    base's `linear_extension`, is the order in which the chain check and
    the section solve visit the points. Names are only for the public
    arguments, messages and reports.
    """

    def __init__(self, base: Poset, field, dims, maps, hasse):
        """`maps` holds a matrix for every covering pair in `hasse`, by names,
        and may hold matrices for other pairs p <= q, then used as given."""
        self.base = base
        self.field = field
        index = base._idx
        self._dims = tuple(map(dims.__getitem__, base.elements))
        self.hasse = tuple(hasse)
        # the memo of _restrict: identities, then every pair given
        identity = {d: Matrix.identity(field, d) for d in set(self._dims)}
        self._maps = {(i, i): identity[d] for i, d in enumerate(self._dims)}
        self._maps.update({(index[p], index[q]): m for (p, q), m in maps.items()})
        # lower covers of each point, in the order of `hasse`
        self._lower: list[list[int]] = [[] for _ in base.elements]
        for p, q in self.hasse:
            self._lower[index[q]].append(index[p])
        self._order = linear_extension(base._down)
        self._section_cache: dict = {}
        self._restriction_cache: dict = {}

    @property
    def dims(self) -> dict[str, int]:
        return dict(zip(self.base.elements, self._dims))

    def dim(self, p: str) -> int:
        return self._dims[self.base.index(p)]

    def restriction(self, p: str, q: str) -> Matrix:
        """The matrix for p <= q (identity when p = q)."""
        index = self.base._idx
        try:  # a memoised pair holds in the base
            return self._maps[index[p], index[q]]
        except KeyError:  # not memoised, or not a point
            pi, qi = index.get(p), index.get(q)
        if pi is None or qi is None or not self.base._up[pi] >> qi & 1:
            raise ValidationError(f"{p} <= {q} does not hold in the base")
        return self._restrict(pi, qi)

    def _restrict(self, pi: int, qi: int) -> Matrix:
        """The matrix for points pi <= qi, by carrier index.

        A pair not yet memoised is derived through the first lower cover z
        of q above p, F(p->q) = F(z->q) F(p->z), and F(p->z) the same way,
        down to a memoised pair; each step's result is memoised.
        """
        maps = self._maps
        m = maps.get((pi, qi))
        if m is not None:
            return m
        lower, row = self._lower, self.base._up[pi]
        path = []  # a chain down from q, walked without recursion
        zi = qi
        while (pi, zi) not in maps:
            path.append(zi)
            zi = next(y for y in lower[zi] if row >> y & 1)
        m = maps[pi, zi]
        for yi in reversed(path):
            m = maps[zi, yi] @ m
            maps[pi, yi] = m
            zi = yi
        return m

    def __eq__(self, other):
        return (
            isinstance(other, CellularSheaf)
            and other.base == self.base
            and other.field == self.field
            and other._dims == self._dims
            and all(other._maps[z, q] == self._maps[z, q]
                    for q, zs in enumerate(self._lower) for z in zs)
        )

    def __repr__(self):
        dims = ", ".join(f"{e}:{d}" for e, d in zip(self.base.elements, self._dims))
        return f"CellularSheaf({dims} over {self.field.name})"


def build_sheaf(base: Poset, dims: Mapping[str, int],
                edge_maps: Mapping[tuple[str, str], Matrix],
                field=QQ) -> CellularSheaf:
    """Validate covering-pair data and check that all chains agree.

    `edge_maps` gives one matrix per covering pair (shape dim(q) x dim(p)
    for p covered by q); pairs touching a zero-dimensional point may be
    omitted. Construction fails if two chains between the same pair of
    points compose to different matrices, reporting the offending pair.

    The checks here are on the arguments: a dimension for every point and
    no other, each a non-negative int, a map only on a covering pair, one
    on every pair whose ends both have a nonzero dimension, and each map
    over `field` at its shape. `document.realize` makes each of them itself
    with the line that is at fault and calls `_chain_checked_sheaf`, the
    step after them, directly.
    """
    base = as_poset(base)
    for e in base.elements:
        if e not in dims:
            raise ShapeError(f"no dimension given for element {e!r}")
        if not isinstance(dims[e], int) or dims[e] < 0:
            raise ShapeError(f"dimension of {e!r} must be a non-negative integer")
    extra = set(dims) - set(base.elements)
    if extra:
        raise ShapeError(f"dimensions given for unknown elements {sorted(extra)}")
    edges = hasse_edges(base)
    edge_set = set(edges)
    for pair in edge_maps:
        if pair not in edge_set:
            raise ShapeError(f"{pair[0]}->{pair[1]} is not a covering pair of the base")
    maps: dict[tuple[str, str], Matrix] = {}
    for p, q in edges:
        m = edge_maps.get((p, q))
        if m is None:
            if dims[p] == 0 or dims[q] == 0:
                m = Matrix.zeros(field, dims[q], dims[p])
            else:
                raise ShapeError(f"missing matrix for covering pair {p}->{q}")
        if m.field != field:
            raise ShapeError(f"matrix for {p}->{q} uses a different field")
        if m.rows != dims[q] or m.cols != dims[p]:
            raise ShapeError(
                f"matrix for {p}->{q} is {m.rows}x{m.cols}, expected {dims[q]}x{dims[p]}"
            )
        maps[(p, q)] = m
    return _chain_checked_sheaf(base, field, dims, maps, edges)


def _chain_checked_sheaf(base: Poset, field, dims: Mapping[str, int],
                         maps: Mapping[tuple[str, str], Matrix],
                         edges: list[tuple[str, str]]) -> CellularSheaf:
    """The sheaf of checked data, once all its chains agree: `maps` holds a
    matrix over `field` of shape dim(q) x dim(p) for every covering pair
    (p, q) in `edges`, the Hasse edges of `base`, and no other.

    Points q are visited bottom-up, by (|down-set of q|, index), and at
    each q with two or more lower covers this lemma is checked.

    Lemma. Suppose all chains between points strictly below q agree, so
    F(x->y) is well defined for x <= y < q. Then all chains into q agree if
    and only if, for every two lower covers z1, z2 of q and every maximal
    point m of D = down(z1) & down(z2), F(z1->q) F(m->z1) = F(z2->q) F(m->z2).

    Proof. Every chain from p to q ends in a covering pair (z, q) with
    p <= z, and by hypothesis its product is F(z->q) F(p->z). So all chains
    into q agree iff F(z1->q) F(p->z1) = F(z2->q) F(p->z2) for all lower
    covers z1, z2 of q and all p in D. The condition is necessary, since
    each maximal point m of D is such a p. It is sufficient: D is finite,
    so any p in D lies below a maximal point m of D, and then
    F(p->zi) = F(m->zi) F(p->m) for i = 1, 2 by the hypothesis, so both
    sides at p are the two sides at m followed by F(p->m). By induction
    along the visiting order, every chain agrees when no check fails.

    A point below both z1 and z2 is never z1 or z2 (lower covers of q are
    incomparable), so each check compares two genuine chains. At the first
    q whose check fails, every p < q is scanned bottom-up, and the first
    p with two disagreeing lower-cover products is reported, with the
    product through the first lower cover and the first that differs.
    """
    sheaf = CellularSheaf(base, field, dims, maps, edges)

    lower, order, memo, restrict = sheaf._lower, sheaf._order, sheaf._maps, sheaf._restrict
    # down[j]: the down-set of j as a bitmask over positions in `order`; the
    # order is a linear extension, so the highest position in a set is a
    # maximal point of it
    down = [0] * len(order)
    for position, qi in enumerate(order):
        mask = 1 << position
        for zi in lower[qi]:
            mask |= down[zi]
        down[qi] = mask
    for qi in order:
        zs = lower[qi]
        if len(zs) < 2:
            continue
        for k, z1 in enumerate(zs):
            for z2 in zs[k + 1:]:
                meet = down[z1] & down[z2]
                while meet:  # take a maximal point, then drop its down-set
                    mi = order[meet.bit_length() - 1]
                    meet &= ~down[mi]
                    if not _products_agree(memo[z1, qi], restrict(mi, z1),
                                           memo[z2, qi], restrict(mi, z2)):
                        _raise_first_disagreement(sheaf, qi, down)
    return sheaf


def _raise_first_disagreement(sheaf: CellularSheaf, qi: int, down: list[int]):
    """Scan every p < q bottom-up for two lower covers whose chains differ.

    The scan decides with the square test that failed, and equality is
    transitive: at the failed square's point, the chain through the first
    lower cover differs from one of the two that disagree. So the scan
    raises there or below, and the products are made only for the message.
    """
    up, maps, restrict = sheaf.base._up, sheaf._maps, sheaf._restrict
    below = down[qi] & ~(1 << down[qi].bit_length() - 1)  # q is the highest bit
    elements = sheaf.base.elements
    for pi in map(sheaf._order.__getitem__, iter_bits(below)):
        first, *others = [zi for zi in sheaf._lower[qi] if up[pi] >> zi & 1]
        for zi in others:
            if not _products_agree(maps[first, qi], restrict(pi, first),
                                   maps[zi, qi], restrict(pi, zi)):
                raise FunctorialityError(elements[pi], elements[qi],
                                         maps[first, qi] @ restrict(pi, first),
                                         maps[zi, qi] @ restrict(pi, zi))
    raise AssertionError(f"a square below {elements[qi]!r} failed, and no point has a witness")


def constant_sheaf(base: Poset, dim: int, field=QQ) -> CellularSheaf:
    """Every point carries the same space, every map is the identity."""
    ident = Matrix.identity(field, dim)
    return build_sheaf(
        base, {e: dim for e in base.elements},
        {edge: ident for edge in hasse_edges(as_poset(base))}, field,
    )


class Section:
    """A compatible family of point values over an open set."""

    __slots__ = ("sheaf", "open", "components")

    def __init__(self, sheaf: CellularSheaf, open: OpenSet,
                 components: Mapping[str, Sequence]):
        _check_carrier(sheaf, open)
        if set(components) != set(open.members):
            raise ValidationError("section components must cover the open set exactly")
        coerced = {}
        for x in open.sorted_members:
            vals = tuple(sheaf.field.coerce(v) for v in components[x])
            if len(vals) != sheaf.dim(x):
                raise ShapeError(
                    f"component at {x} has length {len(vals)}, expected {sheaf.dim(x)}"
                )
            coerced[x] = vals
        _check_families(
            sheaf, *sheaf.field.lower([[v for vals in coerced.values() for v in vals]]),
            _block_starts(sheaf._dims, open.sort_key()[1])[0],
            _covering_pairs(sheaf, open))
        self.sheaf = sheaf
        self.open = open
        self.components = coerced

    def vector(self) -> tuple:
        out = []
        for x in self.open.sorted_members:
            out.extend(self.components[x])
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and (other.sheaf is self.sheaf or other.sheaf == self.sheaf)
            and other.open.members == self.open.members
            and other.components == self.components
        )

    def __repr__(self):
        parts = " ".join(
            f"{x}={[self.sheaf.field.format(v) for v in self.components[x]]}"
            for x in self.open.sorted_members
        )
        return f"Section({parts})"


class SectionSpace(Record):
    """Canonical basis of the sections over one open set, with `starts`,
    where each point's block starts in a family, by carrier index, laid out
    once from the open."""

    __slots__ = ("sheaf", "open", "basis", "starts")

    def __init__(self, sheaf: CellularSheaf, open: OpenSet, basis: SubspaceBasis):
        self.sheaf, self.open, self.basis = sheaf, open, basis
        self.starts = _block_starts(sheaf._dims, open.sort_key()[1])[0]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def offsets(self) -> dict[str, int]:
        elements = self.sheaf.base.elements
        return {elements[x]: off for x, off in self.starts.items()}

    def vector_as_section(self, vec: Sequence) -> Section:
        elements, dims = self.sheaf.base.elements, self.sheaf._dims
        comps = {elements[x]: tuple(vec[o: o + dims[x]]) for x, o in self.starts.items()}
        return Section(self.sheaf, self.open, comps)

    def basis_sections(self) -> list[Section]:
        return [self.vector_as_section(row) for row in self.basis.rows]

    def coordinates_of(self, section: Section) -> tuple:
        if section.sheaf is not self.sheaf and section.sheaf != self.sheaf:
            raise ValidationError("section belongs to a different sheaf")
        if section.open.mask != self.open.mask:
            raise ValidationError("section lives on a different open set")
        return self.basis.coordinates(section.vector())


def sections_over(sheaf: CellularSheaf, U: OpenSet) -> SectionSpace:
    """Solve for all compatible families over U on the minimal points of U.

    Every point of U lies above a minimal point of U, so a section is fixed
    by its values there. The owner o(x) of a point x is the first minimal
    point of U, in carrier order, below x; points are visited along the
    sheaf's linear extension, and the lower covers of x inside U are its
    `_lower` entries in U's mask. The unknowns are the values at the
    minimal points, in carrier order. At each x with lower covers y1 ... yk
    inside U, k >= 2, one block of equations map(o(y1), x) s_o(y1) =
    map(o(yi), x) s_o(yi) is added for each owner not yet seen at x; by
    induction from the bottom, every minimal point below x then gives x the
    same value. The kernel of these equations (one elimination) is
    expanded to all of U by s_x = map(o(x), x) s_o(x), and a second
    elimination puts the families in canonical form, so the basis is the
    reduced echelon basis of the families (points in carrier order). All of
    this runs on lowered forms; a family is scaled freely, as only its span
    is kept.

    The expansion is right only for functorial data, so every basis family
    is checked along each covering pair inside U, on the space's layout:
    hand-built data whose chains compose inconsistently raises
    ValidationError.
    """
    if U.space is not sheaf.base:
        _check_carrier(sheaf, U)
    u = U.mask
    cached = sheaf._section_cache.get(u)
    if cached is not None:
        return cached
    field, dims, restrict = sheaf.field, sheaf._dims, sheaf._restrict
    pts = U.sort_key()[1]  # carrier indices, in carrier order
    lower = {x: [y for y in sheaf._lower[x] if u >> y & 1] for x in pts}
    minimal = [x for x in pts if not lower[x]]
    offs, total = _block_starts(dims, minimal)
    rows = []
    owner = {m: m for m in minimal}
    for x in sheaf._order:
        if not (u >> x & 1 and lower[x]):
            continue
        owners = [owner[y] for y in lower[x]]
        owner[x] = min(owners)  # minimal points are numbered in carrier order
        first = owners[0]
        A = restrict(first, x)
        seen = {first}
        for o in owners[1:]:
            if o in seen:
                continue
            seen.add(o)
            # A s_first = map(o, x) s_o
            rows.extend(_difference_rows(field, total, restrict(o, x), offs[o], A, offs[first]))
    # difference rows are ints over 1, residues over GF(p): in lowest terms
    kernel = kernel_basis(Matrix._make(field, len(rows), total, tuple(rows)))
    families = []
    if kernel.dim:  # s_x = map(o(x), x) s_o(x); a minimal point keeps its value
        families, _ = _map_blocks(kernel._matrix._ints, [
            (offs[o], dims[o], None if o == x else restrict(o, x))
            for x, o in zip(pts, map(owner.__getitem__, pts))])
    width = sum(map(dims.__getitem__, pts))
    space = SectionSpace(sheaf, U, _basis(field, width, list(field.canonical(families)[0])))
    _check_families(sheaf, space.basis._matrix._ints, space.basis._matrix._den, space.starts,
                    _covering_pairs(sheaf, U))
    sheaf._section_cache[u] = space
    return space


def _difference_rows(field, width: int, a: Matrix, i0: int, b: Matrix, j0: int) -> list:
    """The rows of b at column j0 minus a at column i0, each a tuple of
    `width` columns, zero elsewhere, times lcm(a._den, b._den) so that they
    are ints; over GF(p) the negation is taken as residues. A scaled or
    negated row changes neither the kernel nor the rank of the matrix it
    goes into."""
    p = field.characteristic
    common = lcm(a._den, b._den)  # 1 over GF(p)
    s, t = common // a._den, common // b._den
    i1, j1 = i0 + a.cols, j0 + b.cols
    rows = []
    for x, y in zip(a._ints, b._ints):
        row = [0] * width
        row[i0:i1] = [-v % p for v in x] if p else [-s * v for v in x]
        row[j0:j1] = y if t == 1 else [t * v for v in y]
        rows.append(tuple(row))
    return rows


def _block_starts(dims: Sequence[int], pts: Sequence[int]) -> tuple[dict[int, int], int]:
    """Where each point's block starts in a vector over `pts`, and its length."""
    starts, width = {}, 0
    for x in pts:
        starts[x] = width
        width += dims[x]
    return starts, width


def _covering_pairs(sheaf: CellularSheaf, U: OpenSet) -> list[tuple[int, int]]:
    """The covering pairs inside U, in `hasse_edges` order."""
    lower, u = sheaf._lower, U.mask
    return sorted((y, x) for x in U.sort_key()[1] for y in lower[x] if u >> y & 1)


def _check_families(sheaf: CellularSheaf, families: Sequence, den: int,
                    offs: Mapping[int, int], covering_pairs: Iterable[tuple[int, int]]):
    """Check each family (int rows over `den`, the block of point x at
    offs[x]) along each covering pair (a, b) of an open, in the order
    given, on ints; values are lifted only for the message of a failure."""
    p = sheaf.field.characteristic
    pairs = [(a, b, sheaf._restrict(a, b)) for a, b in covering_pairs]
    for vec in families:
        for a, b, m in pairs:
            at_a = vec[offs[a]: offs[a] + m.cols]
            for i, row in zip(count(offs[b]), m._ints):
                x = sum(map(mul, row, at_a)) - m._den * vec[i]
                if x % p if p else x:
                    (family,) = sheaf.field.lift((vec,), den)
                    image = m.mul_vec(family[offs[a]: offs[a] + m.cols])
                    elements = sheaf.base.elements
                    raise ValidationError(
                        f"family is not compatible along {elements[a]} <= {elements[b]}: "
                        f"{list(image)} vs {list(family[offs[b]: offs[b] + m.rows])}")


def _check_carrier(sheaf: CellularSheaf, *opens: OpenSet):
    for U in opens:
        if U.space is not sheaf.base and U.space != sheaf.base:
            raise ValidationError("open set lives on a different carrier")


def restrict_section(section: Section, smaller: OpenSet) -> Section:
    if not smaller.members <= section.open.members:
        raise ValidationError("restriction target is not contained in the section's open set")
    return Section(
        section.sheaf, smaller,
        {x: section.components[x] for x in smaller.members},
    )


def restriction_matrix(sheaf: CellularSheaf, U: OpenSet, V: OpenSet) -> Matrix:
    """Matrix of the restriction map between section spaces, in their bases.

    Column j of a family over V is column at[j] of a family over U, so each
    basis family over U is read in place: its coordinates over V are its
    entries at the places of the target basis's pivots, once its entries at
    the off-pivot places pass the membership residual.
    """
    if U.space is not sheaf.base or V.space is not sheaf.base:
        _check_carrier(sheaf, U, V)
    key = (U.mask, V.mask)
    cached = sheaf._restriction_cache.get(key)
    if cached is not None:
        return cached
    if V.mask & ~U.mask:
        raise ValidationError("restriction target is not contained in the source open")
    SU = sections_over(sheaf, U)
    SV = sections_over(sheaf, V)
    starts, dims = SU.starts, sheaf._dims
    at = [i for x in V.sort_key()[1] for i in range(starts[x], starts[x] + dims[x])]
    basis = SU.basis._matrix
    result = Matrix._of_columns(
        sheaf.field, SV.dim, SV.basis._coordinates_at(basis._ints, at), basis._den)
    sheaf._restriction_cache[key] = result
    return result


def glue(sheaf: CellularSheaf, cover: Sequence[OpenSet],
         local_sections: Sequence[Section]) -> Section:
    """The unique section on the union restricting to each local piece.

    Raises GlueConflictError with the offending point and both values if two
    pieces disagree on an overlap.
    """
    if len(cover) != len(local_sections):
        raise ValidationError("cover and sections have different lengths")
    _check_carrier(sheaf, *cover)
    for U, s in zip(cover, local_sections):
        if s.open.members != U.members:
            raise ValidationError("each local section must live on its cover set")
    elements = sheaf.base.elements
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            for x in map(elements.__getitem__, iter_bits(cover[i].mask & cover[j].mask)):
                a = local_sections[i].components[x]
                b = local_sections[j].components[x]
                if a != b:
                    raise GlueConflictError(x, a, b)
    union = 0
    for U in cover:
        union |= U.mask
    components: dict[str, tuple] = {}
    for s in local_sections:
        components.update(s.components)
    # a union of opens is open
    return Section(sheaf, OpenSet._trusted(sheaf.base, union), components)


def section_from_value(sheaf: CellularSheaf, p: str, values: Sequence) -> Section:
    """Spread a value at p over its star: the family q -> map(p, q) value."""
    star = open_star(sheaf.base, p)
    pi, elements = sheaf.base.index(p), sheaf.base.elements
    vec = tuple(sheaf.field.coerce(v) for v in values)
    comps = {elements[q]: sheaf._restrict(pi, q).mul_vec(vec) for q in iter_bits(star.mask)}
    return Section(sheaf, star, comps)


class DirectLimitStalk(Record):
    """The stalk at a point, computed literally as a direct-limit quotient.

    The carrier is the direct sum of the section spaces over every open
    neighbourhood of the point, modulo the span of (section, -restriction)
    differences along neighbourhood inclusions. Quotient coordinates are
    the free columns of the reduced echelon form of that span, so a vector
    is written as the unique combination of free generators it is
    congruent to. `images` sends the direct sum into star coordinates (the
    sections over the star of the point) and `solve` reads the free
    coordinates off an image, modulo the relations among star coordinates.
    """

    __slots__ = ("sheaf", "point", "neighbourhoods", "offsets", "total", "images", "solve",
                 "free_columns", "witness")

    def __init__(self, sheaf: CellularSheaf, point: str, neighbourhoods: tuple[OpenSet, ...],
                 offsets: dict, total: int, images: Matrix, solve: Matrix,
                 free_columns: tuple[int, ...], witness: Matrix):
        self.sheaf, self.point, self.neighbourhoods = sheaf, point, neighbourhoods
        self.offsets = offsets  # carrier mask of each neighbourhood -> offset of its block
        self.total, self.images, self.solve = total, images, solve
        self.free_columns, self.witness = free_columns, witness

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    def project(self, big: Sequence) -> tuple:
        """Quotient coordinates of a vector of the direct sum."""
        return self.solve.mul_vec(self.images.mul_vec(big))

    def germ(self, section: Section) -> tuple:
        """Image of a section in the quotient; its open set must contain the point."""
        if self.point not in section.open:
            raise ValidationError("section is not defined near the point")
        space = sections_over(self.sheaf, section.open)
        coords = space.coordinates_of(section)
        big = [self.sheaf.field.zero] * self.total
        off = self.offsets[section.open.mask]
        for i, c in enumerate(coords):
            big[off + i] = c
        return self.project(big)


def stalk_direct_limit(sheaf: CellularSheaf, point: str,
                       max_elements: int = DEFAULT_MAX_ELEMENTS) -> DirectLimitStalk:
    """The literal stalk: quotient of the sum over all neighbourhoods.

    Difference generators are taken along covering pairs of the
    neighbourhood lattice; chains of inclusions telescope, so these span the
    same subspace as the generators for all inclusions. Opens are up-sets,
    so the lower covers of U among the neighbourhoods are the sets U - {x}
    that are themselves neighbourhoods.

    The quotient is eliminated along the lattice rather than densely.
    Neighbourhoods are visited smallest first, starting from the star U_p.
    The generators along the first lower cover V of U identify Γ(U) with
    star coordinates M_U = M_V R(U->V); every other lower cover V' leaves
    the residual M_V' R(U->V') - M_U, and the stalk is Γ(U_p) modulo the
    span Rel of the residuals. This is the same quotient for any data. A
    column is free in the reduced echelon form of the generators exactly
    when its image is not in Rel plus the span of the images of the free
    columns after it, so a backward greedy finds the same free columns.

    One reduced echelon form E of A = [residuals | image of column total-1
    | ... | of column 0] runs that greedy: its pivots after the residual
    block are the free columns. The star is the first neighbourhood and its
    block of images is the identity, so E = P^-1 A for P the pivot columns
    of A, and the rows of the free pivots, read at the star's columns, give
    the coefficients of a vector of Γ(U_p) on the images of the free
    columns: `solve`. Both blocks are taken on their ints. Scaling a column
    of A scales that column of E and divides the row pivoting on it, so a
    block scaled as one leaves `solve` as it is. The witness sends a value
    v at the point to the class of its spread q -> F(p->q) v over the star,
    whose star coordinates are its entries at the pivots of the star basis:
    it is `solve` times those rows of the maps F(p->q) stacked over the
    star. Nothing else here uses the value space at the point, which is
    what makes the result an independent check of the canonical
    description.
    """
    base, field, dims = sheaf.base, sheaf.field, sheaf._dims
    opens = enumerate_opens(base, max_elements)
    star = open_star(base, point)
    nbhd = [U for U in opens if U.mask & star.mask == star.mask]  # the star first
    spaces = [sections_over(sheaf, U) for U in nbhd]
    position = {U.mask: k for k, U in enumerate(nbhd)}
    starts = list(accumulate([S.dim for S in spaces], initial=0))
    total = starts.pop()
    offsets = {U.mask: start for U, start in zip(nbhd, starts)}
    d = spaces[0].dim
    star_coords = [Matrix.identity(field, d)]  # M_U, d x dim Γ(U), by position
    residuals = []
    for U in nbhd[1:]:
        u = U.mask
        covers = sorted(
            position[v] for v in (u & ~(1 << x) for x in iter_bits(u)) if v in position
        )
        through = [star_coords[k] @ restriction_matrix(sheaf, U, nbhd[k]) for k in covers]
        star_coords.append(through[0])
        for M in through[1:]:
            residuals.extend(col for col in (M - through[0])._columns()[0] if any(col))
    images = vstack(field, d, [M.transpose() for M in star_coords]).transpose()
    n = len(residuals)
    greedy = _basis(field, n + total, [
        [*(col[i] for col in residuals), *row[::-1]] for i, row in enumerate(images._ints)
    ])
    pivots = greedy.pivots()
    r = sum(c < n for c in pivots)
    free_columns = tuple(total - 1 - (c - n) for c in reversed(pivots[r:]))
    # the star's columns are the last d, in reverse
    solve = Matrix._make(field, d - r, d, *field.canonical(
        [row[::-1][:d] for row in reversed(greedy._matrix._ints[r:])], greedy._matrix._den))
    pi = base.index(point)
    pts = star.sort_key()[1]
    stacked = vstack(field, dims[pi], [sheaf._restrict(pi, q) for q in pts])
    spread = Matrix._make(field, d, dims[pi], *field.canonical(
        [stacked._ints[c] for c in spaces[0].basis.pivots()], stacked._den))
    return DirectLimitStalk(sheaf, point, tuple(nbhd), offsets, total, images, solve,
                            free_columns, solve @ spread)


class StalkReport(Record):
    """Comparison of the canonical stalk description with the literal limit."""

    __slots__ = ("point", "theorem_dim", "oracle_dim", "iso_witness")

    def __init__(self, point: str, theorem_dim: int, oracle_dim: int, iso_witness: Matrix):
        self.point, self.theorem_dim, self.oracle_dim = point, theorem_dim, oracle_dim
        self.iso_witness = iso_witness


def stalk_at(sheaf: CellularSheaf, point: str,
             max_elements: int = DEFAULT_MAX_ELEMENTS) -> StalkReport:
    """Stalk at a point: the value space, checked against the direct limit."""
    limit = stalk_direct_limit(sheaf, point, max_elements)
    return StalkReport(point, sheaf.dim(point), limit.dim, limit.witness)


class CoverCheck(Record):
    """Outcome of one exactness check for one cover of one open set."""

    __slots__ = ("target", "cover", "injective", "exact_middle")

    def __init__(self, target: tuple[str, ...], cover: tuple[tuple[str, ...], ...],
                 injective: bool, exact_middle: bool):
        self.target, self.cover = target, cover
        self.injective, self.exact_middle = injective, exact_middle

    @property
    def ok(self) -> bool:
        return self.injective and self.exact_middle

    def describe(self) -> str:
        covered = "{" + " ".join(self.target) + "}"
        parts = ", ".join("{" + " ".join(c) + "}" for c in self.cover)
        status = "ok" if self.ok else (
            "gluing failed" if self.injective else "locality failed"
        )
        return f"{covered} covered by [{parts}]: {status}"


class AxiomReport(Record):
    """Aggregate of cover checks; ok only when every check passed."""

    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list):
        self.name, self.checks = name, checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self.checks)} covers checked,"
            f" {len(self.failures())} failures"
        )


def _check_cover(field, target: tuple[str, ...], cover: tuple[tuple[str, ...], ...],
                 dim: int, maps: Sequence[Matrix], bands: Sequence[tuple],
                 verdicts: dict, memo: dict) -> CoverCheck:
    """Exactness of 0 -> F(U) --phi--> prod F(U_i) --psi--> prod F(U_i & U_j).

    `maps[i]` sends F(U), of dimension `dim`, to part i. Each band
    (i, j, from part i, from part j, key), with i < j, is one row band of
    psi: the map from part j minus the map from part i. Unordered pairs
    suffice: swapping a pair negates its rows and equal indices give zero
    rows, neither changes the kernel. Part and band dimensions are read off
    the maps.

    phi is the maps stacked. Each band of psi is the difference rows of
    from_j and from_i, each multiplied by the lcm of their two
    denominators, so that psi is int rows over 1. That is allowed: scaling
    a row of psi by a nonzero factor changes neither its rank nor whether
    psi phi = 0, and nothing else is asked of psi.

    When U is itself a part of the cover, its map is the identity, so phi
    holds an identity block and its rank is `dim`, recorded on phi without
    an elimination; psi's rank and the product test are still computed.

    The outcome is a function of `dim`, phi's int rows and psi's int rows
    alone (phi's denominator only scales phi), so it is looked up in
    `memo` under those, and decided by `_exact_by_bands` only when it is
    not there yet. A memo serves one field. `verdicts` holds the product
    test of each band already decided, by its key (see `_exact_by_bands`).
    """
    part_dims = [m.rows for m in maps]
    starts = list(accumulate(part_dims, initial=0))
    phi = vstack(field, dim, maps)
    if target in cover:
        phi._rank = dim
    rows = []
    for i, j, from_i, from_j, _ in bands:
        if (from_i.rows, from_i.cols, from_j.cols) != (from_j.rows, part_dims[i], part_dims[j]):
            raise ShapeError(
                f"band of parts {i} and {j} has blocks {from_i.rows}x{from_i.cols} and "
                f"{from_j.rows}x{from_j.cols}, parts of dims {part_dims[i]} and {part_dims[j]}")
        rows.extend(_difference_rows(field, starts[-1], from_i, starts[i], from_j, starts[j]))
    psi = Matrix._make(field, len(rows), starts[-1], tuple(rows))
    key = (dim, phi._ints, psi._ints)
    outcome = memo.get(key)
    if outcome is None:
        outcome = memo[key] = phi.is_injective(), _exact_by_bands(phi, psi, bands, verdicts)
    return CoverCheck(target, cover, *outcome)


def _exact_by_bands(phi: Matrix, psi: Matrix, bands: Sequence[tuple], verdicts: dict) -> bool:
    """`is_exact_at(phi, psi)`, with the product test made band by band.

    The rows of band (i, j, from_i, from_j, key) are zero off parts i and
    j, so the dot of one with a column of phi is the dot of from_i's row
    with that column of maps[i] (phi's block i) and of from_j's row with
    that column of maps[j], each scaled by a positive factor, with opposite
    signs: the band vanishes on phi exactly when from_i maps[i] =
    from_j maps[j]. That verdict is made from the same dots as in
    `is_exact_at`, on the band's rows, and kept in `verdicts` under the
    band's key, which the caller makes name these four matrices among all
    the bands that share the dict; it is read again for every later
    sequence with that band. psi phi = 0 when every verdict holds, and then
    exactness is rank phi + rank psi = psi.cols.
    """
    columns = None
    p = phi.field.characteristic
    end = 0
    for _, _, from_i, _, key in bands:
        start, end = end, end + from_i.rows
        if start == end:  # a band of no rows has nothing to test
            continue
        verdict = verdicts.get(key)
        if verdict is None:
            if columns is None:
                columns = phi._columns()[0]
            verdict = verdicts[key] = _rows_vanish(psi._ints[start:end], columns, p)
        if not verdict:
            return False
    return phi.rank() + psi.rank() == psi.cols


def verify_base_sheaf_axioms(sheaf: CellularSheaf,
                             max_elements: int = DEFAULT_MAX_ELEMENTS) -> AxiomReport:
    """Exactness of the gluing sequence for every basic cover of every star.

    A cover of the star of p by stars must include the star of p itself,
    so the covers are exactly the subsets of the star containing p; the
    enumeration is finite and exhaustive. The middle product runs over all
    basic opens inside each pairwise intersection. Failure on a valid sheaf
    indicates a bug in the assembly, so callers should treat any failure as
    fatal.

    Every map is read through `sheaf._restrict`, whose memo holds it once,
    and an exact sequence met again is not decided again. Within the star
    of p, a band's product test is made once, keyed by (x, y, w): the maps
    p -> x, p -> y, x -> w and y -> w. phi, which holds the identity of the
    star of p, is not eliminated (see `_check_cover`).
    """
    base = sheaf.base
    if len(base) > max_elements:
        raise EnumerationLimitError(len(base), max_elements)
    up, dims, restrict = base._up, sheaf._dims, sheaf._restrict
    stars = [tuple(map(base.elements.__getitem__, iter_bits(row))) for row in up]
    memo: dict = {}
    checks = []
    for pi in range(len(base)):
        others = [i for i in iter_bits(up[pi]) if i != pi]
        verdicts: dict = {}
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                centers = sorted((pi,) + combo)
                bands = [(i, j, restrict(xi, w), restrict(yi, w), (xi, yi, w))
                         for (i, xi), (j, yi) in combinations(enumerate(centers), 2)
                         for w in iter_bits(up[xi] & up[yi])]
                checks.append(_check_cover(
                    sheaf.field, stars[pi], tuple(stars[i] for i in centers), dims[pi],
                    [restrict(pi, i) for i in centers], bands, verdicts, memo,
                ))
    return AxiomReport("basic-cover-exactness", checks)


def _drawn_covers(rng, up, u: int, sub_opens: list[int], draws: int) -> dict:
    """The covers of the open of mask u, as frozensets of masks in draw
    order: its canonical cover by the stars of its members, then the first
    of each cover that `draws` draws of the `random.Random` rng make from
    `sub_opens`.

    A draw picks between 1 and min(4, n) of the n sub-opens and patches the
    pick with the stars of the points it leaves out. It takes its bits from
    `rng.getrandbits` exactly as `randint(1, min(4, n))` and then
    `sample(sub_opens, size)` take them: an index below m takes
    m.bit_length() bits, drawn again until it is below m, and the sample is
    a partial Fisher-Yates over a copy of the list. That copy holds for n
    at most 21; above that the draw calls `rng.sample` itself. So a seed
    draws the same covers as those calls and leaves the generator in the
    same state; `tests/test_sheaf.py` checks it against them.
    """
    covers = {frozenset(up[x] for x in iter_bits(u)): None}
    n = len(sub_opens)
    if not n:
        return covers
    bits = rng.getrandbits
    most = min(4, n)
    most_bits = most.bit_length()
    for _ in range(draws):
        size = bits(most_bits)
        while size >= most:
            size = bits(most_bits)
        if n <= 21:
            pool = sub_opens.copy()
            picked = []
            for m in range(n, n - size - 1, -1):
                k = m.bit_length()
                j = bits(k)
                while j >= m:
                    j = bits(k)
                picked.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            picked = rng.sample(sub_opens, size + 1)
        left_out = u
        for m in picked:
            left_out &= ~m
        if left_out:  # patch with the stars of the points left out
            picked.extend(up[x] for x in iter_bits(left_out))
        covers.setdefault(frozenset(picked))
    return covers


def verify_sheaf_axioms_extended(sheaf: CellularSheaf, covers_per_open: int = 50,
                                 seed: int = 0, open_budget: int | None = None,
                                 max_elements: int = DEFAULT_MAX_ELEMENTS) -> AxiomReport:
    """Exactness of the gluing sequence on general opens and sampled covers.

    Every open set gets its canonical cover by the stars of its members plus
    seeded random covers (patched with stars so they really cover); when the
    open lattice is larger than open_budget, the opens themselves are
    sampled. Deterministic for a fixed seed. A negative seed draws as its
    absolute value, as `random.Random` seeds an int: seeds -3 and 3 check
    the same covers.

    Each open's covers are drawn by `_drawn_covers` as sets of masks, the
    first draw of each kept in order. A draw picks 1 to 4 sub-opens from
    the generator's bits, exactly as `rng.randint(1, min(4, n))` and
    `rng.sample(sub_opens, size)` would, and is patched with stars to a
    cover; `tests/` checks the draws against those stdlib calls.

    Every map, F(U) -> F(V) and each band (F(V) -> F(V & W),
    F(W) -> F(V & W)), is read through `restriction_matrix`, whose memo
    holds it once, and an exact sequence met again is not decided again.
    Within U, a band's product test is made once, keyed by the masks
    (V, W), which name its four maps while U is fixed. phi is not
    eliminated when U is itself a part of the cover (see `_check_cover`).
    """
    up = sheaf.base._up
    opens = enumerate_opens(sheaf.base, max_elements)
    # each open by its mask; the enumeration is in sort_key order
    by_mask = {V.mask: V for V in opens}
    position = {v: k for k, v in enumerate(by_mask)}
    import random  # here, so that no other command loads it
    rng = random.Random(seed)
    considered = opens
    if open_budget is not None and len(opens) > open_budget:
        considered = sorted(rng.sample(opens, open_budget), key=OpenSet.sort_key)
    memo: dict = {}
    checks = []
    for U in considered:
        u = U.mask
        sub_opens = [v for v in by_mask if v and not v & ~u]
        covers = _drawn_covers(rng, up, u, sub_opens, covers_per_open)
        dim_U = sections_over(sheaf, U).dim
        verdicts: dict = {}
        for drawn in covers:
            parts = sorted(drawn, key=position.__getitem__)
            maps = [restriction_matrix(sheaf, U, by_mask[v]) for v in parts]
            bands = [(i, j, restriction_matrix(sheaf, by_mask[v], by_mask[v & w]),
                      restriction_matrix(sheaf, by_mask[w], by_mask[v & w]), (v, w))
                     for (i, v), (j, w) in combinations(enumerate(parts), 2)]
            checks.append(_check_cover(
                sheaf.field, U.sorted_members, tuple(by_mask[v].sorted_members for v in parts),
                dim_U, maps, bands, verdicts, memo,
            ))
    return AxiomReport("open-cover-exactness", checks)
