"""Brute-force reference implementations that the library is checked against.

Each one is the literal definition, written for clarity rather than speed,
and shares no code with the production path it cross-checks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import lcm
from operator import mul

from cellsheaf import (
    DocumentError,
    FunctorialityError,
    Matrix,
    MonotoneMap,
    OpenSet,
    Poset,
    PreOrder,
    QQ,
    SectionSpace,
    ValidationError,
    as_poset,
    build_morphism,
    build_sheaf,
    enumerate_opens,
    field_from_name,
    hasse_edges,
    is_open,
    kernel_basis,
    open_star,
    restriction_matrix,
    section_from_value,
    section_map,
    sections_over,
)
from cellsheaf.linalg import _basis, _rref
from cellsheaf.sheaf import _block_starts, _check_families, _covering_pairs, _difference_rows

_ENTRY = re.compile(r"-?\d+(?:/\d+)?")


def matrix_literal_by_walk(text: str) -> tuple[str, tuple]:
    """(kind, rows) of a matrix literal, read one character at a time with a
    bracket-depth counter; raises ValueError(message) where it is malformed."""
    text = text.strip()
    if text in ("id", "zero"):
        return text, ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("matrix value must be [[...], ...], id, or zero")
    inner = text[1:-1].strip()
    if not inner:
        return "rows", ()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ValueError("matrix rows must be bracketed")
    rows = []
    depth = 0
    start = None
    for i, ch in enumerate(inner):
        if ch == "[":
            if depth == 0:
                start = i + 1
            depth += 1
            if depth > 1:
                raise ValueError("matrix literals do not nest deeper than rows")
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets in matrix literal")
            row_text = inner[start:i].strip()
            entries = []
            if row_text:
                for tok in row_text.split(","):
                    tok = tok.strip()
                    if not _ENTRY.fullmatch(tok):
                        raise ValueError(f"bad matrix entry {tok!r}")
                    entries.append(tok)
            rows.append(tuple(entries))
        elif depth == 0 and ch not in ", \t":
            raise ValueError(f"unexpected {ch!r} between matrix rows")
    if depth != 0:
        raise ValueError("unbalanced brackets in matrix literal")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows have differing lengths")
    return "rows", tuple(rows)


def realize_by_literal(doc, text: str, field_override: str | None = None):
    """(sheaves, morphisms) of a parsed document, each matrix read afresh
    from the text of its own line and realized on its own, as `realize`
    did before a repeated literal was read once. Written for documents that
    give every dimension, map every covering pair and declare no open."""
    lines = text.splitlines()
    poset = as_poset(doc.preorder)
    edges = hasse_edges(poset)
    override = None if field_override is None else field_from_name(field_override)

    def matrix(lit, field, rows, cols, edge_desc):
        _, _, value = lines[lit.line - 1].partition("#")[0].partition("=")
        kind, data = matrix_literal_by_walk(value)
        return realize_matrix_by_literal(kind, data, field, rows, cols, edge_desc, lit.line)

    sheaves = {}
    for name, spec in doc.sheaf_specs.items():
        field = override if override is not None else field_from_name(spec.field_name or "q")
        dims = {el: d for el, (d, _) in spec.dims.items()}
        sheaves[name] = build_sheaf(poset, dims, {
            (p, q): matrix(spec.maps[p, q], field, dims[q], dims[p], f"{p}->{q}")
            for p, q in edges}, field)
    morphisms = {}
    for name, spec in doc.morphism_specs.items():
        src, tgt = sheaves[spec.source], sheaves[spec.target]
        if src.field != tgt.field:
            raise DocumentError(
                f"morphism {name!r} mixes fields {src.field.name} and {tgt.field.name}",
                spec.line)
        morphisms[name] = build_morphism(src, tgt, {
            el: matrix(spec.maps[el], src.field, tgt.dim(el), src.dim(el),
                       f"morphism map at {el}")
            for el in poset.elements})
    return sheaves, morphisms


def realize_matrix_by_literal(kind: str, data: tuple, field, rows: int, cols: int,
                              edge_desc: str, line: int) -> Matrix:
    """One matrix use of a document, shape-checked and read entry by entry
    as (numerator, denominator): over Q the rows over the lcm of the
    denominators, over GF(p) the residues n * d^-1."""
    if kind == "id":
        if rows != cols:
            raise DocumentError(
                f"`id` needs equal dimensions for {edge_desc} ({rows} vs {cols})", line)
        return Matrix.identity(field, rows)
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    got_rows, got_cols = len(data), len(data[0]) if data else 0
    if got_rows != rows or (rows > 0 and got_cols != cols):
        raise DocumentError(
            f"matrix for {edge_desc} is {got_rows}x{got_cols}, expected {rows}x{cols}", line)
    p = field.characteristic
    entries = []
    for row in data:
        entries.append([])
        for tok in row:
            num, _, den = tok.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:
                raise DocumentError(
                    f"entry {tok[:12]}... has too many digits ({len(tok)} characters)",
                    line) from None
            if not (den % p if p else den):
                raise DocumentError(f"entry {tok!r} divides by zero in {field!r}", line)
            entries[-1].append((num, den))
    if p:
        den = 1
        ints = [[n * pow(d, -1, p) for n, d in row] for row in entries]
    else:
        den = lcm(*[d for row in entries for _, d in row])
        ints = [[n * (den // d) for n, d in row] for row in entries]
    return Matrix._make(field, rows, cols, *field.canonical(ints, den))


def closure_by_table(elements, pairs) -> list[list[bool]]:
    """The smallest reflexive, transitive relation containing the generating
    pairs, as a bool table over carrier positions (Warshall on the table)."""
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for x, y in pairs:
        leq[idx[x]][idx[y]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def first_antisymmetry_failure(leq) -> tuple[int, int] | None:
    """The first i, then the first j > i, with i <= j and j <= i in a bool
    table; None when the table is antisymmetric."""
    n = len(leq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                return i, j
    return None


def open_violation_by_scan(space: PreOrder, members) -> tuple[str, str] | None:
    """The first member x in carrier order with some y >= x missing, and the
    first such y; None if the set is up-closed. Reads the relation only
    through single `leq` tests."""
    members = frozenset(members)
    for x in sorted(members, key=space.elements.index):
        for y in space.elements:
            if space.leq(x, y) and y not in members:
                return (x, y)
    return None


def gauss_jordan(field, rows, cols):
    """Gauss-Jordan reduction with the field's own arithmetic; returns
    (reduced rows, pivot column list)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        if inv != field.one:
            m[r] = [x / inv for x in m[r]]
        lead = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def span_by_field_ops(field, rows, cols) -> tuple:
    """The reduced echelon basis of the span of `rows`."""
    reduced, pivots = gauss_jordan(field, rows, cols)
    return tuple(tuple(r) for r in reduced[: len(pivots)])


def kernel_by_field_ops(field, rows, cols) -> tuple:
    """The reduced echelon basis of {v : rows v = 0}, from the free columns."""
    reduced, pivots = gauss_jordan(field, rows, cols)
    vectors = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        vectors.append(v)
    return span_by_field_ops(field, vectors, cols)


def product_by_field_ops(field, a, b, cols) -> tuple:
    """The rows of the product of row lists `a` and `b`, `b` having `cols`
    columns."""
    return tuple(
        tuple(sum((x * b[k][j] for k, x in enumerate(row)), field.zero) for j in range(cols))
        for row in a
    )


def cover_check_by_field_ops(field, dim: int, maps, overlaps) -> tuple[bool, bool]:
    """(injective, exact in the middle) for 0 -> F(U) -phi-> prod parts
    -psi-> prod overlaps, with phi and psi assembled densely, entry by entry,
    from the field values of the maps: `maps[i]` sends F(U) to part i, and an
    overlap (i, j, from part i, from part j) is a band of psi reading
    from part j minus from part i."""
    starts = [0]
    for m in maps:
        starts.append(starts[-1] + m.rows)
    width = starts[-1]
    phi = [[field.zero] * dim for _ in range(width)]
    for m, start in zip(maps, starts):
        for r, row in enumerate(m.data):
            for c, x in enumerate(row):
                phi[start + r][c] = x
    psi = []
    for i, j, from_i, from_j in overlaps:
        for a, b in zip(from_i.data, from_j.data):
            row = [field.zero] * width
            for k, x in enumerate(a):
                row[starts[i] + k] = -x
            for k, x in enumerate(b):
                row[starts[j] + k] = x
            psi.append(row)
    rank_phi = len(gauss_jordan(field, phi, dim)[1])
    rank_psi = len(gauss_jordan(field, psi, width)[1])
    vanishes = not any(x for row in product_by_field_ops(field, psi, phi, dim) for x in row)
    return rank_phi == dim, vanishes and rank_phi + rank_psi == width


def base_cover_checks_by_loop(sheaf) -> list[tuple]:
    """(target, cover, injective, exact_middle) of every basic cover of every
    star, in the order of `verify_base_sheaf_axioms`: the covers of the star
    of p are the sets of stars of points above p that include p's own, and
    each cover is decided afresh by the dense assembly."""
    base, elements = sheaf.base, sheaf.base.elements
    star = {x: open_star(base, x).sorted_members for x in elements}
    out = []
    for p in elements:
        others = [x for x in star[p] if x != p]
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                centers = sorted((p, *combo), key=base.index)
                overlaps = [
                    (i, j, sheaf.restriction(x, w), sheaf.restriction(y, w))
                    for (i, x), (j, y) in combinations(enumerate(centers), 2)
                    for w in star[x] if w in star[y]]
                out.append((star[p], tuple(star[x] for x in centers), *cover_check_by_field_ops(
                    sheaf.field, sheaf.dim(p), [sheaf.restriction(p, x) for x in centers],
                    overlaps)))
    return out


def extended_cover_checks_by_loop(sheaf, covers_per_open: int, seed: int,
                                  open_budget: int | None = None) -> list[tuple]:
    """(target, cover, injective, exact_middle) of each check that
    `verify_sheaf_axioms_extended` makes, drawn by its seeded loop over
    lists of opens, every map read and every cover decided afresh by the
    dense assembly."""
    base = sheaf.base
    opens = enumerate_opens(base)
    position = {V.mask: k for k, V in enumerate(opens)}
    star_mask = {x: open_star(base, x).mask for x in base.elements}
    rng = random.Random(seed)
    considered = opens
    if open_budget is not None and len(opens) > open_budget:
        considered = sorted(rng.sample(opens, open_budget), key=OpenSet.sort_key)
    out = []
    for U in considered:
        sub_opens = [V for V in opens if V.mask and not V.mask & ~U.mask]
        covers, seen = [], set()

        def add_cover(masks):
            key = frozenset(masks)
            if key not in seen:
                seen.add(key)
                covers.append(tuple(opens[k] for k in sorted(map(position.__getitem__, key))))

        add_cover(star_mask[x] for x in U.sorted_members)
        for _ in range(covers_per_open):
            if not sub_opens:
                break
            count = rng.randint(1, min(4, len(sub_opens)))
            picked = [V.mask for V in rng.sample(sub_opens, count)]
            covered = 0
            for m in picked:
                covered |= m
            picked.extend(star_mask[x] for x in U.sorted_members
                          if not covered >> base.index(x) & 1)
            add_cover(picked)
        dim_U = sections_over(sheaf, U).dim
        for cover in covers:
            overlaps = [
                (i, j, restriction_matrix(sheaf, Ui, Ui.intersection(Uj)),
                 restriction_matrix(sheaf, Uj, Ui.intersection(Uj)))
                for (i, Ui), (j, Uj) in combinations(enumerate(cover), 2)]
            out.append((U.sorted_members, tuple(V.sorted_members for V in cover),
                        *cover_check_by_field_ops(
                            sheaf.field, dim_U, [restriction_matrix(sheaf, U, V) for V in cover],
                            overlaps)))
    return out


def inverse_by_field_ops(field, rows, n):
    """The rows of the inverse of a square matrix, None if it is singular."""
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = gauss_jordan(field, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def pivots_by_scan(rows) -> tuple:
    """The column of the first nonzero entry of each row."""
    return tuple(next(j for j, v in enumerate(row) if v) for row in rows)


def reduce_by_field_ops(rows, vec) -> tuple:
    """vec minus, for each row of a reduced echelon basis in turn, its entry
    at the row's pivot times the row."""
    v = list(vec)
    for row, p in zip(rows, pivots_by_scan(rows)):
        f = v[p]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def coordinates_by_field_ops(rows, vec) -> tuple:
    """The coordinates of vec in a reduced echelon basis, its entries at the
    pivots; ValueError when vec does not reduce to zero."""
    if any(reduce_by_field_ops(rows, vec)):
        raise ValueError("vector does not lie in the subspace")
    return tuple(vec[p] for p in pivots_by_scan(rows))


def restriction_matrix_by_field_ops(sheaf, U: OpenSet, V: OpenSet) -> Matrix:
    """The restriction Γ(U) -> Γ(V) in the canonical bases: each basis family
    over U, cut down to the points of V, in coordinates over V."""
    source, target = sections_over(sheaf, U), sections_over(sheaf, V)
    offs = source.offsets()
    columns = [
        coordinates_by_field_ops(target.basis.rows, [
            v for x in V.sorted_members for v in row[offs[x]: offs[x] + sheaf.dim(x)]])
        for row in source.basis.rows
    ]
    data = list(zip(*columns)) if columns else [()] * target.dim
    return Matrix(sheaf.field, target.dim, source.dim, data)


def section_map_by_field_ops(morphism, U: OpenSet) -> Matrix:
    """The map Γ(U) -> Γ(U) a morphism induces, in the canonical bases: each
    source basis family times the dense block-diagonal matrix of the
    components over U, in coordinates of the target basis."""
    field = morphism.source.field
    source = sections_over(morphism.source, U)
    target = sections_over(morphism.target, U)
    blocks = [morphism.components[x] for x in U.sorted_members]
    height, width = sum(m.rows for m in blocks), sum(m.cols for m in blocks)
    grid = [[field.zero] * width for _ in range(height)]
    r0 = c0 = 0
    for m in blocks:
        for r, row in enumerate(m.data):
            grid[r0 + r][c0: c0 + m.cols] = row
        r0, c0 = r0 + m.rows, c0 + m.cols
    columns = [
        coordinates_by_field_ops(target.basis.rows, [
            sum((x * v for x, v in zip(row, family)), field.zero) for row in grid])
        for family in source.basis.rows
    ]
    data = list(zip(*columns)) if columns else [()] * target.dim
    return Matrix(field, target.dim, source.dim, data)


def first_incompatibility_by_field_ops(sheaf, U: OpenSet, families) -> str | None:
    """The message for the first family, and in it the first covering pair
    p < q inside U, whose value at q is not map(p, q) applied to its value
    at p; None when every family is compatible. Families list their points'
    values in carrier order."""
    field = sheaf.field
    offs: dict[str, int] = {}
    total = 0
    for x in U.sorted_members:
        offs[x] = total
        total += sheaf.dim(x)
    for vec in families:
        for p, q in sheaf.hasse:
            if p not in U.members or q not in U.members:
                continue
            at_p = vec[offs[p]: offs[p] + sheaf.dim(p)]
            at_q = tuple(vec[offs[q]: offs[q] + sheaf.dim(q)])
            image = tuple(sum((a * b for a, b in zip(row, at_p)), field.zero)
                          for row in sheaf.restriction(p, q).data)
            if image != at_q:
                return (f"family is not compatible along {p} <= {q}:"
                        f" {list(image)} vs {list(at_q)}")
    return None


def basis_index_by_scan(U: OpenSet) -> tuple[str, ...]:
    """The star centers x whose basic open U_x sits inside U, by a literal
    containment scan. In an Alexandrov space they are the members of U."""
    space = U.space
    return tuple(x for x in space.elements if space.up_set(x) <= U.members)


def check_index_lemma(U1: OpenSet, U2: OpenSet) -> tuple[bool, bool, bool]:
    """Truth of the three index-set laws for a pair of opens.

    Writing I(U) for the star centers x with star(x) contained in U,
    computed by the literal containment scan:
    (i)   U1 contained in U2   iff   I(U1) contained in I(U2)
    (ii)  U1 equals U2         iff   I(U1) equals I(U2)
    (iii) I(intersection) equals the intersection of the index sets
    """
    i1 = set(basis_index_by_scan(U1))
    i2 = set(basis_index_by_scan(U2))
    i_inter = set(basis_index_by_scan(OpenSet(U1.space, U1.members & U2.members)))
    law_i = (U1.members <= U2.members) == (i1 <= i2)
    law_ii = (U1.members == U2.members) == (i1 == i2)
    law_iii = i_inter == (i1 & i2)
    return (law_i, law_ii, law_iii)


def is_continuous(f: MonotoneMap) -> bool:
    """Whether preimages of opens are open; true for every monotone map."""
    for V in enumerate_opens(f.target):
        preimage = frozenset(x for x in f.source.elements if f.mapping[x] in V.members)
        if not is_open(f.source, preimage):
            return False
    return True


def hasse_edges_by_scan(p: PreOrder) -> list[tuple[str, str]]:
    """Covering pairs x < y with no z strictly between, by a cubic scan."""
    if not p.is_poset():
        raise ValidationError("Hasse reduction requires a poset")
    edges = []
    for x in p.elements:
        for y in p.elements:
            if not p.lt(x, y):
                continue
            if any(p.lt(x, z) and p.lt(z, y) for z in p.elements):
                continue
            edges.append((x, y))
    edges.sort(key=lambda e: (p.index(e[0]), p.index(e[1])))
    return edges


def quotient_by_scan(p: PreOrder) -> tuple[tuple, Poset, dict]:
    """(classes, quotient, projection mapping) of the poset quotient: each
    representative's row read off every bit of its `_up` row, and the
    quotient's `_down` derived bit by bit by the public constructor."""
    elements, up, down = p.elements, p._up, p._down
    n = len(elements)
    classes, reps, seen = [], [], 0
    for i in range(n):
        if not seen >> i & 1:
            cls = up[i] & down[i]
            seen |= cls
            classes.append(tuple(elements[j] for j in range(n) if cls >> j & 1))
            reps.append(i)
    position = {i: k for k, i in enumerate(reps)}
    rows = [sum(1 << position[j] for j in range(n) if up[i] >> j & 1 and j in position)
            for i in reps]
    quotient = Poset([elements[i] for i in reps], rows)
    return tuple(classes), quotient, {y: cls[0] for cls in classes for y in cls}


def build_sheaf_eager(base, dims, edge_maps, field=QQ, check: bool = True) -> dict:
    """The matrix of every pair p <= q, from one product per lower cover.

    Points are visited bottom-up by (|strict down-set|, index), q first and
    then each p < q, and every chain from p to q ends in a covering pair
    (z, q). F(p->q) is the product through the first lower cover z of q
    above p, in the order of the Hasse edges. With `check`, every other
    lower cover's product must agree with it, and the first disagreement
    raises FunctorialityError(p, q, first, other); without it, the first
    products are returned for any data. Covering pairs touching a
    zero-dimensional point may be left out of `edge_maps`.
    """
    edges = hasse_edges(base)
    maps = {}
    for p, q in edges:
        m = edge_maps.get((p, q))
        maps[(p, q)] = Matrix.zeros(field, dims[q], dims[p]) if m is None else m
    full = {(e, e): Matrix.identity(field, dims[e]) for e in base.elements}
    elements = base.elements
    below = {q: [p for p in elements if base.lt(p, q)] for q in elements}

    def bottom_up(x):
        return len(below[x]), base.index(x)

    preds: dict[str, list[str]] = {q: [] for q in elements}
    for p, q in edges:
        preds[q].append(p)
    for q in sorted(elements, key=bottom_up):
        for p in sorted(below[q], key=bottom_up):
            candidates = [
                maps[(z, q)] @ full[(p, z)] for z in preds[q] if base.leq(p, z)
            ]
            first = candidates[0]
            for other in candidates[1:] if check else ():
                if other != first:
                    raise FunctorialityError(p, q, first, other)
            full[(p, q)] = first
    return full


def _sections_from_pairs(sheaf, U: OpenSet, pairs):
    """Kernel of s_q - map(p, q) s_p = 0 over the given pairs p < q in U,
    one unknown block per point of U in carrier order."""
    offs: dict[str, int] = {}
    total = 0
    for x in U.sorted_members:
        offs[x] = total
        total += sheaf.dim(x)
    zero, one = sheaf.field.zero, sheaf.field.one
    rows = []
    for p, q in pairs:
        R = sheaf.restriction(p, q)
        for i in range(R.rows):
            row = [zero] * total
            for j, v in enumerate(R.data[i]):
                row[offs[p] + j] = v
            row[offs[q] + i] = row[offs[q] + i] - one
            rows.append(row)
    return kernel_basis(Matrix(sheaf.field, len(rows), total, rows))


def sections_over_by_covers(sheaf, U: OpenSet):
    """Sections over U from one block of equations per covering pair inside U.

    Covering pairs suffice: U is up-closed, so every comparable pair inside
    U is joined by a chain of covering pairs inside U.
    """
    return _sections_from_pairs(
        sheaf, U, [(p, q) for p, q in sheaf.hasse if p in U and q in U])


def sections_over_all_pairs(sheaf, U: OpenSet):
    """Sections over U from one block of equations per comparable pair p < q
    inside U: the literal compatible-tuple description."""
    pts = U.sorted_members
    return _sections_from_pairs(
        sheaf, U, [(p, q) for p in pts for q in pts if sheaf.base.lt(p, q)])


def kernel_basis_by_two_eliminations(m: Matrix):
    """The canonical basis of the right kernel of m: the null vectors of
    one elimination of m, one per free column, put in canonical form by a
    second elimination."""
    field = m.field
    rows = list(m._ints)
    pivots = _rref(field, rows, m.cols)
    dens = [row[c] for row, c in zip(rows, pivots)]
    common = lcm(*dens)
    p = field.characteristic
    vectors = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[fc] = common
        for row, pc, den in zip(rows, pivots, dens):
            if row[fc]:
                x = -row[fc] * (common // den)
                v[pc] = x % p if p else x
        vectors.append(v)
    return _basis(field, m.cols, vectors)


def sections_over_three_eliminations(sheaf, U: OpenSet) -> SectionSpace:
    """The minimal-point solve of `sections_over` with three eliminations
    and nothing cached: the equalizer on the minimal points of U is
    eliminated and its null vectors put in canonical form by a second
    elimination (`kernel_basis_by_two_eliminations`); that basis is
    expanded to all of U, and a third elimination puts the families in
    canonical form. The families are checked along the covering pairs of
    U, and the space is laid out from the open."""
    field, dims, restrict = sheaf.field, sheaf._dims, sheaf._restrict
    u = U.mask
    pts = U.sort_key()[1]
    lower = {x: [y for y in sheaf._lower[x] if u >> y & 1] for x in pts}
    minimal = [x for x in pts if not lower[x]]
    offs, total = _block_starts(dims, minimal)
    rows = []
    owner = {m: m for m in minimal}
    for x in sheaf._order:
        if not (u >> x & 1 and lower[x]):
            continue
        owners = [owner[y] for y in lower[x]]
        owner[x] = min(owners)
        first = owners[0]
        A = restrict(first, x)
        seen = {first}
        for o in owners[1:]:
            if o not in seen:
                seen.add(o)
                rows.extend(_difference_rows(
                    field, total, restrict(o, x), offs[o], A, offs[first]))
    kernel = kernel_basis_by_two_eliminations(
        Matrix._make(field, len(rows), total, *field.canonical(rows)))
    families = []
    if kernel.dim:
        expand = {x: restrict(owner[x], x) for x in pts if owner[x] != x}
        common = lcm(*[m._den for m in expand.values()])
        for vec in kernel._matrix._ints:
            family: list = []
            for x in pts:
                o = owner[x]
                value = vec[offs[o]: offs[o] + dims[o]]
                if o == x:
                    family.extend(common * v for v in value)
                else:
                    m = expand[x]
                    family.extend((common // m._den) * sum(map(mul, row, value))
                                  for row in m._ints)
            families.append(family)
    families = list(field.canonical(families)[0])
    space = SectionSpace(sheaf, U, _basis(field, sum(map(dims.__getitem__, pts)), families))
    _check_families(sheaf, space.basis._matrix._ints, space.basis._matrix._den,
                    _block_starts(dims, pts)[0], _covering_pairs(sheaf, U))
    return space


def restriction_matrix_by_restricted_copy(source: SectionSpace, target: SectionSpace) -> Matrix:
    """The restriction from the source's open to the target's, in their
    bases: each basis family of the source is copied down to the target's
    points, laid out from the open, and the copy's coordinates are its
    entries at the target's pivots once its residual off them vanishes;
    ValueError when a copy does not lie in the target space."""
    dims = source.sheaf._dims
    offs = _block_starts(dims, source.open.sort_key()[1])[0]
    take = [i for x in target.open.sort_key()[1] for i in range(offs[x], offs[x] + dims[x])]
    basis = source.basis._matrix
    columns = []
    for row in basis._ints:
        copy = [row[i] for i in take]
        if any(target.basis._residual(copy)):
            raise ValueError("vector does not lie in the subspace")
        columns.append([copy[c] for c in target.basis.pivots()])
    return Matrix._of_columns(source.sheaf.field, target.dim, columns, basis._den)


def restriction_matrix_three_eliminations(sheaf, U: OpenSet, V: OpenSet) -> Matrix:
    """`restriction_matrix` from the three-elimination solve and the
    restricted copy, nothing cached."""
    return restriction_matrix_by_restricted_copy(
        sections_over_three_eliminations(sheaf, U), sections_over_three_eliminations(sheaf, V))


def _quotient_coords(relation_rows, pivots, free_columns, big) -> tuple:
    v = list(big)
    for row, piv in zip(relation_rows, pivots):
        f = v[piv]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v[c] for c in free_columns)


@dataclass
class DenseDirectLimit:
    """The direct-limit quotient with its relations in reduced echelon form."""

    sheaf: object
    point: str
    neighbourhoods: tuple
    offsets: dict
    total: int
    relation_rows: tuple
    relation_pivots: tuple
    free_columns: tuple
    witness: Matrix

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    def project(self, big) -> tuple:
        return _quotient_coords(
            self.relation_rows, self.relation_pivots, self.free_columns, big)


def stalk_direct_limit_dense(sheaf, point: str, max_elements: int = 20) -> DenseDirectLimit:
    """The stalk as the quotient of the sum of Γ(U) over all neighbourhoods U
    of the point, by one Gauss-Jordan elimination of every difference
    generator along the covering pairs of the neighbourhood lattice, which
    are found by scanning for a neighbourhood strictly between."""
    base = sheaf.base
    nbhd = [U for U in enumerate_opens(base, max_elements) if point in U.members]
    spaces = {U.members: sections_over(sheaf, U) for U in nbhd}
    offsets: dict = {}
    total = 0
    for U in nbhd:
        offsets[U.members] = total
        total += spaces[U.members].dim
    member_sets = [U.members for U in nbhd]
    cover_pairs = []
    for U in nbhd:
        for V in nbhd:
            if V.members < U.members and not any(
                V.members < W < U.members for W in member_sets
            ):
                cover_pairs.append((U, V))
    zero, one = sheaf.field.zero, sheaf.field.one
    generators = []
    for U, V in cover_pairs:
        R = restriction_matrix(sheaf, U, V).data
        for i in range(spaces[U.members].dim):
            row = [zero] * total
            row[offsets[U.members] + i] = one
            for j in range(len(R)):
                v = R[j][i]
                if v:
                    row[offsets[V.members] + j] = row[offsets[V.members] + j] - v
            generators.append(row)
    reduced, pivots = gauss_jordan(sheaf.field, generators, total)
    relation_rows = tuple(tuple(r) for r in reduced[: len(pivots)])
    pivot_set = set(pivots)
    free_columns = tuple(c for c in range(total) if c not in pivot_set)

    def project(big):
        return _quotient_coords(relation_rows, pivots, free_columns, big)

    star_space = sections_over(sheaf, open_star(base, point))
    star_offset = offsets[frozenset(base.up_set(point))]
    columns = []
    for j in range(sheaf.dim(point)):
        unit = [one if i == j else zero for i in range(sheaf.dim(point))]
        coords = star_space.coordinates_of(section_from_value(sheaf, point, unit))
        big = [zero] * total
        for i, c in enumerate(coords):
            big[star_offset + i] = c
        columns.append(project(big))
    data = list(zip(*columns)) if columns else [[] for _ in range(len(free_columns))]
    witness = Matrix(sheaf.field, len(free_columns), sheaf.dim(point), data)
    # keyed on carrier masks, as DirectLimitStalk.offsets is
    return DenseDirectLimit(
        sheaf, point, tuple(nbhd), {U.mask: offsets[U.members] for U in nbhd}, total,
        relation_rows, tuple(pivots), free_columns, witness,
    )


def section_maps_all_invertible(morphism) -> bool:
    """Whether the induced map is invertible over every open set: the
    enumerating side of classify(...).isomorphism."""
    return all(
        section_map(morphism, U).is_invertible()
        for U in enumerate_opens(morphism.source.base)
    )


def section_maps_all_injective(morphism) -> bool:
    """Whether the induced map is injective over every open set: the
    enumerating side of classify(...).injective."""
    return all(
        section_map(morphism, U).is_injective()
        for U in enumerate_opens(morphism.source.base)
    )
