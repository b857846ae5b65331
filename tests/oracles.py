"""Brute-force reference implementations that the library is checked against.

Each one is the literal definition, written for clarity rather than speed,
and shares no code with the production path it cross-checks.
"""

from __future__ import annotations

from cellsheaf import Matrix, OpenSet, PreOrder, ValidationError, kernel_basis


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
