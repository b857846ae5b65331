"""Brute-force reference implementations that the library is checked against.

Each one is the literal definition, written for clarity rather than speed,
and shares no code with the production path it cross-checks.
"""

from __future__ import annotations

from cellsheaf import PreOrder, ValidationError


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
