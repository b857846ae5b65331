"""Shared generators for randomized tests, the child-process runner, and
the subparsers of a command-line parser.

Random sheaves and morphisms are produced by solving the relevant linear
compatibility systems and sampling their solution spaces, so the samples
are generic while still valid; build_sheaf / build_morphism re-validate
every sample independently.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

import cellsheaf
from cellsheaf import (
    Matrix,
    MonotoneMap,
    Poset,
    PreOrder,
    PrimeField,
    QQ,
    build_poset,
    build_preorder,
    build_sheaf,
    enumerate_opens,
    hasse_edges,
    kernel_basis,
)

from oracles import open_violation_by_scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Address space of each `cellsheaf` child, in bytes
MEMORY = 10**9


def child_env(**extra: str) -> dict:
    """This process's environment for a child interpreter, with the cellsheaf
    that this process imports, from src/ or an installed copy, first on its
    path."""
    src = str(Path(cellsheaf.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


def run_cellsheaf(argv, cwd, *, code: int = 0, seconds: int = 5,
                  stdout=subprocess.DEVNULL, **env: str):
    """Run `python -m cellsheaf *argv` in `cwd` as a child limited to MEMORY
    bytes, `seconds` of CPU time and `seconds` of wall time. Assert that it
    exits with `code` and that its stderr holds no traceback."""
    def limit():
        # runs in the child before exec, so the limits hold for the command
        # and not for the test process
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))

    proc = subprocess.run(
        [sys.executable, "-m", "cellsheaf", *argv], preexec_fn=limit,
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=child_env(**env), timeout=seconds,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """Command name -> subparser, for each command `parser` builds."""
    return {name: sub for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name, sub in action.choices.items()}


_NAMES = [chr(ord("a") + i) for i in range(20)]

# Q and four prime fields: characteristic 2, small, medium and past 2**63
CORE_FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(101),
               PrimeField(1000000000000000003)]


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.build(QQ, [[rational(rng) for _ in range(cols)] for _ in range(rows)],
                        cols=cols)


def random_invertible(rng: random.Random, n: int, field=QQ) -> Matrix:
    """An invertible n x n matrix; over Q its entries have several
    denominators."""
    def entry():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 7, 10]))
        return rng.randrange(field.p)

    while True:
        m = Matrix.build(field, [[entry() for _ in range(n)] for _ in range(n)], cols=n)
        if m.is_invertible():
            return m


def random_poset(rng: random.Random, n: int) -> Poset:
    """Generators only point up the name order, so closure is a poset."""
    names = _NAMES[:n]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return build_poset(names, pairs)


@st.composite
def posets(draw, max_n: int = 5, shuffled: bool = False) -> Poset:
    """Hypothesis strategy: upward generating pairs over a small carrier.
    The carrier lists the labels in order, a linear extension of the order,
    or, when `shuffled`, permuted, as `preorders` does."""
    n = draw(st.integers(1, max_n))
    names = _NAMES[:n]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_poset(draw(st.permutations(names)) if shuffled else names, pairs)


# at most 7 opens: every cover of every open is one of 2^6 = 64 sets of
# nonempty opens
FEW_OPENS = 7


@st.composite
def few_opens(draw) -> Poset:
    """Hypothesis strategy: a poset on at most 5 points with at most
    FEW_OPENS opens. Generating pairs are drawn up the label order, then the
    first incomparable pairs in label order are added until the opens are
    few enough (a chain has few)."""
    names = _NAMES[:draw(st.integers(1, 5))]
    pairs = [pair for pair in combinations(names, 2) if draw(st.booleans())]
    base = build_poset(names, pairs)
    for a, b in combinations(names, 2):
        if len(enumerate_opens(base)) <= FEW_OPENS:
            break
        if not base.leq(a, b):
            pairs.append((a, b))
            base = build_poset(names, pairs)
    return base


@st.composite
def preorders(draw, max_n: int = 5) -> PreOrder:
    """Hypothesis strategy: arbitrary generating pairs, which may close into
    cycles, or pairs pointing up the label order only, which give a poset.
    The carrier lists the labels shuffled."""
    n = draw(st.integers(1, max_n))
    carrier = draw(st.permutations(_NAMES[:n]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a < b]
    return build_preorder(carrier, [(_NAMES[a], _NAMES[b]) for a, b in pairs])


def random_preorder(rng: random.Random, n: int) -> PreOrder:
    names = _NAMES[:n]
    pairs = [
        (a, b)
        for a in names
        for b in names
        if a != b and rng.random() < 0.25
    ]
    return build_preorder(names, pairs)


def random_monotone_map(rng: random.Random, source: PreOrder,
                        target: PreOrder) -> MonotoneMap:
    for _ in range(60):
        mapping = {x: rng.choice(target.elements) for x in source.elements}
        f = MonotoneMap(source, target, mapping)
        if f.is_monotone():
            return f
    value = rng.choice(target.elements)
    return MonotoneMap(source, target, {x: value for x in source.elements})


def _sample_kernel(rng: random.Random, basis, field=QQ) -> list:
    out = [field.zero] * basis.ambient_dim
    for row in basis.rows:
        c = field.coerce(rng.randint(-2, 2))
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def random_sheaf(rng: random.Random, base: Poset, max_dim: int = 3, field=QQ):
    """Random dims plus covering-pair maps sampled from the space of maps
    whose chain products agree, built point by point up a linear extension."""
    dims = {e: rng.choice([0, 1, 1, 2, 2, max_dim]) for e in base.elements}
    edges = hasse_edges(base)
    preds: dict[str, list[str]] = {e: [] for e in base.elements}
    for p, q in edges:
        preds[q].append(p)
    order = sorted(base.elements, key=lambda e: (len(base.down_set(e)), base.index(e)))
    full = {(e, e): Matrix.identity(field, dims[e]) for e in base.elements}
    edge_maps: dict[tuple[str, str], Matrix] = {}
    for q in order:
        zs = preds[q]
        if not zs:
            continue
        widths = [dims[z] for z in zs]
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + dims[q] * w)
        unknowns = offsets[-1]
        rows = []
        for p in order:
            if not base.lt(p, q):
                continue
            sharing = [i for i, z in enumerate(zs) if base.leq(p, z)]
            for a_pos in range(len(sharing)):
                for b_pos in range(a_pos + 1, len(sharing)):
                    i, j = sharing[a_pos], sharing[b_pos]
                    fi = full[(p, zs[i])].data
                    fj = full[(p, zs[j])].data
                    for r in range(dims[q]):
                        for cc in range(dims[p]):
                            row = [field.zero] * unknowns
                            for c in range(widths[i]):
                                row[offsets[i] + r * widths[i] + c] = fi[c][cc]
                            for c in range(widths[j]):
                                row[offsets[j] + r * widths[j] + c] -= fj[c][cc]
                            rows.append(row)
        solution = _sample_kernel(
            rng, kernel_basis(Matrix(field, len(rows), unknowns, rows)), field)
        for i, z in enumerate(zs):
            data = [
                solution[offsets[i] + r * widths[i]: offsets[i] + (r + 1) * widths[i]]
                for r in range(dims[q])
            ]
            m = Matrix(field, dims[q], widths[i], data)
            edge_maps[(z, q)] = m
            full[(z, q)] = m
        for p in order:
            if base.lt(p, q):
                z = next(z for z in zs if base.leq(p, z))
                full[(p, q)] = edge_maps[(z, q)] @ full[(p, z)]
    return build_sheaf(base, dims, edge_maps, field)


def random_natural_components(rng: random.Random, src, tgt):
    """Sample the solution space of the commutation equations, over the
    sheaves' field."""
    base, field = src.base, src.field
    offsets = {}
    total = 0
    for p in base.elements:
        offsets[p] = total
        total += tgt.dim(p) * src.dim(p)

    def var(p: str, r: int, c: int) -> int:
        return offsets[p] + r * src.dim(p) + c

    rows = []
    for p, q in src.hasse:
        rho = src.restriction(p, q).data
        sigma = tgt.restriction(p, q).data
        for r in range(tgt.dim(q)):
            for c in range(src.dim(p)):
                row = [field.zero] * total
                for k in range(tgt.dim(p)):
                    row[var(p, k, c)] += sigma[r][k]
                for k in range(src.dim(q)):
                    row[var(q, r, k)] -= rho[k][c]
                rows.append(row)
    solution = _sample_kernel(
        rng, kernel_basis(Matrix(field, len(rows), total, rows)), field)
    components = {}
    for p in base.elements:
        data = [
            solution[var(p, r, 0): var(p, r, 0) + src.dim(p)]
            for r in range(tgt.dim(p))
        ]
        components[p] = Matrix(field, tgt.dim(p), src.dim(p), data)
    return components


def twisted_copy(rng: random.Random, sheaf):
    """Same sheaf conjugated by random invertible point maps, plus the
    conjugating morphism components (always an isomorphism). Over Q the
    twists give maps into one point over different denominators, which
    the sheaves of `random_sheaf` seldom have."""
    base = sheaf.base
    twists = {p: random_invertible(rng, sheaf.dim(p), sheaf.field) for p in base.elements}
    edge_maps = {
        (p, q): twists[q] @ sheaf.restriction(p, q) @ twists[p].inverse()
        for p, q in sheaf.hasse
    }
    other = build_sheaf(base, dict(sheaf.dims), edge_maps, sheaf.field)
    return other, twists


def random_morphisms(rng: random.Random, count: int):
    """A stream mixing identities, zeros, scalars, twists, and generic
    solutions of the commutation equations."""
    from fractions import Fraction as F

    from cellsheaf import build_morphism, identity_morphism, zero_morphism

    out = []
    while len(out) < count:
        base = random_poset(rng, rng.randint(1, 5))
        src = random_sheaf(rng, base)
        kind = rng.randrange(5)
        if kind == 0:
            out.append(identity_morphism(src))
        elif kind == 1:
            out.append(zero_morphism(src, src))
        elif kind == 2:
            c = F(rng.choice([-2, -1, 1, 2, 3]))
            out.append(build_morphism(src, src, {
                p: Matrix.identity(QQ, src.dim(p)).scale(c)
                for p in base.elements
            }))
        elif kind == 3:
            tgt, twists = twisted_copy(rng, src)
            out.append(build_morphism(src, tgt, twists))
        else:
            tgt = random_sheaf(rng, base)
            out.append(build_morphism(
                src, tgt, random_natural_components(rng, src, tgt)))
    return out


def brute_force_opens(space: PreOrder) -> list[frozenset]:
    """Every up-closed subset, by filtering the full power set with the
    reference up-closure scan."""
    out = []
    elements = list(space.elements)
    for mask in range(1 << len(elements)):
        members = frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
        if open_violation_by_scan(space, members) is None:
            out.append(members)
    return out


def assert_value_record(cls, fields: dict, text: str) -> None:
    """`cls` is a result record made from `fields`, given by keyword or in
    order: two such are equal, a record of a subclass with the same fields
    is not, nor is the tuple of the values, and the repr reads `text`.
    Hashing is left to the caller, as only some records hash."""
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert not record != cls(**fields)
    twin = type("Twin", (cls,), {"__slots__": ()})(**fields)
    assert record != twin and twin != record
    assert record != tuple(fields.values())
    assert repr(record) == text
