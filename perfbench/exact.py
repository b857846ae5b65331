"""Exact arithmetic and order computations of the benchmark's own.

Nothing here imports cellsheaf. The answers the benchmark checks come from
these functions and from how each input was built, so a fault in the
program cannot hide behind the same fault in its checker.

A field is named by `p`: `None` for the rationals (entries are `Fraction`)
or a prime (entries are ints in [0, p)).
"""

from __future__ import annotations

from fractions import Fraction


def zero(p):
    return Fraction(0) if p is None else 0


def one(p):
    return Fraction(1) if p is None else 1


def norm(x, p):
    return Fraction(x) if p is None else x % p


def inv(x, p):
    if p is None:
        return 1 / Fraction(x)
    if x % p == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow(x, p - 2, p)


def parse_entry(token: str, p):
    """A document or report entry (`-2/3`, `7`) as a field element."""
    if "/" in token:
        num, den = token.split("/", 1)
        return norm(int(num), p) * inv(int(den), p) if p is not None else Fraction(
            int(num), int(den))
    return norm(int(token), p)


def fmt(x, p) -> str:
    return str(x) if p is None else str(x % p)


def matmul(a, b, p):
    """Product of two matrices given as lists of rows; `b` has `len(a[0])` rows."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = zero(p)
            for k, x in enumerate(row):
                acc += x * b[k][j]
            new.append(norm(acc, p))
        out.append(new)
    return out


def matvec(a, v, p):
    return [norm(sum((x * y for x, y in zip(row, v)), zero(p)), p) for row in a]


def identity(n, p):
    return [[one(p) if i == j else zero(p) for j in range(n)] for i in range(n)]


def rref(rows, ncols, p):
    """Gauss-Jordan reduction; returns (non-zero reduced rows, pivot columns)."""
    m = [[norm(x, p) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        f = inv(m[r][c], p)
        m[r] = [norm(x * f, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [norm(a - g * b, p) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(rows, ncols, p) -> int:
    return len(rref(rows, ncols, p)[1])


def inverse(a, p):
    n = len(a)
    aug = [list(row) + identity(n, p)[i] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, 2 * n, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in reduced]


def is_rref(rows, p) -> bool:
    """Whether the rows are in reduced row echelon form with no zero row."""
    last = -1
    pivots = []
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or lead <= last or row[lead] != one(p):
            return False
        pivots.append(lead)
        last = lead
    return all(
        not other[c] for c, row in zip(pivots, rows) for other in rows if other is not row
    )


def random_invertible(rng, n, p):
    """A random invertible n x n matrix with small entries."""
    while True:
        if p is None:
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        else:
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank(a, n, p) == n:
            return a


def random_unimodular(rng, n):
    """A random rational matrix of determinant +-1 with small integer entries
    and an integer inverse: a signed permutation of L U, unit triangular L
    and U with entries in [-1, 1]."""
    lower = [[Fraction(1 if i == j else (rng.randint(-1, 1) if j < i else 0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else (rng.randint(-1, 1) if j > i else 0))
              for j in range(n)] for i in range(n)]
    rows = matmul(lower, upper, None)
    rng.shuffle(rows)
    return [[x * rng.choice((-1, 1)) for x in row] for row in rows]


# -- finite orders ---------------------------------------------------------


def closure(elements, pairs) -> set:
    """Reflexive-transitive closure of generating pairs, as a set of (x, y)."""
    up = {e: {e} for e in elements}
    succ = {e: set() for e in elements}
    for x, y in pairs:
        succ[x].add(y)
    for e in elements:
        stack = [e]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in up[e]:
                    up[e].add(y)
                    stack.append(y)
    return {(x, y) for x in elements for y in up[x]}


def up_set(leq, elements, x) -> set:
    return {y for y in elements if (x, y) in leq}


def covering_pairs(elements, leq) -> list:
    """x < y with nothing strictly between, in carrier order."""
    out = []
    for x in elements:
        for y in elements:
            if x == y or (x, y) not in leq:
                continue
            if any(z != x and z != y and (x, z) in leq and (z, y) in leq
                   for z in elements):
                continue
            out.append((x, y))
    return out


def up_sets(elements, leq) -> list:
    """Every up-closed subset, found by filtering the whole power set."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    above = [0] * len(elements)
    for x, y in leq:
        above[index[x]] |= 1 << index[y]
    found = []
    for mask in range(1 << len(elements)):
        if all(above[i] & ~mask == 0 for i in range(len(elements)) if mask >> i & 1):
            found.append(frozenset(e for i, e in enumerate(elements) if mask >> i & 1))
    return found


def up_set_masks(n, leq) -> list:
    """Every up-closed subset of range(n) as a bitmask, by search rather than
    by filtering: including a point requires every point above it."""
    above = [0] * n
    for x, y in leq:
        if x != y:
            above[x] |= 1 << y
    order = sorted(range(n), key=lambda i: bin(above[i]).count("1"))
    found = []

    def extend(k, mask):
        if k == n:
            found.append(mask)
            return
        extend(k + 1, mask)
        e = order[k]
        if above[e] & ~mask == 0:
            extend(k + 1, mask | 1 << e)

    extend(0, 0)
    return found


def components(members, leq) -> int:
    """Connected components of the comparability graph on `members`."""
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in leq:
        if x != y and x in parent and y in parent:
            parent[find(x)] = find(y)
    return len({find(x) for x in members})
