"""Exact linear algebra over the rationals or a prime field.

Everything here is exact: entries are `fractions.Fraction` values or GF(p)
elements, and subspaces are stored as canonical reduced row echelon bases,
so two subspaces are equal exactly when their stored bases are equal.
Matrices with zero rows or zero columns are first-class; they are the maps
in and out of the zero space.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import ShapeError


class RationalField:
    """The field of rational numbers with Fraction entries."""

    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) or isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot interpret {value!r} as a rational")

    def format(self, value) -> str:
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """An element of GF(p), normalised into [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _check(self, other) -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return FpElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FpElement)
            and other.p == self.p
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson & Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for n below PRIME_BOUND; raises ValueError above it."""
    if n >= PRIME_BOUND:
        raise ValueError(f"prime fields need p below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    def coerce(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {value.p}")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                return FpElement(int(num), self.p) / FpElement(int(den), self.p)
            return FpElement(int(value), self.p)
        if isinstance(value, Fraction):
            return FpElement(value.numerator, self.p) / FpElement(
                value.denominator, self.p
            )
        raise TypeError(f"cannot interpret {value!r} in GF({self.p})")

    def format(self, value) -> str:
        return str(value.value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_from_name(name: str):
    """Resolve a field tag: "q" for rationals, "fp:<prime>" for GF(p)."""
    tag = name.strip().lower()
    if tag == "q":
        return QQ
    if tag.startswith("fp:"):
        return PrimeField(int(tag[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'fp:<prime>')")


class Matrix:
    """Immutable dense matrix over an exact field, acting on column vectors."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeError(f"data does not match declared shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def build(cls, field, rows_of_values: Sequence[Sequence], cols: int | None = None):
        """Construct from nested values, coercing entries into the field."""
        data = [[field.coerce(v) for v in row] for row in rows_of_values]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(field, len(data), cols, data)

    @classmethod
    def identity(cls, field, n: int):
        one, zero = field.one, field.zero
        return cls(
            field, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        zero = field.zero
        return cls(field, rows, cols, [[zero] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(self.field.format(v) for v in row) + "]"
            for row in self.data
        )
        return f"[{body}]"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        zero = self.field.zero
        ot = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for row in self.data:
            new = []
            for col in ot:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                new.append(acc)
            out.append(new)
        return Matrix(self.field, self.rows, other.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in addition")
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in subtraction")
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.field, self.rows, self.cols, [[-a for a in row] for row in self.data]
        )

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(
            self.field, self.rows, self.cols, [[c * a for a in row] for row in self.data]
        )

    def mul_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        zero = self.field.zero
        out = []
        for row in self.data:
            acc = zero
            for a, b in zip(row, vec):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, list(zip(*self.data)) or
                      [[] for _ in range(self.cols)])

    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)

    def rank(self) -> int:
        return _rank(self.field, self.data, self.cols)

    def rref(self) -> "Matrix":
        reduced, _ = _rref(self.field, self.data, self.cols)
        return Matrix(self.field, self.rows, self.cols, reduced)

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("only square matrices can be inverted")
        n = self.rows
        field = self.field
        aug = [
            list(row) + [field.one if i == j else field.zero for j in range(n)]
            for i, row in enumerate(self.data)
        ]
        reduced, pivots = _rref(field, aug, 2 * n)
        if pivots != list(range(n)):
            raise ShapeError("matrix is not invertible")
        return Matrix(field, n, n, [row[n:] for row in reduced[:n]])


def _rref(field, rows, cols):
    """Gauss-Jordan reduction; returns (reduced rows, pivot column list)."""
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


def _rank(field, rows, cols) -> int:
    # Rank only needs forward elimination; over the rationals we clear
    # denominators and run fraction-free (Bareiss) elimination on ints,
    # which keeps intermediate growth polynomial and avoids Fraction churn.
    if isinstance(field, RationalField):
        scaled = []
        for row in rows:
            den = 1
            for x in row:
                d = x.denominator
                den = den * d // gcd(den, d)
            # den is a multiple of every denominator in the row
            scaled.append([x.numerator * (den // x.denominator) for x in row])
        return _rank_bareiss(scaled, cols)
    if isinstance(field, PrimeField):
        return _rank_mod([[x.value for x in row] for row in rows], cols, field.p)
    return len(_rref(field, rows, cols)[1])


def _rank_bareiss(m: list[list[int]], cols: int) -> int:
    rank = 0
    prev = 1
    nrows = len(m)
    for c in range(cols):
        pivot_row = None
        for i in range(rank, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pv = m[rank][c]
        lead = m[rank]
        for i in range(rank + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pv - f * lead[j]) // prev
            row[c] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod(m: list[list[int]], cols: int, p: int) -> int:
    rank = 0
    nrows = len(m)
    for c in range(cols):
        pivot_row = None
        for i in range(rank, nrows):
            if m[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        lead = [(x * inv) % p for x in m[rank]]
        m[rank] = lead
        for i in range(rank + 1, nrows):
            f = m[i][c] % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], lead)]
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace stored as a canonical reduced-echelon basis.

    Canonical form makes equality of values equivalent to equality of the
    subspaces they describe. The pivot of each row is found once, when the
    basis is made.
    """

    field: object
    ambient_dim: int
    rows: tuple
    _pivots: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out = []
        for row in self.rows:
            for j, v in enumerate(row):
                if v:
                    out.append(j)
                    break
        object.__setattr__(self, "_pivots", tuple(out))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def reduce(self, vec: Sequence) -> tuple:
        """Subtract the projection onto the subspace along pivot coordinates."""
        v = list(vec)
        for row, p in zip(self.rows, self._pivots):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec: Sequence) -> tuple:
        """Coordinates of `vec` in this basis; ValueError if outside."""
        coords = tuple(vec[p] for p in self._pivots)
        residue = self.reduce(vec)
        if any(residue):
            raise ValueError("vector does not lie in the subspace")
        return coords

    def linear_combination(self, coords: Sequence) -> tuple:
        if len(coords) != self.dim:
            raise ShapeError("coordinate length does not match basis size")
        out = [self.field.zero] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return tuple(out)


def subspace_from_rows(field, ambient_dim: int, rows: Iterable[Sequence]) -> SubspaceBasis:
    reduced, pivots = _rref(field, [list(r) for r in rows], ambient_dim)
    return SubspaceBasis(field, ambient_dim, tuple(tuple(r) for r in reduced[: len(pivots)]))


def rref(m: Matrix) -> Matrix:
    return m.rref()


def compose(g: Matrix, f: Matrix) -> Matrix:
    return g @ f


def is_injective(m: Matrix) -> bool:
    return m.is_injective()


def is_surjective(m: Matrix) -> bool:
    return m.is_surjective()


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : m v = 0}."""
    reduced, pivots = _rref(m.field, m.data, m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    zero, one = m.field.zero, m.field.one
    vectors = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        vectors.append(v)
    return subspace_from_rows(m.field, m.cols, vectors)


def image_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the column space, as vectors in the target."""
    return subspace_from_rows(m.field, m.rows, zip(*m.data) if m.data else [])


def is_exact_at(f: Matrix, g: Matrix) -> bool:
    """Exactness of A --f--> B --g--> C at B: image(f) = kernel(g).

    Implemented as g.f = 0 together with rank(f) + rank(g) = dim B, which
    is equivalent: the product vanishing gives image(f) inside kernel(g),
    and the rank condition forces equality of dimensions.
    """
    if g.cols != f.rows:
        raise ShapeError(
            f"maps are not composable: f lands in dim {f.rows}, g starts at {g.cols}"
        )
    if not (g @ f).is_zero():
        return False
    return f.rank() + g.rank() == g.cols


def block_assemble(field, row_dims: Sequence[int], col_dims: Sequence[int],
                   blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
    """Assemble a matrix from a sparse grid of labeled blocks.

    `blocks[(i, j)]` occupies row band i and column band j; missing blocks
    are zero. Every supplied block must match the band dimensions.
    """
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    total_r, total_c = row_off[-1], col_off[-1]
    grid = [[field.zero] * total_c for _ in range(total_r)]
    for (i, j), blk in blocks.items():
        if blk.rows != row_dims[i] or blk.cols != col_dims[j]:
            raise ShapeError(
                f"block ({i},{j}) is {blk.rows}x{blk.cols}, "
                f"band expects {row_dims[i]}x{col_dims[j]}"
            )
        r0, c0 = row_off[i], col_off[j]
        for r, row in enumerate(blk.data):
            target = grid[r0 + r]
            for c, v in enumerate(row):
                target[c0 + c] = v
    return Matrix(field, total_r, total_c, grid)
