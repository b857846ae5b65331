"""Exact linear algebra over the rationals or a prime field.

Everything here is exact: entries are `fractions.Fraction` values or GF(p)
elements, and subspaces are stored as canonical reduced row echelon bases,
so two subspaces are equal exactly when their stored bases are equal.
Matrices with zero rows or zero columns are first-class; they are the maps
in and out of the zero space.

Every elimination and product runs on a matrix's lowered form, of ints only.
Over GF(p) it is the residues in [0, p), and a row operation or a dot
product takes one `% p` per entry. Over Q it is one integer row and one
denominator per row, the lcm of the row's denominators, in lowest terms.
Elimination over Q is fraction-free: a row operation cross-multiplies by
the pivot and divides out the gcd of the row, and pivot rows are divided by
their pivots only at the end. The reduced echelon form is unique, so it is
the one `Fraction` arithmetic gives. Both forms are canonical, so matrices
are equal exactly when their lowered forms are. A matrix lowers its entries
once and keeps them, and its rank. A subspace keeps the lowered rows of its
basis; `reduce`, `contains` and `coordinates` lower the vector they are
given. Field values are lifted back only where a caller reads them:
`Matrix.data` (read by `repr`, `transpose`, `scale` and the reports),
`SubspaceBasis.rows`, and the vectors that `mul_vec` and `reduce` return.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import ShapeError


# Digits per chunk when an int is too long for str(): below 640, the
# smallest int->str digit limit an interpreter can be given.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """The exact decimal form of n, also past the interpreter's int->str
    digit limit, which is left unchanged."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    head = str(chunks.pop())
    return sign + head + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


class RationalField:
    """The field of rational numbers with Fraction entries."""

    name = "q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) or isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot interpret {value!r} as a rational")

    def format(self, value) -> str:
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"

    def lower(self, data) -> tuple:
        """(integer rows, row denominators) of rows of rationals."""
        rows, dens = [], []
        for row in data:
            den = lcm(*[x.denominator for x in row])
            rows.append(tuple([x.numerator * (den // x.denominator) for x in row]))
            dens.append(den)
        return tuple(rows), tuple(dens)

    def canonical(self, rows, dens) -> tuple:
        """The lowered form of the rows rows[i] / dens[i], with dens positive."""
        out, out_dens = [], []
        for row, den in zip(rows, dens):
            g = gcd(den, *row)
            out.append(tuple(row) if g == 1 else tuple([x // g for x in row]))
            out_dens.append(den // g)
        return tuple(out), tuple(out_dens)

    def lift(self, low) -> tuple:
        """Rows of Fractions from (integer rows, row denominators)."""
        return tuple(
            tuple(map(Fraction, row)) if den == 1 else tuple([Fraction(x, den) for x in row])
            for row, den in zip(*low)
        )

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
        self.p = self.characteristic = p
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

    def lower(self, data) -> tuple:
        """(rows of residues, None) of rows of GF(p) elements."""
        return tuple(tuple([x.value for x in row]) for row in data), None

    def canonical(self, rows, dens=None) -> tuple:
        """The lowered form of rows of ints."""
        p = self.p
        return tuple(tuple([x % p for x in row]) for row in rows), None

    def lift(self, low) -> tuple:
        """Rows of GF(p) elements from (rows of residues, None)."""
        p = self.p
        return tuple(tuple([FpElement(x, p) for x in row]) for row in low[0])

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
    """Immutable dense matrix over an exact field, acting on column vectors.

    It holds its field values, its lowered form or both, makes the missing
    one on first use and keeps it.
    """

    __slots__ = ("field", "rows", "cols", "_data", "_low", "_rank")

    def __init__(self, field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeError(f"data does not match declared shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self._data = data
        self._low = None
        self._rank = None

    @classmethod
    def _make(cls, field, rows: int, cols: int, data=None, low=None) -> "Matrix":
        """A result whose shape is right by construction: no copy, no check."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._data = data
        m._low = low
        m._rank = None
        return m

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
        return cls._make(field, n, n, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        return cls._make(field, rows, cols, ((field.zero,) * cols,) * rows)

    @property
    def data(self) -> tuple:
        """The entries as field values, row by row."""
        if self._data is None:
            self._data = self.field.lift(self._low)
        return self._data

    def _lowered(self) -> tuple:
        if self._low is None:
            self._low = self.field.lower(self._data)
        return self._low

    def _integer_rows(self) -> tuple:
        """(int rows, common denominator): the matrix is rows / common, with
        common = 1 over GF(p)."""
        rows, dens = self._lowered()
        common = 1
        if dens is not None:
            common = lcm(*dens)
            if common != 1:
                rows = [row if d == common else tuple([x * (common // d) for x in row])
                        for row, d in zip(rows, dens)]
        return rows, common

    def _columns(self) -> tuple:
        """(int columns, common denominator): column j is columns[j] / common,
        with common = 1 over GF(p)."""
        rows, common = self._integer_rows()
        return (list(zip(*rows)) if rows else [()] * self.cols), common

    @classmethod
    def _of_columns(cls, field, rows: int, columns, den: int) -> "Matrix":
        """The matrix whose column j is the int vector columns[j] / den."""
        data = list(zip(*columns)) if columns else [()] * rows
        return cls._make(field, rows, len(columns), low=field.canonical(data, [den] * rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._lowered() == self._lowered()
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self._lowered()))

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
        rows, dens = self._lowered()
        columns, common = other._columns()
        out = [[sum(map(mul, row, col)) for col in columns] for row in rows]
        return Matrix._make(self.field, self.rows, other.cols, low=self.field.canonical(
            out, dens and [d * common for d in dens]))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in addition")
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch in subtraction")
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, row by row over a common denominator."""
        rows, dens = self._lowered()
        other_rows, other_dens = other._lowered()
        out, out_dens = [], []
        for a, b, d, e in zip(rows, other_rows, dens or repeat(1), other_dens or repeat(1)):
            common = lcm(d, e)
            s, t = common // d, sign * (common // e)
            out.append([s * x + t * y for x, y in zip(a, b)])
            out_dens.append(common)
        return Matrix._make(self.field, self.rows, self.cols,
                            low=self.field.canonical(out, out_dens))

    def __neg__(self) -> "Matrix":
        rows, dens = self._lowered()
        return Matrix._make(self.field, self.rows, self.cols, low=self.field.canonical(
            [[-x for x in row] for row in rows], dens))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix._make(self.field, self.rows, self.cols, tuple(
            tuple([c * a for a in row]) for row in self.data))

    def mul_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        (v,), dens = self.field.lower((vec,))
        rows, common = self._integer_rows()
        out = [sum(map(mul, row, v)) for row in rows]
        return self.field.lift(((out,), dens and (dens[0] * common,)))[0]

    def transpose(self) -> "Matrix":
        return Matrix._make(self.field, self.cols, self.rows,
                            tuple(zip(*self.data)) or ((),) * self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.data if self._low is None else self._low[0]))

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(_rref(self.field, list(self._lowered()[0]), self.cols, False))
        return self._rank

    def rref(self) -> "Matrix":
        rows = list(self._lowered()[0])
        pivots = _rref(self.field, rows, self.cols)
        dens = [row[c] for row, c in zip(rows, pivots)] + [1] * (self.rows - len(pivots))
        return Matrix._make(self.field, self.rows, self.cols,
                            low=self.field.canonical(rows, dens))

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
        rows, dens = self._lowered()
        # [A_int | diag(dens)] reduces to [I | A^-1], as A = diag(dens)^-1 A_int
        aug = [list(row) + [0] * n for row in rows]
        for i, row in enumerate(aug):
            row[n + i] = dens[i] if dens else 1
        if _rref(field, aug, 2 * n) != list(range(n)):
            raise ShapeError("matrix is not invertible")
        return Matrix._make(field, n, n, low=field.canonical(
            [row[n:] for row in aug], [row[i] for i, row in enumerate(aug)]))


def _rref(field, rows: list, cols: int, full: bool = True) -> list[int]:
    """Gauss-Jordan reduction of lowered rows; returns the pivot columns.

    `rows` is a list of int rows (lists or tuples). Rows are replaced, never
    changed in place, and the list ends in echelon order: row r of the
    reduced echelon form is rows[r] / rows[r][pivots[r]], and the rows past
    the last pivot row are zero. Over GF(p) each pivot row is scaled to a
    leading 1. Over Q every row is kept primitive, and each pivot is
    positive. With `full` false only the rows below each pivot are cleared,
    which finds the pivots (and so the rank) but not the reduced form.
    """
    p = field.characteristic
    n = len(rows)
    if not p:
        for i, row in enumerate(rows):
            g = gcd(*row)
            if g > 1:
                rows[i] = [x // g for x in row]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        lead = rows[i]
        rows[i] = rows[r]
        pv = lead[c]
        if p:
            if pv != 1:
                inv = pow(pv, p - 2, p)
                lead = [x * inv % p for x in lead]
                pv = 1
        elif pv < 0:
            lead = [-x for x in lead]
            pv = -pv
        rows[r] = lead
        for i in range(0 if full else r + 1, n):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if p:
                rows[i] = [(a - f * b) % p for a, b in zip(row, lead)]
                continue
            g = gcd(pv, f)
            s, t = pv // g, f // g
            new = [s * a - t * b for a, b in zip(row, lead)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


class SubspaceBasis:
    """A subspace stored as a canonical reduced-echelon basis.

    The basis is kept as the lowered form of the matrix of its rows, with
    the pivot of each row as the elimination found it. Canonical form makes
    equality of values equivalent to equality of the subspaces they
    describe. `rows` lifts the basis to field values on first read.

    In a reduced echelon basis the coordinates of a vector of the subspace
    are its entries at the pivots, so only the membership check does
    arithmetic: the vector minus the combination of the basis rows with
    those coordinates must vanish. It can only fail to vanish off the
    pivots, and it is computed there on ints.
    """

    __slots__ = ("field", "ambient_dim", "_matrix", "_pivots", "_free")

    def __init__(self, field, ambient_dim: int, low: tuple, pivots: Sequence[int]):
        self.field = field
        self.ambient_dim = ambient_dim
        self._matrix = Matrix._make(field, len(pivots), ambient_dim, low=low)
        self._pivots = tuple(pivots)
        self._free = None

    @property
    def rows(self) -> tuple:
        return self._matrix.data

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other._matrix._low == self._matrix._low
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._matrix._low))

    def __repr__(self):
        return (f"SubspaceBasis(field={self.field!r}, ambient_dim={self.ambient_dim!r},"
                f" rows={self.rows!r})")

    def _off_pivots(self) -> tuple:
        """(common denominator c, [(j, column j of c * basis rows)] for each
        column j off the pivots), made on first use."""
        if self._free is None:
            rows, common = self._matrix._integer_rows()
            columns = list(zip(*rows)) if rows else [()] * self.ambient_dim
            pivots = set(self._pivots)
            self._free = common, [(j, col) for j, col in enumerate(columns)
                                  if j not in pivots]
        return self._free

    def _residual(self, v: Sequence[int]) -> list:
        """c * (v minus its projection) off the pivots, for an int vector v
        (over GF(p) mod p); zero exactly when v lies in the subspace."""
        common, free = self._off_pivots()
        coords = [v[c] for c in self._pivots]
        out = [common * v[j] - sum(map(mul, coords, col)) for j, col in free]
        p = self.field.characteristic
        return [x % p for x in out] if p else out

    def _coordinates(self, v: Sequence[int]) -> list:
        """The entries of an int vector v at the pivots, which are its
        coordinates when v lies in the subspace; ValueError if it does not."""
        if any(self._residual(v)):
            raise ValueError("vector does not lie in the subspace")
        return [v[c] for c in self._pivots]

    def reduce(self, vec: Sequence) -> tuple:
        """Subtract the projection onto the subspace along pivot coordinates."""
        (v,), dens = self.field.lower((vec,))
        common, free = self._off_pivots()
        out = [0] * self.ambient_dim
        for (j, _), x in zip(free, self._residual(v)):
            out[j] = x
        return self.field.lift(((out,), dens and (dens[0] * common,)))[0]

    def contains(self, vec: Sequence) -> bool:
        return not any(self._residual(self.field.lower((vec,))[0][0]))

    def coordinates(self, vec: Sequence) -> tuple:
        """Coordinates of `vec` in this basis; ValueError if outside."""
        self._coordinates(self.field.lower((vec,))[0][0])
        return tuple(vec[c] for c in self._pivots)

    def linear_combination(self, coords: Sequence) -> tuple:
        if len(coords) != self.dim:
            raise ShapeError("coordinate length does not match basis size")
        out = [self.field.zero] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return tuple(out)


def _basis(field, ambient_dim: int, rows: list) -> SubspaceBasis:
    """The canonical basis of the span of lowered rows."""
    pivots = _rref(field, rows, ambient_dim)
    rows = rows[: len(pivots)]
    return SubspaceBasis(field, ambient_dim, field.canonical(
        rows, [row[c] for row, c in zip(rows, pivots)]), pivots)


def subspace_from_rows(field, ambient_dim: int, rows: Iterable[Sequence]) -> SubspaceBasis:
    return _basis(field, ambient_dim, list(field.lower(rows)[0]))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : m v = 0}."""
    field = m.field
    rows = list(m._lowered()[0])
    pivots = _rref(field, rows, m.cols)
    dens = [row[c] for row, c in zip(rows, pivots)]
    common = lcm(*dens)
    p = field.characteristic
    pivot_set = set(pivots)
    vectors = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        # x[fc] = common, and each pivot unknown solves its reduced row
        v = [0] * m.cols
        v[fc] = common
        for row, pc, den in zip(rows, pivots, dens):
            if row[fc]:
                x = -row[fc] * (common // den)
                v[pc] = x % p if p else x
        vectors.append(v)
    return _basis(field, m.cols, vectors)


def image_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the column space, as vectors in the target."""
    return _basis(m.field, m.rows, m._columns()[0])


def is_exact_at(f: Matrix, g: Matrix) -> bool:
    """Exactness of A --f--> B --g--> C at B: image(f) = kernel(g).

    Implemented as g.f = 0 together with rank(f) + rank(g) = dim B, which
    is equivalent: the product vanishing gives image(f) inside kernel(g),
    and the rank condition forces equality of dimensions. The product is
    only tested for zero, on the lowered forms, and never made.
    """
    if g.cols != f.rows:
        raise ShapeError(
            f"maps are not composable: f lands in dim {f.rows}, g starts at {g.cols}"
        )
    columns, _ = f._columns()
    p = g.field.characteristic
    for row in g._lowered()[0]:
        for col in columns:
            dot = sum(map(mul, row, col))
            if dot % p if p else dot:
                return False
    return f.rank() + g.rank() == g.cols


def block_assemble(field, row_dims: Sequence[int], col_dims: Sequence[int],
                   blocks: Mapping[tuple[int, int], Matrix],
                   negated: Mapping[tuple[int, int], Matrix] | None = None) -> Matrix:
    """Assemble a matrix from a sparse grid of labeled blocks.

    `blocks[(i, j)]` occupies row band i and column band j, and
    `negated[(i, j)]` does so with its sign flipped; missing blocks are
    zero. Every supplied block must match the band dimensions. The result
    is assembled in lowered form, from the blocks' lowered rows.
    """
    row_off = [0, *accumulate(row_dims)]
    col_off = [0, *accumulate(col_dims)]
    total_r, total_c = row_off[-1], col_off[-1]
    p = field.characteristic
    grid = [[0] * total_c for _ in range(total_r)]
    dens = [1] * total_r
    for sign, group in ((1, blocks), (-1, negated or {})):
        for (i, j), blk in group.items():
            if blk.rows != row_dims[i] or blk.cols != col_dims[j]:
                raise ShapeError(
                    f"block ({i},{j}) is {blk.rows}x{blk.cols}, "
                    f"band expects {row_dims[i]}x{col_dims[j]}"
                )
            rows, blk_dens = blk._lowered()
            c0, c1 = col_off[j], col_off[j + 1]
            for r, row, d in zip(range(row_off[i], row_off[i + 1]), rows,
                                 blk_dens or repeat(1)):
                if d != dens[r]:  # over Q: bring the row to a common denominator
                    common = lcm(d, dens[r])
                    if common != dens[r]:
                        grid[r] = [x * (common // dens[r]) for x in grid[r]]
                        dens[r] = common
                    if common != d:
                        row = [x * (common // d) for x in row]
                if sign < 0:
                    row = [-x % p for x in row] if p else [-x for x in row]
                grid[r][c0:c1] = row
    low = (tuple(map(tuple, grid)), None if p else tuple(dens))
    return Matrix._make(field, total_r, total_c, low=low)
