"""Exact linear algebra over the rationals or a prime field.

Everything here is exact, and subspaces are stored as canonical reduced
row echelon bases, so two subspaces are equal exactly when their stored
bases are equal. Matrices with zero rows or zero columns are first-class;
they are the maps in and out of the zero space.

A matrix is stored in one form only: a tuple of int rows over one positive
denominator, in lowest terms. Over GF(p) the rows are the residues in
[0, p) and the denominator is 1, so a row operation or a dot product takes
one `% p` per entry. Over Q the rows are the integer matrix times the
common denominator of its entries. Elimination over Q is fraction-free: a
row operation cross-multiplies by the pivot and divides out the gcd of the
row, and pivot rows are divided by their pivots only at the end. The
reduced echelon form is unique, so it is the one `Fraction` arithmetic
gives. The stored form is canonical, so matrices are equal exactly when
their int rows and denominators are, and every result is brought to lowest
terms. A matrix keeps its rank once found. A subspace keeps the matrix of
its basis; `reduce`, `contains` and `coordinates` lower the vector they are
given. Field values (`fractions.Fraction` or GF(p) elements) are made only
where a caller reads them, and never stored: `Matrix.data`,
`SubspaceBasis.rows`, and the vectors that `mul_vec`, `reduce` and
`linear_combination` return. `repr` and the reports format entries from
the int rows with `entry_text`, making no field value to print.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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


def _ratio_text(n: int, d: int) -> str:
    """n/d for d > 0, in lowest terms: `n` when that denominator is 1,
    `n/d` otherwise, the sign on n."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def entry_text(m: Matrix) -> list[list[str]]:
    """The entries of a matrix as text, read from its int rows. Over GF(p)
    the rows are residues over 1, so each entry is its residue."""
    if m._den == 1:
        return [[_decimal(x) for x in row] for row in m._ints]
    return [[_ratio_text(x, m._den) for x in row] for row in m._ints]


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
        return _ratio_text(value.numerator, value.denominator)

    def lower(self, data) -> tuple:
        """(int rows, denominator) of rows of rationals. The denominator is
        the lcm of the entries' own, so the form is in lowest terms."""
        den = lcm(*[x.denominator for row in data for x in row])
        return tuple(
            tuple([x.numerator * (den // x.denominator) for x in row]) for row in data
        ), den

    def canonical(self, rows, den: int = 1) -> tuple:
        """(int rows, denominator) in lowest terms of rows / den, den > 0."""
        g = den
        for row in rows:
            if g == 1:
                break
            g = gcd(g, *row)
        if g == 1:
            return tuple(map(tuple, rows)), den
        return tuple(tuple([x // g for x in row]) for row in rows), den // g

    def lift(self, rows, den: int) -> tuple:
        """Rows of Fractions of rows / den."""
        if den == 1:
            return tuple(tuple(map(Fraction, row)) for row in rows)
        return tuple(tuple([Fraction(x, den) for x in row]) for row in rows)

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
        return FpElement(self.value * pow(other.value, -1, self.p), self.p)

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
# an integer written as a matrix entry is (a prime, a dimension): `int`
# alone would also take a `+` sign and `_` between digits
_INTEGER = re.compile(r"-?\d+")


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
                return self._quotient(int(num), int(den))
            return FpElement(int(value), self.p)
        if isinstance(value, Fraction):
            return self._quotient(value.numerator, value.denominator)
        raise TypeError(f"cannot interpret {value!r} in GF({self.p})")

    def _quotient(self, num: int, den: int) -> FpElement:
        """num * den^-1 in GF(p)."""
        if not den % self.p:
            raise ZeroDivisionError("division by zero in GF(p)")
        return FpElement(num * pow(den, -1, self.p), self.p)

    def format(self, value) -> str:
        return str(value.value)

    def lower(self, data) -> tuple:
        """(rows of residues, 1) of rows of GF(p) elements."""
        return tuple(tuple([x.value for x in row]) for row in data), 1

    def canonical(self, rows, den: int = 1) -> tuple:
        """(rows of residues, 1) of rows of ints; den is always 1 here."""
        p = self.p
        return tuple(tuple([x % p for x in row]) for row in rows), 1

    def lift(self, rows, den: int) -> tuple:
        """Rows of GF(p) elements of rows of residues; den is always 1."""
        p = self.p
        return tuple(tuple([FpElement(x, p) for x in row]) for row in rows)

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
    digits = tag[3:].strip()
    if tag.startswith("fp:") and _INTEGER.fullmatch(digits):
        try:
            p = int(digits)
        except ValueError:
            if digits.isdecimal():  # past the interpreter's digit limit
                raise ValueError(f"prime fields need p below {PRIME_BOUND}") from None
        else:
            return PrimeField(p)
    shown = repr(name) if len(name) <= 24 else f"{name[:24]!r}..."
    raise ValueError(f"unknown field {shown} (expected 'q' or 'fp:<prime>')")


class Matrix:
    """Immutable dense matrix over an exact field, acting on column vectors.

    It is stored as `_ints`, a tuple of int rows, over one positive
    denominator `_den`, in lowest terms (see the module docstring).
    """

    __slots__ = ("field", "rows", "cols", "_ints", "_den", "_rank")

    def __init__(self, field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeError(f"data does not match declared shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self._ints, self._den = field.lower(data)
        self._rank = None

    @classmethod
    def _make(cls, field, rows: int, cols: int, ints: tuple, den: int = 1) -> "Matrix":
        """A result whose shape is right and whose tuple of int rows over den
        is in lowest terms by construction: no copy, no check."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._ints = ints
        m._den = den
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
        return cls._make(field, n, n, tuple(
            tuple([int(i == j) for j in range(n)]) for i in range(n)))

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        return cls._make(field, rows, cols, ((0,) * cols,) * rows)

    @property
    def data(self) -> tuple:
        """The entries as field values, row by row, lifted on each read."""
        return self.field.lift(self._ints, self._den)

    def _columns(self) -> tuple:
        """(int columns, denominator): column j is columns[j] / denominator."""
        return (list(zip(*self._ints)) if self._ints else [()] * self.cols), self._den

    @classmethod
    def _of_columns(cls, field, rows: int, columns, den: int) -> "Matrix":
        """The matrix whose column j is the int vector columns[j] / den."""
        ints = tuple(zip(*columns)) if columns else ((),) * rows
        return cls._make(field, rows, len(columns), *field.canonical(ints, den))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._den == self._den
            and other._ints == self._ints
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self._ints, self._den))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(row) + "]" for row in entry_text(self))
        return f"[{body}]"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        columns, den = other._columns()
        out = [[sum(map(mul, row, col)) for col in columns] for row in self._ints]
        return Matrix._make(self.field, self.rows, other.cols,
                            *self.field.canonical(out, self._den * den))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + sign * other, over the lcm of the two denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch in {what}")
        d, e = self._den, other._den
        common = lcm(d, e)
        s, t = common // d, sign * (common // e)
        out = [[s * x + t * y for x, y in zip(a, b)]
               for a, b in zip(self._ints, other._ints)]
        return Matrix._make(self.field, self.rows, self.cols,
                            *self.field.canonical(out, common))

    def __neg__(self) -> "Matrix":
        return Matrix._make(self.field, self.rows, self.cols, *self.field.canonical(
            [[-x for x in row] for row in self._ints], self._den))

    def scale(self, c) -> "Matrix":
        ((n,),), d = self.field.lower(((self.field.coerce(c),),))
        return Matrix._make(self.field, self.rows, self.cols, *self.field.canonical(
            [[n * x for x in row] for row in self._ints], d * self._den))

    def mul_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        (v,), den = self.field.lower((vec,))
        out = [sum(map(mul, row, v)) for row in self._ints]
        return self.field.lift((out,), den * self._den)[0]

    def transpose(self) -> "Matrix":
        return Matrix._make(self.field, self.cols, self.rows,
                            tuple(zip(*self._ints)) or ((),) * self.cols, self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(_rref(self.field, list(self._ints), self.cols, False))
        return self._rank

    def rref(self) -> "Matrix":
        rows = list(self._ints)
        pivots = _rref(self.field, rows, self.cols)
        dens = [row[c] for row, c in zip(rows, pivots)] + [1] * (self.rows - len(pivots))
        return Matrix._make(self.field, self.rows, self.cols, *_over_lcm(rows, dens))

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
        # [A_int | den I] reduces to [I | A^-1], as A = A_int / den
        aug = [list(row) + [0] * n for row in self._ints]
        for i, row in enumerate(aug):
            row[n + i] = self._den
        if _rref(self.field, aug, 2 * n) != list(range(n)):
            raise ShapeError("matrix is not invertible")
        return Matrix._make(self.field, n, n, *_over_lcm(
            [row[n:] for row in aug], [row[i] for i, row in enumerate(aug)]))


def _over_lcm(rows: Sequence, dens: Sequence[int]) -> tuple:
    """(int rows, denominator) of the matrix whose row i is rows[i] / dens[i],
    over the lcm L of dens. It is in lowest terms when every row is, with its
    own denominator, as the rows of an elimination are: a prime dividing L
    divides some dens[i] to the full power, and row i has an entry the prime
    does not divide."""
    common = lcm(*dens)
    return tuple(
        tuple(row) if d == common else tuple([x * (common // d) for x in row])
        for row, d in zip(rows, dens)
    ), common


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
                inv = pow(pv, -1, p)
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

    The basis is kept as the matrix of its rows, with the pivot of each row
    as the elimination found it. Canonical form makes equality of values
    equivalent to equality of the subspaces they describe. `rows` lifts the
    basis to field values on each read.

    In a reduced echelon basis the coordinates of a vector of the subspace
    are its entries at the pivots, so only the membership check does
    arithmetic: the vector minus the combination of the basis rows with
    those coordinates must vanish. It can only fail to vanish off the
    pivots, and it is computed there on ints.
    """

    __slots__ = ("field", "ambient_dim", "_matrix", "_pivots", "_free")

    def __init__(self, field, ambient_dim: int, matrix: Matrix, pivots: Sequence[int]):
        self.field = field
        self.ambient_dim = ambient_dim
        self._matrix = matrix
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
            and other.ambient_dim == self.ambient_dim
            and other._matrix == self._matrix
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._matrix))

    def __repr__(self):
        return (f"SubspaceBasis(field={self.field!r}, ambient_dim={self.ambient_dim!r},"
                f" rows={self.rows!r})")

    def _off_pivots(self) -> list:
        """[(j, column j of the basis rows' ints)] for each column j off the
        pivots, made on first use."""
        if self._free is None:
            pivots = set(self._pivots)
            self._free = [(j, col) for j, col in enumerate(self._matrix._columns()[0])
                          if j not in pivots]
        return self._free

    def _residual(self, v: Sequence[int]) -> list:
        """den * (v minus its projection) off the pivots, for an int vector v
        and the basis denominator den (over GF(p) mod p); zero exactly when v
        lies in the subspace."""
        den = self._matrix._den
        coords = [v[c] for c in self._pivots]
        out = [den * v[j] - sum(map(mul, coords, col)) for j, col in self._off_pivots()]
        p = self.field.characteristic
        return [x % p for x in out] if p else out

    def _coordinates_at(self, rows: Iterable[Sequence[int]], at: Sequence[int]) -> list:
        """The coordinates of each int row's vector v, where entry j of v is
        row[at[j]]: the row's entries at the pivots' places. v is never made;
        the membership residual runs at the off-pivot places, and a row whose
        v does not lie in the subspace raises ValueError."""
        pivots = [at[c] for c in self._pivots]
        free = [(at[j], col) for j, col in self._off_pivots()]
        den, p = self._matrix._den, self.field.characteristic
        out = []
        for row in rows:
            coords = [row[i] for i in pivots]
            for i, col in free:
                x = den * row[i] - sum(map(mul, coords, col))
                if x % p if p else x:
                    raise ValueError("vector does not lie in the subspace")
            out.append(coords)
        return out

    def reduce(self, vec: Sequence) -> tuple:
        """Subtract the projection onto the subspace along pivot coordinates."""
        (v,), den = self.field.lower((vec,))
        out = [0] * self.ambient_dim
        for (j, _), x in zip(self._off_pivots(), self._residual(v)):
            out[j] = x
        return self.field.lift((out,), den * self._matrix._den)[0]

    def contains(self, vec: Sequence) -> bool:
        return not any(self._residual(self.field.lower((vec,))[0][0]))

    def coordinates(self, vec: Sequence) -> tuple:
        """Coordinates of `vec` in this basis; ValueError if outside."""
        self._coordinates_at(self.field.lower((vec,))[0], range(self.ambient_dim))
        return tuple(vec[c] for c in self._pivots)

    def linear_combination(self, coords: Sequence) -> tuple:
        if len(coords) != self.dim:
            raise ShapeError("coordinate length does not match basis size")
        (c,), den = self.field.lower((coords,))
        columns, basis_den = self._matrix._columns()
        out = [sum(map(mul, c, col)) for col in columns]
        return self.field.lift((out,), den * basis_den)[0]


def _basis(field, ambient_dim: int, rows: list) -> SubspaceBasis:
    """The canonical basis of the span of int rows (residues over GF(p))."""
    pivots = _rref(field, rows, ambient_dim)
    rows = rows[: len(pivots)]
    return SubspaceBasis(field, ambient_dim, Matrix._make(
        field, len(pivots), ambient_dim,
        *_over_lcm(rows, [row[c] for row, c in zip(rows, pivots)])), pivots)


def subspace_from_rows(field, ambient_dim: int, rows: Iterable[Sequence]) -> SubspaceBasis:
    return _basis(field, ambient_dim, list(field.lower(rows)[0]))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : m v = 0}, from one
    elimination of m with its columns reversed.

    In the reversed order, each free column f of the reduced echelon form
    gives a null vector that is `common` at f, zero at every other free
    column, and at the pivot of row r minus row r's entry at f, scaled by
    `common` over the pivot. Row r is zero before its pivot, so those
    entries lie at pivots before f. Read back in m's column order, the
    vector starts at f and is zero at every other free column, so these
    vectors, by f, are the reduced echelon basis of the kernel with no
    second elimination.
    """
    field, n = m.field, m.cols
    rows = [row[::-1] for row in m._ints]
    pivots = _rref(field, rows, n)
    dens = [row[c] for row, c in zip(rows, pivots)]
    common = lcm(*dens)  # 1 over GF(p)
    p = field.characteristic
    pivot_set = set(pivots)
    last = n - 1
    vectors, leads = [], []
    for fc in range(last, -1, -1):  # free columns from the last: leads ascend
        if fc in pivot_set:
            continue
        v = [0] * n
        v[last - fc] = common
        for row, pc, den in zip(rows, pivots, dens):
            if row[fc]:
                x = -row[fc] * (common // den)
                v[last - pc] = x % p if p else x
        vectors.append(tuple(v))
        leads.append(last - fc)
    # over 1 (always so over GF(p)) the int rows are in lowest terms as made
    ints, den = field.canonical(vectors, common) if common > 1 else (tuple(vectors), 1)
    return SubspaceBasis(field, n, Matrix._make(field, len(vectors), n, ints, den), leads)


def is_exact_at(f: Matrix, g: Matrix) -> bool:
    """Exactness of A --f--> B --g--> C at B: image(f) = kernel(g).

    Implemented as g.f = 0 together with rank(f) + rank(g) = dim B, which
    is equivalent: the product vanishing gives image(f) inside kernel(g),
    and the rank condition forces equality of dimensions. The product is
    only tested for zero, on the int rows, and never made.
    """
    if g.cols != f.rows:
        raise ShapeError(
            f"maps are not composable: f lands in dim {f.rows}, g starts at {g.cols}"
        )
    return (_rows_vanish(g._ints, f._columns()[0], g.field.characteristic)
            and f.rank() + g.rank() == g.cols)


def _rows_vanish(rows: Iterable[Sequence[int]], columns: Sequence[Sequence[int]],
                 p: int) -> bool:
    """Whether the dot of every int row with every int column is zero (mod
    p when p is not 0): a product's rows, tested for zero and never made."""
    for row in rows:
        for col in columns:
            dot = sum(map(mul, row, col))
            if dot % p if p else dot:
                return False
    return True


def _products_agree(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """Whether a @ b == c @ d, with no product made: each side's int dot
    products are cross-multiplied by the other side's denominator (mod p)."""
    p = a.field.characteristic
    s, t = c._den * d._den, a._den * b._den
    b_columns, d_columns = b._columns()[0], d._columns()[0]
    for a_row, c_row in zip(a._ints, c._ints):
        for b_col, d_col in zip(b_columns, d_columns):
            diff = s * sum(map(mul, a_row, b_col)) - t * sum(map(mul, c_row, d_col))
            if diff % p if p else diff:
                return False
    return True


def vstack(field, cols: int, blocks: Sequence[Matrix]) -> Matrix:
    """The blocks, each with `cols` columns, stacked top to bottom.

    Each block's int rows are scaled to the lcm of the blocks'
    denominators, and a block already over the lcm lends its rows as they
    are. That keeps the result in lowest terms: a prime dividing the lcm
    divides some block's denominator to the full power, and that block has
    an entry the prime does not divide.
    """
    common = lcm(*[blk._den for blk in blocks])
    rows = []
    for k, blk in enumerate(blocks):
        if blk.cols != cols:
            raise ShapeError(f"block {k} is {blk.rows}x{blk.cols}, expected {blk.rows}x{cols}")
        s = common // blk._den
        rows.extend(blk._ints if s == 1 else (tuple(s * x for x in row) for row in blk._ints))
    return Matrix._make(field, len(rows), cols, tuple(rows), common)


def _map_blocks(families: Iterable[Sequence[int]], blocks: Sequence[tuple]) -> tuple[list, int]:
    """(images, L): block (start, width, m) of an int family's image is m on
    the family's `width` entries at `start` (copied if m is None), scaled to
    L, the lcm of the maps' denominators; the caller reduces mod p."""
    common = lcm(*[m._den for _, _, m in blocks if m is not None])
    images = []
    for vec in families:
        image: list = []
        for start, width, m in blocks:
            value = vec[start: start + width]
            if m is None:
                image.extend(value if common == 1 else [common * v for v in value])
            else:
                scale = common // m._den
                image.extend([scale * sum(map(mul, row, value)) for row in m._ints])
        images.append(image)
    return images, common
