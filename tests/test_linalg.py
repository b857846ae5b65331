import random
from fractions import Fraction
from math import gcd
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsheaf import (
    FpElement,
    Matrix,
    PrimeField,
    QQ,
    ShapeError,
    is_exact_at,
    kernel_basis,
    subspace_from_rows,
)

from cellsheaf.linalg import PRIME_BOUND, _is_prime, _rref, entry_text, vstack

from helpers import CORE_FIELDS, random_matrix
from oracles import (
    coordinates_by_field_ops,
    gauss_jordan,
    inverse_by_field_ops,
    kernel_basis_by_two_eliminations,
    kernel_by_field_ops,
    product_by_field_ops,
    reduce_by_field_ops,
    span_by_field_ops,
)


def mat(rows, cols=None, field=QQ):
    return Matrix.build(field, rows, cols=cols)


fractions_st = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
mixed_fractions_st = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 4, 6, 7, 10, 14, 15]))


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(
        st.lists(
            st.lists(fractions_st, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.build(QQ, data, cols=cols)


class TestRref:
    def test_identity_fixed(self):
        m = Matrix.identity(QQ, 3)
        assert m.rref() == m

    def test_zero_fixed(self):
        m = Matrix.zeros(QQ, 2, 3)
        assert m.rref() == m

    def test_dependent_rows(self):
        assert mat([[2, 4], [1, 2]]).rref() == mat([[1, 2], [0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_idempotent(self, m):
        assert m.rref().rref() == m.rref()

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_matches_reduction(self, m):
        # the fraction-free int fast path must agree with field reduction
        nonzero = sum(1 for row in m.rref().data if any(row))
        assert m.rank() == nonzero

    def test_rank_with_mixed_denominators_matches_pivot_count(self):
        F = Fraction
        m = Matrix(QQ, 4, 3, [
            [F(1, 6), F(5, 4), F(7, 10)],
            [F(1, 3), F(5, 2), F(7, 5)],   # twice the first row
            [F(-3, 14), F(2, 9), F(11, 15)],
            [F(-1, 21), F(53, 36), F(43, 30)],  # first row plus the third
        ])
        assert m.rank() == len(gauss_jordan(QQ, m.data, m.cols)[1]) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 3), st.data())
    def test_rank_with_mixed_denominators_property(self, cols, free, combos, data):
        # rows that are combinations of earlier rows make the rank depend on
        # every entry being scaled exactly
        entries = st.lists(mixed_fractions_st, min_size=cols, max_size=cols)
        rows = data.draw(st.lists(entries, min_size=free, max_size=free))
        for _ in range(combos if rows else 0):
            coeffs = data.draw(st.lists(mixed_fractions_st, min_size=len(rows),
                                        max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(cols)])
        m = Matrix(QQ, len(rows), cols, rows)
        assert m.rank() == len(gauss_jordan(QQ, m.data, m.cols)[1])


def field_entries(field):
    if field == QQ:
        return mixed_fractions_st
    return st.one_of(st.integers(0, 3), st.integers(0, field.p - 1)).map(field.coerce)


@st.composite
def field_rows(draw, field, rows, cols):
    """rows x cols entries, some rows combinations of the others, shuffled,
    so that ranks drop and pivots move."""
    data = draw(st.lists(st.lists(field_entries(field), min_size=cols, max_size=cols),
                         max_size=rows))
    while len(data) < rows:
        coeffs = draw(st.lists(field_entries(field), min_size=len(data),
                               max_size=len(data)))
        data.append([sum((c * r[j] for c, r in zip(coeffs, data)), field.zero)
                     for j in range(cols)])
    return draw(st.permutations(data))


def assert_canonical(m, values):
    """m equals, and hashes equal to, the matrix of the oracle's field
    values, and its stored int rows over one denominator are in lowest
    terms (residues over 1 under GF(p))."""
    field = m.field
    values = tuple(map(tuple, values))
    expected = Matrix(field, len(values), m.cols, values)
    assert m.data == values
    assert m == expected and hash(m) == hash(expected)
    p = field.characteristic
    entries = [x for row in m._ints for x in row]
    if p:
        assert m._den == 1 and all(0 <= x < p for x in entries)
    else:
        assert m._den > 0 and gcd(m._den, *entries) == 1


class TestIntegerCore:
    """Elimination, products and stacking on int rows, against field
    arithmetic; every matrix result is checked to be canonical."""

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_core_agrees_with_field_arithmetic(self, field, data):
        a, b, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        F = data.draw(field_rows(field, b, a))
        f = Matrix(field, b, a, F)
        reduced, pivots = gauss_jordan(field, F, a)
        assert f.rank() == len(pivots)
        assert_canonical(f.rref(), reduced)
        assert_canonical(f.transpose(), list(zip(*F)) or [()] * a)
        assert kernel_basis(f).rows == kernel_by_field_ops(field, F, a)
        columns = [list(col) for col in zip(*F)] if F else [[] for _ in range(a)]
        # reduce, contains and coordinates on the column space, on a vector
        # of the span and on one drawn freely
        span = subspace_from_rows(field, b, columns)
        assert span.rows == span_by_field_ops(field, columns, b)
        coeffs = data.draw(st.lists(field_entries(field), min_size=a, max_size=a))
        vectors = [
            [sum((x * v for x, v in zip(coeffs, row)), field.zero) for row in F],
            data.draw(st.lists(field_entries(field), min_size=b, max_size=b)),
        ]
        for vec in vectors:
            residue = reduce_by_field_ops(span.rows, vec)
            assert span.reduce(vec) == residue
            assert span.contains(vec) == (not any(residue))
            if any(residue):
                with pytest.raises(ValueError):
                    span.coordinates(vec)
            else:
                assert span.coordinates(vec) == coordinates_by_field_ops(span.rows, vec)
        combination = data.draw(st.lists(field_entries(field), min_size=span.dim,
                                         max_size=span.dim))
        assert span.linear_combination(combination) == tuple(
            sum((x * row[j] for x, row in zip(combination, span.rows)), field.zero)
            for j in range(b))
        if a == b:
            expected = inverse_by_field_ops(field, F, a)
            if expected is None:
                with pytest.raises(ShapeError):
                    f.inverse()
            else:
                assert_canonical(f.inverse(), expected)
        # g either annihilates f (its rows from the left kernel of f) or not
        if data.draw(st.booleans()):
            left = kernel_by_field_ops(field, columns, b)
            G = [[sum((x * v[j] for x, v in zip(coeffs, left)), field.zero)
                  for j in range(b)]
                 for coeffs in data.draw(st.lists(
                     st.lists(field_entries(field), min_size=len(left),
                              max_size=len(left)), min_size=c, max_size=c))]
        else:
            G = data.draw(field_rows(field, c, b))
        g = Matrix(field, c, b, G)
        product = product_by_field_ops(field, G, F, a)
        assert_canonical(g @ f, product)
        assert_canonical(-g, [[-x for x in row] for row in G])
        scalar = data.draw(field_entries(field))
        assert_canonical(g.scale(scalar), [[scalar * x for x in row] for row in G])
        # sums and differences; the entries of h have other denominators
        H = data.draw(field_rows(field, c, b))
        h = Matrix(field, c, b, H)
        for got, op in ((g + h, add), (g - h, sub)):
            assert_canonical(got, [list(map(op, r, s)) for r, s in zip(G, H)])
        assert (g - g).is_zero() and g + h - h == g
        # two blocks with different denominators
        assert_canonical(vstack(field, b, [g, h]), [*G, *H])
        assert is_exact_at(f, g) == (
            span_by_field_ops(field, columns, b) == kernel_by_field_ops(field, G, b))

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3), (4, 4)])
    def test_identity_and_zeros_are_canonical(self, field, rows, cols):
        assert_canonical(Matrix.zeros(field, rows, cols), [[field.zero] * cols] * rows)
        assert_canonical(Matrix.identity(field, rows), [
            [field.one if i == j else field.zero for j in range(rows)]
            for i in range(rows)])


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel_basis(Matrix.identity(QQ, 4)).dim == 0

    def test_zero_map_kernel_full(self):
        k = kernel_basis(Matrix.zeros(QQ, 2, 3))
        assert k.dim == 3

    def test_difference_map(self):
        k = kernel_basis(mat([[1, -1]]))
        assert k.rows == ((Fraction(1), Fraction(1)),)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity(self, m):
        assert m.rank() + kernel_basis(m).dim == m.cols

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_elimination_gives_the_canonical_null_vectors(self, field, data):
        # the reversed-column elimination against the null vectors of a
        # forward elimination put in canonical form by a second one
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
        m = Matrix(field, rows, cols, data.draw(field_rows(field, rows, cols)))
        got, want = kernel_basis(m), kernel_basis_by_two_eliminations(m)
        assert got == want and got.pivots() == want.pivots()
        assert_canonical(got._matrix, want.rows)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_vectors_annihilated_exactly(self, m):
        for row in kernel_basis(m).rows:
            assert all(v == 0 for v in m.mul_vec(row))


class TestExactness:
    def test_zero_then_injective(self):
        f = Matrix.zeros(QQ, 2, 0)
        g = Matrix.identity(QQ, 2)
        assert is_exact_at(f, g)

    def test_surjective_then_zero(self):
        f = mat([[1, 0, 2], [0, 1, 3]])
        g = Matrix.zeros(QQ, 0, 2)
        assert is_exact_at(f, g)

    def test_middle_example(self):
        f = mat([[1], [0]])
        g = mat([[0, 1]])
        assert is_exact_at(f, g)

    def test_not_exact(self):
        f = mat([[1], [0]])
        g = mat([[1, 0]])
        assert not is_exact_at(f, g)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            is_exact_at(mat([[1]]), mat([[1, 2]]))

    def test_agrees_with_literal_subspace_comparison(self):
        rng = random.Random(5)
        for _ in range(120):
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            f = random_matrix(rng, b, a)
            g = random_matrix(rng, c, b)
            literal = subspace_from_rows(QQ, b, f.transpose().data) == kernel_basis(g)
            assert is_exact_at(f, g) == literal


class TestMatrixOps:
    def test_compose_identity(self):
        m = mat([[1, 2], [3, 4]])
        assert Matrix.identity(QQ, 2) @ m == m
        assert m @ Matrix.identity(QQ, 2) == m

    def test_injective_surjective_flags(self):
        assert mat([[1], [0]]).is_injective()
        assert not mat([[1], [0]]).is_surjective()
        assert mat([[1, 0]]).is_surjective()
        assert Matrix.zeros(QQ, 3, 0).is_injective()

    def test_inverse(self):
        m = mat([[1, 1], [0, 1]])
        assert m @ m.inverse() == Matrix.identity(QQ, 2)

    def test_zero_width_products(self):
        a = Matrix.zeros(QQ, 0, 2)
        b = Matrix.zeros(QQ, 2, 3)
        assert (a @ b).rows == 0 and (a @ b).cols == 3
        assert Matrix.zeros(QQ, 0, 0).is_invertible()


class TestFormat:
    @pytest.mark.parametrize("value, text", [
        (Fraction(-3, 4), "-3/4"),
        (Fraction(12), "12"),
        (Fraction(-(10**5000), 7), "-1" + "0" * 5000 + "/7"),
        (Fraction(10**4000 + 1, 10**4500 + 3),
         "1" + "0" * 3999 + "1/1" + "0" * 4499 + "3"),
    ])
    def test_rationals_print_exactly_past_the_digit_limit(self, value, text):
        assert QQ.format(value) == text
        m = Matrix(QQ, 1, 1, [[value]])
        assert entry_text(m) == [[text]]
        assert repr(m) == f"[[{text}]]"

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_entry_text_is_the_format_of_each_value(self, field, data):
        # the rows share one denominator; each entry prints in lowest terms
        rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        F = data.draw(field_rows(field, rows, cols))
        m = Matrix(field, rows, cols, F)
        expected = [[field.format(v) for v in row] for row in F]
        assert entry_text(m) == expected
        assert repr(m) == "[" + ", ".join("[" + ", ".join(r) + "]" for r in expected) + "]"


class TestSubspace:
    def test_equality_agrees_with_double_inclusion(self):
        rng = random.Random(11)
        for _ in range(80):
            ambient = rng.randint(1, 6)
            a = subspace_from_rows(
                QQ, ambient,
                [[Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
                 for _ in range(rng.randint(0, 3))],
            )
            b = subspace_from_rows(
                QQ, ambient,
                [[Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
                 for _ in range(rng.randint(0, 3))],
            )
            mutual = all(b.contains(r) for r in a.rows) and all(
                a.contains(r) for r in b.rows
            )
            assert (a == b) == mutual

    def test_coordinates_roundtrip(self):
        basis = subspace_from_rows(QQ, 3, [[1, 0, 2], [0, 1, 3]])
        vec = basis.linear_combination([Fraction(2), Fraction(-1)])
        assert basis.coordinates(vec) == (Fraction(2), Fraction(-1))

    def test_coordinates_rejects_outside_vectors(self):
        basis = subspace_from_rows(QQ, 2, [[1, 0]])
        with pytest.raises(ValueError):
            basis.coordinates((Fraction(0), Fraction(1)))


class TestPrimeField:
    def test_arithmetic(self):
        f5 = PrimeField(5)
        a = f5.coerce(3)
        assert a + a == f5.coerce(1)
        assert a / a == f5.one
        assert f5.coerce("2/3") == f5.coerce(2) / f5.coerce(3)
        assert -f5.coerce(1) == f5.coerce(4)

    def test_quotients_coerce_to_residues(self):
        f5 = PrimeField(5)
        assert f5.coerce("2/3") == f5.coerce(Fraction(2, 3)) == FpElement(4, 5)
        assert f5.coerce("-1/-2") == f5.coerce(Fraction(1, 2)) == FpElement(3, 5)
        for value in ("1/5", Fraction(1, 5), "3/0", "2/-10"):
            with pytest.raises(ZeroDivisionError, match=r"^division by zero in GF\(p\)$"):
                f5.coerce(value)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_primality_agrees_with_trial_division_below_1e5(self):
        limit = 10**5
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, int(limit ** 0.5) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
        assert [n for n in range(limit) if _is_prime(n)] == [
            n for n in range(limit) if sieve[n]]

    def test_large_primes_accepted(self):
        assert PrimeField(10**18 + 3).p == 10**18 + 3
        assert _is_prime(PRIME_BOUND - 168)  # the largest prime below the bound

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, PRIME_BOUND - 2])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers, the smallest strong pseudoprime to bases
        # 2, 3, 5 and 7, and an odd composite just below the bound
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)

    def test_modulus_at_the_bound_rejected_with_the_bound(self):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            PrimeField(PRIME_BOUND)

    def test_kernel_over_f5(self):
        f5 = PrimeField(5)
        m = Matrix.build(f5, [[1, 4]])
        k = kernel_basis(m)
        assert k.dim == 1
        assert all(v == f5.zero for v in m.mul_vec(k.rows[0]))

    def test_rank_over_f5_sees_modular_collapse(self):
        f5 = PrimeField(5)
        # rows differ by a multiple of 5, so they collapse mod 5
        assert Matrix.build(f5, [[1, 2], [6, 7]]).rank() == 1
        assert Matrix.build(QQ, [[1, 2], [6, 7]]).rank() == 2

    @pytest.mark.parametrize("p", [2, 5, 65521, 10**18 + 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rank_is_the_pivot_count_of_the_full_reduction(self, p, data):
        """`Matrix.rank` over GF(p), a forward elimination only, is the
        pivot count of the full `_rref` and of field arithmetic. Drawn rows
        are partly combinations of the others, and every shape from 0x0 to
        6x6 may be drawn."""
        field = PrimeField(p)
        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        F = data.draw(field_rows(field, rows, cols))
        m = Matrix(field, rows, cols, F)
        assert m.rank() == len(_rref(field, list(m._ints), cols)) \
            == len(gauss_jordan(field, F, cols)[1])

    @pytest.mark.parametrize("p", [2, 5, 65521, 10**18 + 3])
    def test_rank_of_empty_zero_and_deficient_matrices(self, p):
        field = PrimeField(p)
        q = p - 1  # a pivot other than 1: -1 mod p, or 1 when p = 2
        cases = [
            (Matrix.zeros(field, 0, 3), 0),
            (Matrix.zeros(field, 3, 0), 0),
            (Matrix.zeros(field, 0, 0), 0),
            (Matrix.zeros(field, 3, 3), 0),
            # row 2 is q times row 0 plus row 1, and column 0 is zero
            (Matrix.build(field, [[0, q, 2, 1], [0, 0, q, 3],
                                  [0, q * q, 2 * q + q, q + 3]]), 2),
            (Matrix.build(field, [[q, 1], [1, q], [1, 1]]), 1 if p == 2 else 2),
        ]
        for m, expected in cases:
            assert m.rank() == expected == len(gauss_jordan(field, m.data, m.cols)[1])

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            FpElement(1, 5) + FpElement(1, 7)
