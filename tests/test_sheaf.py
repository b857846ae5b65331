import functools
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellsheaf.morphism
import cellsheaf.sheaf
from cellsheaf import (
    AxiomReport,
    CellularSheaf,
    CoverCheck,
    DirectLimitStalk,
    FunctorialityError,
    GlueConflictError,
    Matrix,
    OpenSet,
    PrimeField,
    QQ,
    Section,
    SectionSpace,
    ShapeError,
    StalkReport,
    ValidationError,
    build_morphism,
    build_poset,
    build_sheaf,
    constant_sheaf,
    empty_open,
    enumerate_opens,
    glue,
    kernel_basis,
    open_star,
    restrict_section,
    restriction_matrix,
    section_from_value,
    sections_over,
    stalk_at,
    stalk_direct_limit,
    stalk_map_direct_limit,
    subspace_from_rows,
    union_of_stars,
    verify_base_sheaf_axioms,
    verify_sheaf_axioms_extended,
    whole_space,
)

from helpers import (
    CORE_FIELDS,
    assert_value_record,
    posets,
    random_matrix,
    random_natural_components,
    random_poset,
    random_sheaf,
    rational,
    twisted_copy,
)
import oracles
from oracles import (
    sections_over_all_pairs,
    sections_over_by_covers,
    stalk_direct_limit_dense,
)


def square_poset():
    return build_poset(
        ["p", "q1", "q2", "r"],
        [("p", "q1"), ("p", "q2"), ("q1", "r"), ("q2", "r")],
    )


def square_sheaf():
    """dims (2,1,1,1); both chains from p compose to [[6, 6]]."""
    return build_sheaf(
        square_poset(),
        {"p": 2, "q1": 1, "q2": 1, "r": 1},
        {
            ("p", "q1"): Matrix.build(QQ, [[3, 3]]),
            ("p", "q2"): Matrix.build(QQ, [[2, 2]]),
            ("q1", "r"): Matrix.build(QQ, [[2]]),
            ("q2", "r"): Matrix.build(QQ, [[3]]),
        },
    )


def two_chain_sheaf(entry):
    base = build_poset("ab", [("a", "b")])
    return build_sheaf(
        base, {"a": 1, "b": 1}, {("a", "b"): Matrix.build(QQ, [[entry]])}
    )


def stalk_holds(report) -> bool:
    """The two checks `cellsheaf stalk` makes: the point value and the
    direct limit have one dimension, and the comparison is invertible."""
    return report.theorem_dim == report.oracle_dim and report.iso_witness.is_invertible()


class TestBuild:
    def test_constant_sheaf_valid_on_random_posets(self):
        rng = random.Random(0)
        for _ in range(10):
            sheaf = constant_sheaf(random_poset(rng, rng.randint(1, 6)), 2)
            for p, q in sheaf.hasse:
                assert sheaf.restriction(p, q) == Matrix.identity(QQ, 2)

    def test_identity_on_diagonal(self):
        sheaf = square_sheaf()
        for e in sheaf.base.elements:
            assert sheaf.restriction(e, e) == Matrix.identity(QQ, sheaf.dim(e))

    def test_path_dependent_square_rejected_with_witness(self):
        base = square_poset()
        with pytest.raises(FunctorialityError) as err:
            build_sheaf(
                base,
                {"p": 1, "q1": 1, "q2": 1, "r": 1},
                {
                    ("p", "q1"): Matrix.build(QQ, [[1]]),
                    ("p", "q2"): Matrix.build(QQ, [[1]]),
                    ("q1", "r"): Matrix.build(QQ, [[2]]),
                    ("q2", "r"): Matrix.build(QQ, [[3]]),
                },
            )
        assert (err.value.low, err.value.high) == ("p", "r")
        assert {err.value.left, err.value.right} == {
            Matrix.build(QQ, [[2]]), Matrix.build(QQ, [[3]]),
        }

    @pytest.mark.parametrize("d_top, pair, left, right", [
        (3, ("d0", "d3"), 3, 1),
        (1, ("u0", "u6"), 2, 1),
    ])
    def test_first_disagreement_in_visiting_order(self, d_top, pair, left, right):
        # a stacked double diamond u (only its upper diamond disagrees) and
        # a diamond d, listed top-first so that carrier order is not the
        # visiting order; q runs by (|down-set|, index), p likewise
        names = ["u3", "u6", "u5", "u4", "u2", "u1", "u0", "d3", "d2", "d1", "d0"]
        pairs = [("u0", "u1"), ("u0", "u2"), ("u1", "u3"), ("u2", "u3"),
                 ("u3", "u4"), ("u3", "u5"), ("u4", "u6"), ("u5", "u6"),
                 ("d0", "d1"), ("d0", "d2"), ("d1", "d3"), ("d2", "d3")]
        maps = {e: Matrix.build(QQ, [[1]]) for e in pairs}
        maps[("u5", "u6")] = Matrix.build(QQ, [[2]])
        maps[("d2", "d3")] = Matrix.build(QQ, [[d_top]])
        with pytest.raises(FunctorialityError) as err:
            build_sheaf(build_poset(names, pairs), dict.fromkeys(names, 1), maps)
        assert (err.value.low, err.value.high) == pair
        assert err.value.left == Matrix.build(QQ, [[left]])
        assert err.value.right == Matrix.build(QQ, [[right]])

    def test_fan_accepts_arbitrary_maps(self):
        # no chains of length two, so nothing can disagree
        rng = random.Random(1)
        base = build_poset(["q", "p1", "p2", "p3"],
                           [("q", "p1"), ("q", "p2"), ("q", "p3")])
        for _ in range(5):
            dims = {"q": 2, "p1": 1, "p2": 3, "p3": 2}
            maps = {
                ("q", x): random_matrix(rng, dims[x], 2)
                for x in ["p1", "p2", "p3"]
            }
            build_sheaf(base, dims, maps)

    def test_shape_mismatch_rejected(self):
        base = build_poset("ab", [("a", "b")])
        with pytest.raises(ShapeError):
            build_sheaf(base, {"a": 2, "b": 1},
                        {("a", "b"): Matrix.build(QQ, [[1]])})

    def test_missing_map_rejected_unless_zero_dim(self):
        base = build_poset("ab", [("a", "b")])
        with pytest.raises(ShapeError):
            build_sheaf(base, {"a": 1, "b": 1}, {})
        sheaf = build_sheaf(base, {"a": 1, "b": 0}, {})
        assert sheaf.restriction("a", "b") == Matrix.zeros(QQ, 0, 1)

    def test_non_covering_pair_key_rejected(self):
        base = build_poset("abc", [("a", "b"), ("b", "c")])
        with pytest.raises(ShapeError):
            build_sheaf(
                base, {"a": 1, "b": 1, "c": 1},
                {
                    ("a", "b"): Matrix.build(QQ, [[1]]),
                    ("b", "c"): Matrix.build(QQ, [[1]]),
                    ("a", "c"): Matrix.build(QQ, [[1]]),
                },
            )

    def test_functoriality_of_derived_maps(self):
        rng = random.Random(2)
        for _ in range(15):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(2, 6)))
            for p in sheaf.base.elements:
                for q in sheaf.base.elements:
                    for r in sheaf.base.elements:
                        if sheaf.base.leq(p, q) and sheaf.base.leq(q, r):
                            assert sheaf.restriction(p, r) == (
                                sheaf.restriction(q, r) @ sheaf.restriction(p, q)
                            )


def diamond_poset(rng: random.Random):
    """A graded poset of three or four layers of two or three points, each
    point above one or more points of the layer below, plus up to two
    generating pairs that skip a layer. Two points of a layer that share a
    point below and a point above make a diamond. The carrier is shuffled,
    so index order is not the visiting order."""
    layers = [[f"x{k}_{i}" for i in range(rng.randint(2, 3))]
              for k in range(rng.randint(3, 4))]
    pairs = []
    for lower, upper in zip(layers, layers[1:]):
        for x in upper:
            chosen = [y for y in lower if rng.random() < 0.6] or [rng.choice(lower)]
            pairs += [(y, x) for y in chosen]
    skips = [(a, b) for k, layer in enumerate(layers) for higher in layers[k + 2:]
             for a in layer for b in higher]
    pairs += rng.sample(skips, min(len(skips), rng.randint(0, 2)))
    names = [x for layer in layers for x in layer]
    rng.shuffle(names)
    return build_poset(names, pairs)


class TestMeetCheck:
    """build_sheaf checks chains only at the maximal points of the meets of
    lower covers, and restriction derives the other maps on demand; the
    eager builder in tests/oracles.py is the reference for both."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]),
           st.integers(0, 2**32 - 1))
    def test_agrees_with_the_eager_builder(self, field, seed):
        rng = random.Random(seed)
        base = diamond_poset(rng)
        valid = random_sheaf(rng, base, field=field)
        if rng.random() < 0.5:
            # over Q, maps into one point then have several denominators,
            # so the square test cross-multiplies by more than 1
            valid = twisted_copy(rng, valid)[0]
        dims = valid.dims
        edge_maps = {(p, q): valid.restriction(p, q) for p, q in valid.hasse}
        # covering pairs (z, q) at which two chains into q meet
        covers = {q: [z for z, y in valid.hasse if y == q] for q in base.elements}
        targets = [(z, q) for z, q in valid.hasse if dims[z] and dims[q] and any(
            y != z and base.down_set(y) & base.down_set(z) for y in covers[q])]
        # about half of the cases end up not functorial
        if targets and rng.random() < 0.9:
            p, q = rng.choice(targets)
            data = [list(row) for row in edge_maps[(p, q)].data]
            data[rng.randrange(dims[q])][rng.randrange(dims[p])] += field.one
            edge_maps[(p, q)] = Matrix(field, dims[q], dims[p], data)
        try:
            expected = oracles.build_sheaf_eager(base, dims, edge_maps, field)
        except FunctorialityError as oracle_error:
            with pytest.raises(FunctorialityError) as err:
                build_sheaf(base, dims, edge_maps, field)
            got, want = err.value, oracle_error
            assert (got.low, got.high) == (want.low, want.high)
            assert (got.left, got.right) == (want.left, want.right)
            # on data that is not functorial, restriction still derives
            # through the first lower cover, as the unchecked oracle does
            first = oracles.build_sheaf_eager(base, dims, edge_maps, field, check=False)
            hand = CellularSheaf(base, field, dims, edge_maps, valid.hasse)
            for (p, q), m in reversed(list(first.items())):
                assert hand.restriction(p, q) == m
        else:
            sheaf = build_sheaf(base, dims, edge_maps, field)
            assert len(expected) == len(base.related_pairs())
            for (p, q), m in reversed(list(expected.items())):
                assert sheaf.restriction(p, q) == m

    def test_a_failed_square_is_never_overruled(self):
        # the witness scan decides with the square test itself, so a square
        # test that fails rejects the sheaf, whatever the products are
        with mock.patch.object(cellsheaf.sheaf, "_products_agree", lambda *mats: False), \
                pytest.raises(FunctorialityError) as err:
            square_sheaf()
        assert (err.value.low, err.value.high) == ("p", "r")

    def test_deep_chain_is_derived_without_recursion(self):
        n, field = 1500, PrimeField(101)
        names = [f"c{i}" for i in range(n)]
        base = build_poset(names, list(zip(names, names[1:])))
        two = Matrix.build(field, [[2]])
        sheaf = build_sheaf(base, dict.fromkeys(names, 1),
                            dict.fromkeys(zip(names, names[1:]), two), field)
        assert sheaf.restriction(names[0], names[-1]) == Matrix.build(
            field, [[pow(2, n - 1, 101)]])

    def test_non_comparable_and_unknown_points_keep_the_message(self):
        sheaf = square_sheaf()
        for p, q in [("q1", "q2"), ("r", "p"), ("p", "nowhere"), ("nowhere", "p")]:
            with pytest.raises(ValidationError) as err:
                sheaf.restriction(p, q)
            assert str(err.value) == f"{p} <= {q} does not hold in the base"

    def test_equality_compares_the_covering_data(self):
        sheaf, again = square_sheaf(), square_sheaf()
        assert sheaf.restriction("p", "r") == Matrix.build(QQ, [[6, 6]])
        assert sheaf == again  # one has derived a map, the other has not
        twisted = build_sheaf(
            square_poset(), sheaf.dims,
            {**{e: sheaf.restriction(*e) for e in sheaf.hasse},
             ("q1", "r"): Matrix.build(QQ, [[4]]),
             ("p", "q1"): Matrix.build(QQ, [[Fraction(3, 2), Fraction(3, 2)]])},
        )
        assert twisted.restriction("p", "r") == sheaf.restriction("p", "r")
        assert twisted != sheaf


class TestSections:
    def test_constant_sheaf_on_connected_poset_has_dim_one_globally(self):
        sheaf = constant_sheaf(square_poset(), 1)
        assert sections_over(sheaf, whole_space(sheaf.base)).dim == 1

    def test_square_union_is_an_equalizer(self):
        sheaf = square_sheaf()
        U = union_of_stars(sheaf.base, ["q1", "q2"])
        space = sections_over(sheaf, U)
        assert space.dim == 1
        section = space.basis_sections()[0]
        s1, s2 = section.components["q1"], section.components["q2"]
        # images at the top agree: 2*s1 = 3*s2
        assert Fraction(2) * s1[0] == Fraction(3) * s2[0]

    def test_square_global_sections(self):
        sheaf = square_sheaf()
        assert sections_over(sheaf, whole_space(sheaf.base)).dim == 2

    def test_empty_open(self):
        sheaf = square_sheaf()
        assert sections_over(sheaf, empty_open(sheaf.base)).dim == 0

    def test_fan_union_of_maximal_stars_is_full_product(self):
        rng = random.Random(3)
        base = build_poset(["q", "p1", "p2", "p3"],
                           [("q", "p1"), ("q", "p2"), ("q", "p3")])
        dims = {"q": 2, "p1": 1, "p2": 2, "p3": 1}
        maps = {("q", x): random_matrix(rng, dims[x], 2) for x in ["p1", "p2", "p3"]}
        sheaf = build_sheaf(base, dims, maps)
        U = union_of_stars(base, ["p1", "p2", "p3"])
        assert sections_over(sheaf, U).dim == 4
        assert sections_over(sheaf, whole_space(base)).dim == 2

    def test_covering_pair_assembly_matches_all_pairs_limit(self):
        rng = random.Random(4)
        for _ in range(12):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 6)))
            for U in enumerate_opens(sheaf.base):
                basis = sections_over(sheaf, U).basis
                assert basis == sections_over_by_covers(sheaf, U)
                assert basis == sections_over_all_pairs(sheaf, U)

    def test_star_sections_project_isomorphically_to_the_point(self):
        rng = random.Random(5)
        for _ in range(10):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 5)))
            for p in sheaf.base.elements:
                space = sections_over(sheaf, open_star(sheaf.base, p))
                offs = space.offsets()
                proj = Matrix(
                    QQ, sheaf.dim(p), space.dim,
                    [
                        [row[offs[p] + i] for row in space.basis.rows]
                        for i in range(sheaf.dim(p))
                    ],
                )
                assert space.dim == sheaf.dim(p)
                assert proj.is_invertible()

    def test_section_invariant_rejected_for_incompatible_family(self):
        sheaf = two_chain_sheaf(2)
        U = whole_space(sheaf.base)
        with pytest.raises(ValidationError):
            Section(sheaf, U, {"a": [1], "b": [3]})
        Section(sheaf, U, {"a": [1], "b": [2]})

    def test_open_set_from_another_carrier_rejected(self):
        sheaf = two_chain_sheaf(2)
        other = build_poset("ab", [])
        with pytest.raises(ValidationError):
            sections_over(sheaf, whole_space(other))

    def test_sections_on_another_carrier_rejected(self):
        # P is p < q and Q the antichain on the same names: {p} is open in Q
        # only, so no section of a sheaf on P lives over it
        P, Q = build_poset("pq", [("p", "q")]), build_poset("pq", [])
        sheaf = constant_sheaf(P, 1)
        t = Section(sheaf, whole_space(P), {"p": [1], "q": [1]})
        message = "open set lives on a different carrier"
        with pytest.raises(ValidationError, match=message):
            Section(sheaf, OpenSet(Q, ["p"]), {"p": [1]})
        with pytest.raises(ValidationError, match=message):
            restrict_section(t, OpenSet(Q, ["p"]))
        with pytest.raises(ValidationError, match=message):
            glue(sheaf, [whole_space(Q)], [t])
        # an equal carrier built apart is the same carrier
        again = build_poset("pq", [("p", "q")])
        piece = restrict_section(t, open_star(again, "q"))
        assert piece.components == {"q": (QQ.one,)}
        assert glue(sheaf, [whole_space(again)], [t]) == t

    def test_sections_of_unequal_sheaves_are_unequal(self):
        # over the star of q only q's value is stored, so the sheaves'
        # different maps p -> q must tell the two sections apart
        P = build_poset("pq", [("p", "q")])
        ident = constant_sheaf(P, 1)
        zero = build_sheaf(P, {"p": 1, "q": 1}, {("p", "q"): Matrix.zeros(QQ, 1, 1)})
        star = open_star(P, "q")
        assert ident != zero
        assert Section(ident, star, {"q": [1]}) != Section(zero, star, {"q": [1]})
        # an equal sheaf built apart gives an equal section
        assert Section(ident, star, {"q": [1]}) == Section(constant_sheaf(P, 1), star, {"q": [1]})

    def test_coordinates_of_a_section_from_elsewhere_rejected(self):
        P = build_poset("pq", [("p", "q")])
        sheaf = build_sheaf(P, {"p": 1, "q": 1}, {("p", "q"): Matrix.build(QQ, [[2]])})
        W, star = whole_space(P), open_star(P, "q")
        s = Section(sheaf, W, {"p": [1], "q": [2]})
        with pytest.raises(ValidationError, match="section lives on a different open set"):
            sections_over(sheaf, star).coordinates_of(s)  # read p's value as q's
        with pytest.raises(ValidationError, match="section lives on a different open set"):
            sections_over(sheaf, W).coordinates_of(restrict_section(s, star))
        other = constant_sheaf(P, 1)
        with pytest.raises(ValidationError, match="section belongs to a different sheaf"):
            sections_over(other, W).coordinates_of(s)
        with pytest.raises(ValidationError, match="section belongs to a different sheaf"):
            stalk_direct_limit(other, "q").germ(s)
        same = build_sheaf(P, {"p": 1, "q": 1}, {("p", "q"): Matrix.build(QQ, [[2]])})
        assert sections_over(same, W).coordinates_of(s) == (QQ.one,)


class TestMinimalPointSolve:
    """sections_over solves on the minimal points of the open and expands;
    both covering-pair and all-pairs systems are its oracles. The carrier is
    shuffled, so carrier order need not be the order points are visited in."""

    @settings(max_examples=60, deadline=None)
    @given(posets(max_n=7, shuffled=True), st.sampled_from([QQ, PrimeField(2), PrimeField(3),
                                             PrimeField(101)]),
           st.integers(0, 2**32 - 1))
    def test_matches_both_oracles_on_a_smaller_system(self, base, field, seed):
        sheaf = random_sheaf(random.Random(seed), base, field=field)
        solved = []
        production = cellsheaf.sheaf.kernel_basis

        def recording(m):
            solved.append(m)
            return production(m)

        cellsheaf.sheaf.kernel_basis = recording
        try:
            for U in enumerate_opens(base):
                solved.clear()
                basis = sections_over(sheaf, U).basis
                assert basis == sections_over_by_covers(sheaf, U)
                assert basis == sections_over_all_pairs(sheaf, U)
                [m] = solved
                minimal = [x for x in U.members
                           if not any(base.lt(y, x) for y in U.members)]
                assert m.cols == sum(sheaf.dim(x) for x in minimal)
                cover_rows = sum(sheaf.dim(q) for p, q in sheaf.hasse
                                 if p in U.members and q in U.members)
                assert m.rows <= cover_rows
        finally:
            cellsheaf.sheaf.kernel_basis = production

    @settings(max_examples=100, deadline=None)
    @given(posets(max_n=7, shuffled=True), st.integers(0, 2**32 - 1))
    def test_twisted_copies_match_both_oracles(self, base, seed):
        # a twist by invertible point maps over Q puts maps over different
        # denominators into one point, so each side of an equation row is
        # scaled; about one example in five meets such a point
        rng = random.Random(seed)
        sheaf = twisted_copy(rng, random_sheaf(rng, base))[0]
        for U in enumerate_opens(base):
            basis = sections_over(sheaf, U).basis
            assert basis == sections_over_by_covers(sheaf, U)
            assert basis == sections_over_all_pairs(sheaf, U)

    def test_maps_over_coprime_denominators(self):
        # random sheaves seldom meet two maps over different denominators at
        # one point; here each denominator has a prime the other lacks, so
        # each equation row scales both of its blocks
        base = build_poset("abc", [("a", "c"), ("b", "c")])
        sheaf = build_sheaf(base, {"a": 2, "b": 2, "c": 2}, {
            ("a", "c"): Matrix.build(QQ, [["1/2", 1], [0, "3/4"]]),
            ("b", "c"): Matrix.build(QQ, [["1/3", 0], ["2/9", 1]]),
        })
        for U in enumerate_opens(base):
            basis = sections_over(sheaf, U).basis
            assert basis == sections_over_by_covers(sheaf, U)
            assert basis == sections_over_all_pairs(sheaf, U)
        assert sections_over(sheaf, whole_space(base)).dim == 2

    def test_constant_sheaf_on_14x14_product_grid(self):
        k, d = 14, 3
        names = [f"{i}_{j}" for i in range(k) for j in range(k)]
        pairs = [(f"{i}_{j}", f"{i + 1}_{j}") for i in range(k - 1) for j in range(k)]
        pairs += [(f"{i}_{j}", f"{i}_{j + 1}") for i in range(k) for j in range(k - 1)]
        sheaf = constant_sheaf(build_poset(names, pairs), d)
        space = sections_over(sheaf, whole_space(sheaf.base))
        constant = tuple(
            tuple(QQ.one if c % d == i else QQ.zero for c in range(d * k * k))
            for i in range(d)
        )
        assert space.dim == d
        assert space.basis.rows == constant


class TestLoweredSectionSpaces:
    """Section spaces, their coordinates, restriction matrices and the
    covering-pair check run on ints; the field-object versions in
    tests/oracles.py are the reference."""

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), twist=st.booleans())
    def test_agrees_with_field_arithmetic(self, field, seed, twist):
        rng = random.Random(seed)

        def entry():
            if field == QQ:
                return rational(rng)
            return field.coerce(rng.choice([rng.randint(-3, 3), rng.randrange(field.p)]))

        base = random_poset(rng, rng.randint(2, 5))
        plain = random_sheaf(rng, base, field=field)
        twisted = twisted_copy(rng, plain)[0]
        sheaf = twisted if twist else plain
        opens = enumerate_opens(base)
        # every open, each with one open inside it, so that many equation
        # bands are written; over Q the twisted copy's maps into one point
        # have different denominators, so its bands are scaled on both sides
        for W in opens:
            assert sections_over(twisted, W).basis == sections_over_by_covers(twisted, W)
            V = rng.choice([X for X in opens if X <= W])
            got = restriction_matrix(sheaf, W, V)
            want = oracles.restriction_matrix_by_field_ops(sheaf, W, V)
            assert got == want and got.data == want.data
        U = rng.choice(opens[len(opens) // 2:])  # the larger half

        basis = sections_over(sheaf, U).basis
        width = basis.ambient_dim
        inside = [field.zero] * width
        for row in basis.rows:
            c = entry()
            inside = [a + c * b for a, b in zip(inside, row)]
        vectors = [inside, [entry() for _ in range(width)]]
        # a unit vector off the pivots never lies in a reduced echelon span
        off = [j for j in range(width) if j not in basis.pivots()]
        if off:
            unit = [field.zero] * width
            unit[rng.choice(off)] = field.one
            vectors.append(unit)
            with pytest.raises(ValueError):
                basis.coordinates(unit)
        assert basis.coordinates(inside) == oracles.coordinates_by_field_ops(
            basis.rows, inside)
        for vec in vectors:
            residue = oracles.reduce_by_field_ops(basis.rows, vec)
            assert basis.reduce(vec) == residue
            assert basis.contains(vec) == (not any(residue))
            try:
                coords = oracles.coordinates_by_field_ops(basis.rows, vec)
            except ValueError:
                with pytest.raises(ValueError):
                    basis.coordinates(vec)
            else:
                assert basis.coordinates(vec) == coords

        # the covering-pair check passes on the sections; with a vector added
        # that is most likely no section, it names the first bad pair
        assert oracles.first_incompatibility_by_field_ops(sheaf, U, basis.rows) is None
        families = [*basis.rows, [entry() for _ in range(width)]]
        space = SectionSpace(sheaf, U, subspace_from_rows(field, width, families))
        message = oracles.first_incompatibility_by_field_ops(sheaf, U, space.basis.rows)
        check = functools.partial(
            cellsheaf.sheaf._check_families, sheaf, space.basis._matrix._ints,
            space.basis._matrix._den, space.starts,
            cellsheaf.sheaf._covering_pairs(sheaf, U))
        if message is None:
            check()
        else:
            with pytest.raises(ValidationError) as err:
                check()
            assert str(err.value) == message

    def test_incompatible_data_names_the_pair_and_both_values(self):
        # read off the field-object check that Section made before
        fake = TestNegativeControls()._fake_path_dependent_sheaf()
        with pytest.raises(ValidationError) as err:
            sections_over(fake, whole_space(fake.base))
        assert str(err.value) == (
            "family is not compatible along q2 <= r: [Fraction(3, 1)] vs [Fraction(2, 1)]")


class TestSolveAgainstThreeEliminations:
    """`sections_over` solves with two eliminations and keeps its layout,
    and `restriction_matrix` reads each family at the target's pivots; the
    three-elimination solve and the restricted copy in tests/oracles.py
    must give the same bases, layouts, matrices and direct limits."""

    @settings(max_examples=40, deadline=None)
    @given(posets(shuffled=True), st.sampled_from(CORE_FIELDS), st.integers(0, 2**32 - 1))
    def test_bases_layouts_restrictions_and_limits_agree(self, base, field, seed):
        sheaf = random_sheaf(random.Random(seed), base, field=field)
        opens = enumerate_opens(base)
        want = {U.mask: oracles.sections_over_three_eliminations(sheaf, U) for U in opens}
        for U in opens:
            space = sections_over(sheaf, U)
            assert space.basis == want[U.mask].basis
            assert space.starts == want[U.mask].starts
            assert space.offsets() == want[U.mask].offsets()
        for U, V in itertools.product(opens, repeat=2):
            if V <= U:
                assert restriction_matrix(sheaf, U, V) == \
                    oracles.restriction_matrix_by_restricted_copy(want[U.mask], want[V.mask])
        with mock.patch.object(cellsheaf.sheaf, "sections_over",
                               oracles.sections_over_three_eliminations), \
                mock.patch.object(cellsheaf.sheaf, "restriction_matrix",
                                  oracles.restriction_matrix_three_eliminations):
            limits = [stalk_direct_limit(sheaf, x) for x in base.elements]
        for x, limit in zip(base.elements, limits):
            got = stalk_direct_limit(sheaf, x)
            assert (got.free_columns, got.total, got.solve, got.witness) == \
                (limit.free_columns, limit.total, limit.solve, limit.witness)

    @settings(max_examples=30, deadline=None)
    @given(posets(shuffled=True), st.sampled_from(CORE_FIELDS), st.integers(0, 2**32 - 1))
    def test_each_solve_checks_its_basis_along_every_covering_pair_once(self, base, field,
                                                                       seed):
        sheaf = random_sheaf(random.Random(seed), base, field=field)
        calls = []
        check = cellsheaf.sheaf._check_families

        def recording(sheaf, families, den, offs, pairs):
            calls.append((families, dict(offs), list(pairs)))
            return check(sheaf, families, den, offs, pairs)

        with mock.patch.object(cellsheaf.sheaf, "_check_families", recording):
            for U in enumerate_opens(base):
                calls.clear()
                basis = sections_over(sheaf, U).basis
                sections_over(sheaf, U)
                assert calls == [(basis._matrix._ints,
                                  cellsheaf.sheaf._block_starts(sheaf._dims, U.sort_key()[1])[0],
                                  cellsheaf.sheaf._covering_pairs(sheaf, U))]

    def test_a_family_leaving_the_target_space_raises(self):
        # sections over {b, c} of the constant chain a < b < c agree at b and
        # c; the family (1, 1, 2) over the whole chain does not restrict to one
        base = build_poset("abc", [("a", "b"), ("b", "c")])
        sheaf = constant_sheaf(base, 1)
        U, V = whole_space(base), open_star(base, "b")
        fake = SectionSpace(sheaf, U, subspace_from_rows(QQ, 3, [[1, 1, 2]]))
        with pytest.raises(ValueError) as want:
            oracles.restriction_matrix_by_restricted_copy(fake, sections_over(sheaf, V))
        sheaf._section_cache[U.mask] = fake
        with pytest.raises(ValueError) as got:
            restriction_matrix(sheaf, U, V)
        assert str(got.value) == str(want.value) == "vector does not lie in the subspace"

    @settings(max_examples=60, deadline=None)
    @given(posets(shuffled=True), st.sampled_from(CORE_FIELDS), st.integers(0, 2**32 - 1))
    def test_an_added_family_raises_exactly_when_the_copy_does(self, base, field, seed):
        # a basis over U with one random family added: the restricted copy
        # and the read at the pivots fail together or agree
        rng = random.Random(seed)
        sheaf = random_sheaf(rng, base, field=field)
        opens = enumerate_opens(base)
        U = rng.choice(opens)
        V = rng.choice([W for W in opens if W <= U])
        space = sections_over(sheaf, U)
        width = space.basis.ambient_dim
        extra = [field.coerce(rng.randint(-2, 2)) for _ in range(width)]
        fake = SectionSpace(sheaf, U, subspace_from_rows(
            field, width, [*space.basis.rows, extra]))
        target = fake if V == U else sections_over(sheaf, V)
        try:
            want = oracles.restriction_matrix_by_restricted_copy(fake, target)
        except ValueError as err:
            want = str(err)
        sheaf._section_cache[U.mask] = fake
        sheaf._restriction_cache.clear()
        try:
            got = restriction_matrix(sheaf, U, V)
        except ValueError as err:
            got = str(err)
        assert got == want


class TestRestrictAndGlue:
    def _global_section(self, sheaf):
        return sections_over(sheaf, whole_space(sheaf.base)).basis_sections()[0]

    def test_restrict_to_same_open_is_identity(self):
        sheaf = square_sheaf()
        s = self._global_section(sheaf)
        assert restrict_section(s, s.open) == s

    def test_restrict_composes(self):
        sheaf = square_sheaf()
        s = self._global_section(sheaf)
        U1 = union_of_stars(sheaf.base, ["q1", "q2"])
        U2 = open_star(sheaf.base, "r")
        assert restrict_section(restrict_section(s, U1), U2) == restrict_section(s, U2)

    def test_restrict_requires_containment(self):
        sheaf = square_sheaf()
        s = restrict_section(self._global_section(sheaf), open_star(sheaf.base, "q1"))
        with pytest.raises(ValidationError):
            restrict_section(s, whole_space(sheaf.base))

    def test_square_glue_and_roundtrip(self):
        sheaf = square_sheaf()
        base = sheaf.base
        U1, U2 = open_star(base, "q1"), open_star(base, "q2")
        s1 = Section(sheaf, U1, {"q1": [Fraction(3)], "r": [Fraction(6)]})
        s2 = Section(sheaf, U2, {"q2": [Fraction(2)], "r": [Fraction(6)]})
        glued = glue(sheaf, [U1, U2], [s1, s2])
        assert glued.open.members == U1.members | U2.members
        assert restrict_section(glued, U1) == s1
        assert restrict_section(glued, U2) == s2

    def test_single_set_cover_returns_input(self):
        sheaf = square_sheaf()
        s = self._global_section(sheaf)
        assert glue(sheaf, [s.open], [s]) == s

    def test_conflicting_locals_report_witness(self):
        sheaf = square_sheaf()
        base = sheaf.base
        U1, U2 = open_star(base, "q1"), open_star(base, "q2")
        s1 = Section(sheaf, U1, {"q1": [Fraction(3)], "r": [Fraction(6)]})
        s2 = Section(sheaf, U2, {"q2": [Fraction(1)], "r": [Fraction(3)]})
        with pytest.raises(GlueConflictError) as err:
            glue(sheaf, [U1, U2], [s1, s2])
        assert err.value.element == "r"
        assert {err.value.left, err.value.right} == {(Fraction(6),), (Fraction(3),)}

    def test_glue_roundtrip_on_random_sheaves(self):
        rng = random.Random(6)
        for _ in range(10):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(2, 5)))
            space = sections_over(sheaf, whole_space(sheaf.base))
            if space.dim == 0:
                continue
            s = space.basis_sections()[0]
            cover = [open_star(sheaf.base, x) for x in sheaf.base.elements]
            pieces = [restrict_section(s, U) for U in cover]
            assert glue(sheaf, cover, pieces) == s


class TestStalks:
    def test_two_chain_zero_map(self):
        # neighbourhoods of a: only {a, b}; sections there are pairs (s, 0)
        report = stalk_at(two_chain_sheaf(0), "a")
        assert report.theorem_dim == report.oracle_dim == 1
        assert stalk_holds(report)

    def test_two_chain_identity_map(self):
        sheaf = two_chain_sheaf(1)
        for point in "ab":
            report = stalk_at(sheaf, point)
            assert report.theorem_dim == report.oracle_dim == 1
            assert stalk_holds(report)

    def test_maximal_point(self):
        sheaf = square_sheaf()
        report = stalk_at(sheaf, "r")
        assert report.theorem_dim == 1 and stalk_holds(report)

    def test_bottom_point_keeps_its_dimension(self):
        sheaf = square_sheaf()
        report = stalk_at(sheaf, "p")
        assert report.theorem_dim == report.oracle_dim == 2

    def test_zero_sheaf(self):
        base = square_poset()
        sheaf = build_sheaf(base, {e: 0 for e in base.elements}, {})
        for point in base.elements:
            report = stalk_at(sheaf, point)
            assert report.oracle_dim == 0 and stalk_holds(report)

    def test_random_sheaves_pass_everywhere(self):
        rng = random.Random(7)
        for _ in range(15):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 6)))
            for point in sheaf.base.elements:
                assert stalk_holds(stalk_at(sheaf, point))

    def test_germ_factors_through_the_point_value(self):
        # the germ of any section equals the witness applied to its value
        # at the point, i.e. every germ is represented over the point's star
        rng = random.Random(8)
        for _ in range(8):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 5)))
            for point in sheaf.base.elements:
                limit = stalk_direct_limit(sheaf, point)
                for U in enumerate_opens(sheaf.base):
                    if point not in U.members:
                        continue
                    for s in sections_over(sheaf, U).basis_sections():
                        expected = limit.witness.mul_vec(s.components[point])
                        assert limit.germ(s) == expected

    def test_locality_sections_with_equal_germs_agree(self):
        rng = random.Random(9)
        for _ in range(8):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(2, 5)))
            U = whole_space(sheaf.base)
            space = sections_over(sheaf, U)
            limits = {
                p: stalk_direct_limit(sheaf, p) for p in sheaf.base.elements
            }
            sections = space.basis_sections()
            for i, s in enumerate(sections):
                for t in sections[i + 1:]:
                    assert s != t
                    differs = any(
                        limits[p].germ(s) != limits[p].germ(t)
                        for p in U.members
                    )
                    assert differs

    def test_spread_section_is_compatible(self):
        sheaf = square_sheaf()
        s = section_from_value(sheaf, "p", [Fraction(1), Fraction(0)])
        assert s.components["q1"] == (Fraction(3),)
        assert s.components["r"] == (Fraction(6),)


def isolated_points_sheaf(k):
    """x < y plus k isolated points, every point of dimension 1."""
    names = ["x", "y"] + [f"i{j}" for j in range(k)]
    base = build_poset(names, [("x", "y")])
    return build_sheaf(base, {e: 1 for e in names},
                       {("x", "y"): Matrix.build(QQ, [[1]])})


class TestDirectLimitElimination:
    """stalk_direct_limit eliminates along the neighbourhood lattice in star
    coordinates; the dense elimination of every generator is its oracle."""

    # the dense oracle's cost grows steeply with the number of columns, so
    # larger limits are compared only in the isolated-point tests below
    MAX_DENSE_COLUMNS = 64

    @settings(max_examples=40, deadline=None)
    @given(posets(max_n=7), st.sampled_from([QQ, PrimeField(2), PrimeField(3),
                                             PrimeField(101)]),
           st.integers(0, 2**32 - 1))
    def test_matches_the_dense_elimination(self, base, field, seed):
        rng = random.Random(seed)
        source = random_sheaf(rng, base, field=field)
        target = random_sheaf(rng, base, field=field)
        mor = build_morphism(source, target,
                             random_natural_components(rng, source, target))
        dense = {}
        for sheaf in (source, target):
            for p in base.elements:
                limit = stalk_direct_limit(sheaf, p)
                if limit.total > self.MAX_DENSE_COLUMNS:
                    continue
                oracle = stalk_direct_limit_dense(sheaf, p)
                dense[(sheaf is source, p)] = oracle
                assert limit.neighbourhoods == oracle.neighbourhoods
                assert limit.offsets == oracle.offsets
                assert limit.total == oracle.total
                assert limit.free_columns == oracle.free_columns
                assert limit.witness == oracle.witness
                for _ in range(3):
                    big = [field.coerce(rng.randint(-3, 3)) for _ in range(limit.total)]
                    assert limit.project(big) == oracle.project(big)

        def by_oracle(sheaf, p, max_elements=20):
            return dense[(sheaf is source, p)]

        for p in base.elements:
            if (True, p) in dense and (False, p) in dense:
                induced = stalk_map_direct_limit(mor, p)[0]
                with mock.patch.object(cellsheaf.morphism, "stalk_direct_limit",
                                       by_oracle):
                    assert stalk_map_direct_limit(mor, p)[0] == induced

    def test_matches_the_dense_elimination_on_a_non_functorial_presentation(self):
        # noise on some restriction matrices makes the presentation
        # non-functorial, so relations among star coordinates appear; the
        # quotient must still be the one of the dense elimination
        rng = random.Random(11)
        real = cellsheaf.sheaf.restriction_matrix
        noise: dict = {}

        def noisy(sheaf, U, V):
            R = real(sheaf, U, V)
            key = (U.members, V.members)
            if key not in noise:
                noise[key] = random_matrix(rng, R.rows, R.cols) if rng.random() < 0.3 else None
            return R if noise[key] is None else R + noise[key]

        relations = 0
        with mock.patch.object(cellsheaf.sheaf, "restriction_matrix", noisy), \
                mock.patch.object(oracles, "restriction_matrix", noisy):
            for _ in range(12):
                sheaf = random_sheaf(rng, random_poset(rng, rng.randint(2, 5)))
                noise.clear()
                for p in sheaf.base.elements:
                    limit = stalk_direct_limit(sheaf, p)
                    oracle = stalk_direct_limit_dense(sheaf, p)
                    relations += limit.images.rows - limit.dim
                    assert limit.free_columns == oracle.free_columns
                    assert limit.witness == oracle.witness
                    big = [QQ.coerce(rng.randint(-3, 3)) for _ in range(limit.total)]
                    assert limit.project(big) == oracle.project(big)
        assert relations > 0

    def test_isolated_points_match_the_oracle_and_the_recorded_values(self):
        # free column 106 of 112 and the witness [[1]] at k = 5 were
        # recorded from the dense elimination before this path replaced it
        sheaf = isolated_points_sheaf(5)
        limit = stalk_direct_limit(sheaf, "x")
        oracle = stalk_direct_limit_dense(sheaf, "x")
        assert len(limit.neighbourhoods) == 32 and limit.total == 112
        assert limit.free_columns == oracle.free_columns == (106,)
        assert limit.witness == oracle.witness == Matrix.identity(QQ, 1)
        report = stalk_at(sheaf, "x")
        assert report.oracle_dim == oracle.dim == 1
        assert report.iso_witness == oracle.witness

    def test_eight_isolated_points(self):
        report = stalk_at(isolated_points_sheaf(8), "x")
        assert report.oracle_dim == 1
        assert stalk_holds(report)


class TestAxiomReports:
    def test_square_counts_and_passes(self):
        report = verify_base_sheaf_axioms(square_sheaf())
        # covers of each star: 2^(size-1) each, so 8 + 2 + 2 + 1
        assert len(report.checks) == 13
        assert report.ok

    # (fixture, sheaf, section spaces solved, restriction matrices made) by
    # both verifiers at seed 0, as `check` runs them: a change that solves
    # more fails here by name, with no timing in the way
    @pytest.mark.parametrize("name, sheaf_name, sections, restrictions", [
        ("square", "main", 6, 14),
        ("span", "main", 9, 27),
        ("double_target", "main", 11, 47),
        ("fan", "main", 9, 33),
        ("fractions", "main", 6, 14),
        ("fractions", "twisted", 6, 14),
    ])
    def test_the_work_of_both_verifiers_is_pinned(self, name, sheaf_name, sections,
                                                  restrictions):
        from cellsheaf import parse_text
        from helpers import FIXTURES
        sheaf = parse_text((FIXTURES / f"{name}.sheaf").read_text()).sheaves[sheaf_name]
        verify_base_sheaf_axioms(sheaf)
        verify_sheaf_axioms_extended(sheaf, seed=0)
        assert (len(sheaf._section_cache), len(sheaf._restriction_cache)) == (
            sections, restrictions)

    def test_trivial_cover_is_listed(self):
        report = verify_base_sheaf_axioms(two_chain_sheaf(2))
        targets = [(c.target, c.cover) for c in report.checks]
        assert ((("a", "b"), (("a", "b"),))) in targets

    def test_bottom_star_covered_by_middle_stars_plus_itself(self):
        # the cover of the bottom star by both middle stars and the star
        # itself; a cover of a star always contains that star
        report = verify_base_sheaf_axioms(square_sheaf())
        wanted = (
            ("p", "q1", "q2", "r"),
            (("p", "q1", "q2", "r"), ("q1", "r"), ("q2", "r")),
        )
        matching = [
            c for c in report.checks
            if c.target == wanted[0] and set(c.cover) == set(wanted[1])
        ]
        assert matching and all(c.ok for c in matching)

    def test_open_covered_by_itself_alone_is_exact(self):
        from cellsheaf import Matrix, is_exact_at

        sheaf = square_sheaf()
        U = whole_space(sheaf.base)
        phi = restriction_matrix(sheaf, U, U)
        assert phi == Matrix.identity(QQ, sections_over(sheaf, U).dim)
        psi = Matrix.zeros(QQ, 0, phi.rows)  # no pairs in a one-set cover
        assert phi.is_injective() and is_exact_at(phi, psi)

    def test_extended_passes_and_is_deterministic(self):
        sheaf = square_sheaf()
        r1 = verify_sheaf_axioms_extended(sheaf, covers_per_open=20, seed=3)
        r2 = verify_sheaf_axioms_extended(sheaf, covers_per_open=20, seed=3)
        assert r1.checks == r2.checks
        assert r1.ok

    def test_drawn_covers_are_pinned(self):
        """The covers each seed draws, in report order, as 'target | cover':
        a change to how the draws consume the generator shows here."""
        from cellsheaf import parse_text
        from helpers import FIXTURES

        sheaf = parse_text((FIXTURES / "double_target.sheaf").read_text()).sheaves["main"]
        drawn = {seed: [
            " ".join(c.target) + " | " + ", ".join(" ".join(o) for o in c.cover)
            for c in verify_sheaf_axioms_extended(sheaf, covers_per_open=2, seed=seed).checks
        ] for seed in (0, 3)}
        assert drawn[0] == [
            " | ",
            "q1 | q1",
            "q2 | q2",
            "q1 q2 | q1, q2",
            "q1 q2 | q1, q1 q2",
            "q1 q2 | q1, q2, q1 q2",
            "p1 q1 q2 | q1, q2, p1 q1 q2",
            "p1 q1 q2 | q1 q2, p1 q1 q2",
            "p1 q1 q2 | q1, q1 q2, p1 q1 q2",
            "p2 q1 q2 | q1, q2, p2 q1 q2",
            "p2 q1 q2 | q1 q2, p2 q1 q2",
            "p2 q1 q2 | q1, q2, q1 q2, p2 q1 q2",
            "p3 q1 q2 | q1, q2, p3 q1 q2",
            "p3 q1 q2 | q2, p3 q1 q2",
            "p3 q1 q2 | q1, q1 q2, p3 q1 q2",
            "p1 p2 q1 q2 | q1, q2, p1 q1 q2, p2 q1 q2",
            "p1 p2 q1 q2 | p1 p2 q1 q2",
            "p1 p2 q1 q2 | q1, q2, p1 q1 q2, p1 p2 q1 q2",
            "p1 p3 q1 q2 | q1, q2, p1 q1 q2, p3 q1 q2",
            "p1 p3 q1 q2 | q1 q2, p1 p3 q1 q2",
            "p2 p3 q1 q2 | q1, q2, p2 q1 q2, p3 q1 q2",
            "p2 p3 q1 q2 | q2, p2 p3 q1 q2",
            "p2 p3 q1 q2 | q1, q1 q2, p2 q1 q2, p2 p3 q1 q2",
            "p1 p2 p3 q1 q2 | q1, q2, p1 q1 q2, p2 q1 q2, p3 q1 q2",
            "p1 p2 p3 q1 q2 | q2, p1 q1 q2, p2 q1 q2, p3 q1 q2, p2 p3 q1 q2",
            "p1 p2 p3 q1 q2 | p1 q1 q2, p2 p3 q1 q2",
        ]
        assert drawn[3] == [
            " | ",
            "q1 | q1",
            "q2 | q2",
            "q1 q2 | q1, q2",
            "q1 q2 | q1, q2, q1 q2",
            "p1 q1 q2 | q1, q2, p1 q1 q2",
            "p1 q1 q2 | q2, q1 q2, p1 q1 q2",
            "p1 q1 q2 | q1 q2, p1 q1 q2",
            "p2 q1 q2 | q1, q2, p2 q1 q2",
            "p3 q1 q2 | q1, q2, p3 q1 q2",
            "p3 q1 q2 | q1 q2, p3 q1 q2",
            "p3 q1 q2 | q1, q2, q1 q2, p3 q1 q2",
            "p1 p2 q1 q2 | q1, q2, p1 q1 q2, p2 q1 q2",
            "p1 p2 q1 q2 | q1, q2, q1 q2, p1 q1 q2, p2 q1 q2",
            "p1 p2 q1 q2 | q2, p1 q1 q2, p2 q1 q2",
            "p1 p3 q1 q2 | q1, q2, p1 q1 q2, p3 q1 q2",
            "p1 p3 q1 q2 | q1 q2, p1 q1 q2, p1 p3 q1 q2",
            "p1 p3 q1 q2 | q1 q2, p1 q1 q2, p3 q1 q2, p1 p3 q1 q2",
            "p2 p3 q1 q2 | q1, q2, p2 q1 q2, p3 q1 q2",
            "p2 p3 q1 q2 | q2, q1 q2, p2 q1 q2, p3 q1 q2",
            "p2 p3 q1 q2 | q1 q2, p2 q1 q2, p3 q1 q2",
            "p1 p2 p3 q1 q2 | q1, q2, p1 q1 q2, p2 q1 q2, p3 q1 q2",
            "p1 p2 p3 q1 q2 | p1 q1 q2, p3 q1 q2, p2 p3 q1 q2",
            "p1 p2 p3 q1 q2 | p1 q1 q2, p2 q1 q2, p3 q1 q2",
        ]

    def test_extended_on_random_sheaves(self):
        rng = random.Random(10)
        for i in range(10):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 5)))
            assert verify_base_sheaf_axioms(sheaf).ok
            assert verify_sheaf_axioms_extended(sheaf, covers_per_open=25, seed=i).ok

    def test_restriction_matrices_compose(self):
        rng = random.Random(11)
        for _ in range(8):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 5)))
            opens = enumerate_opens(sheaf.base)
            for U in opens:
                for V in opens:
                    if not V.members <= U.members:
                        continue
                    for W in opens:
                        if not W.members <= V.members:
                            continue
                        assert restriction_matrix(sheaf, V, W) @ restriction_matrix(
                            sheaf, U, V
                        ) == restriction_matrix(sheaf, U, W)

    def test_pairwise_constraints_via_point_values_or_section_spaces_agree(self):
        # the middle map of the basic-cover sequence can aggregate either
        # per-basic-open point values or sections over the intersections;
        # both have the same kernel once the star/point identification is
        # applied columnwise
        rng = random.Random(12)
        for _ in range(6):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(2, 5)))
            base = sheaf.base
            for p in base.elements:
                star = open_star(base, p)
                centers = star.sorted_members
                col_dims = [sheaf.dim(x) for x in centers]
                spread = {}
                for x in centers:
                    space = sections_over(sheaf, open_star(base, x))
                    cols = [
                        space.coordinates_of(section_from_value(
                            sheaf, x,
                            [QQ.one if i == j else QQ.zero
                             for i in range(sheaf.dim(x))],
                        ))
                        for j in range(sheaf.dim(x))
                    ]
                    spread[x] = Matrix(
                        QQ, space.dim, sheaf.dim(x),
                        list(zip(*cols)) if cols else [[] for _ in range(space.dim)],
                    )
                rows_points = []
                rows_sections = []
                offs = [0]
                for d in col_dims:
                    offs.append(offs[-1] + d)
                total = offs[-1]
                for i, x in enumerate(centers):
                    for j in range(i + 1, len(centers)):
                        y = centers[j]
                        overlap_members = base.up_set(x) & base.up_set(y)
                        for w in sorted(overlap_members, key=base.index):
                            for r in range(sheaf.dim(w)):
                                row = [QQ.zero] * total
                                for c in range(sheaf.dim(x)):
                                    row[offs[i] + c] -= sheaf.restriction(x, w).data[r][c]
                                for c in range(sheaf.dim(y)):
                                    row[offs[j] + c] += sheaf.restriction(y, w).data[r][c]
                                rows_points.append(row)
                        inter = OpenSet(base, overlap_members)
                        to_inter_x = restriction_matrix(
                            sheaf, open_star(base, x), inter) @ spread[x]
                        to_inter_y = restriction_matrix(
                            sheaf, open_star(base, y), inter) @ spread[y]
                        for r in range(to_inter_x.rows):
                            row = [QQ.zero] * total
                            for c in range(sheaf.dim(x)):
                                row[offs[i] + c] -= to_inter_x.data[r][c]
                            for c in range(sheaf.dim(y)):
                                row[offs[j] + c] += to_inter_y.data[r][c]
                            rows_sections.append(row)
                k1 = kernel_basis(Matrix(QQ, len(rows_points), total, rows_points))
                k2 = kernel_basis(Matrix(QQ, len(rows_sections), total, rows_sections))
                assert k1 == k2


def keyed(overlaps) -> list[tuple]:
    """The bands of `_check_cover` for overlaps (i, j, from_i, from_j): each
    keyed by its place, so that no two share a verdict."""
    return [(i, j, a, b, k) for k, (i, j, a, b) in enumerate(overlaps)]


def random_cover_data(rng: random.Random, field):
    """(dim F(U), maps, overlaps) for `_check_cover`: 0-5 parts and bands of
    dims 0-3, entries with mixed denominators. In half the draws each part
    is F(U) scaled by its own factor, with at most one free extra row, and
    every band reads one matrix B through both parts, so psi phi = 0; in the
    other half every map is random."""
    dim, n = rng.randint(0, 3), rng.randint(0, 5)

    def entries(rows, cols):
        return [[rational(rng) for _ in range(cols)] for _ in range(rows)]

    pairs = list(itertools.combinations(range(n), 2))
    if rng.random() < 0.5:
        scales = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                  for _ in range(n)]
        extra = [rng.randint(0, 1) if dim < 3 else 0 for _ in range(n)]
        maps = [Matrix.build(field, [[c * (r == k) for k in range(dim)] for r in range(dim)]
                             + entries(e, dim), cols=dim) for c, e in zip(scales, extra)]
        overlaps = []
        for i, j in pairs:
            B = entries(rng.randint(0, 3), dim)
            overlaps.append((i, j, *(
                Matrix.build(field, [[x / scales[k] for x in row] + [0] * extra[k]
                                     for row in B], cols=dim + extra[k])
                for k in (i, j))))
    else:
        parts = [rng.randint(0, 3) for _ in range(n)]
        maps = [Matrix.build(field, entries(d, dim), cols=dim) for d in parts]
        overlaps = []
        for i, j in pairs:
            band = rng.randint(0, 3)
            overlaps.append((i, j, *(Matrix.build(field, entries(band, parts[k]),
                                                  cols=parts[k]) for k in (i, j))))
    return dim, maps, overlaps


def _chain_inputs():
    """A sheaf on a<b, its opens, and a section over the whole space."""
    sheaf = two_chain_sheaf(2)
    whole = whole_space(sheaf.base)
    return SimpleNamespace(sheaf=sheaf, base=sheaf.base, whole=whole,
                           star_b=open_star(sheaf.base, "b"),
                           section=Section(sheaf, whole, {"a": [1], "b": [2]}))


# (id, a call on `_chain_inputs()` that breaks a rule on library input,
#  error class, text)
LIBRARY_INPUT_ERRORS = [
    ("no dimension", lambda c: build_sheaf(c.base, {"a": 1}, {}),
     ShapeError, "no dimension given for element 'b'"),
    ("negative dimension", lambda c: build_sheaf(c.base, {"a": -1, "b": 1}, {}),
     ShapeError, "dimension of 'a' must be a non-negative integer"),
    ("dimension not an int", lambda c: build_sheaf(c.base, {"a": "1", "b": 1}, {}),
     ShapeError, "dimension of 'a' must be a non-negative integer"),
    ("dimension of an unknown element",
     lambda c: build_sheaf(c.base, {"a": 0, "b": 0, "z": 1, "y": 0}, {}),
     ShapeError, "dimensions given for unknown elements ['y', 'z']"),
    ("map over another field",
     lambda c: build_sheaf(c.base, {"a": 1, "b": 1},
                           {("a", "b"): Matrix.build(PrimeField(5), [[1]])}),
     ShapeError, "matrix for a->b uses a different field"),
    ("restriction from an open of another carrier",
     lambda c: restriction_matrix(c.sheaf, whole_space(build_poset("ab", [])), c.whole),
     ValidationError, "open set lives on a different carrier"),
    ("restriction to an open not inside", lambda c: restriction_matrix(c.sheaf, c.star_b, c.whole),
     ValidationError, "restriction target is not contained in the source open"),
    ("glue with fewer sections than opens",
     lambda c: glue(c.sheaf, [c.whole, c.whole], [c.section]),
     ValidationError, "cover and sections have different lengths"),
    ("glue a section off its cover set", lambda c: glue(c.sheaf, [c.star_b], [c.section]),
     ValidationError, "each local section must live on its cover set"),
    ("section missing a point", lambda c: Section(c.sheaf, c.whole, {"a": [1]}),
     ValidationError, "section components must cover the open set exactly"),
    ("section component of the wrong length",
     lambda c: Section(c.sheaf, c.whole, {"a": [1, 0], "b": [2]}),
     ShapeError, "component at a has length 2, expected 1"),
    ("germ of a section away from the point",
     lambda c: stalk_direct_limit(c.sheaf, "a").germ(Section(c.sheaf, c.star_b, {"b": [1]})),
     ValidationError, "section is not defined near the point"),
]


class TestLibraryInputErrors:
    @pytest.mark.parametrize("call, cls, message", [case[1:] for case in LIBRARY_INPUT_ERRORS],
                             ids=[case[0] for case in LIBRARY_INPUT_ERRORS])
    def test_error_class_and_text(self, call, cls, message):
        with pytest.raises(cls) as err:
            call(_chain_inputs())
        assert (type(err.value), str(err.value)) == (cls, message)


class TestRecords:
    """Each result of a sheaf computation is a value record; the stalk
    report and the cover check also hash by value."""

    def test_section_space_lays_out_its_starts(self):
        sheaf = constant_sheaf(build_poset(["a", "b"], [("a", "b")]), 1)
        U = open_star(sheaf.base, "a")
        fields = dict(sheaf=sheaf, open=U, basis=subspace_from_rows(QQ, 2, [[1, 1]]))
        assert_value_record(
            SectionSpace, fields,
            "SectionSpace(sheaf=CellularSheaf(a:1, b:1 over q), open={a, b},"
            " basis=SubspaceBasis(field=QQ, ambient_dim=2, rows=((Fraction(1, 1),"
            " Fraction(1, 1)),)), starts={0: 0, 1: 1})")
        assert sections_over(sheaf, U) == SectionSpace(**fields)

    def test_direct_limit_stalk(self):
        sheaf = constant_sheaf(build_poset(["a", "b"], [("a", "b")]), 1)
        limit = stalk_direct_limit(sheaf, "b")
        names = ("sheaf", "point", "neighbourhoods", "offsets", "total", "images", "solve",
                 "free_columns", "witness")
        assert_value_record(
            DirectLimitStalk, {name: getattr(limit, name) for name in names},
            "DirectLimitStalk(sheaf=CellularSheaf(a:1, b:1 over q), point='b',"
            " neighbourhoods=({b}, {a, b}), offsets={2: 0, 3: 1}, total=2, images=[[1, 1]],"
            " solve=[[1]], free_columns=(1,), witness=[[1]])")
        assert stalk_direct_limit(sheaf, "b") == limit

    def test_reports(self):
        sheaf = constant_sheaf(build_poset(["a", "b"], [("a", "b")]), 1)
        stalk = dict(point="a", theorem_dim=1, oracle_dim=1, iso_witness=Matrix.identity(QQ, 1))
        assert_value_record(StalkReport, stalk, "StalkReport(point='a', theorem_dim=1,"
                            " oracle_dim=1, iso_witness=[[1]])")
        assert hash(stalk_at(sheaf, "a")) == hash(StalkReport(**stalk))
        check = dict(target=("a", "b"), cover=(("a", "b"), ("b",)), injective=True,
                     exact_middle=False)
        assert_value_record(CoverCheck, check, "CoverCheck(target=('a', 'b'), cover=(('a', 'b'),"
                            " ('b',)), injective=True, exact_middle=False)")
        assert hash(CoverCheck(**check)) == hash(CoverCheck(*check.values()))
        assert len({CoverCheck(**check), CoverCheck(**{**check, "exact_middle": True})}) == 2
        assert_value_record(
            AxiomReport, dict(name="n", checks=[CoverCheck(**check)]),
            "AxiomReport(name='n', checks=[CoverCheck(target=('a', 'b'),"
            " cover=(('a', 'b'), ('b',)), injective=True, exact_middle=False)])")


class TestCoverCheck:
    """`_check_cover` against the dense field-value assembly of phi and psi."""

    def test_matches_the_dense_assembly(self):
        statuses = set()

        @settings(max_examples=200, deadline=None)
        @given(st.sampled_from([QQ, PrimeField(5), PrimeField(7),
                                PrimeField(1000000000000000003)]),
               st.integers(0, 2**32 - 1))
        def agrees(field, seed):
            dim, maps, overlaps = random_cover_data(random.Random(seed), field)
            check = cellsheaf.sheaf._check_cover(field, (), (), dim, maps, keyed(overlaps),
                                                 {}, {})
            assert (check.injective, check.exact_middle) == \
                oracles.cover_check_by_field_ops(field, dim, maps, overlaps)
            statuses.add(check.describe().rpartition(": ")[2])

        agrees()
        assert statuses == {"ok", "gluing failed", "locality failed"}

    def test_shape_guards(self):
        one, column, row = (Matrix.build(QQ, rows) for rows in ([[1]], [[1], [2]], [[1, 2]]))
        check = functools.partial(cellsheaf.sheaf._check_cover, QQ, (), (), 1)
        with pytest.raises(ShapeError, match="blocks 1x1 and 2x1, parts of dims 1 and 1"):
            check([one, one], [(0, 1, one, column, 0)], {}, {})
        with pytest.raises(ShapeError, match="blocks 1x2 and 1x1, parts of dims 1 and 1"):
            check([one, one], [(0, 1, row, one, 0)], {}, {})
        with pytest.raises(ShapeError, match="block 0 is 1x2, expected 1x1"):
            check([row], [], {}, {})

    def test_a_shared_memo_answers_as_the_dense_assembly(self):
        """Cover data with repeats through one memo per field: each draw as
        it is, again, with every part divided by one factor (phi's ints kept
        when nothing cancels, its denominator scaled), and with every band
        zeroed (psi with zero rows). Each call has its own verdict table,
        as its bands' matrices differ from the last call's."""
        for field in (QQ, PrimeField(5), PrimeField(1000000000000000003)):
            rng = random.Random(5)
            memo, calls = {}, 0
            for _ in range(80):
                dim, maps, overlaps = random_cover_data(rng, field)
                factor = Fraction(1, rng.choice([2, 3, 7]))
                scaled = [m.scale(factor) for m in maps]
                zeroed = [(i, j, Matrix.zeros(field, a.rows, a.cols),
                           Matrix.zeros(field, b.rows, b.cols)) for i, j, a, b in overlaps]
                for parts, bands in ((maps, overlaps), (maps, overlaps), (scaled, overlaps),
                                     (maps, zeroed), (scaled, zeroed)):
                    check = cellsheaf.sheaf._check_cover(field, (), (), dim, parts,
                                                         keyed(bands), {}, memo)
                    calls += 1
                    assert (check.injective, check.exact_middle) == \
                        oracles.cover_check_by_field_ops(field, dim, parts, bands)
            assert len(memo) < calls

    def test_verdicts_shared_by_the_covers_of_one_open_answer_as_the_dense_assembly(self):
        """Each draw of `random_cover_data` is one open: its parts are the
        sub-opens, and each subset of them, the whole set twice, is a cover
        whose bands are those among its parts, keyed by the parts' places in
        the draw. The covers of a draw share one verdict table, and all
        draws over a field one memo. Drawn maps make some squares fail."""
        vanish = cellsheaf.sheaf._rows_vanish
        made = []

        def counting(rows, columns, p):
            made.append(rows)
            return vanish(rows, columns, p)

        failed = tested = repeats = 0
        with mock.patch.object(cellsheaf.sheaf, "_rows_vanish", counting):
            for field in (QQ, PrimeField(5), PrimeField(1000000000000000003)):
                rng = random.Random(11)
                memo = {}
                for _ in range(60):
                    dim, maps, overlaps = random_cover_data(rng, field)
                    band = {(i, j): (a, b) for i, j, a, b in overlaps}
                    verdicts = {}
                    covers = [c for size in range(len(maps) + 1)
                              for c in itertools.combinations(range(len(maps)), size)]
                    for parts in covers + covers[-1:]:
                        cover_maps = [maps[k] for k in parts]
                        bands = [(i, j, *band[x, y], (x, y)) for (i, x), (j, y)
                                 in itertools.combinations(enumerate(parts), 2)]
                        before = len(memo)
                        check = cellsheaf.sheaf._check_cover(field, (), (), dim, cover_maps,
                                                             bands, verdicts, memo)
                        assert (check.injective, check.exact_middle) == \
                            oracles.cover_check_by_field_ops(field, dim, cover_maps,
                                                             [b[:4] for b in bands])
                        if len(memo) == before:
                            repeats += 1
                        else:  # decided: every band is tested, or its verdict read
                            tested += len(bands)
                    failed += False in verdicts.values()
        assert failed and repeats and len(made) < tested

    @pytest.mark.parametrize("name", ["square", "fan", "double_target", "fractions"])
    def test_phi_holding_the_star_is_never_eliminated(self, name):
        # every basic cover of the star of p holds that star, whose block of
        # phi is the identity: phi's rank is recorded, and only psi's ranks
        # are found by elimination
        from cellsheaf import parse_text
        from helpers import FIXTURES
        realized = parse_text((FIXTURES / f"{name}.sheaf").read_text())
        sheaf = next(iter(realized.sheaves.values()))
        eliminated, phis = [], []
        rank, exact = Matrix.rank, cellsheaf.sheaf._exact_by_bands

        def counting_rank(m):
            if m._rank is None:
                eliminated.append(m)
            return rank(m)

        def recording(phi, *rest):
            phis.append(phi)
            return exact(phi, *rest)

        with mock.patch.object(Matrix, "rank", counting_rank), \
                mock.patch.object(cellsheaf.sheaf, "_exact_by_bands", recording):
            report = verify_base_sheaf_axioms(sheaf)
        assert phis and eliminated
        assert not any(m is phi for m in eliminated for phi in phis)
        assert [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks] == \
            oracles.base_cover_checks_by_loop(sheaf)

    @settings(max_examples=60, deadline=None)
    @given(posets(), st.sampled_from(CORE_FIELDS), st.integers(0, 2**32 - 1),
           st.sampled_from([None, 1, 4]))
    def test_verifiers_match_the_loops_that_decide_every_cover(self, base, field, seed, budget):
        sheaf = random_sheaf(random.Random(seed), base, field=field)
        report = verify_base_sheaf_axioms(sheaf)
        assert [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks] == \
            oracles.base_cover_checks_by_loop(sheaf)
        report = verify_sheaf_axioms_extended(sheaf, covers_per_open=6, seed=seed % 7,
                                              open_budget=budget)
        assert [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks] == \
            oracles.extended_cover_checks_by_loop(sheaf, 6, seed % 7, budget)


class TestVerdictTables:
    """A verdict is kept for one open of the extended verifier, or one star
    of the basic one. Each case holds data whose squares do not all commute,
    written into the sheaf's memos, which the loops of `tests/oracles.py`
    read too: a band with the same key in two opens, or stars, holds in
    one and fails in the other, so a table kept past its open answers
    wrongly in the second."""

    def test_two_opens_with_equal_band_masks(self):
        # a, b, d < c: U1 = {a b c} comes before U2 = {a b c d}, and both
        # canonical covers have the bands of {c}, {a c} and {b c}. R(U1 ->
        # {a c}) doubled fails two of them in U1 alone: U1 is no part of a
        # canonical cover, so no other cover reads that map.
        sheaf = constant_sheaf(build_poset("abcd", [("a", "c"), ("b", "c"), ("d", "c")]), 1)
        U1, U2 = (OpenSet(sheaf.base, members) for members in ("abc", "abcd"))
        twice = restriction_matrix(sheaf, U1, open_star(sheaf.base, "a")).scale(2)
        sheaf._restriction_cache[U1.mask, open_star(sheaf.base, "a").mask] = twice
        report = verify_sheaf_axioms_extended(sheaf, covers_per_open=0)
        canonical = {c.target: c.ok for c in report.checks}
        assert canonical[U1.sorted_members] is False
        assert canonical[U2.sorted_members] is True
        assert [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks] == \
            oracles.extended_cover_checks_by_loop(sheaf, 0, 0)

    def test_two_stars_with_equal_band_keys(self):
        # p1 < p2 < x, y < w: both stars hold covers with the band (x, y, w).
        # F(p1 -> x) doubled, after every map is derived, fails it under p1
        # only; under p2, with p2, x and y as centers, every square holds.
        # x and y come first in the carrier, so that the band (x, y, w) is
        # the first one tested in a cover with both.
        base = build_poset(["x", "y", "p1", "p2", "w"],
                           [("p1", "p2"), ("p2", "x"), ("p2", "y"), ("x", "w"), ("y", "w")])
        sheaf = constant_sheaf(base, 1)
        for p in base.elements:
            for q in open_star(base, p).sorted_members:
                sheaf.restriction(p, q)
        sheaf._maps[base.index("p1"), base.index("x")] = Matrix.build(QQ, [[2]])
        report = verify_base_sheaf_axioms(sheaf)
        checks = [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks]
        star_p2 = open_star(base, "p2").sorted_members
        assert (star_p2, (("x", "w"), ("y", "w"), star_p2), True, True) in checks
        assert not report.ok
        assert checks == oracles.base_cover_checks_by_loop(sheaf)


def covers_drawn_by_stdlib(rng, up, u, sub_opens, draws):
    """The covers dict that `_drawn_covers` makes, drawn by
    `rng.randint` and `rng.sample` and patched with the stars left out."""
    def stars(mask):
        return [up[x] for x in range(mask.bit_length()) if mask >> x & 1]

    covers = {frozenset(stars(u)): None}
    for _ in range(draws):
        picked = rng.sample(sub_opens, rng.randint(1, min(4, len(sub_opens))))
        left_out = u
        for m in picked:
            left_out &= ~m
        covers.setdefault(frozenset(picked + stars(left_out)))
    return covers


class TestCoverDraws:
    """`_drawn_covers` takes the generator's bits as `randint` and `sample`
    take them. It copies `sample`'s partial Fisher-Yates for at most 21
    sub-opens and calls `sample` itself for more, which picks by rejection."""

    def test_the_draws_are_those_of_randint_and_sample(self):
        up = [1 << x for x in range(12)]  # the stars of 12 unordered points
        for seed in range(100):
            masks = random.Random(10**6 + seed).sample(range(1, 1 << 12), 45)
            for n in range(1, 46):
                sub_opens = masks[:n]
                u = functools.reduce(int.__or__, sub_opens)
                ours, stdlib = random.Random(seed), random.Random(seed)
                drawn = cellsheaf.sheaf._drawn_covers(ours, up, u, sub_opens, 20)
                assert list(drawn) == list(covers_drawn_by_stdlib(stdlib, up, u, sub_opens, 20))
                assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("budget", [None, 8])
    def test_the_rejection_draws_match_the_loop(self, seed, budget):
        # the top open of the 5-point antichain has 31 nonempty sub-opens
        sheaf = random_sheaf(random.Random(seed), build_poset("abcde", []))
        report = verify_sheaf_axioms_extended(sheaf, covers_per_open=50, seed=seed,
                                              open_budget=budget)
        checks = [(c.target, c.cover, c.injective, c.exact_middle) for c in report.checks]
        assert ("a", "b", "c", "d", "e") in {target for target, *_ in checks}
        assert checks == oracles.extended_cover_checks_by_loop(sheaf, 50, seed, budget)

    def test_a_negative_seed_draws_as_its_absolute_value(self):
        # `random.Random` seeds an int by its absolute value
        from cellsheaf import parse_text
        from helpers import FIXTURES

        sheaf = parse_text((FIXTURES / "double_target.sheaf").read_text()).sheaves["main"]
        checks = {seed: [(c.target, c.cover, c.injective, c.exact_middle)
                         for c in verify_sheaf_axioms_extended(sheaf, seed=seed).checks]
                  for seed in (3, -3, 4)}
        assert checks[3] == checks[-3] != checks[4]
        assert (len(checks[3]), len(checks[4])) == (132, 136)


class TestOpenBudget:
    """`open_budget` samples the opens to check when there are more of them."""

    @staticmethod
    def considered(report):
        """The target of each run of checks, in report order."""
        targets = []
        for c in report.checks:
            if not targets or targets[-1] != c.target:
                targets.append(c.target)
        return targets

    def test_budgeted_run_of_a_fixture_is_pinned(self):
        from cellsheaf import parse_text
        from helpers import FIXTURES

        sheaf = parse_text((FIXTURES / "double_target.sheaf").read_text()).sheaves["main"]
        report = verify_sheaf_axioms_extended(sheaf, covers_per_open=3, seed=7, open_budget=4)
        assert [c.describe() for c in report.checks] == [
            "{} covered by []: ok",
            "{q2} covered by [{q2}]: ok",
            "{p2 q1 q2} covered by [{q1}, {q2}, {p2 q1 q2}]: ok",
            "{p2 q1 q2} covered by [{p2 q1 q2}]: ok",
            "{p2 q1 q2} covered by [{q1}, {q2}, {q1 q2}, {p2 q1 q2}]: ok",
            "{p3 q1 q2} covered by [{q1}, {q2}, {p3 q1 q2}]: ok",
            "{p3 q1 q2} covered by [{q1}, {q1 q2}, {p3 q1 q2}]: ok",
            "{p3 q1 q2} covered by [{q1}, {q2}, {q1 q2}, {p3 q1 q2}]: ok",
        ]

    def test_same_seed_same_checks_in_sort_key_order(self):
        rng = random.Random(21)
        for i in range(8):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(3, 5)))
            opens = enumerate_opens(sheaf.base)
            budget = len(opens) // 2
            runs = [verify_sheaf_axioms_extended(sheaf, covers_per_open=5, seed=i,
                                                 open_budget=budget) for _ in range(2)]
            assert runs[0].checks == runs[1].checks
            targets = self.considered(runs[0])
            assert len(targets) == budget
            keys = [OpenSet(sheaf.base, t).sort_key() for t in targets]
            assert keys == sorted(keys)
            assert runs[0].ok

    def test_budget_covering_every_open_changes_nothing(self):
        rng = random.Random(22)
        for i in range(6):
            sheaf = random_sheaf(rng, random_poset(rng, rng.randint(1, 5)))
            n = len(enumerate_opens(sheaf.base))
            full = verify_sheaf_axioms_extended(sheaf, covers_per_open=5, seed=i)
            for budget in (n, n + 3):
                budgeted = verify_sheaf_axioms_extended(
                    sheaf, covers_per_open=5, seed=i, open_budget=budget)
                assert budgeted.checks == full.checks


class TestNegativeControls:
    """Feed deliberately inconsistent data to the verifiers by bypassing
    build_sheaf, to confirm the suites can actually fail."""

    SQUARE_FAILURES = [
        "{p q1 q2 r} covered by [{p q1 q2 r}, {q2 r}]: gluing failed",
        "{p q1 q2 r} covered by [{p q1 q2 r}, {q1 r}, {q2 r}]: gluing failed",
        "{p q1 q2 r} covered by [{p q1 q2 r}, {q2 r}, {r}]: gluing failed",
        "{p q1 q2 r} covered by [{p q1 q2 r}, {q1 r}, {q2 r}, {r}]: gluing failed",
    ]

    def _fake_path_dependent_sheaf(self, field=QQ):
        from cellsheaf import CellularSheaf, hasse_edges

        base = square_poset()
        one = Matrix.identity(field, 1)
        m = {
            ("p", "q1"): Matrix.build(field, [[1]]),
            ("p", "q2"): Matrix.build(field, [[1]]),
            ("q1", "r"): Matrix.build(field, [[2]]),
            ("q2", "r"): Matrix.build(field, [[3]]),
            ("p", "r"): Matrix.build(field, [[2]]),  # picks one chain arbitrarily
        }
        for e in base.elements:
            m[(e, e)] = one
        return CellularSheaf(base, field, {e: 1 for e in base.elements}, m,
                             hasse_edges(base))

    def test_basic_cover_suite_detects_inconsistent_data(self):
        fake = self._fake_path_dependent_sheaf()
        report = verify_base_sheaf_axioms(fake)
        assert not report.ok
        assert report.failures()
        assert report.summary() == "basic-cover-exactness: 13 covers checked, 4 failures"
        assert [c.describe() for c in report.failures()] == self.SQUARE_FAILURES

    def test_basic_cover_suite_detects_inconsistent_data_over_gf7(self):
        # the same square over GF(7), where psi negates its blocks as residues
        report = verify_base_sheaf_axioms(self._fake_path_dependent_sheaf(PrimeField(7)))
        assert report.summary() == "basic-cover-exactness: 13 covers checked, 4 failures"
        assert [c.describe() for c in report.failures()] == self.SQUARE_FAILURES

    def test_sections_over_rejects_inconsistent_data(self):
        # the solve on minimal points expands through map(p, r) = [[2]];
        # the check along covering pairs sees that q2 -> r gives 3 instead
        fake = self._fake_path_dependent_sheaf()
        with pytest.raises(ValidationError, match="q2 <= r"):
            sections_over(fake, whole_space(fake.base))

    def test_stalk_comparison_detects_inconsistent_data(self):
        # detection is either a failing report or a loud compatibility
        # error while spreading a point value over its star
        fake = self._fake_path_dependent_sheaf()
        detected = False
        for p in fake.base.elements:
            try:
                detected |= not stalk_holds(stalk_at(fake, p))
            except ValidationError:
                detected = True
        assert detected


class TestPrimeFieldPipeline:
    def test_fixtures_verify_over_gf5(self):
        from cellsheaf import parse_text
        from helpers import FIXTURES

        for name in ["square", "span", "double_target", "fan"]:
            realized = parse_text((FIXTURES / f"{name}.sheaf").read_text(),
                                  field_override="fp:5")
            sheaf = realized.sheaves["main"]
            for point in sheaf.base.elements:
                assert stalk_holds(stalk_at(sheaf, point))
            assert verify_base_sheaf_axioms(sheaf).ok
            assert verify_sheaf_axioms_extended(sheaf, covers_per_open=15).ok

    def test_gf5_dimensions_can_differ_from_rational_ones(self):
        # the restriction 5 becomes the zero map mod 5, freeing the top value
        base = build_poset("ab", [("a", "b")])
        from cellsheaf import PrimeField

        f5 = PrimeField(5)
        sheaf = build_sheaf(base, {"a": 1, "b": 1},
                            {("a", "b"): Matrix.build(f5, [[5]])}, f5)
        assert sections_over(sheaf, whole_space(base)).dim == 1
        rational = two_chain_sheaf(5)
        assert sections_over(rational, whole_space(rational.base)).dim == 1
        # over GF(5) the image at b must be 0, over the rationals it is 5*s_a
        s5 = sections_over(sheaf, whole_space(base)).basis_sections()[0]
        assert s5.components["b"] == (f5.zero,)


class TestDegenerate:
    def test_one_element_poset(self):
        base = build_poset(["x"], [])
        sheaf = build_sheaf(base, {"x": 3}, {})
        assert sections_over(sheaf, whole_space(base)).dim == 3
        assert stalk_holds(stalk_at(sheaf, "x"))
        assert verify_base_sheaf_axioms(sheaf).ok

    def test_mixed_zero_dims(self):
        base = build_poset("abc", [("a", "b"), ("b", "c")])
        sheaf = build_sheaf(
            base, {"a": 2, "b": 0, "c": 1}, {}
        )
        # the zero middle space forces the value at c to be zero, while a
        # stays free: families are (s_a, 0, 0)
        assert sections_over(sheaf, whole_space(base)).dim == 2
        for p in base.elements:
            assert stalk_holds(stalk_at(sheaf, p))
        assert verify_base_sheaf_axioms(sheaf).ok
        assert verify_sheaf_axioms_extended(sheaf, covers_per_open=10).ok
