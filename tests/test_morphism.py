import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellsheaf.morphism
import oracles
from cellsheaf import (
    Matrix,
    MorphismFlags,
    NaturalityError,
    PrimeField,
    QQ,
    ShapeError,
    ValidationError,
    build_morphism,
    build_poset,
    build_sheaf,
    classify,
    constant_sheaf,
    enumerate_opens,
    identity_morphism,
    open_star,
    restriction_matrix,
    section_from_value,
    section_map,
    sections_over,
    stalk_map_direct_limit,
    zero_morphism,
)
from cellsheaf.linalg import vstack

from helpers import (
    CORE_FIELDS,
    assert_value_record,
    random_invertible,
    random_morphisms,
    random_natural_components,
    random_poset,
    random_sheaf,
    twisted_copy,
)
from oracles import section_maps_all_injective, section_maps_all_invertible


def two_chain(entry=2):
    base = build_poset("ab", [("a", "b")])
    return build_sheaf(base, {"a": 1, "b": 1},
                       {("a", "b"): Matrix.build(QQ, [[entry]])})


ONE = Matrix.build(QQ, [[1]])


class TestBuild:
    @pytest.mark.parametrize("call, cls, message", [
        (lambda s: build_morphism(s, constant_sheaf(build_poset("ab", []), 1), {}),
         ValidationError, "morphisms require the same base poset"),
        (lambda s: build_morphism(s, constant_sheaf(s.base, 1, PrimeField(5)), {}),
         ValidationError, "morphisms require the same field"),
        (lambda s: build_morphism(s, s, {"a": ONE}),
         ShapeError, "no component matrix for element 'b'"),
        (lambda s: build_morphism(s, s, {"a": Matrix.build(QQ, [[1, 0]]), "b": ONE}),
         ShapeError, "component at a is 1x2, expected 1x1"),
        (lambda s: build_morphism(s, s, {"a": Matrix.build(PrimeField(5), [[1]]), "b": ONE}),
         ShapeError, "component at a uses a different field"),
        (lambda s: build_morphism(s, s, {"a": ONE, "b": ONE, "z": ONE, "y": ONE}),
         ShapeError, "components given for unknown elements ['y', 'z']"),
    ], ids=["base", "field", "missing component", "shape", "component field",
            "unknown elements"])
    def test_each_input_check_names_its_error(self, call, cls, message):
        with pytest.raises(cls) as err:
            call(two_chain())
        assert (type(err.value), str(err.value)) == (cls, message)

    def test_identity_and_zero(self):
        sheaf = two_chain()
        identity_morphism(sheaf)
        zero_morphism(sheaf, sheaf)

    def test_scaling_is_natural(self):
        sheaf = two_chain()
        build_morphism(sheaf, sheaf, {
            "a": Matrix.build(QQ, [[2]]), "b": Matrix.build(QQ, [[2]])
        })

    def test_mismatched_scalars_rejected_with_witness(self):
        sheaf = two_chain()
        with pytest.raises(NaturalityError) as err:
            build_morphism(sheaf, sheaf, {
                "a": Matrix.build(QQ, [[1]]), "b": Matrix.build(QQ, [[3]])
            })
        assert (err.value.low, err.value.high) == ("a", "b")
        assert err.value.left != err.value.right

    def test_swap_against_non_symmetric_restriction_rejected(self):
        base = build_poset("ab", [("a", "b")])
        sheaf = build_sheaf(base, {"a": 2, "b": 2},
                            {("a", "b"): Matrix.build(QQ, [[1, 1], [0, 1]])})
        swap = Matrix.build(QQ, [[0, 1], [1, 0]])
        with pytest.raises(NaturalityError):
            build_morphism(sheaf, sheaf, {"a": swap, "b": swap})

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_commutation_check_agrees_with_the_products(self, field, seed):
        # the twists of a twisted copy are natural, over Q with components
        # over several denominators; one component replaced at random most
        # likely breaks a square, and the error names the first broken pair
        # in Hasse order with both products
        rng = random.Random(seed)
        base = random_poset(rng, rng.randint(1, 4))
        src = random_sheaf(rng, base, field=field)
        tgt, components = twisted_copy(rng, src)
        if rng.random() < 0.5:
            x = rng.choice(base.elements)
            components[x] = random_invertible(rng, src.dim(x), field)
        products = [(p, q, tgt.restriction(p, q) @ components[p],
                     components[q] @ src.restriction(p, q)) for p, q in src.hasse]
        broken = [(p, q, left, right) for p, q, left, right in products if left != right]
        if not broken:
            assert build_morphism(src, tgt, components).components == components
            return
        with pytest.raises(NaturalityError) as err:
            build_morphism(src, tgt, components)
        p, q, left, right = broken[0]
        assert (err.value.low, err.value.high, err.value.left, err.value.right) == (
            p, q, left, right)

    def test_covering_pair_check_implies_all_pairs(self):
        rng = random.Random(0)
        for mor in random_morphisms(rng, 12):
            base = mor.source.base
            for p in base.elements:
                for q in base.elements:
                    if base.leq(p, q):
                        left = mor.target.restriction(p, q) @ mor.components[p]
                        right = mor.components[q] @ mor.source.restriction(p, q)
                        assert left == right


class TestSectionMap:
    def test_identity_morphism_gives_identity_matrices(self):
        sheaf = two_chain()
        ident = identity_morphism(sheaf)
        for U in enumerate_opens(sheaf.base):
            space = sections_over(sheaf, U)
            assert section_map(ident, U) == Matrix.identity(QQ, space.dim)

    def _spread_matrix(self, sheaf, x):
        space = sections_over(sheaf, open_star(sheaf.base, x))
        cols = [
            space.coordinates_of(section_from_value(
                sheaf, x,
                [QQ.one if i == j else QQ.zero for i in range(sheaf.dim(x))],
            ))
            for j in range(sheaf.dim(x))
        ]
        return Matrix(QQ, space.dim, sheaf.dim(x),
                      list(zip(*cols)) if cols else [[] for _ in range(space.dim)])

    def test_star_section_map_conjugate_to_the_component(self):
        rng = random.Random(1)
        for mor in random_morphisms(rng, 8):
            base = mor.source.base
            for x in base.elements:
                c_src = self._spread_matrix(mor.source, x)
                c_tgt = self._spread_matrix(mor.target, x)
                U = open_star(base, x)
                assert section_map(mor, U) @ c_src == c_tgt @ mor.components[x]

    def test_commutes_with_restriction(self):
        rng = random.Random(2)
        for mor in random_morphisms(rng, 6):
            opens = enumerate_opens(mor.source.base)
            for U in opens:
                for V in opens:
                    if not V.members <= U.members:
                        continue
                    left = restriction_matrix(mor.target, U, V) @ section_map(mor, U)
                    right = section_map(mor, V) @ restriction_matrix(mor.source, U, V)
                    assert left == right

    @pytest.mark.parametrize("field", CORE_FIELDS, ids=lambda f: f.name)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_block_diagonal_product(self, field, seed):
        # conjugating a sheaf by invertible point maps gives an isomorphic
        # sheaf, and the twists, alone or after a natural map into the sheaf,
        # give components whose denominators differ from point to point
        rng = random.Random(seed)
        base = random_poset(rng, rng.randint(1, 4))
        src = random_sheaf(rng, base, field=field)
        mid = random_sheaf(rng, base, field=field)
        natural = random_natural_components(rng, src, mid)
        twists = {x: random_invertible(rng, mid.dim(x), field) for x in base.elements}
        tgt = build_sheaf(base, mid.dims, {
            (p, q): twists[q] @ mid.restriction(p, q) @ twists[p].inverse()
            for p, q in mid.hasse}, field)
        for mor in (build_morphism(mid, tgt, twists), build_morphism(
                src, tgt, {x: twists[x] @ natural[x] for x in base.elements})):
            for U in enumerate_opens(base):
                got = section_map(mor, U)
                want = oracles.section_map_by_field_ops(mor, U)
                assert got == want and got.data == want.data


class TestStalkMaps:
    def test_identity_and_zero(self):
        sheaf = two_chain()
        assert identity_morphism(sheaf).component("a") == Matrix.identity(QQ, 1)
        assert zero_morphism(sheaf, sheaf).component("b") == Matrix.zeros(QQ, 1, 1)

    def test_direct_limit_square_commutes(self):
        rng = random.Random(3)
        for mor in random_morphisms(rng, 10):
            for p in mor.source.base.elements:
                induced, src_limit, tgt_limit = stalk_map_direct_limit(mor, p)
                assert induced @ src_limit.witness == tgt_limit.witness @ mor.component(p)

    def test_one_section_map_per_neighbourhood(self, monkeypatch):
        # a neighbourhood may hold several free columns; its section map is
        # made once, by section_map's memo, and only for the neighbourhoods
        # that hold one
        made = []

        def spy(morphism, U):
            if U.mask not in morphism._section_maps:
                made.append(U.mask)
            return section_map(morphism, U)

        monkeypatch.setattr(cellsheaf.morphism, "section_map", spy)
        for mor in random_morphisms(random.Random(3), 30):
            for p in mor.source.base.elements:
                made.clear()
                mor._section_maps.clear()
                _, limit, _ = stalk_map_direct_limit(mor, p)
                holding = {
                    U.mask for U in limit.neighbourhoods for c in limit.free_columns
                    if 0 <= c - limit.offsets[U.mask] < sections_over(mor.source, U).dim}
                assert sorted(made) == sorted(holding)

    def test_section_maps_are_made_once_per_morphism_and_open(self, monkeypatch):
        # the direct limits at different points share neighbourhoods, so a
        # section map is asked for again; it is solved once per pair
        asked, solved = [], []

        def spy_map(morphism, U):
            asked.append((id(morphism), U.mask))
            return section_map(morphism, U)

        def spy_sections(sheaf, U):
            solved.append(U.mask)
            return sections_over(sheaf, U)

        monkeypatch.setattr(cellsheaf.morphism, "section_map", spy_map)
        monkeypatch.setattr(cellsheaf.morphism, "sections_over", spy_sections)
        morphisms = random_morphisms(random.Random(3), 30)
        for mor in morphisms:
            for p in mor.source.base.elements:
                stalk_map_direct_limit(mor, p)
        pairs = len(set(asked))
        assert len(asked) > pairs  # 130 requests for 44 pairs
        assert len(solved) == 2 * pairs  # the source and the target space once each


class TestClassify:
    def test_identity_is_isomorphism(self):
        flags = classify(identity_morphism(two_chain()))
        assert flags.injective and flags.surjective and flags.isomorphism

    def test_doubling_is_isomorphism(self):
        sheaf = constant_sheaf(build_poset("ab", [("a", "b")]), 2)
        mor = build_morphism(sheaf, sheaf, {
            p: Matrix.identity(QQ, 2).scale(2) for p in sheaf.base.elements
        })
        assert classify(mor).isomorphism

    def test_rank_one_inclusion_into_rank_two(self):
        base = build_poset("ab", [("a", "b")])
        line = constant_sheaf(base, 1)
        plane = constant_sheaf(base, 2)
        include = Matrix.build(QQ, [[1], [0]])
        mor = build_morphism(line, plane, {"a": include, "b": include})
        flags = classify(mor)
        assert flags.injective and not flags.surjective and not flags.isomorphism

    def test_projection_is_surjective_only(self):
        base = build_poset("ab", [("a", "b")])
        plane = constant_sheaf(base, 2)
        line = constant_sheaf(base, 1)
        project = Matrix.build(QQ, [[1, 0]])
        mor = build_morphism(plane, line, {"a": project, "b": project})
        flags = classify(mor)
        assert flags.surjective and not flags.injective

    def test_isomorphism_iff_every_section_map_invertible(self):
        rng = random.Random(4)
        for mor in random_morphisms(rng, 25):
            assert classify(mor).isomorphism == section_maps_all_invertible(mor)

    def test_injective_iff_every_section_map_injective(self):
        rng = random.Random(5)
        for mor in random_morphisms(rng, 25):
            assert classify(mor).injective == section_maps_all_injective(mor)

    def test_pointwise_surjective_gives_surjective_star_maps(self):
        rng = random.Random(6)
        for mor in random_morphisms(rng, 15):
            if not classify(mor).surjective:
                continue
            for x in mor.source.base.elements:
                assert section_map(mor, open_star(mor.source.base, x)).is_surjective()


class TestMorphismFlags:
    def test_a_value_record(self):
        fields = dict(injective=True, surjective=False, isomorphism=False)
        assert_value_record(MorphismFlags, fields, "MorphismFlags(injective=True,"
                            " surjective=False, isomorphism=False)")
        assert hash(MorphismFlags(**fields)) == hash(MorphismFlags(True, False, False))
        assert MorphismFlags(True, True, True) != MorphismFlags(True, False, False)


class TestNegativeControl:
    def test_non_natural_components_break_section_maps_loudly(self):
        # bypass build_morphism: images of sections stop being sections,
        # so expressing them in the target basis must fail
        from cellsheaf import SheafMorphism, whole_space

        sheaf = two_chain()
        fake = SheafMorphism(sheaf, sheaf, {
            "a": Matrix.build(QQ, [[1]]), "b": Matrix.build(QQ, [[3]])
        })
        with pytest.raises(ValueError):
            section_map(fake, whole_space(sheaf.base))


class TestExtendFromBasis:
    def test_identity_family_extends_to_identity(self):
        sheaf = two_chain()
        ident = identity_morphism(sheaf)
        assert build_morphism(sheaf, sheaf, ident.components) == ident

    def test_zero_family_extends_to_zero(self):
        sheaf = two_chain()
        zero = zero_morphism(sheaf, sheaf)
        assert build_morphism(sheaf, sheaf, zero.components) == zero

    def test_roundtrip_on_random_morphisms(self):
        rng = random.Random(7)
        for mor in random_morphisms(rng, 10):
            again = build_morphism(mor.source, mor.target, mor.components)
            assert again == mor

    def test_naturality_violation_on_a_star_inclusion_rejected(self):
        sheaf = two_chain()
        with pytest.raises(NaturalityError):
            build_morphism(sheaf, sheaf, {
                "a": Matrix.build(QQ, [[1]]), "b": Matrix.build(QQ, [[2]])
            })

    def test_injective_star_family_extends_to_injective_morphism(self):
        base = build_poset("ab", [("a", "b")])
        line = constant_sheaf(base, 1)
        plane = constant_sheaf(base, 2)
        include = Matrix.build(QQ, [[1], [0]])
        mor = build_morphism(line, plane, {"a": include, "b": include})
        assert classify(mor).injective
        assert section_maps_all_injective(mor)

    def test_surjective_star_family_extends_to_surjective_star_maps(self):
        base = build_poset("ab", [("a", "b")])
        plane = constant_sheaf(base, 2)
        line = constant_sheaf(base, 1)
        project = Matrix.build(QQ, [[0, 1]])
        mor = build_morphism(plane, line, {"a": project, "b": project})
        assert classify(mor).surjective
        for x in base.elements:
            assert section_map(mor, open_star(base, x)).is_surjective()

    def test_extension_is_the_unique_natural_family(self):
        # on every open, the extension is pinned by its star restrictions:
        # the stacked restriction maps to stars are injective, so the
        # constraint system has exactly the section_map solution
        rng = random.Random(8)
        for mor in random_morphisms(rng, 8):
            base = mor.source.base
            for U in enumerate_opens(base):
                stars = [open_star(base, x) for x in U.sorted_members]
                stacked = vstack(QQ, sections_over(mor.target, U).dim, [
                    restriction_matrix(mor.target, U, S) for S in stars])
                assert stacked.is_injective()
                candidate = section_map(mor, U)
                for S in stars:
                    assert restriction_matrix(mor.target, U, S) @ candidate == (
                        section_map(mor, S) @ restriction_matrix(mor.source, U, S)
                    )
