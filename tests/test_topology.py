import random
import subprocess
import sys

import pytest

from cellsheaf import (
    EnumerationLimitError,
    MonotoneMap,
    NotOpenError,
    OpenSet,
    ValidationError,
    build_poset,
    build_preorder,
    empty_open,
    enumerate_opens,
    is_open,
    open_star,
    open_violation,
    union_of_stars,
    whole_space,
)

from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_opens,
    child_env,
    posets,
    preorders,
    random_monotone_map,
    random_poset,
    random_preorder,
)
from oracles import (
    basis_index_by_scan,
    check_index_lemma,
    is_continuous,
    open_violation_by_scan,
)


def square():
    return build_poset(
        ["p", "q1", "q2", "r"],
        [("p", "q1"), ("p", "q2"), ("q1", "r"), ("q2", "r")],
    )


class TestStarsAndClosures:
    def test_star_of_maximal_is_singleton(self):
        assert open_star(square(), "r").members == {"r"}

    def test_star_of_bottom_is_everything(self):
        assert open_star(square(), "p").members == {"p", "q1", "q2", "r"}

    def test_star_of_middle(self):
        assert open_star(square(), "q1").members == {"q1", "r"}

    def test_closure_of_minimal_is_singleton(self):
        assert square().down_set("p") == {"p"}

    def test_closure_of_top(self):
        assert square().down_set("r") == {"p", "q1", "q2", "r"}

    def test_closure_complement_is_open(self):
        rng = random.Random(1)
        for _ in range(25):
            p = random_preorder(rng, rng.randint(1, 6))
            for x in p.elements:
                comp = frozenset(p.elements) - p.down_set(x)
                assert is_open(p, comp)

    def test_closure_is_smallest_closed_superset(self):
        rng = random.Random(2)
        for _ in range(15):
            p = random_poset(rng, rng.randint(1, 5))
            closed_sets = [
                frozenset(p.elements) - U.members for U in enumerate_opens(p)
            ]
            for x in p.elements:
                containing = [c for c in closed_sets if x in c]
                smallest = min(containing, key=len)
                assert p.down_set(x) == smallest
                assert all(smallest <= c for c in containing if len(c) == len(smallest))


class TestIsOpen:
    def test_empty_and_full(self):
        p = square()
        assert is_open(p, frozenset())
        assert is_open(p, frozenset(p.elements))

    def test_single_non_maximal_point_fails(self):
        assert not is_open(square(), {"p"})
        assert open_violation(square(), {"p"}) == ("p", "q1")

    def test_openset_constructor_rejects_with_witness(self):
        with pytest.raises(NotOpenError) as err:
            OpenSet(square(), frozenset(["q1"]))
        assert err.value.element == "q1"
        assert err.value.successor == "r"

    def test_first_unknown_member_is_named_under_every_hash_seed(self):
        # the members are read in the order given, not in a set's order,
        # which would depend on the string-hash seed of the process
        code = ("from cellsheaf import OpenSet, build_poset\n"
                "try:\n"
                "    OpenSet(build_poset(['a', 'b'], [('a', 'b')]), ['zz', 'yy', 'xx'])\n"
                "except Exception as exc:\n"
                "    print(type(exc).__name__, exc)\n")
        for hash_seed in "0123":
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=child_env(PYTHONHASHSEED=hash_seed))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "UnknownElementError unknown element 'zz'\n", hash_seed

    def test_unions_and_intersections_exhaustive(self):
        rng = random.Random(3)
        for _ in range(12):
            p = random_poset(rng, rng.randint(1, 5))
            opens = enumerate_opens(p)
            for U in opens:
                for V in opens:
                    assert is_open(p, U.members | V.members)
                    assert is_open(p, U.members & V.members)

    def test_arbitrary_intersections_including_all(self):
        rng = random.Random(4)
        for _ in range(12):
            p = random_poset(rng, rng.randint(1, 5))
            opens = enumerate_opens(p)
            total = frozenset(p.elements)
            for U in opens:
                total &= U.members
            assert is_open(p, total)
            for _ in range(20):
                chosen = rng.sample(opens, min(3, len(opens)))
                inter = frozenset(p.elements)
                for U in chosen:
                    inter &= U.members
                assert is_open(p, inter)


class TestEnumerateOpens:
    def test_antichain_counts(self):
        assert len(enumerate_opens(build_poset("ab", []))) == 4

    def test_two_chain(self):
        opens = enumerate_opens(build_poset("ab", [("a", "b")]))
        assert [set(U.members) for U in opens] == [set(), {"b"}, {"a", "b"}]

    def test_square_matches_brute_force(self):
        p = square()
        opens = enumerate_opens(p)
        assert len(opens) == 6
        assert {U.members for U in opens} == set(brute_force_opens(p))

    def test_matches_brute_force_on_random_spaces(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_preorder(rng, rng.randint(1, 5))
            assert {U.members for U in enumerate_opens(p)} == set(brute_force_opens(p))

    def test_every_open_is_union_of_member_stars(self):
        rng = random.Random(6)
        for _ in range(20):
            p = random_preorder(rng, rng.randint(1, 5))
            for U in enumerate_opens(p):
                union = union_of_stars(p, U.members) if U.members else frozenset()
                if U.members:
                    assert union.members == U.members
                else:
                    assert U.members == frozenset()

    def test_limit_guard(self):
        p = build_poset([str(i) for i in range(6)], [])
        with pytest.raises(EnumerationLimitError):
            enumerate_opens(p, max_elements=5)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(posets(), preorders()))
    def test_enumeration_matches_power_set_filter(self, p):
        expected = sorted(brute_force_opens(p),
                          key=lambda m: (len(m), sorted(map(p.elements.index, m))))
        assert [U.members for U in enumerate_opens(p)] == expected


class TestTrustedConstructions:
    """Stars, unions of stars, the enumeration, and ∩ and ∪ of two opens
    are built from masks without an up-closure check. Each result must pass
    the scanning oracle, and the mask-backed accessors must agree with their
    definitions on the member frozenset."""

    @staticmethod
    def assert_agrees_with_members(p, U):
        members = U.members
        assert isinstance(members, frozenset)
        assert U.sorted_members == tuple(sorted(members, key=p.elements.index))
        assert members == frozenset(U.sorted_members)
        assert U.sort_key() == (len(members), tuple(sorted(map(p.elements.index, members))))
        assert all((x in U) == (x in members) for x in p.elements)
        checked = OpenSet(p, members)
        assert U == checked and hash(U) == hash(checked)
        assert U.mask == checked.mask

    @settings(max_examples=80, deadline=None)
    @given(preorders())
    def test_trusted_opens_pass_the_scan_and_match_their_members(self, p):
        accepted = {}

        def check(U):
            if U.members not in accepted:
                assert open_violation_by_scan(p, U.members) is None
                self.assert_agrees_with_members(p, U)
                accepted[U.members] = U
            return U

        for x in p.elements:
            star = check(open_star(p, x))
            assert star.members == {y for y in p.elements if p.leq(x, y)}
        check(union_of_stars(p, p.elements[::2]))
        assert check(whole_space(p)).members == frozenset(p.elements)
        assert check(empty_open(p)).members == frozenset()

        opens = [check(U) for U in enumerate_opens(p)]
        assert len({U.members for U in opens}) == len(opens)
        assert [U.sort_key() for U in opens] == sorted(U.sort_key() for U in opens)
        for U in opens:
            for V in opens:
                assert check(U.intersection(V)).members == U.members & V.members
                assert check(U.union(V)).members == U.members | V.members
                assert (U <= V) == (U.members <= V.members)
                assert (U == V) == (U.members == V.members)

    def test_checked_construction_still_rejects_with_the_scan_witness(self):
        pre = build_preorder(["c", "a", "b"], [("a", "b"), ("b", "a"), ("c", "a")])
        for members in [{"c"}, {"a"}, {"c", "a"}, {"b", "c"}]:
            witness = open_violation_by_scan(pre, members)
            with pytest.raises(NotOpenError) as err:
                OpenSet(pre, members)
            assert (err.value.element, err.value.successor) == witness

    def test_opens_on_different_carriers_do_not_combine(self):
        a = open_star(build_poset("ab", []), "a")
        b = open_star(build_poset("ba", []), "b")
        assert a != b
        for combine in (a.union, a.intersection, a.__le__):
            with pytest.raises(ValidationError):
                combine(b)


class TestStarOrdering:
    def test_star_containment_reverses_order(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_preorder(rng, rng.randint(1, 6))
            for x in p.elements:
                for y in p.elements:
                    contained = open_star(p, x).members <= open_star(p, y).members
                    assert contained == p.leq(y, x)

    def test_equal_stars_force_equal_points_on_posets(self):
        rng = random.Random(8)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 6))
            for x in p.elements:
                for y in p.elements:
                    if open_star(p, x).members == open_star(p, y).members:
                        assert x == y

    def test_equal_stars_can_differ_on_preorders(self):
        pre = build_preorder("ab", [("a", "b"), ("b", "a")])
        assert open_star(pre, "a").members == open_star(pre, "b").members


class TestBasisIndex:
    def test_fast_path_matches_naive_scan(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 5))
            for U in enumerate_opens(p):
                assert U.sorted_members == basis_index_by_scan(U)

    def test_index_of_star_is_its_members(self):
        p = square()
        U = open_star(p, "p")
        assert basis_index_by_scan(U) == U.sorted_members

    def test_empty_open(self):
        assert basis_index_by_scan(OpenSet(square(), frozenset())) == ()

    def test_union_example(self):
        p = square()
        U = union_of_stars(p, ["q1", "q2"])
        assert basis_index_by_scan(U) == ("q1", "q2", "r")


class TestIndexLemma:
    def test_equal_opens(self):
        p = square()
        U = open_star(p, "q1")
        assert check_index_lemma(U, U) == (True, True, True)

    def test_strict_inclusion_and_disjoint(self):
        p = square()
        assert check_index_lemma(open_star(p, "r"), open_star(p, "q1")) == (
            True, True, True,
        )
        two = build_poset("ab", [])
        assert check_index_lemma(open_star(two, "a"), open_star(two, "b")) == (
            True, True, True,
        )

    def test_all_pairs_on_small_posets(self):
        rng = random.Random(10)
        for _ in range(10):
            p = random_poset(rng, rng.randint(1, 5))
            opens = enumerate_opens(p)
            for U in opens:
                for V in opens:
                    assert check_index_lemma(U, V) == (True, True, True)


class TestContinuity:
    def test_identity(self):
        p = square()
        assert is_continuous(MonotoneMap(p, p, {x: x for x in p.elements}))

    def test_monotone_maps_are_continuous(self):
        rng = random.Random(11)
        for _ in range(25):
            src = random_poset(rng, rng.randint(1, 6))
            tgt = random_poset(rng, rng.randint(1, 6))
            f = random_monotone_map(rng, src, tgt)
            assert f.is_monotone()
            assert is_continuous(f)

    def test_non_monotone_swap_is_discontinuous(self):
        p = build_poset("ab", [("a", "b")])
        swap = MonotoneMap(p, p, {"a": "b", "b": "a"})
        assert not swap.is_monotone()
        assert not is_continuous(swap)
        # witness: the preimage of the open {b} is {a}, which is not open
        assert not is_open(p, {x for x in p.elements if swap.mapping[x] == "b"})
