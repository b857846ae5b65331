import random
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsheaf import (
    MonotoneMap,
    NotAntisymmetricError,
    Poset,
    PreOrder,
    QuotientResult,
    UnknownElementError,
    ValidationError,
    as_poset,
    build_poset,
    build_preorder,
    factor_through_quotient,
    hasse_edges,
    identity_map,
    open_violation,
    quotient_to_poset,
)

from helpers import (
    assert_value_record,
    posets,
    preorders,
    random_monotone_map,
    random_poset,
    random_preorder,
)
from oracles import (
    closure_by_table,
    first_antisymmetry_failure,
    hasse_edges_by_scan,
    open_violation_by_scan,
    quotient_by_scan,
)


def powerset_poset(ground):
    """All subsets of `ground` ordered by inclusion, named by their members."""
    subsets = []
    for r in range(len(ground) + 1):
        subsets.extend(combinations(ground, r))
    names = ["".join(s) if s else "e" for s in subsets]
    pairs = [
        (names[i], names[j])
        for i, a in enumerate(subsets)
        for j, b in enumerate(subsets)
        if i != j and set(a) <= set(b)
    ]
    return build_preorder(names, pairs)


@st.composite
def shuffled_posets(draw, max_n: int = 30) -> Poset:
    """Posets whose carrier order need not be a linear extension of the order."""
    n = draw(st.integers(1, max_n))
    height = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    names = [f"x{i}" for i in range(n)]
    return build_poset(names, [(names[a], names[b]) for a, b in pairs
                               if height[a] < height[b]])


@st.composite
def preorder_cases(draw, max_n: int = 12):
    """(carrier, generating pairs, subsets of carrier positions).

    The pairs are arbitrary, so they may close into cycles, or point up
    their labels' order only, which gives a poset. The carrier lists the
    labels shuffled, so it need not be a linear extension of the order.
    """
    n = draw(st.integers(1, max_n))
    labels = [f"x{i}" for i in range(n)]
    carrier = draw(st.permutations(labels))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a < b]
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))
    return carrier, [(labels[a], labels[b]) for a, b in pairs], subsets


def graded_poset(ranks: int, width: int, seed: int) -> Poset:
    """`ranks` levels of `width` points, each point below 1-3 points of the
    next level, listed in a shuffled carrier order."""
    rng = random.Random(seed)
    levels = [[f"r{r}w{w}" for w in range(width)] for r in range(ranks)]
    pairs = [(x, y) for lower, upper in zip(levels, levels[1:]) for x in lower
             for y in rng.sample(upper, rng.randint(1, 3))]
    names = [x for level in levels for x in level]
    rng.shuffle(names)
    return build_poset(names, pairs)


class TestBuildPreorder:
    def test_singleton_is_reflexive_only(self):
        p = build_preorder(["a"], [])
        assert p.related_pairs() == [("a", "a")]

    def test_transitivity_forced(self):
        p = build_preorder(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_two_cycle_closure(self):
        p = build_preorder(["a", "b"], [("a", "b"), ("b", "a")])
        assert p.leq("a", "b") and p.leq("b", "a")
        assert not p.is_poset()
        # strongly connected components of the relation digraph agree
        g = nx.DiGraph(p.related_pairs())
        sccs = {frozenset(c) for c in nx.strongly_connected_components(g)}
        assert sccs == {frozenset(["a", "b"])}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 25).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))))
    def test_closure_is_digraph_reachability(self, case):
        n, pairs = case
        names = [f"x{i}" for i in range(n)]
        p = build_preorder(names, [(names[a], names[b]) for a, b in pairs])
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        for i in range(n):
            reach = nx.descendants(g, i) | {i}
            assert p.up_set(names[i]) == {names[j] for j in reach}

    @pytest.mark.parametrize("pair", [("z", "a"), ("a", "z")], ids=["first", "second"])
    def test_unknown_endpoint_rejected(self, pair):
        with pytest.raises(UnknownElementError) as err:
            build_preorder(["a"], [pair])
        assert str(err.value) == "unknown element 'z' in relation pair"

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValidationError):
            build_preorder(["a", "a"], [])


@st.composite
def closure_cases(draw, max_n: int = 40):
    """(carrier, generating pairs): a shuffled carrier, arbitrary pairs, and
    now and then a cycle through some of the points and self-pairs."""
    n = draw(st.integers(1, max_n))
    labels = [f"x{i}" for i in range(n)]
    carrier = draw(st.permutations(labels))
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a < b]
    loop = draw(st.lists(point, max_size=6))
    pairs += list(zip(loop, loop[1:] + loop[:1]))
    pairs += [(a, a) for a in draw(st.lists(point, max_size=3))]
    pairs = draw(st.permutations(pairs))
    return carrier, [(labels[a], labels[b]) for a, b in pairs]


class TestClosurePass:
    """build_preorder's rows and hasse_edges against the table oracles."""

    @settings(max_examples=200, deadline=None)
    @given(closure_cases())
    def test_rows_match_the_table_closure(self, case):
        carrier, pairs = case
        p = build_preorder(carrier, pairs)
        leq = closure_by_table(carrier, pairs)
        assert list(p._up) == [sum(1 << j for j, v in enumerate(row) if v) for row in leq]
        # the public constructor derives _down from _up bit by bit
        assert p._down == PreOrder(p.elements, p._up)._down
        assert hash(p) == hash(PreOrder(p.elements, p._up))
        q = quotient_to_poset(p).quotient
        assert hasse_edges(q) == hasse_edges_by_scan(q)
        if p.is_poset():
            assert hasse_edges(p) == hasse_edges_by_scan(p)

    @pytest.mark.parametrize("top_first", [False, True])
    def test_3000_point_chain_has_its_closed_forms(self, top_first):
        n = 3000
        chain = [f"c{i}" for i in range(n)]
        carrier = chain[::-1] if top_first else chain
        p = build_poset(carrier, list(zip(chain, chain[1:])))
        full = (1 << n) - 1
        if top_first:
            # position k holds c(n-1-k): above it the positions 0..k
            up = [(1 << k + 1) - 1 for k in range(n)]
            covers = [(carrier[k], carrier[k - 1]) for k in range(1, n)]
        else:
            up = [full ^ ((1 << k) - 1) for k in range(n)]
            covers = list(zip(chain, chain[1:]))
        assert p._up == tuple(up)
        assert p._down == tuple(full ^ row | 1 << k for k, row in enumerate(up))
        assert hasse_edges(p) == covers


class TestRows:
    def test_rows_of_a_chain(self):
        p = build_preorder("abc", [("a", "b"), ("b", "c")])
        assert p._up == (0b111, 0b110, 0b100)
        assert p._down == (0b001, 0b011, 0b111)

    @pytest.mark.parametrize("rows", [
        [0b01, 0b00],                  # b is not below itself
        [0b101, 0b10],                 # a bit past the carrier
        [0b01],                        # one row short
        [-1, 0b10],                    # not a row of carrier bits
        [[True, False], [False, True]],  # a bool table, not masks
    ])
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValidationError):
            PreOrder("ab", rows)


class TestAgainstTableOracles:
    @settings(max_examples=150, deadline=None)
    @given(preorder_cases())
    def test_relation_queries_match_the_bool_table(self, case):
        carrier, pairs, subsets = case
        leq = closure_by_table(carrier, pairs)
        p = build_preorder(carrier, pairs)
        pos = range(len(carrier))
        for i, x in enumerate(carrier):
            assert p.up_set(x) == {carrier[j] for j in pos if leq[i][j]}
            assert p.down_set(x) == {carrier[j] for j in pos if leq[j][i]}
            for j, y in enumerate(carrier):
                assert p.leq(x, y) is leq[i][j]
        for strict in (False, True):
            assert p.related_pairs(strict=strict) == [
                (carrier[i], carrier[j]) for i in pos for j in pos
                if leq[i][j] and not (strict and i == j)
            ]

        failure = first_antisymmetry_failure(leq)
        assert p.is_poset() == (failure is None)
        if failure is None:
            assert hasse_edges(p) == hasse_edges_by_scan(p)
        else:
            with pytest.raises(NotAntisymmetricError) as err:
                as_poset(p)
            assert (err.value.x, err.value.y) == (carrier[failure[0]], carrier[failure[1]])

        classes, seen = [], set()
        for i in pos:
            if i not in seen:
                cls = [j for j in pos if leq[i][j] and leq[j][i]]
                seen.update(cls)
                classes.append(cls)
        q = quotient_to_poset(p)
        assert q.classes == tuple(tuple(carrier[j] for j in cls) for cls in classes)
        assert q.quotient.elements == tuple(carrier[cls[0]] for cls in classes)
        for a in classes:
            for b in classes:
                assert q.quotient.leq(carrier[a[0]], carrier[b[0]]) is leq[a[0]][b[0]]
        assert q.projection.mapping == {
            carrier[j]: carrier[cls[0]] for cls in classes for j in cls}
        assert hasse_edges(q.quotient) == hasse_edges_by_scan(q.quotient)

        for subset in subsets:
            members = {carrier[j] for j in subset}
            closed = {carrier[j] for j in pos if any(leq[i][j] for i in subset)}
            for s in (members, closed):
                assert open_violation(p, s) == open_violation_by_scan(p, s)
            assert open_violation(p, closed) is None


class TestIsPoset:
    def test_chain(self):
        assert build_preorder("abc", [("a", "b"), ("b", "c")]).is_poset()

    def test_two_cycle_is_not(self):
        assert not build_preorder("ab", [("a", "b"), ("b", "a")]).is_poset()

    def test_powerset_inclusion(self):
        assert powerset_poset("12").is_poset()

    def test_as_poset_shares_the_preorder_rows(self):
        pre = build_preorder(["c", "a", "b"], [("a", "b"), ("c", "a")])
        p = as_poset(pre)
        assert isinstance(p, Poset)
        assert p._up is pre._up and p._down is pre._down and p._idx is pre._idx
        fresh = Poset(pre.elements, pre._up)
        assert p == fresh and hash(p) == hash(fresh) == hash(pre)
        assert hasse_edges(p) == hasse_edges(fresh) == [("c", "a"), ("a", "b")]

    def test_as_poset_witness(self):
        pre = build_preorder("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(NotAntisymmetricError) as err:
            as_poset(pre)
        assert {err.value.x, err.value.y} == {"a", "b"}


class TestQuotient:
    def test_poset_quotient_is_bijective(self):
        p = build_poset("abc", [("a", "b"), ("b", "c")])
        q = quotient_to_poset(p)
        assert q.quotient.elements == p.elements
        assert all(len(cls) == 1 for cls in q.classes)

    def test_two_cycle_collapses(self):
        p = build_preorder("ab", [("a", "b"), ("b", "a")])
        q = quotient_to_poset(p)
        assert len(q.quotient) == 1
        assert q.projection("a") == q.projection("b") == "a"

    def test_cardinality_preorder_collapses_to_chain(self):
        # finite subsets of {1,2,3} compared by size
        subsets = []
        for r in range(4):
            subsets.extend(combinations("123", r))
        names = ["".join(s) if s else "e" for s in subsets]
        pairs = [
            (names[i], names[j])
            for i, a in enumerate(subsets)
            for j, b in enumerate(subsets)
            if len(a) <= len(b)
        ]
        q = quotient_to_poset(build_preorder(names, pairs))
        assert len(q.quotient) == 4
        assert len(hasse_edges(q.quotient)) == 3  # a 4-chain
        sizes = sorted(len(cls) for cls in q.classes)
        assert sizes == [1, 1, 3, 3]

    def test_classes_match_tarjan_oracle(self):
        rng = random.Random(3)
        for _ in range(40):
            p = random_preorder(rng, rng.randint(1, 6))
            g = nx.DiGraph(p.related_pairs())
            g.add_nodes_from(p.elements)
            oracle = {frozenset(c) for c in nx.strongly_connected_components(g)}
            ours = {frozenset(cls) for cls in quotient_to_poset(p).classes}
            assert ours == oracle

    @settings(max_examples=200, deadline=None)
    @given(preorders(max_n=8))
    def test_matches_the_bit_scan_quotient(self, p):
        classes, quotient, mapping = quotient_by_scan(p)
        q = quotient_to_poset(p)
        assert q.classes == classes
        assert q.quotient.elements == quotient.elements
        assert (q.quotient._up, q.quotient._down) == (quotient._up, quotient._down)
        assert q.projection.mapping == mapping
        assert hasse_edges(q.quotient) == hasse_edges_by_scan(quotient)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_3000_point_chain_of_cycles(self, n):
        # 3,000 points in cycles of n, each cycle below the next
        names = [f"c{i}" for i in range(3000)]
        cycles = [names[k:k + n] for k in range(0, len(names), n)]
        pairs = [(a, b) for c in cycles for a, b in zip(c, c[1:] + c[:1])]
        pairs += [(c[-1], d[0]) for c, d in zip(cycles, cycles[1:])]
        q = quotient_to_poset(build_preorder(names, pairs))
        assert q.classes == tuple(map(tuple, cycles))
        reps = [c[0] for c in cycles]
        assert hasse_edges(q.quotient) == list(zip(reps, reps[1:]))

    def test_idempotent_up_to_isomorphism(self):
        rng = random.Random(4)
        for _ in range(30):
            p = random_preorder(rng, rng.randint(1, 6))
            q1 = quotient_to_poset(p)
            q2 = quotient_to_poset(q1.quotient)
            send = q2.projection
            assert len(q2.quotient) == len(q1.quotient)
            for x in q1.quotient.elements:
                for y in q1.quotient.elements:
                    assert q1.quotient.leq(x, y) == q2.quotient.leq(send(x), send(y))


class TestFactorThroughQuotient:
    def test_projection_factors_as_identity(self):
        p = build_preorder("ab", [("a", "b"), ("b", "a")])
        q = quotient_to_poset(p)
        fbar = factor_through_quotient(q.projection, q)
        assert fbar.mapping == {"a": "a"}

    def test_constant_map_factors_constant(self):
        p = build_preorder("abc", [("a", "b"), ("b", "a")])
        target = build_poset("xy", [("x", "y")])
        f = MonotoneMap(p, target, {"a": "y", "b": "y", "c": "y"})
        fbar = factor_through_quotient(f, quotient_to_poset(p))
        assert set(fbar.mapping.values()) == {"y"}

    def test_two_cycle_to_singleton(self):
        p = build_preorder("ab", [("a", "b"), ("b", "a")])
        target = build_poset(["t"], [])
        f = MonotoneMap(p, target, {"a": "t", "b": "t"})
        q = quotient_to_poset(p)
        fbar = factor_through_quotient(f, q)
        assert fbar.mapping == {"a": "t"}

    def test_rejects_a_map_from_another_source(self):
        q = quotient_to_poset(build_preorder("ab", [("a", "b"), ("b", "a")]))
        f = identity_map(build_poset("ab", []))
        with pytest.raises(ValidationError) as err:
            factor_through_quotient(f, q)
        assert (type(err.value), str(err.value)) == (
            ValidationError, "map and quotient have different sources")

    def test_rejects_non_poset_target(self):
        p = build_preorder("ab", [])
        bad_target = build_preorder("xy", [("x", "y"), ("y", "x")])
        f = MonotoneMap(p, bad_target, {"a": "x", "b": "y"})
        with pytest.raises(ValidationError):
            factor_through_quotient(f, quotient_to_poset(p))

    def test_rejects_non_monotone(self):
        p = build_preorder("ab", [("a", "b")])
        target = build_poset("xy", [("x", "y")])
        f = MonotoneMap(p, target, {"a": "y", "b": "x"})
        with pytest.raises(ValidationError):
            factor_through_quotient(f, quotient_to_poset(p))

    def test_universal_property_with_uniqueness(self):
        rng = random.Random(9)
        for _ in range(25):
            p = random_preorder(rng, rng.randint(1, 5))
            target = random_poset(rng, rng.randint(1, 4))
            f = random_monotone_map(rng, p, target)
            q = quotient_to_poset(p)
            fbar = factor_through_quotient(f, q)
            assert fbar.is_monotone()
            for x in p.elements:
                assert fbar(q.projection(x)) == f(x)
            # exhaust all candidate maps on the quotient
            reps = q.quotient.elements
            matches = []
            for values in product(target.elements, repeat=len(reps)):
                g = MonotoneMap(q.quotient, target, dict(zip(reps, values)))
                if all(g(q.projection(x)) == f(x) for x in p.elements):
                    if g.is_monotone():
                        matches.append(g)
            assert matches == [fbar]


class TestMonotone:
    def test_identity(self):
        p = build_poset("ab", [("a", "b")])
        assert identity_map(p).is_monotone()

    def test_collapse_chain(self):
        p = build_poset("abc", [("a", "b"), ("b", "c")])
        t = build_poset(["x"], [])
        assert MonotoneMap(p, t, {"a": "x", "b": "x", "c": "x"}).is_monotone()

    def test_swap_two_chain(self):
        p = build_poset("ab", [("a", "b")])
        assert not MonotoneMap(p, p, {"a": "b", "b": "a"}).is_monotone()

    def test_map_must_cover_source(self):
        p = build_poset("ab", [("a", "b")])
        with pytest.raises(ValidationError):
            MonotoneMap(p, p, {"a": "a"})


class TestRecords:
    def test_monotone_map_is_a_value_record_hashed_by_its_ends(self):
        p = build_poset(["a", "b"], [("a", "b")])
        mapping = {"a": "a", "b": "b"}
        assert_value_record(
            MonotoneMap, dict(source=p, target=p, mapping=mapping),
            "MonotoneMap(source=Poset(['a', 'b'], [('a', 'b')]),"
            " target=Poset(['a', 'b'], [('a', 'b')]), mapping={'a': 'a', 'b': 'b'})")
        identity, constant = MonotoneMap(p, p, mapping), MonotoneMap(p, p, {"a": "b", "b": "b"})
        assert identity != constant
        equal_poset = build_poset(["a", "b"], [("a", "b")])
        assert hash(identity) == hash(constant) == hash(identity_map(equal_poset))
        mapping["a"] = "b"  # the map holds its own copy
        assert identity("a") == "a" and identity == identity_map(p)

    def test_quotient_result_is_a_value_record_hashed_by_value(self):
        p = build_preorder(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
        q = quotient_to_poset(p)
        assert_value_record(
            QuotientResult,
            dict(quotient=q.quotient, projection=q.projection, classes=q.classes),
            "QuotientResult(quotient=Poset(['a', 'c'], [('a', 'c')]), projection=MonotoneMap("
            "source=PreOrder(['a', 'b', 'c'], [('a', 'b'), ('a', 'c'), ('b', 'a'), ('b', 'c')]),"
            " target=Poset(['a', 'c'], [('a', 'c')]), mapping={'a': 'a', 'b': 'a', 'c': 'c'}),"
            " classes=(('a', 'b'), ('c',)))")
        again = quotient_to_poset(build_preorder(p.elements, [("a", "b"), ("b", "a"), ("b", "c")]))
        assert again == q and hash(again) == hash(q)
        assert quotient_to_poset(build_preorder(p.elements, [("a", "b"), ("b", "a")])) != q


class TestHasse:
    def test_chain(self):
        p = build_poset("abc", [("a", "b"), ("b", "c")])
        assert hasse_edges(p) == [("a", "b"), ("b", "c")]

    def test_antichain(self):
        assert hasse_edges(build_poset("abc", [])) == []

    def test_powerset_of_two(self):
        p = as_poset(powerset_poset("12"))
        edges = hasse_edges(p)
        assert len(edges) == 4
        assert ("e", "12") not in edges

    def test_roundtrip_exhaustive_small(self):
        # every upward generating set on up to 4 points
        for n in range(1, 5):
            names = [chr(ord("a") + i) for i in range(n)]
            all_pairs = [
                (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
            ]
            for mask in range(1 << len(all_pairs)):
                pairs = [e for i, e in enumerate(all_pairs) if mask >> i & 1]
                p = build_poset(names, pairs)
                assert build_poset(names, hasse_edges(p)) == p

    def test_roundtrip_random_up_to_eight(self):
        rng = random.Random(2)
        for _ in range(40):
            p = random_poset(rng, rng.randint(1, 8))
            assert build_poset(p.elements, hasse_edges(p)) == p

    @settings(max_examples=80, deadline=None)
    @given(posets())
    def test_roundtrip_property(self, p):
        assert build_poset(p.elements, hasse_edges(p)) == p

    @settings(max_examples=50, deadline=None)
    @given(posets())
    def test_covering_pairs_have_nothing_between(self, p):
        for x, y in hasse_edges(p):
            assert p.lt(x, y)
            assert not any(p.lt(x, z) and p.lt(z, y) for z in p.elements)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_posets())
    def test_matches_cubic_scan(self, p):
        assert hasse_edges(p) == hasse_edges_by_scan(p)

    def test_matches_cubic_scan_on_graded_150_points(self):
        p = graded_poset(10, 15, seed=4)
        assert len(p) == 150
        edges = hasse_edges(p)
        assert edges == hasse_edges_by_scan(p)
        assert len(edges) > 140

    def test_result_is_a_fresh_list(self):
        p = build_poset("abc", [("a", "b"), ("b", "c")])
        edges = hasse_edges(p)
        edges.append(("a", "c"))
        edges[0] = ("c", "a")
        assert hasse_edges(p) == [("a", "b"), ("b", "c")]
        assert hasse_edges(p) is not hasse_edges(p)

    def test_non_poset_preorder_rejected(self):
        p = build_preorder("abc", [("a", "b"), ("b", "a"), ("b", "c")])
        with pytest.raises(ValidationError):
            hasse_edges(p)

    def test_preorder_that_is_a_poset_accepted(self):
        p = build_preorder("abc", [("a", "b"), ("b", "c")])
        assert hasse_edges(p) == [("a", "b"), ("b", "c")]


class TestWellKnownOrders:
    def test_pointwise_function_order_is_a_grid(self):
        # maps from a 2-point set into a 2-chain, compared pointwise
        chain = ["lo", "hi"]
        functions = [(a, b) for a in chain for b in chain]
        names = [f"{a}_{b}" for a, b in functions]
        chain_leq = {("lo", "lo"), ("lo", "hi"), ("hi", "hi")}
        pairs = [
            (names[i], names[j])
            for i, f in enumerate(functions)
            for j, g in enumerate(functions)
            if i != j and (f[0], g[0]) in chain_leq and (f[1], g[1]) in chain_leq
        ]
        p = build_preorder(names, pairs)
        assert p.is_poset()
        assert len(hasse_edges(as_poset(p))) == 4  # the 2x2 grid

    def test_simplicial_complex_face_order(self):
        # faces of a filled triangle on vertices 1, 2, 3
        simplices = ["1", "2", "3", "12", "13", "23", "123"]
        pairs = [
            (a, b)
            for a in simplices
            for b in simplices
            if a != b and set(a) <= set(b)
        ]
        p = build_poset(simplices, pairs)
        assert p.is_poset()
        # each vertex is covered by exactly its two edges
        assert [e for e in hasse_edges(p) if e[0] == "1"] == [("1", "12"), ("1", "13")]
        # the up-set of a vertex collects every simplex containing it
        assert p.up_set("2") == {"2", "12", "23", "123"}
