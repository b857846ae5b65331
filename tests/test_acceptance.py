"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line. Expected
values are either forced by definitions, computed by an independent
brute-force oracle (power-set enumeration for topology, tuple enumeration
over GF(5) for section counts, exhaustive candidate-map enumeration for
quotient uniqueness), or are exact-agreement requirements between two
independently computed routes. Everything is exact; there are no
tolerances anywhere.
"""

import json
import random
from itertools import product

import pytest

from cellsheaf import (
    GlueConflictError,
    Matrix,
    MonotoneMap,
    QQ,
    Section,
    build_poset,
    classify,
    enumerate_opens,
    factor_through_quotient,
    glue,
    is_open,
    kernel_basis,
    open_star,
    parse_text,
    quotient_to_poset,
    sections_over,
    stalk_at,
    subspace_from_rows,
    verify_base_sheaf_axioms,
    verify_sheaf_axioms_extended,
    whole_space,
)
from cellsheaf.cli import main as cli_main

from helpers import (
    FIXTURES,
    random_monotone_map,
    random_morphisms,
    random_poset,
    random_preorder,
    random_sheaf,
)
from oracles import section_maps_all_injective, section_maps_all_invertible

FIXTURE_NAMES = ["square", "span", "double_target", "fan"]


def report(number: int, label: str, ok: bool) -> None:
    print(f"acceptance-{number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed"


@pytest.fixture(scope="module")
def sheaf_corpus():
    """200 random sheaves, up to 6 points and point dimension 3."""
    rng = random.Random(20260811)
    corpus = []
    for _ in range(200):
        base = random_poset(rng, rng.randint(2, 6))
        corpus.append(random_sheaf(rng, base, max_dim=3))
    return corpus


def count_compatible_tuples_mod5(sheaf, U) -> int:
    """Brute-force oracle over GF(5): enumerate every tuple of point values
    and count the ones every comparable pair accepts. Plain modular integer
    arithmetic; no shared code with the kernel solver."""
    pts = list(U.sorted_members)
    dims = [sheaf.dim(x) for x in pts]
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    constraints = []
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if p != q and sheaf.base.leq(p, q):
                rows = [[v.value for v in row]
                        for row in sheaf.restriction(p, q).data]
                constraints.append((i, j, rows))
    count = 0
    for tup in product(range(5), repeat=offsets[-1]):
        ok = True
        for i, j, rows in constraints:
            src = tup[offsets[i]: offsets[i + 1]]
            tgt = tup[offsets[j]: offsets[j + 1]]
            for r, row in enumerate(rows):
                if (sum(a * b for a, b in zip(row, src)) - tgt[r]) % 5:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def minimal_projection_rows(sheaf, space, minimal):
    offs = space.offsets()
    rows = []
    for vec in space.basis.rows:
        row = []
        for x in minimal:
            row.extend(vec[offs[x]: offs[x] + sheaf.dim(x)])
        rows.append(row)
    return rows


def cli_sections_dim(capsys, name, field=None):
    argv = ["sections", str(FIXTURES / f"{name}.sheaf"), "--open", "set:U", "--json"]
    if field:
        argv += ["--field", field]
    code = cli_main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    return payload["data"]["dim"]


def test_criterion_1_fixture_section_modules(capsys):
    ok = True

    # square: over the union of the two middle stars, sections are the
    # pairs at (q1, q2) whose images at the top agree
    realized = parse_text((FIXTURES / "square.sheaf").read_text())
    sheaf = realized.sheaves["main"]
    U = realized.opens["U"]
    space = sections_over(sheaf, U)
    ok &= space.dim == 1
    pair_dim = sheaf.dim("q1") + sheaf.dim("q2")
    equalizer = kernel_basis(Matrix.build(QQ, [[2, -3]], cols=pair_dim))
    projected = subspace_from_rows(
        QQ, pair_dim, minimal_projection_rows(sheaf, space, ["q1", "q2"]))
    ok &= projected == equalizer and projected.dim == space.dim

    # span: over the whole space, tuples at the minimal points whose images
    # at the shared top agree pairwise
    realized = parse_text((FIXTURES / "span.sheaf").read_text())
    sheaf = realized.sheaves["main"]
    space = sections_over(sheaf, realized.opens["U"])
    rows = [
        [1, -1, -1, 0],   # rho1(s1) = rho2(s2)
        [0, 1, 1, -2],    # rho2(s2) = rho3(s3)
    ]
    equalizer = kernel_basis(Matrix.build(QQ, rows, cols=4))
    projected = subspace_from_rows(
        QQ, 4, minimal_projection_rows(sheaf, space, ["p1", "p2", "p3"]))
    ok &= projected == equalizer and projected.dim == space.dim == 2

    # double_target: agreement is required at both tops simultaneously
    realized = parse_text((FIXTURES / "double_target.sheaf").read_text())
    sheaf = realized.sheaves["main"]
    space = sections_over(sheaf, realized.opens["U"])
    rows = [
        [1, -1, 0, 0],    # at q1: s1 = first(s2)
        [0, 1, 0, -1],    # at q1: first(s2) = s3
        [2, 0, -1, 0],    # at q2: 2 s1 = second(s2)
        [0, 0, 1, -2],    # at q2: second(s2) = 2 s3
    ]
    equalizer = kernel_basis(Matrix.build(QQ, rows, cols=4))
    projected = subspace_from_rows(
        QQ, 4, minimal_projection_rows(sheaf, space, ["p1", "p2", "p3"]))
    ok &= projected == equalizer and projected.dim == space.dim == 1

    # fan: the maximal stars are singletons, so sections over their union
    # form the full product, while the bottom star recovers the bottom space
    realized = parse_text((FIXTURES / "fan.sheaf").read_text())
    sheaf = realized.sheaves["main"]
    space = sections_over(sheaf, realized.opens["U"])
    ok &= space.dim == 4 and space.basis.ambient_dim == 4
    ok &= sections_over(sheaf, whole_space(sheaf.base)).dim == 2

    # the CLI reports the same dimensions over the rationals
    closed_form_dims = {"square": 1, "span": 2, "double_target": 1, "fan": 4}
    for name, dim in closed_form_dims.items():
        ok &= cli_sections_dim(capsys, name) == dim

    # GF(5) instances: exhaustive tuple counts must equal 5^dim exactly,
    # both for the library result and for the CLI-reported dimension
    for name in FIXTURE_NAMES:
        realized = parse_text((FIXTURES / f"{name}.sheaf").read_text(),
                              field_override="fp:5")
        sheaf = realized.sheaves["main"]
        for U in [realized.opens["U"], whole_space(sheaf.base)]:
            expected = 5 ** sections_over(sheaf, U).dim
            ok &= count_compatible_tuples_mod5(sheaf, U) == expected
        cli_dim = cli_sections_dim(capsys, name, field="fp:5")
        ok &= count_compatible_tuples_mod5(sheaf, realized.opens["U"]) == 5 ** cli_dim

    report(1, "fixture-section-modules-match-oracles", ok)


def test_criterion_2_stalks_match_direct_limits(sheaf_corpus):
    ok = True
    for sheaf in sheaf_corpus:
        for point in sheaf.base.elements:
            result = stalk_at(sheaf, point)
            ok &= result.theorem_dim == result.oracle_dim
            ok &= result.iso_witness.is_invertible()
    report(2, "stalk-vs-direct-limit-on-200-random-sheaves", ok)


def test_criterion_3_axiom_suites_on_corpus(sheaf_corpus):
    ok = True
    for sheaf in sheaf_corpus:
        ok &= verify_base_sheaf_axioms(sheaf).ok
        ok &= verify_sheaf_axioms_extended(sheaf).ok
    report(3, "gluing-axioms-zero-failures-on-corpus", ok)


def test_criterion_4_quotient_universal_property():
    rng = random.Random(4)
    ok = True
    for _ in range(100):
        pre = random_preorder(rng, rng.randint(1, 6))
        target = random_poset(rng, rng.randint(1, 5))
        f = random_monotone_map(rng, pre, target)
        q = quotient_to_poset(pre)
        fbar = factor_through_quotient(f, q)
        ok &= fbar.is_monotone()
        ok &= all(fbar(q.projection(x)) == f(x) for x in pre.elements)
        if len(q.quotient) <= 5:
            reps = q.quotient.elements
            matches = []
            for values in product(target.elements, repeat=len(reps)):
                g = MonotoneMap(q.quotient, target, dict(zip(reps, values)))
                if all(g(q.projection(x)) == f(x) for x in pre.elements):
                    if g.is_monotone():
                        matches.append(g)
            ok &= matches == [fbar]
    report(4, "quotient-factorisation-unique-on-100-preorders", ok)


def test_criterion_5_classification_equivalences():
    rng = random.Random(5)
    ok = True
    for morphism in random_morphisms(rng, 100):
        flags = classify(morphism)
        ok &= flags.isomorphism == section_maps_all_invertible(morphism)
        ok &= flags.injective == section_maps_all_injective(morphism)
    report(5, "pointwise-classification-matches-section-maps", ok)


def test_criterion_6_negative_fixtures(capsys, tmp_path):
    ok = True

    code = cli_main(["check", str(FIXTURES / "bad_square.sheaf")])
    out = capsys.readouterr().out
    ok &= code == 1 and "from p to r" in out and "[[2]]" in out

    code = cli_main(["morphism", str(FIXTURES / "bad_morphism.sheaf")])
    out = capsys.readouterr().out
    ok &= code == 1 and "a <= b" in out

    code = cli_main(["sections", str(FIXTURES / "square.sheaf"), "--open", "p"])
    out = capsys.readouterr().out
    ok &= code == 1 and "successor q1" in out

    bad = tmp_path / "malformed.sheaf"
    bad.write_text(
        "[poset]\nelements = a b\nrelation = a<b\n"
        "[sheaf]\ndim a = 2\ndim b = 1\nmap a->b = [[1]]\n"
    )
    code = cli_main(["check", str(bad)])
    out = capsys.readouterr().out
    ok &= code == 2 and "line 7" in out

    realized = parse_text((FIXTURES / "square.sheaf").read_text())
    sheaf = realized.sheaves["main"]
    base = sheaf.base
    U1, U2 = open_star(base, "q1"), open_star(base, "q2")
    s1 = Section(sheaf, U1, {"q1": [3], "r": [6]})
    s2 = Section(sheaf, U2, {"q2": [1], "r": [3]})
    try:
        glue(sheaf, [U1, U2], [s1, s2])
        ok = False
    except GlueConflictError as err:
        ok &= err.element == "r"
        ok &= {err.left, err.right} == {(QQ.coerce(6),), (QQ.coerce(3),)}

    report(6, "negative-fixtures-fail-with-witnesses", ok)


def test_criterion_7_topology_laws_exhaustive():
    ok = True
    rng = random.Random(7)
    for n in range(1, 6):
        names = [chr(ord("a") + i) for i in range(n)]
        upward = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(upward)):
            pairs = [e for k, e in enumerate(upward) if mask >> k & 1]
            poset = build_poset(names, pairs)
            opens = enumerate_opens(poset)

            # every pairwise intersection is open (finite intersections
            # reduce to pairwise ones), and so is the total intersection
            total = frozenset(names)
            for U in opens:
                total &= U.members
                for V in opens:
                    ok &= is_open(poset, U.members & V.members)
            ok &= is_open(poset, total)
            for _ in range(5):
                chosen = rng.sample(opens, min(3, len(opens)))
                inter = frozenset(names)
                for U in chosen:
                    inter &= U.members
                ok &= is_open(poset, inter)

            # star containment mirrors the order, reversed
            for x in names:
                for y in names:
                    contained = open_star(poset, x).members <= open_star(poset, y).members
                    ok &= contained == poset.leq(y, x)

            # every open is the union of the stars of its members
            for U in opens:
                union = frozenset()
                for x in U.members:
                    union |= poset.up_set(x)
                ok &= union == U.members
            assert ok
    report(7, "topology-laws-exhaustive-up-to-five-points", ok)
