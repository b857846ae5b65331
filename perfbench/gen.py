"""Inputs of the benchmark, made from a seed.

Each workload is a fixed-length list of operations. An operation is one
`cellsheaf` command line on one generated document, together with the
facts its answer must satisfy. Those facts come from how the document was
built and from `exact`, never from cellsheaf.

    python3 perfbench/gen.py --workload check-corpus --seed 1 --out perfbench/inputs/x

writes the documents and a `manifest.json` listing the operations.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import exact  # noqa: E402

PRIMES = (101, 10007, 65521)


# -- documents -------------------------------------------------------------


class Sheaf:
    """Dims and covering-pair matrices of one generated sheaf."""

    def __init__(self, dims, maps, p):
        self.dims = dims
        self.maps = maps  # (x, y) -> matrix as a list of rows
        self.p = p


def matrix_text(m, p) -> str:
    return "[" + ", ".join("[" + ", ".join(exact.fmt(x, p) for x in row) + "]"
                           for row in m) + "]"


def render(elements, pairs, sheaves, morphisms=(), opens=()):
    """Document text plus the line number of each sheaf's map lines.

    `sheaves` is a list of (name, Sheaf); `morphisms` a list of
    (name, source, target, components); `opens` a list of (name, stars).
    Line numbers are keyed by (sheaf name, x, y).
    """
    lines = ["[poset]", "elements = " + " ".join(elements)]
    if pairs:
        lines.append("relation = " + " ".join(f"{x}<{y}" for x, y in pairs))
    where = {}
    for name, sh in sheaves:
        lines.append("")
        lines.append("[sheaf]" if name == "main" else f"[sheaf {name}]")
        for e in elements:
            lines.append(f"dim {e} = {sh.dims[e]}")
        for (x, y), m in sh.maps.items():
            lines.append(f"map {x}->{y} = {matrix_text(m, sh.p)}")
            where[(name, x, y)] = len(lines)
    for name, stars in opens:
        lines += ["", f"[open {name}]", "stars = " + " ".join(stars)]
    for name, src, tgt, comps in morphisms:
        lines += ["", f"[morphism {name}]", f"source = {src}", f"target = {tgt}"]
        for e, m in comps.items():
            if m and m[0]:
                lines.append(f"map {e} = {matrix_text(m, sheaves[0][1].p)}")
    return "\n".join(lines) + "\n", where


def random_poset(rng, n, density):
    """Generating pairs (i, j) that point up a hidden order of range(n)."""
    hidden = list(range(n))
    rng.shuffle(hidden)
    return [(hidden[i], hidden[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


def height_order(elements, leq):
    return sorted(elements, key=lambda e: sum((z, e) in leq for z in elements))


def random_dims(rng, elements, leq, covers, max_dim, mode):
    """Dims that never grow upward (mode "down") or never shrink ("up")."""
    preds = {e: [x for x, y in covers if y == e] for e in elements}
    dims = {}
    for e in height_order(elements, leq):
        below = [dims[z] for z in preds[e]]
        if mode == "down":
            hi = min(below) if below else max_dim
            lo = 0 if (below and rng.random() < 0.15) else min(1, hi)
        else:
            lo = max(below) if below else (0 if rng.random() < 0.1 else 1)
            hi = max_dim
        dims[e] = rng.randint(lo, hi)
    return dims


def random_frame(rng, n, p):
    """A random invertible matrix. Over Q it is unimodular, so maps built
    from frames keep small integer entries and the cost of eliminating
    them does not hang on how large the drawn fractions are."""
    return exact.random_unimodular(rng, n) if p is None else exact.random_invertible(rng, n, p)


def random_sheaf(rng, covers, dims, p):
    """A functorial sheaf: each map is S_y P S_x^-1 for random invertible S
    and the truncation or zero padding P between the first coordinates.
    With dims monotone along every chain, P composes to P, so every chain
    composes to the same S_y P S_x^-1."""
    frames = {e: random_frame(rng, d, p) for e, d in dims.items()}
    inverses = {e: exact.inverse(frames[e], p) for e in dims}
    maps = {}
    for x, y in covers:
        if dims[x] == 0 or dims[y] == 0:
            continue
        pad = [[exact.one(p) if i == j else exact.zero(p) for j in range(dims[x])]
               for i in range(dims[y])]
        maps[(x, y)] = exact.matmul(exact.matmul(frames[y], pad, p), inverses[x], p)
    return Sheaf(dims, maps, p)


class Shape:
    """The seed-independent part of a document: a poset on range(n) given by
    generating pairs, point dims, and (for stalks) a point."""

    def __init__(self, n, pairs, dims, point=None, extra=False):
        self.n, self.pairs, self.dims = n, pairs, dims
        self.point, self.extra = point, extra

    def dressed(self, rng, prefix):
        """Fresh element names and pair order for one seed. The carrier
        keeps the shape's order: it fixes the column order of every
        elimination, and with it the fill-in."""
        names = [f"{prefix}{i}" for i in rng.sample(range(100), self.n)]
        pairs = [(names[a], names[b]) for a, b in self.pairs]
        rng.shuffle(pairs)
        return names, pairs


def catalogue(name, count, candidate, lo, hi, tolerance=0.1):
    """`count` shapes whose cost proxies lie log-evenly between lo and hi.

    The shapes come from a fixed stream, so every seed runs the same
    shapes: the work of a round does not depend on the seed, and the
    per-operation times spread smoothly instead of clustering. The seed
    varies everything else (names, order, matrices, fields).
    """
    rng = random.Random(f"{name}/catalogue")
    targets = [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]
    slots = [None] * count
    for _ in range(200000):
        found = candidate(rng)
        if found is None:
            continue
        shape, proxy = found
        for k, t in enumerate(targets):
            if slots[k] is None and abs(proxy / t - 1) <= tolerance:
                slots[k] = shape
                break
        if all(slots):
            return slots
    raise RuntimeError(f"catalogue {name}: no shape for some cost targets")


def twisted(rng, sheaf, elements):
    """A copy A_y F A_x^-1 of `sheaf`; the A form an isomorphism onto it."""
    p = sheaf.p
    comps = {e: random_frame(rng, sheaf.dims[e], p) for e in elements}
    maps = {
        (x, y): exact.matmul(exact.matmul(comps[y], m, p), exact.inverse(comps[x], p), p)
        for (x, y), m in sheaf.maps.items()
    }
    return Sheaf(dict(sheaf.dims), maps, p), comps


def twisted_constant(rng, elements, covers, d, p):
    """Every map is T_y T_x^-1; sections are locally constant in T-coordinates."""
    frames = {e: random_frame(rng, d, p) for e in elements}
    maps = {(x, y): exact.matmul(frames[y], exact.inverse(frames[x], p), p)
            for x, y in covers}
    return Sheaf({e: d for e in elements}, maps, p)


# -- workloads -------------------------------------------------------------


def check_op(name, text, argv, expect, fault=None):
    op = {"doc": name, "text": text, "argv": argv, "check": "check", "expect": expect}
    if fault:
        op["fault"] = fault
    return op


def valid_expect(elements, pairs, field, sheaves, morphisms):
    """What `check` must report on a valid document, from its construction
    and from the benchmark's own closure of the generating pairs."""
    leq = exact.closure(elements, pairs)
    return {
        "kind": "valid",
        "field": field,
        "basic_covers": sum(2 ** (len(exact.up_set(leq, elements, x)) - 1)
                            for x in elements),
        "up_sets": len(exact.up_sets(elements, leq)),
        "sheaves": {name: {f"{x}->{y}": matrix_text(m, sh.p)
                           for (x, y), m in sh.maps.items()}
                    for name, sh in sheaves},
        "morphisms": {name: [src, tgt] for name, src, tgt, _ in morphisms},
    }


def check_shape(rng):
    n = rng.randint(2, 7)
    pairs = random_poset(rng, n, rng.uniform(0.2, 0.7))
    points = range(n)
    leq = exact.closure(points, pairs)
    covers = exact.covering_pairs(points, leq)
    dims = random_dims(rng, points, leq, covers, 3, rng.choice(["down", "up"]))
    # a second, twisted sheaf and a morphism onto it; the twist can only
    # differ from the original where a map has both ends non-zero
    extra = rng.random() < 1 / 3 and any(dims[x] and dims[y] for x, y in covers)
    opens = len(exact.up_sets(points, leq))
    proxy = opens ** 1.3 * max(sum(dims.values()), 1) ** 2 * (2 if extra else 1)
    return Shape(n, pairs, dims, extra=extra), proxy


def check_corpus(seed):
    """Small documents for `check --json`, half over Q and half over GF(p)."""
    ops = []
    for i, shape in enumerate(catalogue("check-corpus", 48, check_shape, 40, 3000)):
        rng = random.Random(f"check-corpus/{seed}/{i}")
        p = None if i % 2 == 0 else rng.choice(PRIMES)
        names, pairs = shape.dressed(rng, rng.choice("abcxyz"))
        covers = exact.covering_pairs(names, exact.closure(names, pairs))
        dims = {names[k]: d for k, d in shape.dims.items()}
        sheaf = random_sheaf(rng, covers, dims, p)
        sheaves = [("main", sheaf)]
        morphisms = []
        if shape.extra:
            other, comps = twisted(rng, sheaf, names)
            while other.maps == sheaf.maps:
                other, comps = twisted(rng, sheaf, names)
            sheaves.append(("other", other))
            morphisms.append(("f", "main", "other", comps))
        text, _ = render(names, pairs, sheaves, morphisms)
        argv = ["check", "{doc}", "--json", "--seed", str(rng.randrange(1000))]
        if p is not None:
            argv += ["--field", f"fp:{p}"]
        field = "q" if p is None else f"fp:{p}"
        ops.append(check_op(f"c{i:03d}.sheaf", text, argv,
                            valid_expect(names, pairs, field, sheaves, morphisms)))
    ops.extend(invalid_documents(seed))
    return ops


def invalid_documents(seed):
    """Two invalid documents handled correctly today, and the two known faults."""
    rng = random.Random(f"check-corpus/{seed}/invalid")
    ops = []
    # Functoriality break: a diamond whose two chains compose differently,
    # beside an unrelated chain, so (bottom, top) is the only failing pair.
    elements = ["b", "l", "r", "t", "u", "w"]
    pairs = [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t"), ("u", "w")]
    one_by_one = [[Fraction(rng.randint(1, 5))] for _ in range(5)]
    maps = {pair: [m] for pair, m in zip(pairs, one_by_one)}
    maps[("r", "t")] = [[maps[("l", "t")][0][0] * maps[("b", "l")][0][0]
                         / maps[("b", "r")][0][0] + 1]]
    text, _ = render(elements, pairs, [("main", Sheaf(dict.fromkeys(elements, 1),
                                                        maps, None))])
    ops.append(check_op("bad-functoriality.sheaf", text, ["check", "{doc}", "--json"],
                        {"kind": "functoriality", "low": "b", "high": "t"}))
    # Shape error: one map has a column too many.
    elements, pairs = ["a", "b", "c"], [("a", "b"), ("b", "c")]
    sheaf = Sheaf({"a": 2, "b": 2, "c": 1}, {
        ("a", "b"): exact.random_invertible(rng, 2, None),
        ("b", "c"): [[Fraction(rng.randint(1, 4)), Fraction(1), Fraction(0)]],
    }, None)
    text, where = render(elements, pairs, [("main", sheaf)])
    ops.append(check_op("bad-shape.sheaf", text, ["check", "{doc}", "--json"],
                        {"kind": "document-error", "line": where[("main", "b", "c")]}))
    # F1: `1/5` under fp:5 must be a document error naming the line.
    text = ("[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\nfield = fp:5\n"
            "dim a = 1\ndim b = 1\nmap a->b = [[1/5]]\n")
    ops.append(check_op("fault-f1.sheaf", text, ["check", "{doc}", "--json"],
                        {"kind": "document-error", "line": 9}, fault="F1"))
    # F2: two equal sheaves and a morphism on the one not named main; the
    # normalized document must keep the document's own names.
    sheaf = Sheaf({"a": 1, "b": 1}, {("a", "b"): [[Fraction(2)]]}, None)
    morphism = ("g", "other", "other", {"a": [[Fraction(3)]], "b": [[Fraction(3)]]})
    sheaves = [("main", sheaf), ("other", sheaf)]
    text, _ = render(["a", "b"], [("a", "b")], sheaves, [morphism])
    ops.append(check_op("fault-f2.sheaf", text, ["check", "{doc}", "--json"],
                        valid_expect(["a", "b"], [("a", "b")], "q", sheaves, [morphism]),
                        fault="F2"))
    return ops


def grid(rows, cols, squares):
    """Face poset of a rows x cols grid graph: vertices below edges, and
    optionally unit squares above their four edges."""
    elements, pairs = [], []
    v = {(i, j): f"v{i}_{j}" for i in range(rows) for j in range(cols)}
    elements += v.values()
    for i in range(rows):
        for j in range(cols):
            for di, dj, tag in ((0, 1, "h"), (1, 0, "e")):
                if i + di < rows and j + dj < cols:
                    e = f"{tag}{i}_{j}"
                    elements.append(e)
                    pairs += [(v[(i, j)], e), (v[(i + di, j + dj)], e)]
    if squares:
        for i in range(rows - 1):
            for j in range(cols - 1):
                s = f"s{i}_{j}"
                elements.append(s)
                pairs += [(f"h{i}_{j}", s), (f"h{i + 1}_{j}", s),
                          (f"e{i}_{j}", s), (f"e{i}_{j + 1}", s)]
    return elements, pairs


def grid_shape(rng):
    """A grid, a dim, and an open: the whole space or the union of the stars
    of 70 %, 50 % or 30 % of the vertices."""
    rows, cols = rng.randint(2, 4), rng.randint(3, 5)
    squares, d = rng.random() < 0.5, rng.choice((1, 2))
    elements, pairs = grid(rows, cols, squares)
    vertices = [e for e in elements if e.startswith("v")]
    frac = rng.choice((1.0, 0.7, 0.5, 0.3))
    stars = None if frac == 1.0 else rng.sample(vertices, round(frac * len(vertices)))
    leq = exact.closure(elements, pairs)
    members = set(elements) if stars is None else set().union(
        *(exact.up_set(leq, elements, x) for x in stars))
    inside = sum(1 for x, y in pairs if x in members and y in members)
    proxy = (d * len(members)) ** 2 * d * inside  # unknowns^2 x equations
    return (rows, cols, squares, d, stars), proxy


def grid_sections(seed):
    """Twisted constant sheaves on grids; `sections` on the whole space and on
    unions of vertex stars. Grids and opens are fixed; the seed draws the
    matrices and the primes."""
    ops = []
    for i, (rows, cols, squares, d, stars) in enumerate(
            catalogue("grid-sections", 60, grid_shape, 1000, 150000)):
        rng = random.Random(f"grid-sections/{seed}/{i}")
        p = None if i % 2 == 0 else rng.choice(PRIMES)
        elements, pairs = grid(rows, cols, squares)
        leq = exact.closure(elements, pairs)
        sheaf = twisted_constant(rng, elements, pairs, d, p)
        if stars is None:
            spec, members = "set:all", set(elements)
            vertices = [e for e in elements if e.startswith("v")]
            text, _ = render(elements, pairs, [("main", sheaf)], opens=[("all", vertices)])
        else:
            spec = ",".join(f"star:{x}" for x in stars)
            members = set().union(*(exact.up_set(leq, elements, x) for x in stars))
            text, _ = render(elements, pairs, [("main", sheaf)])
        argv = ["sections", "{doc}", "--json", "--open", spec]
        if p is not None:
            argv += ["--field", f"fp:{p}"]
        ops.append({"doc": f"g{i:03d}.sheaf", "text": text, "argv": argv,
                    "check": "sections", "expect": {
                        "field": "q" if p is None else f"fp:{p}",
                        "elements": elements,
                        "members": [e for e in elements if e in members],
                        "dim": d * exact.components(members, leq),
                        "maps": {f"{x}->{y}": matrix_text(m, p)
                                 for (x, y), m in sheaf.maps.items()},
                    }})
    return ops


def stalk_shape(rng):
    n = rng.randint(6, 8)
    pairs = random_poset(rng, n, rng.uniform(0.3, 0.6))
    points = range(n)
    leq = exact.closure(points, pairs)
    # no isolated point: each one multiplies the direct-limit work
    if any(all((x, y) not in leq and (y, x) not in leq for y in points if y != x)
           for x in points):
        return None
    masks = exact.up_set_masks(n, leq)
    hoods = {x: [m for m in masks if m >> x & 1] for x in points}
    candidates = [x for x in points if 12 <= len(hoods[x]) <= 40]
    if not candidates:
        return None
    x = rng.choice(candidates)
    covers = exact.covering_pairs(points, leq)
    dims = random_dims(rng, points, leq, covers, 2, rng.choice(["down", "up"]))
    if dims[x] == 0:
        return None
    proxy = len(hoods[x]) * sum(dims[y] for m in hoods[x] for y in points if m >> y & 1)
    return Shape(n, pairs, dims, point=x), proxy


def stalk_limits(seed):
    """`stalk` at points with tens of neighbourhoods on random sheaves."""
    ops = []
    for i, shape in enumerate(catalogue("stalk-limits", 60, stalk_shape, 300, 2500)):
        rng = random.Random(f"stalk-limits/{seed}/{i}")
        p = None if i % 2 == 0 else rng.choice(PRIMES)
        names, pairs = shape.dressed(rng, rng.choice("pqrs"))
        covers = exact.covering_pairs(names, exact.closure(names, pairs))
        dims = {names[k]: d for k, d in shape.dims.items()}
        sheaf = random_sheaf(rng, covers, dims, p)
        text, _ = render(names, pairs, [("main", sheaf)])
        x = names[shape.point]
        argv = ["stalk", "{doc}", "--json", "--point", x]
        if p is not None:
            argv += ["--field", f"fp:{p}"]
        ops.append({"doc": f"s{i:03d}.sheaf", "text": text, "argv": argv,
                    "check": "stalk", "expect": {
                        "field": "q" if p is None else f"fp:{p}",
                        "point": x, "dim": dims[x]}})
    return ops


def layered(rng, n, prefix="n"):
    """A graded poset: each point above the bottom layer covers 1 to 3 points
    of the layer below."""
    sizes = [n // 3 + n % 3, n // 3, n // 3]
    layers, elements, pairs = [], [], []
    for k, size in enumerate(sizes):
        layer = [f"{prefix}{k}_{j}" for j in range(size)]
        if layers:
            for y in layer:
                for x in rng.sample(layers[-1], rng.randint(1, 3)):
                    pairs.append((x, y))
        layers.append(layer)
        elements += layer
    rng.shuffle(elements)
    return elements, pairs


def large_docs(seed):
    """Documents of 100-200 points with two sheaves and a morphism;
    `sections` over one star and `morphism`. Posets and dims are fixed;
    the seed draws the matrices, the primes and the star."""
    ops = []
    for i in range(24):
        shape_rng = random.Random(f"large-docs/shape/{i}")
        elements, pairs = layered(shape_rng, 100 + (i * 100) // 23)
        leq = exact.closure(elements, pairs)
        dims = random_dims(shape_rng, elements, leq, pairs, 2, "up")
        other_dims = random_dims(shape_rng, elements, leq, pairs, 2, "up")
        rng = random.Random(f"large-docs/{seed}/{i}")
        p = None if i % 2 == 0 else rng.choice(PRIMES)
        sheaf = random_sheaf(rng, pairs, dims, p)
        iso = i % 4 < 2
        if iso:
            other, comps = twisted(rng, sheaf, elements)
        else:  # the zero morphism onto another sheaf: neither injective nor surjective
            other = random_sheaf(rng, pairs, other_dims, p)
            comps = {e: [[exact.zero(p)] * dims[e] for _ in range(other_dims[e])]
                     for e in elements}
        text, _ = render(elements, pairs, [("main", sheaf), ("other", other)],
                         [("f", "main", "other", comps)])
        field = [] if p is None else ["--field", f"fp:{p}"]
        x = rng.choice(elements)
        ops.append({"doc": f"l{i:03d}.sheaf", "text": text,
                    "argv": ["sections", "{doc}", "--json", "--open", f"star:{x}"] + field,
                    "check": "star", "expect": {"dim": dims[x], "point": x}})
        ops.append({"doc": f"l{i:03d}.sheaf", "text": text,
                    "argv": ["morphism", "{doc}", "--json", "--name", "f"] + field,
                    "check": "morphism", "expect": {
                        "injective": iso, "surjective": iso, "isomorphism": iso}})
    return ops


WORKLOADS = {
    "check-corpus": check_corpus,
    "grid-sections": grid_sections,
    "stalk-limits": stalk_limits,
    "large-docs": large_docs,
}


def write_inputs(workload: str, seed: int, out: Path) -> Path:
    """Write the documents and `manifest.json` into `out`; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed)
    rng = random.Random(f"{workload}/{seed}/order")
    rng.shuffle(ops)
    for op in ops:
        (out / op["doc"]).write_text(op.pop("text"), encoding="utf-8")
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}),
                        encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write_inputs(args.workload, args.seed, Path(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
