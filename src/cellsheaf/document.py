"""Line-oriented sheaf documents.

A document is a sequence of sectioned blocks:

    [poset]                  carrier and generating relation
    [sheaf]                  dims and covering-pair matrices ("main" sheaf)
    [sheaf NAME]             additional sheaves on the same poset
    [open NAME]              named open sets (stars = ... or members = ...)
    [morphism NAME]          per-point matrices between two named sheaves

Keys are `name = value`; `#` starts a comment; rational entries are written
`a/b`. Unknown keys and unknown block kinds are rejected with the offending
line number. Parsing is split from realization so that parse errors (exit
code 2 territory) stay distinct from semantic failures such as a relation
that is not antisymmetric or matrices whose chains disagree (exit code 1).

Each job is done once. `parse_document` resolves every name (points,
sheaves, fields) and reads each distinct literal once; one whose entries
are all integers becomes a tuple of int rows there. `realize` checks every
dimension, covering pair, shape and field with the line at fault, then
calls the steps of `build_sheaf` and `build_morphism` after their argument
checks: the chain and naturality checks.
"""

from __future__ import annotations

import re
from math import lcm

from .errors import DocumentError
from .linalg import _INTEGER, Matrix, field_from_name
from .morphism import SheafMorphism, _naturality_checked_morphism
from .order import PreOrder, as_poset, build_preorder, hasse_edges
from .record import Record
from .sheaf import CellularSheaf, _chain_checked_sheaf
from .topology import OpenSet, union_of_stars

_IDENT = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.'-]*$")
_BLOCK = re.compile(r"^\[\s*([a-z]+)(?:\s+(\S+))?\s*\]$")
_ENTRY_TOKEN = re.compile(r"^-?\d+(?:/\d+)?$")
_ROW = re.compile(r"\[([^\[\]]*)\][ \t,]*")
# a whole well-formed literal in ASCII: rows of at least one entry, the
# separators the row walk accepts between them. Its rows are then the
# bracket pairs with no bracket inside, and a blank in a row is only ever
# around an entry
_ASCII_ROW = r"\[[ \t]*-?[0-9]+(?:/[0-9]+)?[ \t]*(?:,[ \t]*-?[0-9]+(?:/[0-9]+)?[ \t]*)*\]"
_LITERAL = re.compile(rf"\[[ \t]*{_ASCII_ROW}(?:[ \t,]*{_ASCII_ROW})*[ \t]*\]")
_ROW_BODY = re.compile(r"\[([^\[\]]*)\]")

MAIN_SHEAF = "main"


class MatrixLiteral(Record):
    """One matrix value at its line. `kind` is "rows", "id" or "zero". The
    rows of a "rows" literal whose entries are all integers hold those ints,
    read once at parse time; any other holds each entry's text (a fraction,
    or an integer past the digit limit), read when it is realized."""

    __slots__ = ("kind", "rows", "line")

    def __init__(self, kind: str, rows: tuple[tuple[int, ...] | tuple[str, ...], ...],
                 line: int):
        self.kind, self.rows, self.line = kind, rows, line


class SheafSpec(Record):
    __slots__ = ("name", "line", "field_name", "dims", "maps")

    def __init__(self, name: str, line: int, field_name: str | None = None,
                 dims: dict | None = None, maps: dict | None = None):
        self.name, self.line, self.field_name = name, line, field_name
        self.dims = {} if dims is None else dims  # element -> (int, line)
        self.maps = {} if maps is None else maps  # (p, q) -> MatrixLiteral


class OpenSpec(Record):
    __slots__ = ("name", "line", "stars", "members")  # line: of its stars or members key

    def __init__(self, name: str, line: int, stars: tuple[str, ...] | None = None,
                 members: tuple[str, ...] | None = None):
        self.name, self.line, self.stars, self.members = name, line, stars, members


class MorphismSpec(Record):
    __slots__ = ("name", "line", "source", "target", "maps")

    def __init__(self, name: str, line: int, source: str = MAIN_SHEAF,
                 target: str = MAIN_SHEAF, maps: dict | None = None):
        self.name, self.line, self.source, self.target = name, line, source, target
        self.maps = {} if maps is None else maps  # element -> MatrixLiteral


class SheafDocument(Record):
    """Parsed but not yet realized document."""

    __slots__ = ("preorder", "sheaf_specs", "open_specs", "morphism_specs")

    def __init__(self, preorder: PreOrder, sheaf_specs: dict, open_specs: dict,
                 morphism_specs: dict):
        self.preorder, self.sheaf_specs = preorder, sheaf_specs
        self.open_specs, self.morphism_specs = open_specs, morphism_specs


class RealizedDocument(Record):
    """Semantic content: poset, sheaves, opens, morphisms."""

    __slots__ = ("poset", "sheaves", "opens", "morphisms", "morphism_ends")

    def __init__(self, poset, sheaves: dict[str, CellularSheaf], opens: dict[str, OpenSet],
                 morphisms: dict[str, SheafMorphism],
                 morphism_ends: dict[str, tuple[str, str]]):
        self.poset, self.sheaves, self.opens = poset, sheaves, opens
        self.morphisms = morphisms
        self.morphism_ends = morphism_ends  # name -> (source, target) sheaf names


def _check_ident(token: str, line: int) -> str:
    if not _IDENT.match(token):
        raise DocumentError(f"invalid identifier {token!r}", line)
    return token


def _block_name(kind: str, label: str | None, default: str | None, taken, line: int) -> str:
    """The name of a `[kind NAME]` block, `default` if none is given: a
    checked identifier that no earlier block of its kind has taken."""
    if label is None and default is None:
        raise DocumentError(f"[{kind}] blocks need a name", line)
    name = _check_ident(default if label is None else label, line)
    if name in taken:
        raise DocumentError(f"duplicate {kind} {name!r}", line)
    return name


def _once(seen: set, key: str, block: str, line: int) -> None:
    """Record a key that a block may give only once; a second one is an
    error at its line, not a silent override."""
    if key in seen:
        raise DocumentError(f"duplicate key {key!r} in [{block}]", line)
    seen.add(key)


def _parse_matrix_value(text: str, line: int) -> MatrixLiteral:
    text = text.strip()
    if text == "id":
        return MatrixLiteral("id", (), line)
    if text == "zero":
        return MatrixLiteral("zero", (), line)
    if _LITERAL.fullmatch(text):
        # `int` skips the blanks around an entry
        rows = [body.split(",") for body in _ROW_BODY.findall(text)]
    else:
        rows = _walk_rows(text, line)
    try:
        rows = [tuple(map(int, row)) for row in rows]
    except ValueError:  # a fraction, or an entry past the digit limit
        rows = [tuple(tok.strip(" \t") for tok in row) for row in rows]
    if any(len(r) != len(rows[0]) for r in rows):
        raise DocumentError("matrix rows have differing lengths", line)
    return MatrixLiteral("rows", tuple(rows), line)


def _walk_rows(text: str, line: int) -> list:
    """The rows of a literal that `_LITERAL` rejects: it is malformed, and
    the error names where, or it holds non-ASCII digits or blanks."""
    if not (text.startswith("[") and text.endswith("]")):
        raise DocumentError("matrix value must be [[...], ...], id, or zero", line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    if not (inner.startswith("[") and inner.endswith("]")):
        raise DocumentError("matrix rows must be bracketed", line)
    # a row is a bracket pair with no bracket inside, then the separators
    # before the next row. Where no row starts, the character there names
    # the error: as `inner` ends with "]", a "[" there opens a row that
    # holds another "["
    rows = []
    pos = 0
    while pos < len(inner):
        m = _ROW.match(inner, pos)
        if m is None:
            ch = inner[pos]
            if ch == "[":
                raise DocumentError("matrix literals do not nest deeper than rows", line)
            if ch == "]":
                raise DocumentError("unbalanced brackets in matrix literal", line)
            raise DocumentError(f"unexpected {ch!r} between matrix rows", line)
        row_text = m.group(1).strip()
        entries = tuple(tok.strip() for tok in row_text.split(",")) if row_text else ()
        for tok in entries:
            if not _ENTRY_TOKEN.match(tok):
                raise DocumentError(f"bad matrix entry {tok!r}", line)
        rows.append(entries)
        pos = m.end()
    return rows


def parse_document(text: str) -> SheafDocument:
    """The blocks of a document, every name in them resolved: each point a
    listed element, each morphism's sheaves defined, each `field =` a known
    field (an error at the block's header). A literal text is read once and
    its repeats share its rows; a literal of integers holds int rows."""
    blocks: list[tuple[str, str | None, int, list[tuple[str, str, int]]]] = []
    current: list[tuple[str, str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _BLOCK.match(line)
            if not m:
                raise DocumentError(f"malformed block header {line!r}", lineno)
            kind, label = m.group(1), m.group(2)
            current = []
            blocks.append((kind, label, lineno, current))
            continue
        if current is None:
            raise DocumentError("content before any block header", lineno)
        key, eq, value = line.partition("=")
        if not eq:
            raise DocumentError("expected key = value", lineno)
        current.append((key.strip(), value.strip(), lineno))

    elements: list[str] = []
    element_lines: list[int] = []
    # the elements listed so far, each a checked identifier
    known: set[str] = set()
    pairs: list[tuple[str, str]] = []
    pair_lines: list[int] = []
    poset_seen = False
    sheaf_specs: dict[str, SheafSpec] = {}
    open_specs: dict[str, OpenSpec] = {}
    morphism_specs: dict[str, MorphismSpec] = {}
    # each distinct literal text is read once: a repeat shares the rows of
    # the first use and keeps its own line
    literals: dict[str, MatrixLiteral] = {}

    def literal(value: str, line: int) -> MatrixLiteral:
        first = literals.get(value)
        if first is None:
            first = literals[value] = _parse_matrix_value(value, line)
            return first
        return MatrixLiteral(first.kind, first.rows, line)

    def point(token: str, line: int) -> str:
        # every token that names a point: a listed element needs no second
        # check, and any other token gets one
        return token if token in known else _check_ident(token, line)

    for kind, label, header_line, entries in blocks:
        if kind == "poset":
            if label is not None:
                raise DocumentError("[poset] takes no name", header_line)
            if poset_seen:
                raise DocumentError("duplicate [poset] block", header_line)
            poset_seen = True
            for key, value, lineno in entries:
                if key == "elements":
                    for tok in value.split():
                        elements.append(point(tok, lineno))
                        element_lines.append(lineno)
                        known.add(tok)
                elif key in ("relation", "hasse"):
                    for tok in value.replace(",", " ").split():
                        a, sep, b = tok.partition("<=" if "<=" in tok else "<")
                        if not sep:
                            raise DocumentError(
                                f"relation token {tok!r} must look like x<y", lineno)
                        pairs.append((point(a.strip(), lineno), point(b.strip(), lineno)))
                        pair_lines.append(lineno)
                else:
                    raise DocumentError(f"unknown key {key!r} in [poset]", lineno)
            if not elements:
                raise DocumentError("[poset] must list elements", header_line)
        elif kind == "sheaf":
            name = _block_name(kind, label, MAIN_SHEAF, sheaf_specs, header_line)
            spec = SheafSpec(name, header_line)
            seen: set[str] = set()
            for key, value, lineno in entries:
                parts = key.split() or [""]
                if parts[0] == "field" and len(parts) == 1:
                    _once(seen, key, kind, lineno)
                    spec.field_name = value
                elif parts[0] == "dim" and len(parts) == 2:
                    el = point(parts[1], lineno)
                    if el in spec.dims:
                        raise DocumentError(f"duplicate dim for {el!r}", lineno)
                    try:
                        if not _INTEGER.fullmatch(value):
                            raise ValueError
                        d = int(value)
                    except ValueError:
                        raise DocumentError("dimension must be an integer", lineno)
                    if d < 0:
                        raise DocumentError("dimension must be non-negative", lineno)
                    spec.dims[el] = (d, lineno)
                elif parts[0] == "map" and len(parts) == 2:
                    if "->" not in parts[1]:
                        raise DocumentError("map key must look like `map p->q`", lineno)
                    a, b = parts[1].split("->", 1)
                    edge = (point(a, lineno), point(b, lineno))
                    if edge in spec.maps:
                        raise DocumentError(
                            f"duplicate map for {a}->{b}", lineno)
                    spec.maps[edge] = literal(value, lineno)
                else:
                    raise DocumentError(f"unknown key {key!r} in [sheaf]", lineno)
            sheaf_specs[name] = spec
        elif kind == "open":
            name = _block_name(kind, label, None, open_specs, header_line)
            spec_o = OpenSpec(name, header_line)
            seen = set()
            for key, value, lineno in entries:
                if key in ("stars", "members"):
                    _once(seen, key, kind, lineno)
                    spec_o.line = lineno
                if key == "stars":
                    spec_o.stars = tuple(point(t, lineno) for t in value.split())
                elif key == "members":
                    spec_o.members = tuple(point(t, lineno) for t in value.split())
                else:
                    raise DocumentError(f"unknown key {key!r} in [open]", lineno)
            if (spec_o.stars is None) == (spec_o.members is None):
                raise DocumentError(
                    "[open] blocks need exactly one of `stars` or `members`",
                    header_line,
                )
            open_specs[name] = spec_o
        elif kind == "morphism":
            name = _block_name(kind, label, None, morphism_specs, header_line)
            spec_m = MorphismSpec(name, header_line)
            seen = set()
            for key, value, lineno in entries:
                parts = key.split() or [""]
                if parts[0] == "source" and len(parts) == 1:
                    _once(seen, key, kind, lineno)
                    spec_m.source = _check_ident(value, lineno)
                elif parts[0] == "target" and len(parts) == 1:
                    _once(seen, key, kind, lineno)
                    spec_m.target = _check_ident(value, lineno)
                elif parts[0] == "map" and len(parts) == 2:
                    el = point(parts[1], lineno)
                    if el in spec_m.maps:
                        raise DocumentError(f"duplicate map for {el!r}", lineno)
                    spec_m.maps[el] = literal(value, lineno)
                else:
                    raise DocumentError(f"unknown key {key!r} in [morphism]", lineno)
            morphism_specs[name] = spec_m
        else:
            raise DocumentError(f"unknown block kind {kind!r}", header_line)

    if not poset_seen:
        raise DocumentError("document has no [poset] block")
    for (a, b), lineno in zip(pairs, pair_lines):
        for x in (a, b):
            if x not in known:
                raise DocumentError(f"unknown element {x!r} in relation pair", lineno)
    seen: set[str] = set()
    for el, lineno in zip(elements, element_lines):
        if el in seen:
            raise DocumentError(f"duplicate element {el!r}", lineno)
        seen.add(el)
    preorder = build_preorder(elements, pairs)
    for name, spec in sheaf_specs.items():
        for el in spec.dims:
            if el not in preorder:
                raise DocumentError(
                    f"unknown element {el!r}", spec.dims[el][1])
        for (a, b), lit in spec.maps.items():
            if a not in preorder or b not in preorder:
                raise DocumentError(f"unknown element in map {a}->{b}", lit.line)
        if spec.field_name is not None:
            try:
                field_from_name(spec.field_name)
            except ValueError as exc:
                raise DocumentError(str(exc), spec.line) from None
    for name, spec_m in morphism_specs.items():
        for el, lit in spec_m.maps.items():
            if el not in preorder:
                raise DocumentError(
                    f"unknown element {el!r} in morphism {name!r}", lit.line)
    for name, spec_o in open_specs.items():
        for x in spec_o.members if spec_o.stars is None else spec_o.stars:
            if x not in preorder:
                raise DocumentError(f"unknown element {x!r} in open {name!r}", spec_o.line)
    for name, spec_m in morphism_specs.items():
        for end in (spec_m.source, spec_m.target):
            if end not in sheaf_specs:
                raise DocumentError(
                    f"morphism {name!r} names unknown sheaf {end!r}", spec_m.line)
    return SheafDocument(preorder, sheaf_specs, open_specs, morphism_specs)


def _realize_matrix(lit: MatrixLiteral, field, rows: int, cols: int,
                    where: str, key) -> Matrix:
    """The matrix `lit` writes for the map at `key`, `where` the prefix that
    names its kind in an error."""
    if lit.kind == "id":
        if rows != cols:
            raise DocumentError(f"`id` needs equal dimensions for {where}{_key_text(key)}"
                                f" ({rows} vs {cols})", lit.line)
        return Matrix.identity(field, rows)
    if lit.kind == "zero":
        return Matrix.zeros(field, rows, cols)
    data = lit.rows
    got_rows = len(data)
    got_cols = len(data[0]) if data else 0
    if got_rows != rows or (rows > 0 and got_cols != cols):
        raise DocumentError(f"matrix for {where}{_key_text(key)} is {got_rows}x{got_cols},"
                            f" expected {rows}x{cols}", lit.line)
    if not (data and data[0]) or type(data[0][0]) is int:
        # the ints read at parse time (residues over GF(p)) over 1
        return Matrix._make(field, rows, cols, *field.canonical(data))
    # entry texts, read one by one: over Q the int rows over the lcm of all
    # the entries' denominators, over GF(p) the residues n * d^-1
    entries = [[_realize_entry(tok, field, lit.line) for tok in row] for row in data]
    p = field.characteristic
    if p:
        den = 1
        ints = [[n if d == 1 else n * pow(d, -1, p) for n, d in row] for row in entries]
    else:
        den = lcm(*[d for row in entries for _, d in row])
        ints = [[n * (den // d) for n, d in row] for row in entries]
    return Matrix._make(field, rows, cols, *field.canonical(ints, den))


def _realize_entry(tok: str, field, line: int) -> tuple[int, int]:
    """(numerator, denominator) of an `n` or `n/d` entry, read with int."""
    num, _, den = tok.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        # an integer past the interpreter's digit limit for str -> int
        raise DocumentError(
            f"entry {tok[:12]}... has too many digits ({len(tok)} characters)", line,
        ) from None
    p = field.characteristic
    if not (den % p if p else den):
        # a denominator of 0, or of a multiple of p under GF(p), has no value
        raise DocumentError(f"entry {tok!r} divides by zero in {field!r}", line)
    return num, den


def _realize_maps(maps: dict, shapes, field, made: dict, owner: str, line: int,
                  where: str = "") -> dict:
    """key -> matrix for each (key, rows, cols) in `shapes`, from the
    literals `maps` holds by key; `owner` names the block and `where` the
    kind of map in errors. A map left out where `rows` or `cols` is 0 is read
    as `zero`; any other is missing, an error at `line`. `made` maps
    (kind, literal rows, rows, cols) to the immutable matrix made over
    `field`, which later uses share: a use at a shape already made would pass
    the same checks. Messages are built only for an error."""
    out = {}
    for key, rows, cols in shapes:
        lit = maps.get(key)
        if lit is None:
            if rows and cols:
                raise DocumentError(f"{owner} is missing `map {_key_text(key)}`", line)
            lit = MatrixLiteral("zero", (), line)
        memo = (lit.kind, lit.rows, rows, cols)
        m = made.get(memo)
        if m is None:
            m = made[memo] = _realize_matrix(lit, field, rows, cols, where, key)
        out[key] = m
    return out


def _key_text(key) -> str:
    """A map key as a document writes it: `p->q` or `p`."""
    return key if isinstance(key, str) else "->".join(key)


def realize(doc: SheafDocument, field_override: str | None = None) -> RealizedDocument:
    """Build the semantic objects a document describes.

    Raises ValidationError subclasses for semantic failures (non-poset
    relation, chain disagreement, naturality failure, non-open member list)
    and DocumentError for structural ones; `parse_document` has already
    resolved every name. The structural checks are the argument checks of
    `build_sheaf` and `build_morphism`, made here with their lines: a
    dimension at every point, maps only on covering pairs, no map left out
    where neither dimension is 0, each literal at its shape (`id` only
    between equal dimensions), one field in a morphism and a component at
    every point. Parsing has checked that each dimension is a non-negative
    integer and names a point. So the sheaves and morphisms are built by the
    steps after those checks, which run the chain and naturality checks.
    Each literal becomes a matrix once per field: int rows are reduced into
    the field, entry texts are read one by one.
    """
    poset = as_poset(doc.preorder)
    override = None
    if field_override:
        # the override comes from the command line, not from a document line
        try:
            override = field_from_name(field_override)
        except ValueError as exc:
            raise DocumentError(f"--field: {exc}") from None
    sheaves: dict[str, CellularSheaf] = {}
    # field -> the memo `_realize_maps` keeps for it
    matrices: dict = {}
    edges = hasse_edges(poset) if doc.sheaf_specs else []
    edge_set = set(edges)
    for name, spec in doc.sheaf_specs.items():
        field = override if override is not None else field_from_name(spec.field_name or "q")
        dims = {}
        for el in poset.elements:
            if el not in spec.dims:
                raise DocumentError(
                    f"sheaf {name!r} gives no dimension for {el!r}", spec.line)
            dims[el] = spec.dims[el][0]
        for pair, lit in spec.maps.items():
            if pair not in edge_set:
                raise DocumentError(
                    f"{pair[0]}->{pair[1]} is not a covering pair of the poset",
                    lit.line,
                )
        edge_maps = _realize_maps(
            spec.maps, ((edge, dims[edge[1]], dims[edge[0]]) for edge in edges),
            field, matrices.setdefault(field, {}), f"sheaf {name!r}", spec.line)
        sheaves[name] = _chain_checked_sheaf(poset, field, dims, edge_maps, edges)

    opens: dict[str, OpenSet] = {}
    for name, spec_o in doc.open_specs.items():
        opens[name] = (OpenSet(poset, spec_o.members) if spec_o.stars is None
                       else union_of_stars(poset, spec_o.stars))

    morphisms: dict[str, SheafMorphism] = {}
    morphism_ends: dict[str, tuple[str, str]] = {}
    for name, spec_m in doc.morphism_specs.items():
        src = sheaves[spec_m.source]
        tgt = sheaves[spec_m.target]
        if src.field != tgt.field:
            raise DocumentError(
                f"morphism {name!r} mixes fields {src.field.name} and {tgt.field.name}",
                spec_m.line,
            )
        # both sheaves live on `poset`, so their dims are in carrier order
        components = _realize_maps(
            spec_m.maps, zip(poset.elements, tgt._dims, src._dims),
            src.field, matrices.setdefault(src.field, {}), f"morphism {name!r}",
            spec_m.line, "morphism map at ")
        morphisms[name] = _naturality_checked_morphism(src, tgt, components)
        morphism_ends[name] = (spec_m.source, spec_m.target)
    return RealizedDocument(poset, sheaves, opens, morphisms, morphism_ends)


def parse_text(text: str, field_override: str | None = None) -> RealizedDocument:
    return realize(parse_document(text), field_override)


def render_document(realized: RealizedDocument) -> str:
    """Canonical text for a realized document; reparsing gives equal objects."""
    poset = realized.poset

    def map_lines(maps) -> list[str]:
        # a map at a 0-dimensional point is left out, as a document may
        return [f"map {_key_text(key)} = {m!r}" for key, m in maps if m.rows and m.cols]

    lines = ["[poset]", "elements = " + " ".join(poset.elements)]
    edges = hasse_edges(poset)
    if edges:
        lines.append("relation = " + " ".join(f"{a}<{b}" for a, b in edges))
    for name in sorted(realized.sheaves):
        sheaf = realized.sheaves[name]
        lines += ["", "[sheaf]" if name == MAIN_SHEAF else f"[sheaf {name}]",
                  f"field = {sheaf.field.name}"]
        lines += [f"dim {el} = {sheaf.dim(el)}" for el in poset.elements]
        lines += map_lines((edge, sheaf.restriction(*edge)) for edge in edges)
    for name in sorted(realized.opens):
        lines += ["", f"[open {name}]",
                  "members = " + " ".join(realized.opens[name].sorted_members)]
    for name in sorted(realized.morphisms):
        mor = realized.morphisms[name]
        src, tgt = realized.morphism_ends[name]
        lines += ["", f"[morphism {name}]", f"source = {src}", f"target = {tgt}"]
        lines += map_lines((el, mor.components[el]) for el in poset.elements)
    return "\n".join(lines) + "\n"
