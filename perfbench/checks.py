"""Checks of the program's answers, made apart from the program.

`verify(op, rc, out)` returns None when the answer to one operation is
right, and otherwise one line saying what is wrong. `rc` is the exit code
`cellsheaf.cli.main` returned, or the exception that escaped it; `out` is
what it printed. The expected facts come from the manifest that `gen`
wrote, and every computation here uses `exact`, not cellsheaf.
"""

from __future__ import annotations

import json

import exact


def field_prime(name: str):
    return None if name == "q" else int(name.split(":", 1)[1])


def parse_matrix(text: str, p):
    """`[[1, -2/3], [0, 1]]` as a list of rows of field elements."""
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    rows = []
    for chunk in inner[1:-1].split("],"):
        chunk = chunk.strip().lstrip("[").rstrip("]")
        rows.append([exact.parse_entry(t.strip(), p) for t in chunk.split(",") if t.strip()])
    return rows


def normalized_blocks(text: str) -> dict:
    """Blocks of a normalized document: (kind, name) -> {key: value}."""
    blocks = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            head = line[1:-1].split()
            kind = head[0]
            name = head[1] if len(head) > 1 else ("main" if kind == "sheaf" else None)
            current = blocks.setdefault((kind, name), {})
        else:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return blocks


def _report(rc, out, want_rc):
    if isinstance(rc, BaseException):
        return None, f"{type(rc).__name__} escaped cli.main: {rc}"
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "output is not one JSON report"


def _all_pass(report):
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    return f"checks failed: {failed}" if failed else None


def check_valid(e, report):
    p = field_prime(e["field"])
    names = [c["name"] for c in report["checks"]]
    want = ["document-valid", "poset-antisymmetry"]
    for s in sorted(e["sheaves"]):
        want += [f"functoriality:{s}", f"basic-cover-exactness:{s}",
                 f"open-cover-exactness:{s}"]
    want += [f"naturality:{m}" for m in sorted(e["morphisms"])]
    if names != want:
        return f"checks {names}, expected {want}"
    detail = {c["name"]: c["detail"] for c in report["checks"]}
    for s in e["sheaves"]:
        basic = int(detail[f"basic-cover-exactness:{s}"].split(": ")[1].split()[0])
        if basic != e["basic_covers"]:
            return f"{basic} basic covers checked for {s}, expected {e['basic_covers']}"
        opened = int(detail[f"open-cover-exactness:{s}"].split(": ")[1].split()[0])
        if not e["up_sets"] <= opened <= 51 * e["up_sets"]:
            return (f"{opened} open covers checked for {s}, outside"
                    f" [{e['up_sets']}, {51 * e['up_sets']}]")
    blocks = normalized_blocks(report["data"]["normalized_document"])
    for s, maps in e["sheaves"].items():
        block = blocks.get(("sheaf", s))
        if block is None:
            return f"normalized document has no sheaf {s}"
        if block.get("field") != e["field"]:
            return f"normalized sheaf {s} has field {block.get('field')}"
        got = {k[4:]: v for k, v in block.items() if k.startswith("map ")}
        if set(got) != set(maps):
            return f"normalized sheaf {s} has maps {sorted(got)}, expected {sorted(maps)}"
        for edge, text in maps.items():
            if parse_matrix(got[edge], p) != parse_matrix(text, p):
                return f"normalized map {edge} of {s} is {got[edge]}, expected {text}"
    for m, (src, tgt) in e["morphisms"].items():
        block = blocks.get(("morphism", m), {})
        if (block.get("source"), block.get("target")) != (src, tgt):
            return (f"normalized morphism {m} says {block.get('source')} ->"
                    f" {block.get('target')}, expected {src} -> {tgt}")
    return None


def check_sections(e, report):
    p = field_prime(e["field"])
    data = report["data"]
    if data["open"] != e["members"]:
        return f"open {data['open']}, expected {e['members']}"
    if data["dim"] != e["dim"] or len(data["basis"]) != e["dim"]:
        return f"dim {data['dim']} with {len(data['basis'])} vectors, expected {e['dim']}"
    maps = {tuple(k.split("->")): parse_matrix(v, p) for k, v in e["maps"].items()}
    members = set(e["members"])
    rows = []
    for vec in data["basis"]:
        values = {x: [exact.parse_entry(t, p) for t in vec[x]] for x in e["members"]}
        for (x, y), m in maps.items():
            if x in members and y in members and exact.matvec(m, values[x], p) != values[y]:
                return f"a basis vector breaks map({x},{y}) s_{x} = s_{y}"
        rows.append([v for x in e["members"] for v in values[x]])
    if not exact.is_rref(rows, p):
        return "basis rows are not in reduced echelon form"
    return None


def check_stalk(e, report):
    p = field_prime(e["field"])
    data = report["data"]
    if data["point"] != e["point"] or data["dim"] != e["dim"]:
        return f"stalk at {data['point']} has dim {data['dim']}, expected {e['dim']}"
    witness = [[exact.parse_entry(t, p) for t in row] for row in data["witness"]]
    d = e["dim"]
    if len(witness) != d or any(len(row) != d for row in witness):
        return f"witness is not {d}x{d}"
    if exact.rank(witness, d, p) != d:
        return "witness is not invertible"
    return None


def check_star(e, report):
    if report["data"]["dim"] != e["dim"]:
        return f"sections over star:{e['point']} have dim {report['data']['dim']}," \
               f" expected {e['dim']}"
    return None


def check_morphism(e, report):
    got = {k: report["data"][k] for k in ("injective", "surjective", "isomorphism")}
    want = {k: e[k] for k in got}
    return None if got == want else f"flags {got}, expected {want}"


def verify(op, rc, out):
    e = op["expect"]
    kind = op["check"]
    if kind == "check" and e["kind"] == "functoriality":
        report, why = _report(rc, out, 1)
        if why:
            return why
        fail = [c for c in report["checks"] if c["name"] == "functoriality"]
        want = f"from {e['low']} to {e['high']} "
        if not fail or fail[0]["status"] != "fail" or want not in fail[0]["detail"]:
            return f"no functoriality failure naming {e['low']} and {e['high']}"
        return None
    if kind == "check" and e["kind"] == "document-error":
        report, why = _report(rc, out, 2)
        if why:
            return why
        if not report.get("error", "").startswith(f"line {e['line']}:"):
            return f"error {report.get('error')!r} does not name line {e['line']}"
        return None
    report, why = _report(rc, out, 0)
    if why:
        return why
    why = _all_pass(report)
    if why:
        return why
    return {
        "check": check_valid,
        "sections": check_sections,
        "stalk": check_stalk,
        "star": check_star,
        "morphism": check_morphism,
    }[kind](e, report)
