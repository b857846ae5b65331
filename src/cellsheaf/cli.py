"""Command-line interface.

Subcommands parse a sheaf document, run the requested computation, and emit
a deterministic report (human-readable lines, or JSON with --json). Exit
codes: 0 all checks passed, 1 a semantic check failed, 2 usage or parse
error. Rational numbers are printed exactly, never as floats.
"""

from __future__ import annotations

import argparse
import os
import sys

from .document import (
    MAIN_SHEAF,
    RealizedDocument,
    SheafDocument,
    parse_document,
    realize,
    render_document,
)
from .errors import (
    CellSheafError,
    DocumentError,
    EnumerationLimitError,
    UnknownElementError,
)
from .linalg import entry_text
from .morphism import classify
from .order import hasse_edges, quotient_to_poset
from .sheaf import (
    sections_over,
    stalk_at,
    verify_base_sheaf_axioms,
    verify_sheaf_axioms_extended,
)
from .topology import DEFAULT_MAX_ELEMENTS, OpenSet, union_of_stars


class Report:
    """The report of one command."""

    def __init__(self, command: str):
        self.command = command
        self.checks: list[dict] = []
        self.data: dict = {}
        self.error: str | None = None

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(
            {"name": name, "status": "pass" if passed else "fail", "detail": detail}
        )

    @property
    def ok(self) -> bool:
        return self.error is None and all(c["status"] == "pass" for c in self.checks)

    def emit(self, as_json: bool) -> None:
        if as_json:
            import json  # here, so that a text report does not load it
            payload = {"command": self.command, "checks": self.checks, "data": self.data,
                       "error": self.error}
            print(json.dumps({k: v for k, v in payload.items() if v is not None}, indent=2))
            return
        print(f"command: {self.command}")
        if self.error is not None:
            print(f"error: {self.error}")
            return
        for c in self.checks:
            suffix = f" ({c['detail']})" if c["detail"] else ""
            print(f"check {c['name']}: {c['status']}{suffix}")
        for key, value in self.data.items():
            if key == "normalized_document":
                print("normalized document:")
                for line in value.rstrip("\n").split("\n"):
                    print(f"  {line}")
            else:
                print(f"{key}: {_human(value)}")
        print(f"result: {'PASS' if self.ok else 'FAIL'}")


def _human(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_human(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_human(v)}" for k, v in value.items()) + "}"
    return str(value)


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path}: not UTF-8 text") from None


def _realize(report: Report, doc: SheafDocument, field: str | None) -> RealizedDocument:
    realized = realize(doc, field)
    report.check("document-valid", True)
    return realized


def _main_sheaf(realized: RealizedDocument):
    if MAIN_SHEAF in realized.sheaves:
        return realized.sheaves[MAIN_SHEAF]
    if len(realized.sheaves) == 1:
        return next(iter(realized.sheaves.values()))
    if realized.sheaves:
        raise DocumentError(
            "document has several named [sheaf] blocks and no unnamed one")
    raise DocumentError("document has no [sheaf] block")


def cmd_check(report: Report, doc: SheafDocument, args) -> None:
    realized = _realize(report, doc, args.field)
    report.check("poset-antisymmetry", True,
                 f"{len(realized.poset)} elements")
    for name in sorted(realized.sheaves):
        sheaf = realized.sheaves[name]
        report.check(f"functoriality:{name}", True,
                     f"field {sheaf.field.name}")
        for axioms in (
            verify_base_sheaf_axioms(sheaf, args.max_elements),
            verify_sheaf_axioms_extended(sheaf, args.max_elements),
        ):
            detail = axioms.summary()
            failures = axioms.failures()
            if failures:
                detail += "; first: " + failures[0].describe()
            report.check(f"{axioms.name}:{name}", axioms.ok, detail)
    for name in sorted(realized.morphisms):
        report.check(f"naturality:{name}", True)
    report.data["normalized_document"] = render_document(realized)


def _resolve_open(realized: RealizedDocument, spec: str) -> OpenSet:
    poset = realized.poset
    items = [t.strip() for t in spec.split(",") if t.strip()]
    if not items:
        raise DocumentError("empty --open specification")
    for item in items:
        if item in ("star:", "set:"):
            raise DocumentError(f"empty --open item {item!r}")
    stars = [t[5:] for t in items if t.startswith("star:")]
    named = [t[4:] for t in items if t.startswith("set:")]
    plain = [t for t in items if not t.startswith(("star:", "set:"))]
    if plain and (stars or named):
        raise DocumentError(
            "--open mixes an explicit member list with star:/set: items")
    if plain:  # checked for up-closure, its first unknown member named
        return OpenSet(poset, plain)
    # a union of opens is open
    mask = union_of_stars(poset, stars).mask
    for name in named:
        if name not in realized.opens:
            raise DocumentError(f"document defines no open named {name!r}")
        mask |= realized.opens[name].mask
    return OpenSet._trusted(poset, mask)


def cmd_sections(report: Report, doc: SheafDocument, args) -> None:
    realized = _realize(report, doc, args.field)
    sheaf = _main_sheaf(realized)
    U = _resolve_open(realized, args.open_spec)
    report.check("open-valid", True)
    space = sections_over(sheaf, U)
    report.data["open"] = list(U.sorted_members)
    report.data["field"] = sheaf.field.name
    report.data["dim"] = space.dim
    offsets = space.offsets()
    report.data["basis"] = [
        {x: row[offsets[x]: offsets[x] + sheaf.dim(x)] for x in U.sorted_members}
        for row in entry_text(space.basis._matrix)
    ]


def cmd_stalk(report: Report, doc: SheafDocument, args) -> None:
    realized = _realize(report, doc, args.field)
    sheaf = _main_sheaf(realized)
    sheaf.base.index(args.point)
    stalk = stalk_at(sheaf, args.point, args.max_elements)
    report.check(
        "stalk-dimension",
        stalk.theorem_dim == stalk.oracle_dim,
        f"point value dim {stalk.theorem_dim}, direct limit dim {stalk.oracle_dim}",
    )
    report.check("stalk-witness-invertible", stalk.iso_witness.is_invertible())
    report.data["point"] = args.point
    report.data["dim"] = stalk.theorem_dim
    report.data["witness"] = entry_text(stalk.iso_witness)


def cmd_quotient(report: Report, doc: SheafDocument, args) -> None:
    result = quotient_to_poset(doc.preorder)
    report.check("quotient-is-poset", result.quotient.is_poset())
    report.data["carrier"] = list(doc.preorder.elements)
    report.data["classes"] = [list(cls) for cls in result.classes]
    report.data["representatives"] = list(result.quotient.elements)
    report.data["hasse"] = [
        f"{a}<{b}" for a, b in hasse_edges(result.quotient)
    ]


def cmd_morphism(report: Report, doc: SheafDocument, args) -> None:
    if not doc.morphism_specs:
        raise DocumentError("document defines no morphisms")
    name = args.name
    if name is None:
        if len(doc.morphism_specs) > 1:
            raise DocumentError(
                "document defines several morphisms; pick one with --name")
        name = next(iter(doc.morphism_specs))
    if name not in doc.morphism_specs:
        raise DocumentError(f"document defines no morphism named {name!r}")
    mor = _realize(report, doc, args.field).morphisms[name]
    report.check("naturality", True)
    flags = classify(mor)
    report.data["morphism"] = name
    report.data["injective"] = flags.injective
    report.data["surjective"] = flags.surjective
    report.data["isomorphism"] = flags.isomorphism
    report.data["components"] = {
        p: entry_text(mor.components[p]) for p in mor.source.base.elements
    }


def _int_from(least: int, kind: str):
    """An argparse type: an integer of at least `least`, `kind` in its error."""
    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return value
    return read


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`. When argv[0] names a command, only that
    command's subparser is added, since parsing hands every later argument
    to it; otherwise (no command, a help flag, an unknown word) all are, so
    the top-level help and errors list every command."""
    # (name, help, run, the arguments after --json as (flag, keywords)).
    # Built per call, so each `run` is the cmd_* the module holds then, and
    # a wrapper put on the module (perfbench's tracer) sees every command.
    # Only the two commands that enumerate opens take the guard. check takes
    # --seed and ignores it, so that command lines written when it sampled
    # covers still parse.
    guard = ("--max-elements", dict(type=_int_from(1, "a positive integer"),
                                    default=DEFAULT_MAX_ELEMENTS,
                                    dest="max_elements",
                                    help="enumeration guard for open-set listings"
                                         f" (default {DEFAULT_MAX_ELEMENTS})"))
    field = ("--field", dict(default=None,
                             help="override the document field: q or fp:<prime>"))
    commands = [
        ("check", "validate the document and verify the gluing laws", cmd_check, [
            ("--seed", dict(type=_int_from(0, "a non-negative integer"),
                            help="accepted, no effect")),
            guard, field,
        ]),
        ("sections", "basis of the sections over an open set", cmd_sections, [
            field,
            ("--open", dict(required=True, dest="open_spec",
                            help="comma-separated star:<x> / set:<name> items,"
                                 " or explicit members")),
        ]),
        ("stalk", "stalk dimensions and comparison witness", cmd_stalk,
         [guard, field, ("--point", dict(required=True))]),
        ("quotient", "poset quotient of the document's relation", cmd_quotient, []),
        ("morphism", "naturality and classification of a morphism", cmd_morphism,
         [field, ("--name", dict(default=None))]),
    ]
    names = [name for name, *_ in commands]
    parser = argparse.ArgumentParser(
        prog="cellsheaf",
        description="Exact computations with cellular sheaves on finite posets",
    )
    if argv and argv[0] in names:
        commands = [c for c in commands if c[0] == argv[0]]
        # an error about arguments left over prints the top-level usage,
        # which still lists every command
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(names) + "}")
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="sheaf document")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A semantic failure is recorded on the command's
    report as the failed check its error names and exits 1; malformed input
    exits 2 with a report that holds only the error. When the reader of
    standard output has gone, the rest of the report is dropped and the
    exit code is the report's own."""
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    report = Report(args.command)
    try:
        args.run(report, parse_document(_load(args.file)), args)
    except (DocumentError, UnknownElementError, EnumerationLimitError) as exc:
        report = Report(args.command)
        report.error = str(exc)
    except CellSheafError as exc:
        report.check(exc.check, False, str(exc))
    try:
        report.emit(args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: to devnull, that flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 2 if report.error is not None else 0 if report.ok else 1
