"""Golden reports: the exact output of `cellsheaf` on every shipped fixture.

    python tests/golden/reports.py           # compare with reports.json
    python tests/golden/reports.py --write   # rewrite reports.json

Each entry maps one argv to the exit code and the stdout of
`cellsheaf.cli.main`, run in-process from the repository root with `src/`
on the path. The argvs cover, for every shipped fixture, in text and `--json`
form, under the document field, `fp:5` and `fp:7`: `check` with seeds 0
and 3, `sections` on each star, each named open and the whole carrier,
`stalk` at every point, `quotient` and `morphism` (with `--name` for each
named morphism). Only the standard library is needed, so the check runs on
any supported interpreter without an install. Exit status: 0 when every
report matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("reports.json")
FIELDS = (None, "fp:5", "fp:7")


def _outline(text: str):
    """Points, named opens and named morphisms of a document, in file order."""
    elements, opens, morphisms = [], [], []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            words = line.strip("[]").split()
            section = words[0]
            if section == "open":
                opens.append(words[1])
            elif section == "morphism":
                morphisms.append(words[1])
        elif section == "poset" and line.startswith("elements"):
            elements = line.split("=", 1)[1].split()
    return elements, opens, morphisms


def fixture_argvs() -> list[list[str]]:
    argvs = []
    for path in sorted((ROOT / "fixtures").glob("*.sheaf")):
        rel = path.relative_to(ROOT).as_posix()
        elements, opens, morphisms = _outline(path.read_text(encoding="utf-8"))
        commands = [["check", rel, "--seed", "0"], ["check", rel, "--seed", "3"]]
        commands += [["sections", rel, "--open", f"star:{x}"] for x in elements]
        commands += [["sections", rel, "--open", f"set:{u}"] for u in opens]
        commands.append(["sections", rel, "--open", ",".join(elements)])
        commands += [["stalk", rel, "--point", x] for x in elements]
        commands.append(["quotient", rel])
        commands.append(["morphism", rel])
        commands += [["morphism", rel, "--name", f] for f in morphisms]
        for field in FIELDS:
            for cmd in commands:
                base = cmd if field is None else cmd + ["--field", field]
                argvs.append(base)
                argvs.append(base + ["--json"])
    return argvs


def run(argv: list[str]) -> dict:
    from cellsheaf.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def write() -> int:
    entries = [run(argv) for argv in fixture_argvs()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} reports to {GOLDEN.relative_to(ROOT)}")
    return 0


def mismatches(stored: list[dict]) -> list[str]:
    """One line per stored argv whose report differs now."""
    problems = []
    expected = [e["argv"] for e in stored]
    if expected != fixture_argvs():
        problems.append("the fixture argv list differs from the stored one;"
                        " rerun with --write on a trusted commit")
    for entry in stored:
        got = run(entry["argv"])
        if got != entry:
            what = "exit code" if got["exit"] != entry["exit"] else "stdout"
            problems.append(f"{' '.join(entry['argv'])}: {what} differs")
    return problems


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--write"]:
        return write()
    if argv:
        print("usage: reports.py [--write]", file=sys.stderr)
        return 2
    stored = load()
    problems = mismatches(stored)
    for line in problems:
        print(line)
    print(f"{len(stored)} reports, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
