"""`python -m cellsheaf` as a child process: each row of the table ends in
its exit code, with no traceback on stderr, within its time bound and 1 GB
of address space.

    PYTHONPATH=src python -m pytest tests/test_process.py

The scale rows bound work that grows with the document; the hostile rows
are inputs that must be refused with exit 2 and a named error. A row that
hits an open Known defect of ROADMAP.md is a strict xfail naming it, so the
change that mends the defect must remove the mark. One more child only
imports the command line, and pins the modules that import must not load.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FIXTURES, child_env, run_cellsheaf


def _chain(n: int) -> tuple[list[str], list[str]]:
    """The points p0 < p1 < ... of an n-point chain and its [poset] block."""
    points = [f"p{i}" for i in range(n)]
    return points, ["[poset]", "elements = " + " ".join(points),
                    "relation = " + " ".join(f"{a}<{b}" for a, b in zip(points, points[1:]))]


def _fan() -> list[str]:
    # one bottom point q below p0 ... p11: the stalk at p0 is a direct limit
    # over 2,049 neighbourhoods, each with its own section solve
    tops = [f"p{i}" for i in range(12)]
    return (["[poset]", "elements = q " + " ".join(tops),
             "relation = " + " ".join(f"q<{t}" for t in tops),
             "[sheaf]", "field = q", "dim q = 1"]
            + [f"dim {t} = 1" for t in tops] + [f"map q->{t} = [[1]]" for t in tops])


def _long_chain() -> list[str]:
    # loading costs time linear in the text: closure, Hasse reduction and
    # the chain check on 5,000 points
    points, lines = _chain(5000)
    return (lines + ["[sheaf]"] + [f"dim {x} = 1" for x in points]
            + [f"map {a}->{b} = [[1]]" for a, b in zip(points, points[1:])])


def _repeated_literals() -> list[str]:
    # two sheaves of 2x2 identity maps and a morphism that swaps the
    # coordinates at every point: each distinct literal is read once
    points, lines = _chain(5000)
    for header in ("[sheaf]", "[sheaf other]"):
        lines.append(header)
        lines += [f"dim {x} = 2" for x in points]
        lines += [f"map {a}->{b} = [[1, 0], [0, 1]]" for a, b in zip(points, points[1:])]
    lines += ["[morphism f]", "source = main", "target = other"]
    return lines + [f"map {x} = [[0, 1], [1, 0]]" for x in points]


def _antichain() -> list[str]:
    # 512 opens, one canonical cover each: the gluing verifiers keep one memo
    # of decided sequences per call
    points = [f"p{i}" for i in range(9)]
    return (["[poset]", "elements = " + " ".join(points), "[sheaf]", "field = q"]
            + [f"dim {x} = 1" for x in points])


def _short_chain() -> list[str]:
    # p0 < ... < p19, dim 1, identity maps: 21 opens, but 2^20 - 1 basic
    # covers, the subsets of each star that hold its point
    points, lines = _chain(20)
    return (lines + ["[sheaf]"] + [f"dim {x} = 1" for x in points]
            + [f"map {a}->{b} = [[1]]" for a, b in zip(points, points[1:])])


def _large_stalks() -> list[str]:
    # a < b, a < c, every dim 100, identity maps: each band of the cover
    # check is a 100-row block, tested once per star or open
    identity = "[" + ", ".join(
        "[" + ", ".join("1" if i == j else "0" for j in range(100)) + "]" for i in range(100)) + "]"
    return ["[poset]", "elements = a b c", "relation = a<b a<c", "[sheaf]",
            "dim a = 100", "dim b = 100", "dim c = 100",
            f"map a->b = {identity}", f"map a->c = {identity}"]


def _huge_entries() -> list[str]:
    # a < b, a < c, every dim 20: two 20x20 maps of 1000-digit integers
    rng = random.Random(3)
    lines = ["[poset]", "elements = a b c", "relation = a<b a<c", "[sheaf]",
             "dim a = 20", "dim b = 20", "dim c = 20"]
    for target in "bc":
        rows = (", ".join(str(rng.randrange(10**999, 10**1000)) for _ in range(20))
                for _ in range(20))
        lines.append(f"map a->{target} = [" + ", ".join(f"[{row}]" for row in rows) + "]")
    return lines


# one covering pair a < b, before its dimensions and map
_PAIR = ["[poset]", "elements = a b", "relation = a<b", "[sheaf]"]

# name -> the lines of a document, or its bytes
DOCUMENTS = {
    "square.sheaf": (FIXTURES / "square.sheaf").read_bytes,
    "fan.sheaf": _fan,
    "chain.sheaf": _long_chain,
    "literals.sheaf": _repeated_literals,
    "antichain.sheaf": _antichain,
    "chain20.sheaf": _short_chain,
    "stalks.sheaf": _large_stalks,
    "latin1.sheaf": lambda: b"[poset]\nelements = caf\xe9\n",
    "nul.sheaf": lambda: ["[poset]", "elements = a\0b"],
    "deep.sheaf": lambda: _PAIR + ["dim a = 1", "dim b = 1",
                                   "map a->b = " + "[" * 100_000 + "1" + "]" * 100_000],
    "wide.sheaf": lambda: _PAIR + ["dim a = 1", "dim b = 1",
                                   "map a->b = [[" + ", ".join(["1"] * 200_001) + "]]"],
    "huge.sheaf": lambda: _PAIR + ["dim a = 100000000000", "dim b = 0"],
    "huger.sheaf": lambda: ["[poset]", "elements = a", "[sheaf]",
                            "dim a = 99999999999999999999999"],
    "entries.sheaf": _huge_entries,
}


def write_document(directory: Path, name: str) -> Path:
    """The path of `name` under `directory`, holding the document of that
    name if DOCUMENTS has one. Any other name is a path as it stands: an
    absolute one, the directory itself, or a file that does not exist."""
    path = directory / name
    if name in DOCUMENTS:
        text = DOCUMENTS[name]()
        path.write_bytes(text if isinstance(text, bytes) else ("\n".join(text) + "\n").encode())
    return path


def _row(line: str, code: int = 2, seconds: int = 5, defect: str | None = None):
    """One child run: the argv as one line with the document second, its exit
    code, and its bound in seconds of CPU time and of wall time."""
    marks = [pytest.mark.xfail(strict=True, reason=f"Known defect: {defect}")] if defect else []
    return pytest.param(line.split(), code, seconds, id=line, marks=marks)


ROWS = [
    _row("stalk fan.sheaf --point p0", 0, seconds=10),
    _row("sections chain.sheaf --open star:p4999", 0),
    _row("quotient chain.sheaf", 0),
    _row("morphism literals.sheaf --name f", 0),
    _row("sections literals.sheaf --open star:p4999", 0),
    _row("check antichain.sheaf", 0),
    _row("check chain20.sheaf", 0,
         defect="the basic verifier checks 2^20 - 1 covers on a 20-point chain"),
    _row("check stalks.sheaf", 0, seconds=10),
    _row("check ."),
    _row("check latin1.sheaf"),
    _row("check /dev/null"),
    _row(f"check square.sheaf --field fp:{10**129 + 459}"),  # a 130-digit prime
    _row("sections square.sheaf --open star:"),
    _row("check nul.sheaf"),
    _row("check deep.sheaf"),
    _row("check wide.sheaf"),
    _row("check huge.sheaf",
         defect="a huge dimension escapes Matrix.zeros as a MemoryError traceback"),
    _row("sections huger.sheaf --open a", seconds=2,
         defect="a huger dimension runs without bound in Matrix.identity"),
    _row("check entries.sheaf", 0, seconds=2,
         defect="huge entries run without bound in the Q rank eliminations of the cover check"),
]


@pytest.mark.parametrize("argv, code, seconds", ROWS)
def test_command_ends_in_its_exit_code(tmp_path, argv, code, seconds):
    command, document, *rest = argv
    run_cellsheaf([command, str(write_document(tmp_path, document)), *rest], tmp_path,
                  code=code, seconds=seconds)


def test_importing_the_cli_loads_only_what_a_command_runs():
    """`import cellsheaf.cli` loads none of these: records are plain
    classes, annotations are strings, nothing draws at random, and `json`
    is imported where a --json report uses it. Only modules
    that the package itself would name are pinned; `-S` keeps `site`, and
    what its .pth files import, out of the child."""
    unused = ("dataclasses", "typing", "random", "json")
    code = f"import sys, cellsheaf.cli; print(*[m for m in {unused!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
