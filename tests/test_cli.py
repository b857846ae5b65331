import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cellsheaf.sheaf
from cellsheaf import CellSheafError, cli, parse_text
from cellsheaf.cli import main
from cellsheaf.linalg import PRIME_BOUND

from helpers import FIXTURES, run_cellsheaf, subparsers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fixture(name):
    return str(FIXTURES / name)


# (test id, field name, message) for moduli that `int` rejects or that have
# too many digits for it; a long name is quoted by a short prefix only
BAD_MODULI = [
    ("fp:x", "fp:x", "unknown field 'fp:x' (expected 'q' or 'fp:<prime>')"),
    ("fp:", "fp:", "unknown field 'fp:' (expected 'q' or 'fp:<prime>')"),
    # `int` reads both, but a prime is written as an integer matrix entry is
    ("underscores", "fp:1_0_1", "unknown field 'fp:1_0_1' (expected 'q' or 'fp:<prime>')"),
    ("plus sign", "fp:+7", "unknown field 'fp:+7' (expected 'q' or 'fp:<prime>')"),
    ("5000 digits", "fp:" + "7" * 5000, f"prime fields need p below {PRIME_BOUND}"),
    ("5000 letters", "fp:" + "x" * 5000,
     "unknown field 'fp:xxxxxxxxxxxxxxxxxxxxx'... (expected 'q' or 'fp:<prime>')"),
]


class TestCheck:
    @pytest.mark.parametrize(
        "name", ["square", "span", "double_target", "fan", "fractions"])
    def test_shipped_fixtures_pass(self, capsys, name):
        code, out = run(capsys, "check", fixture(f"{name}.sheaf"))
        assert code == 0
        assert "result: PASS" in out

    def test_a_failed_cover_check_is_reported_with_the_first_failure(self, capsys):
        # no valid sheaf fails a cover check, so every sequence is made
        # to read as not exact
        with mock.patch.object(cellsheaf.sheaf, "_exact_by_bands", lambda *args: False):
            code, out = run(capsys, "check", fixture("square.sheaf"))
        assert code == 1
        assert out.split("\n")[5:7] == [
            "check basic-cover-exactness:main: fail (basic-cover-exactness: 13 covers"
            " checked, 13 failures; first: {p q1 q2 r} covered by [{p q1 q2 r}]:"
            " gluing failed)",
            "check open-cover-exactness:main: fail (open-cover-exactness: 31 covers"
            " checked, 31 failures; first: {} covered by []: gluing failed)",
        ]
        assert out.endswith("result: FAIL\n")

    def test_path_dependent_fixture_fails_with_witness(self, capsys):
        code, out = run(capsys, "check", fixture("bad_square.sheaf"))
        assert code == 1
        assert "check functoriality: fail" in out
        assert "from p to r" in out

    def test_parse_error_exits_two_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.sheaf"
        bad.write_text("[poset]\nelements = a\nwhat = 1\n")
        code, out = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 3" in out

    @pytest.mark.parametrize("argv, body, message", [
        (["check"], "[sheaf]\nfield = fp:5\nfield = q\ndim a = 1\n",
         "line 5: duplicate key 'field' in [sheaf]"),
        (["sections", "--open", "set:U"], "[sheaf]\ndim a = 1\n[open U]\nstars = a\nstars = a\n",
         "line 7: duplicate key 'stars' in [open]"),
    ])
    def test_repeated_key_exits_two_with_line(self, capsys, tmp_path, argv, body, message):
        doc = tmp_path / "repeated.sheaf"
        doc.write_text("[poset]\nelements = a\n" + body)
        code, out = run(capsys, argv[0], str(doc), *argv[1:])
        assert code == 2
        assert f"error: {message}\n" in out

    def test_shape_error_exits_two_with_location(self, capsys, tmp_path):
        bad = tmp_path / "shape.sheaf"
        bad.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 2\ndim b = 1\nmap a->b = [[1]]\n"
        )
        code, out = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 7" in out

    @pytest.mark.parametrize("field, entry", [("fp:5", "1/5"), ("q", "1/0")])
    def test_entry_dividing_by_zero_exits_two_with_line(self, capsys, tmp_path,
                                                        field, entry):
        bad = tmp_path / "zero.sheaf"
        bad.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
            f"field = {field}\ndim a = 1\ndim b = 1\nmap a->b = [[{entry}]]\n"
        )
        for argv in (["check"], ["sections", "--open", "star:a"],
                     ["stalk", "--point", "a"]):
            code, out = run(capsys, argv[0], str(bad), *argv[1:], "--json")
            assert code == 2
            assert json.loads(out)["error"].startswith("line 9: ")

    @pytest.mark.parametrize("field, entry", [
        ("q", "7" * 5000), ("fp:5", "1/" + "7" * 5000),
    ])
    def test_entry_past_the_digit_limit_exits_two_with_line(self, capsys, tmp_path,
                                                            field, entry):
        big = tmp_path / "big.sheaf"
        big.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
            f"field = {field}\ndim a = 1\ndim b = 1\nmap a->b = [[{entry}]]\n"
        )
        code, out = run(capsys, "check", str(big), "--json")
        assert code == 2
        assert json.loads(out)["error"] == (
            f"line 9: entry {entry[:12]}... has too many digits ({len(entry)} characters)"
        )
        assert len(out) < 300

    @pytest.mark.parametrize("field, message", [
        ("fp:4", "--field: 4 is not prime"),
        ("banana", "--field: unknown field 'banana' (expected 'q' or 'fp:<prime>')"),
        *(pytest.param(field, "--field: " + message, id=name)
          for name, field, message in BAD_MODULI),
    ])
    def test_bad_field_override_names_the_flag_not_a_line(self, capsys, field, message):
        code, out = run(capsys, "check", fixture("square.sheaf"), "--field", field,
                        "--json")
        assert code == 2
        assert json.loads(out)["error"] == message
        assert len(out) < 300

    def test_bad_field_in_document_keeps_its_line(self, capsys, tmp_path):
        bad = tmp_path / "field.sheaf"
        for field, message in [("fp:4", "4 is not prime"),
                               *((field, message) for _, field, message in BAD_MODULI)]:
            bad.write_text(
                "[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
                f"field = {field}\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\n"
            )
            code, out = run(capsys, "check", str(bad))
            assert code == 2
            assert f"error: line 5: {message}" in out
            assert len(out) < 300

    def test_large_prime_field_finishes(self, capsys):
        code, out = run(capsys, "check", fixture("square.sheaf"),
                        "--field", "fp:1000000000000000003")
        assert code == 0
        assert "field fp:1000000000000000003" in out

    def test_missing_file_exits_two(self, capsys):
        code, _ = run(capsys, "check", "no-such-file.sheaf")
        assert code == 2

    def test_non_utf8_file_exits_two_naming_the_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.sheaf"
        bad.write_bytes(b"\xff\xfe[poset]\n")
        code, out = run(capsys, "check", str(bad))
        assert code == 2
        assert f"error: cannot read {bad}: not UTF-8 text" in out

    def test_normalized_document_reparses_to_equal_sheaf(self, capsys):
        code, out = run(capsys, "check", fixture("square.sheaf"), "--json")
        assert code == 0
        payload = json.loads(out)
        text = payload["data"]["normalized_document"]
        again = parse_text(text)
        original = parse_text((FIXTURES / "square.sheaf").read_text())
        assert again.sheaves == original.sheaves

    def test_enumeration_guard(self, capsys):
        code, out = run(capsys, "check", fixture("square.sheaf"),
                        "--max-elements", "3")
        assert code == 2
        assert "enumeration limit" in out

    def test_preorder_document_fails_antisymmetry(self, capsys, tmp_path):
        doc = tmp_path / "cycle.sheaf"
        doc.write_text(
            "[poset]\nelements = a b\nrelation = a<b b<a\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\n"
        )
        code, out = run(capsys, "check", str(doc))
        assert code == 1
        assert "check poset-antisymmetry: fail" in out
        assert "not a poset" in out

    def test_normalized_document_names_morphism_ends_as_written(self, capsys, tmp_path):
        doc = tmp_path / "ends.sheaf"
        doc.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[sheaf other]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[morphism g]\nsource = other\ntarget = other\nmap a = [[3]]\nmap b = [[3]]\n"
        )
        code, out = run(capsys, "check", str(doc), "--json")
        assert code == 0
        text = json.loads(out)["data"]["normalized_document"]
        assert "[morphism g]\nsource = other\ntarget = other\n" in text

    def test_check_includes_morphism_naturality(self, capsys, tmp_path):
        doc = tmp_path / "m.sheaf"
        doc.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[morphism f]\nmap a = [[5]]\nmap b = [[5]]\n"
        )
        code, out = run(capsys, "check", str(doc))
        assert code == 0
        assert "check naturality:f: pass" in out


class TestSections:
    def test_union_of_stars(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "star:q1,star:q2")
        assert code == 0
        assert "dim: 1" in out
        assert "2/3" in out

    def test_named_open(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "set:U")
        assert code == 0
        assert "dim: 1" in out

    @pytest.mark.parametrize("spec, members", [
        ("star:p,set:U", "p,q1,q2,r"), ("set:U,star:p", "p,q1,q2,r"),
        ("star:r,set:U,star:q1", "q1,q2,r"), ("set:U,set:U", "q1,q2,r"),
    ])
    def test_star_and_set_items_make_one_union(self, capsys, spec, members):
        union = run(capsys, "sections", fixture("square.sheaf"), "--open", spec)
        listed = run(capsys, "sections", fixture("square.sheaf"), "--open", members)
        assert union == listed
        assert union[0] == 0

    def test_explicit_member_list(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "q1,q2,r")
        assert code == 0
        assert "dim: 1" in out

    def test_star_of_bottom_matches_its_dimension(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "star:p")
        assert code == 0
        assert "dim: 2" in out

    def test_non_open_request_fails_with_successor_witness(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"), "--open", "p")
        assert code == 1
        assert "successor" in out
        assert "q1" in out

    def test_unknown_element_is_usage_error(self, capsys):
        code, _ = run(capsys, "sections", fixture("square.sheaf"),
                      "--open", "star:nope")
        assert code == 2

    def test_mixed_spec_is_usage_error(self, capsys):
        code, _ = run(capsys, "sections", fixture("square.sheaf"),
                      "--open", "star:q1,r")
        assert code == 2

    def test_prime_field_override(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "star:q1,star:q2", "--field", "fp:5")
        assert code == 0
        assert "field: fp:5" in out
        assert "dim: 1" in out

    def test_json_schema_and_string_rationals(self, capsys):
        code, out = run(capsys, "sections", fixture("square.sheaf"),
                        "--open", "set:U", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "checks", "data"}
        assert payload["command"] == "sections"
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "detail"}
        vec = payload["data"]["basis"][0]
        assert vec["q2"] == ["2/3"]


    @pytest.mark.parametrize("as_json", [False, True])
    def test_values_past_the_digit_limit_print_exactly(self, capsys, tmp_path, as_json):
        # each map is under the parser's digit limit, their product at c is not
        sevens = "7" * 3000
        doc = tmp_path / "big.sheaf"
        doc.write_text(
            "[poset]\nelements = a b c\nrelation = a<b b<c\n\n[sheaf]\nfield = q\n"
            "dim a = 1\ndim b = 1\ndim c = 1\n"
            f"map a->b = [[{sevens}]]\nmap b->c = [[{sevens}]]\n"
        )
        square = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=0", "-c",
             f"print(int('{sevens}') ** 2)"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        argv = ["sections", str(doc), "--open", "star:a"] + ["--json"] * as_json
        code, out = run(capsys, *argv)
        assert code == 0
        if as_json:
            printed = json.loads(out)["data"]["basis"][0]["c"][0]
        else:
            printed = out.split("c: [", 1)[1].split("]", 1)[0]
        assert len(square) == 6000
        assert printed == square


class TestStalk:
    def test_passes_at_every_point(self, capsys):
        for point in ["p", "q1", "q2", "r"]:
            code, out = run(capsys, "stalk", fixture("square.sheaf"),
                            "--point", point)
            assert code == 0
            assert "result: PASS" in out

    def test_unknown_point_is_usage_error(self, capsys):
        code, _ = run(capsys, "stalk", fixture("square.sheaf"), "--point", "zz")
        assert code == 2


class TestQuotient:
    def test_preorder_document(self, capsys, tmp_path):
        doc = tmp_path / "pre.sheaf"
        doc.write_text("[poset]\nelements = a b c d\nrelation = a<b b<a b<c c<d\n")
        code, out = run(capsys, "quotient", str(doc))
        assert code == 0
        assert "classes: [[a, b], [c], [d]]" in out
        assert "hasse: [a<c, c<d]" in out

    def test_poset_input_gives_singleton_classes(self, capsys):
        code, out = run(capsys, "quotient", fixture("square.sheaf"))
        assert code == 0
        assert "classes: [[p], [q1], [q2], [r]]" in out


class TestMorphism:
    def test_valid_morphism_reports_flags(self, capsys, tmp_path):
        doc = tmp_path / "m.sheaf"
        doc.write_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[morphism f]\nmap a = [[5]]\nmap b = [[5]]\n"
        )
        code, out = run(capsys, "morphism", str(doc))
        assert code == 0
        assert "isomorphism: true" in out

    def test_naturality_violation_fails_with_witness(self, capsys):
        code, out = run(capsys, "morphism", fixture("bad_morphism.sheaf"))
        assert code == 1
        assert "check naturality: fail" in out
        assert "a <= b" in out

    def test_unknown_name_is_usage_error(self, capsys):
        code, _ = run(capsys, "morphism", fixture("bad_morphism.sheaf"),
                      "--name", "ghost")
        assert code == 2

    def test_document_without_morphisms_is_usage_error(self, capsys):
        code, _ = run(capsys, "morphism", fixture("square.sheaf"))
        assert code == 2


class TestSheafChoice:
    @pytest.mark.parametrize("argv", [["sections", "--open", "star:a"],
                                      ["stalk", "--point", "a"]])
    @pytest.mark.parametrize("sheaves, message", [
        ("", "document has no [sheaf] block"),
        ("[sheaf s]\ndim a = 1\n[sheaf t]\ndim a = 1\n",
         "document has several named [sheaf] blocks and no unnamed one"),
    ])
    def test_no_sheaf_to_use_names_why(self, capsys, tmp_path, argv, sheaves, message):
        doc = tmp_path / "doc.sheaf"
        doc.write_text("[poset]\nelements = a\n" + sheaves)
        code, out = run(capsys, argv[0], str(doc), *argv[1:])
        assert (code, out) == (2, f"command: {argv[0]}\nerror: {message}\n")


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = run_cellsheaf(["stalk", fixture("fan.sheaf"), "--point", "q"], tmp_path,
                             stdout=subprocess.PIPE)
        assert "result: PASS" in proc.stdout

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_a_closed_pipe_ends_the_report_quietly(self, tmp_path, unbuffered):
        """The reader of standard output is gone before the child starts:
        every write fails with EPIPE, at each print when unbuffered and at
        the flush otherwise. The child keeps the report's exit code and
        prints no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run_cellsheaf(["stalk", fixture("square.sheaf"), "--point", "p"], tmp_path,
                          stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)


_COMMANDS = ["check", "sections", "stalk", "quotient", "morphism"]
_SQUARE = fixture("square.sheaf")
_PARSER_ARGVS = (
    [[], ["-h"], ["--help"], ["bogus"], ["-h", "check"]]
    + [[cmd, "--help"] for cmd in _COMMANDS]
    + [[cmd] for cmd in _COMMANDS]
    + [["sections", _SQUARE], ["stalk", _SQUARE],
       ["check", _SQUARE, "--seed", "q"], ["check", _SQUARE, "--bogus"],
       ["quotient", _SQUARE, "extra"], ["--json", "check", _SQUARE],
       ["morphism", _SQUARE, "--name"], ["check", _SQUARE, "--max-elements", "-1"],
       # only the two commands that enumerate opens take the guard
       ["sections", _SQUARE, "--open", "star:p", "--max-elements", "1"],
       # quotient builds no sheaf, so it takes no field
       ["quotient", _SQUARE, "--field", "q"],
       # only check samples covers, so only it takes a seed, and not a negative one
       ["sections", _SQUARE, "--open", "star:p", "--seed", "0"],
       ["stalk", _SQUARE, "--point", "p", "--seed", "0"], ["quotient", _SQUARE, "--seed", "0"],
       ["morphism", _SQUARE, "--seed", "0"], ["check", _SQUARE, "--seed", "-1"]]
)
_VALID_ARGVS = (
    [["check", _SQUARE, "--json", "--seed", "3", "--max-elements", "9"],
       ["sections", _SQUARE, "--open", "set:U", "--field", "fp:5"],
       ["stalk", _SQUARE, "--point", "q1"],
       ["quotient", _SQUARE],
       ["morphism", _SQUARE, "--name", "f"]]
)


class TestParser:
    """A command builds only its own subparser; the full parser, built for
    an argv that names no command, is the reference on each interpreter."""

    @staticmethod
    def _outcome(parser, argv, capsys):
        try:
            return ("parsed", parser.parse_args(argv))
        except SystemExit as exc:
            out, err = capsys.readouterr()
            return ("exit", exc.code, out, err)

    @pytest.mark.parametrize("argv", _PARSER_ARGVS + _VALID_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = self._outcome(cli._build_parser(argv), argv, capsys)
        assert got == self._outcome(cli._build_parser([]), argv, capsys)
        # a valid argv parses, help exits 0 and a usage error 2
        want = (("parsed",) if argv in _VALID_ARGVS
                else ("exit", 0 if {"-h", "--help"} & set(argv) else 2))
        assert got[:len(want)] == want

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["stalk", fixture("fan.sheaf"), "--point", "q", "--json"]
        monkeypatch.setattr(sys, "argv", ["cellsheaf", *argv])
        assert (main(), capsys.readouterr().out) == run(capsys, *argv)


README = FIXTURES.parent / "README.md"


def _readme_flag_table() -> dict:
    """flag -> (the commands that take it, the first word of its default)
    from the README's flag table, one row per flag."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| flag | commands | default | meaning |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, commands, default, _ = (cell.strip() for cell in line.strip("|").split("|", 3))
        table[flag.strip("`").split()[0]] = (set(commands.split(", ")),
                                            default.split()[0].strip("`"))
    return table


def _readme_argvs() -> list[list[str]]:
    """The arguments of each `cellsheaf ...` and `python -m cellsheaf ...`
    line in the README's `sh` blocks, after any environment assignments."""
    argvs, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        words = shlex.split(line, comments=True) if in_sh else []
        while words and "=" in words[0]:
            words.pop(0)
        if words[:1] == ["cellsheaf"]:
            argvs.append(words[1:])
        elif words[:3] == ["python", "-m", "cellsheaf"]:
            argvs.append(words[3:])
    return argvs


class TestReadme:
    """The README's flag table and examples against the command line."""

    def test_flag_table_matches_the_parser(self):
        expected = {}
        for command, sub in subparsers(cli._build_parser([])).items():
            for option in sub._actions:
                if not option.option_strings or isinstance(option, argparse._HelpAction):
                    continue
                default = ("required" if option.required
                           else "off" if option.default is False
                           else "none" if option.default is None else str(option.default))
                commands, first = expected.setdefault(option.option_strings[0],
                                                      (set(), default))
                assert default == first, (command, option.option_strings)
                commands.add(command)
        assert expected and _readme_flag_table() == expected

    def test_every_example_runs(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent)
        argvs = _readme_argvs()
        assert argvs
        codes = {" ".join(argv): main(argv) for argv in argvs}
        assert {line: code for line, code in codes.items() if code not in (0, 1)} == {}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check", "square.sheaf", "--json", "--seed", "9"),
        ("check", "square.sheaf", "--seed", "9"),
        ("sections", "square.sheaf", "--open", "set:U", "--json"),
        ("stalk", "fan.sheaf", "--point", "q", "--json"),
    ])
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        argv = [argv[0], fixture(argv[1]), *argv[2:]]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_determinism_across_processes_and_hash_seeds(self, tmp_path):
        # the children run from a neutral directory, so the caller's cwd
        # cannot shadow the cellsheaf they import
        argv = ["check", fixture("square.sheaf"), "--json", "--seed", "13"]
        outputs = [run_cellsheaf(argv, tmp_path, stdout=subprocess.PIPE,
                                 PYTHONHASHSEED=hash_seed).stdout
                   for hash_seed in ["0", "4242"]]
        assert outputs[0] == outputs[1]


_FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.sheaf"))]
# Numbers stay small so that each mutant runs in milliseconds; the digit
# limit has tests of its own above.
_TOKENS = sorted({tok for text in _FIXTURE_TEXTS for tok in text.split()} | {
    "", "0", "-1", "3", "1/0", "2/3", "-4/6", "1/5", "q", "fp:2", "fp:5", "fp:4",
    "fp:0", "fp:x", "id", "zero", "a<a", "b<a", "a<zz", "[[", "]]", "[]", "[[]]",
    "[[1,", "2]]", "[[1/2]]", "[[0]]", "=", "#", "<", "->", "[sheaf]", "[poset]",
    "[open", "U]", "[morphism", "f]", "[sheaf other]", "x", "\u00e9",
})
_LINES = sorted({line for text in _FIXTURE_TEXTS for line in text.splitlines()} | {
    "[sheaf extra]", "[open V]", "[morphism g]", "[unknown]", "stars = a b",
    "members = a", "members =", "dim a = 2", "dim a = -1", "dim zz = 1",
    "map a->b = id", "map a->b = zero", "map b->a = [[1]]", "map a = [[1/2]]",
    "field = fp:3", "field = fp:9", "source = main", "target = main",
    "target = nowhere", "relation = a<a", "relation = a<b b<a", "elements = a",
    "elements = a a", "key without equals", "= 1",
})


@st.composite
def mutated_fixtures(draw):
    """A shipped fixture after one to four edits: a line dropped, copied or
    inserted, a space-separated token replaced, or one character dropped or
    inserted."""
    lines = draw(st.sampled_from(_FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["drop", "copy", "insert", "token", "char"]))
        if not lines:
            lines.append(draw(st.sampled_from(_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines)))
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(at, lines[i])
        elif kind == "insert":
            lines.insert(at, draw(st.sampled_from(_LINES)))
        elif kind == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
        else:
            k = draw(st.integers(0, len(lines[i])))
            if draw(st.booleans()):
                lines[i] = lines[i][:k] + lines[i][k + 1:]
            else:
                lines[i] = lines[i][:k] + draw(st.sampled_from("[],/=<-# 01a")) + lines[i][k:]
    return "\n".join(lines) + "\n"


class TestFrontDoorFuzz:
    """Mutated fixtures never escape as an exception: parsing raises only
    CellSheafError subclasses, and every command exits 0, 1 or 2."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutated_fixtures(), field=st.sampled_from([None, "q", "fp:2", "fp:5"]),
           point=st.sampled_from(["a", "b", "p", "q", "q1", "r", "p1"]),
           open_spec=st.sampled_from(["star:a", "star:p", "set:U", "q1,r", "p1,q"]))
    def test_mutants_end_in_an_exit_code(self, tmp_path_factory, text, field, point,
                                         open_spec):
        try:
            parse_text(text, field)
        except CellSheafError:
            pass
        path = tmp_path_factory.mktemp("fuzz") / "mutant.sheaf"
        path.write_text(text)
        override = ["--field", field] if field else []
        for argv in (["check", *override], ["sections", "--open", open_spec, *override],
                     ["stalk", "--point", point, *override], ["quotient"],
                     ["morphism", *override]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, text)


def _check(name, status, detail=""):
    return {"name": name, "status": status, "detail": detail}


def _exit_two(command, error):
    """Text and JSON of a report that holds only an error; only check's
    report echoes a seed."""
    if command == "check":
        return (f"command: check\nseed: 0\nerror: {error}\n",
                {"command": "check", "seed": 0, "checks": [], "data": {}, "error": error})
    return (f"command: {command}\nerror: {error}\n",
            {"command": command, "checks": [], "data": {}, "error": error})


_NOT_OPEN_DOC = ("[poset]\nelements = a b\nrelation = a<b\n"
                 "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\n[open U]\nmembers = a\n")
_OTHER_DOC = ("[poset]\nelements = a b\nrelation = a<b\n"
              "[sheaf other]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n")
_NO_SHEAF_DOC = "[poset]\nelements = a b\nrelation = a<b\n"
_TWO_MORPHISMS_DOC = (
    "[poset]\nelements = a b\nrelation = a<b\n"
    "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
    "[morphism f]\nmap a = [[1]]\nmap b = [[1]]\n"
    "[morphism g]\nmap a = [[2]]\nmap b = [[2]]\n"
)
_BANANA_DOC = ("[poset]\nelements = a b\nrelation = a<b\n"
               "[sheaf]\nfield = banana\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\n")
_BANANA_ERROR = "line 4: unknown field 'banana' (expected 'q' or 'fp:<prime>')"
_NOT_OPEN_TEXT = ("check open-valid: fail"
                  " (set is not open: contains a but not its successor b)\nresult: FAIL\n")
_NOT_OPEN_CHECKS = [
    _check("open-valid", "fail", "set is not open: contains a but not its successor b")]

# (id, fixture name or document text, argv after the file, exit code,
#  text report, JSON report): the exits each command reaches through a
# failed check, an error after a passed check, or a sheaf it has to choose
PINNED_EXITS = [
    ("non-open --open", "square.sheaf", ["sections", "--open", "p"], 1,
     "command: sections\ncheck document-valid: pass\ncheck open-valid: fail"
     " (set is not open: contains p but not its successor q1)\nresult: FAIL\n",
     {"command": "sections", "checks": [
         _check("document-valid", "pass"),
         _check("open-valid", "fail",
                "set is not open: contains p but not its successor q1")],
      "data": {}}),
    ("non-open [open] in check", _NOT_OPEN_DOC, ["check"], 1,
     "command: check\nseed: 0\n" + _NOT_OPEN_TEXT,
     {"command": "check", "seed": 0, "checks": _NOT_OPEN_CHECKS, "data": {}}),
    ("non-open [open] in sections", _NOT_OPEN_DOC, ["sections", "--open", "set:U"], 1,
     "command: sections\n" + _NOT_OPEN_TEXT,
     {"command": "sections", "checks": _NOT_OPEN_CHECKS, "data": {}}),
    ("unknown --point", "fan.sheaf", ["stalk", "--point", "nowhere"], 2,
     *_exit_two("stalk", "unknown element 'nowhere'")),
    ("one named sheaf, sections", _OTHER_DOC, ["sections", "--open", "star:a"], 0,
     "command: sections\ncheck document-valid: pass\ncheck open-valid: pass\n"
     "open: [a, b]\nfield: q\ndim: 1\nbasis: [{a: [1], b: [2]}]\nresult: PASS\n",
     {"command": "sections",
      "checks": [_check("document-valid", "pass"), _check("open-valid", "pass")],
      "data": {"open": ["a", "b"], "field": "q", "dim": 1,
               "basis": [{"a": ["1"], "b": ["2"]}]}}),
    ("one named sheaf, stalk", _OTHER_DOC, ["stalk", "--point", "a"], 0,
     "command: stalk\ncheck document-valid: pass\n"
     "check stalk-dimension: pass (point value dim 1, direct limit dim 1)\n"
     "check stalk-witness-invertible: pass\npoint: a\ndim: 1\nwitness: [[1]]\n"
     "result: PASS\n",
     {"command": "stalk", "checks": [
         _check("document-valid", "pass"),
         _check("stalk-dimension", "pass", "point value dim 1, direct limit dim 1"),
         _check("stalk-witness-invertible", "pass")],
      "data": {"point": "a", "dim": 1, "witness": [["1"]]}}),
    ("no sheaf", _NO_SHEAF_DOC, ["stalk", "--point", "a"], 2,
     *_exit_two("stalk", "document has no [sheaf] block")),
    ("empty --open", "square.sheaf", ["sections", "--open", ","], 2,
     *_exit_two("sections", "empty --open specification")),
    ("unknown set:", "square.sheaf", ["sections", "--open", "set:nope"], 2,
     *_exit_two("sections", "document defines no open named 'nope'")),
    ("empty star:", "square.sheaf", ["sections", "--open", "star:"], 2,
     *_exit_two("sections", "empty --open item 'star:'")),
    ("empty set:", "square.sheaf", ["sections", "--open", "set:"], 2,
     *_exit_two("sections", "empty --open item 'set:'")),
    ("empty star: after another", "square.sheaf", ["sections", "--open", "star:q1,star:"], 2,
     *_exit_two("sections", "empty --open item 'star:'")),
    ("two morphisms, no --name", _TWO_MORPHISMS_DOC, ["morphism"], 2,
     *_exit_two("morphism", "document defines several morphisms; pick one with --name")),
    # quotient realizes nothing, yet a name that no block defines is refused
    ("unknown point of an open, quotient", "[poset]\nelements = a\n[open U]\nmembers = zz\n",
     ["quotient"], 2, *_exit_two("quotient", "line 4: unknown element 'zz' in open 'U'")),
    ("unknown sheaf of a morphism, quotient",
     "[poset]\nelements = a\n[sheaf]\ndim a = 1\n[morphism f]\ntarget = x\n",
     ["quotient"], 2, *_exit_two("quotient", "line 5: morphism 'f' names unknown sheaf 'x'")),
    # a field name is resolved at parse time too, also where --field overrides it
    ("unknown field, quotient", _BANANA_DOC, ["quotient"], 2,
     *_exit_two("quotient", _BANANA_ERROR)),
    ("unknown field under --field q", _BANANA_DOC, ["check", "--field", "q"], 2,
     *_exit_two("check", _BANANA_ERROR)),
]


class TestPinnedExits:
    @pytest.mark.parametrize("doc, argv, code, text, payload",
                             [case[1:] for case in PINNED_EXITS],
                             ids=[case[0] for case in PINNED_EXITS])
    def test_full_report_and_exit_code(self, capsys, tmp_path, doc, argv, code, text,
                                       payload):
        if doc.endswith(".sheaf"):
            path = fixture(doc)
        else:
            path = tmp_path / "doc.sheaf"
            path.write_text(doc)
        argv = [argv[0], str(path), *argv[1:]]
        assert run(capsys, *argv) == (code, text)
        assert run(capsys, *argv, "--json") == (code, json.dumps(payload, indent=2) + "\n")
