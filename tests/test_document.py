import itertools
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellsheaf import (
    DocumentError,
    FunctorialityError,
    Matrix,
    MorphismFlags,
    NaturalityError,
    NotAntisymmetricError,
    PrimeField,
    QQ,
    RealizedDocument,
    SheafDocument,
    ValidationError,
    build_morphism,
    build_sheaf,
    classify,
    hasse_edges,
    parse_document,
    parse_text,
    realize,
    render_document,
)

from cellsheaf import document
from cellsheaf.document import _parse_matrix_value
from cellsheaf.linalg import PRIME_BOUND

from helpers import FIXTURES, assert_value_record
from oracles import matrix_literal_by_walk, realize_by_literal


def load(name):
    return (FIXTURES / name).read_text()


def read_integers(kind: str, rows: tuple) -> tuple[str, tuple]:
    """(kind, rows) of a literal as parsing keeps it: the walker's tokens as
    ints where none is a fraction (every token here is short)."""
    if any("/" in tok for row in rows for tok in row):
        return kind, rows
    return kind, tuple(tuple(int(tok) for tok in row) for row in rows)


class TestParse:
    def test_square_fixture(self):
        realized = parse_text(load("square.sheaf"))
        sheaf = realized.sheaves["main"]
        assert sheaf.dims == {"p": 2, "q1": 1, "q2": 1, "r": 1}
        assert sheaf.field == QQ
        assert realized.opens["U"].members == {"q1", "q2", "r"}
        assert sheaf.restriction("p", "r") == Matrix.build(QQ, [[6, 6]])

    def test_all_shipped_fixtures_parse(self):
        for name in ["square", "span", "double_target", "fan", "fractions"]:
            realized = parse_text(load(f"{name}.sheaf"))
            assert "main" in realized.sheaves
            assert "U" in realized.opens

    def test_rational_entries(self):
        realized = parse_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[-2/3]]\n"
        )
        m = realized.sheaves["main"].restriction("a", "b")
        assert m.data[0][0] == Fraction(-2, 3)

    def test_id_and_zero_shorthands(self):
        realized = parse_text(
            "[poset]\nelements = a b c\nrelation = a<b b<c\n"
            "[sheaf]\ndim a = 2\ndim b = 2\ndim c = 2\n"
            "map a->b = id\nmap b->c = zero\n"
        )
        sheaf = realized.sheaves["main"]
        assert sheaf.restriction("a", "b") == Matrix.identity(QQ, 2)
        assert sheaf.restriction("a", "c") == Matrix.zeros(QQ, 2, 2)

    def test_a_map_left_out_at_a_zero_dimensional_point_is_zero(self):
        # a sheaf map out of a and a morphism map at a, both 0-dimensional
        realized = parse_text(
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 0\ndim b = 1\n[morphism f]\nmap b = [[2]]\n"
        )
        assert realized.sheaves["main"].restriction("a", "b") == Matrix.zeros(QQ, 1, 0)
        assert realized.morphisms["f"].components["a"] == Matrix.zeros(QQ, 0, 0)
        # and the normalized document leaves them out again
        assert render_document(realized) == (
            "[poset]\nelements = a b\nrelation = a<b\n\n"
            "[sheaf]\nfield = q\ndim a = 0\ndim b = 1\n\n"
            "[morphism f]\nsource = main\ntarget = main\nmap b = [[2]]\n"
        )

    def test_comments_and_blank_lines(self):
        realized = parse_text(
            "# heading\n\n[poset]  \nelements = a   # trailing\n[sheaf]\ndim a = 1\n"
        )
        assert realized.sheaves["main"].dim("a") == 1


class TestParseErrors:
    def test_unknown_key_carries_line(self):
        text = "[poset]\nelements = a\nbogus = 1\n"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("block, where", [
        ("[sheaf other]", "[sheaf]"), ("[morphism f]", "[morphism]")])
    def test_empty_key_carries_line(self, block, where):
        text = f"[poset]\nelements = a\n[sheaf]\ndim a = 1\n{block}\n= 5\n"
        with pytest.raises(DocumentError, match=re.escape(f"unknown key '' in {where}")) as err:
            parse_document(text)
        assert err.value.line == 6

    def test_content_before_block(self):
        with pytest.raises(DocumentError):
            parse_document("elements = a\n")

    def test_malformed_matrix(self):
        with pytest.raises(DocumentError):
            parse_text(
                "[poset]\nelements = a b\nrelation = a<b\n"
                "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[x]]\n"
            )

    @pytest.mark.parametrize("literal, message", [
        ("1", "matrix value must be [[...], ...], id, or zero"),
        ("[1]", "matrix rows must be bracketed"),
        ("[[1], [2]", "matrix rows must be bracketed"),
        ("[[[1]]]", "matrix literals do not nest deeper than rows"),
        ("[[1]], [2]]", "unbalanced brackets in matrix literal"),
        ("[[1] x [2]]", "unexpected 'x' between matrix rows"),
        ("[[1, y]]", "bad matrix entry 'y'"),
        ("[[1,,2]]", "bad matrix entry ''"),
        ("[[1], [2, 3]]", "matrix rows have differing lengths"),
    ])
    def test_malformed_matrix_literal_names_its_error_and_line(self, literal, message):
        header = "[poset]\nelements = a b\nrelation = a<b\n[sheaf]\ndim a = 1\ndim b = 1\n"
        morphism = "[morphism f]\nsource = main\ntarget = main\n"
        for text, line in [
            (f"{header}map a->b = {literal}\n", 7),
            (f"{header}map a->b = [[1]]\n{morphism}map a = {literal}\n", 11),
        ]:
            with pytest.raises(DocumentError) as err:
                parse_text(text)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: {message}"

    @settings(max_examples=2000, deadline=None)
    # the non-ASCII digit and blanks are read by the row walk alone
    @given(st.text(alphabet="[], \t0123456789/-xy\xa0\u0663\u2003", max_size=30),
           st.sampled_from([("", ""), ("[", "]"), ("[[", "]]")]),
           st.integers(1, 10_000))
    def test_row_pattern_reads_each_literal_as_the_walker_does(self, body, frame, line):
        text = frame[0] + body + frame[1]
        try:
            expected = matrix_literal_by_walk(text)
        except ValueError as exc:
            with pytest.raises(DocumentError) as err:
                _parse_matrix_value(text, line)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: {exc}"
        else:
            lit = _parse_matrix_value(text, line)
            assert (lit.kind, lit.rows, lit.line) == (*read_integers(*expected), line)

    @pytest.mark.parametrize("text, rows", [
        ("[[007, -0]]", ((7, 0),)),
        ("[[1,\t2]\t[ -3 ,\t4 ]]", ((1, 2), (-3, 4))),
        ("[[1\xa0, \u0663]]", ((1, 3),)),  # read by the row walk
        ("[[1/2, 007]]", (("1/2", "007"),)),
        # read when realized, where its error names its line (tests/test_cli.py)
        ("[[" + "7" * 5000 + "]]", (("7" * 5000,),)),
    ])
    def test_an_integer_literal_is_read_to_ints_once(self, text, rows):
        assert _parse_matrix_value(text, 3) == document.MatrixLiteral("rows", rows, 3)

    def test_matrix_shape_mismatch_is_a_document_error_with_line(self):
        text = (
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 2\ndim b = 1\nmap a->b = [[1]]\n"
        )
        with pytest.raises(DocumentError) as err:
            parse_text(text)
        assert err.value.line == 7

    def test_missing_dimension(self):
        with pytest.raises(DocumentError):
            parse_text("[poset]\nelements = a b\nrelation = a<b\n[sheaf]\ndim a = 1\n")

    def test_missing_map(self):
        with pytest.raises(DocumentError):
            parse_text(
                "[poset]\nelements = a b\nrelation = a<b\n"
                "[sheaf]\ndim a = 1\ndim b = 1\n"
            )

    def test_map_for_non_covering_pair(self):
        with pytest.raises(DocumentError):
            parse_text(
                "[poset]\nelements = a b c\nrelation = a<b b<c\n"
                "[sheaf]\ndim a = 1\ndim b = 1\ndim c = 1\n"
                "map a->b = [[1]]\nmap b->c = [[1]]\nmap a->c = [[1]]\n"
            )

    def test_duplicate_poset_block(self):
        with pytest.raises(DocumentError):
            parse_document("[poset]\nelements = a\n[poset]\nelements = b\n")

    def test_duplicate_named_blocks(self):
        with pytest.raises(DocumentError):
            parse_document(
                "[poset]\nelements = a\n[open U]\nmembers = a\n[open U]\nmembers = a\n"
            )
        with pytest.raises(DocumentError):
            parse_document(
                "[poset]\nelements = a\n[sheaf]\ndim a = 1\n[sheaf]\ndim a = 1\n"
            )

    def test_duplicate_dim_and_map_keys(self):
        with pytest.raises(DocumentError):
            parse_document("[poset]\nelements = a\n[sheaf]\ndim a = 1\ndim a = 2\n")
        with pytest.raises(DocumentError):
            parse_document(
                "[poset]\nelements = a b\nrelation = a<b\n"
                "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\nmap a->b = [[2]]\n"
            )

    @pytest.mark.parametrize("poset, message", [
        ("elements = a b\nrelation = a<z\n", "line 3: unknown element 'z' in relation pair"),
        ("elements = a b\nrelation = a<b\nhasse = z<=a\n",
         "line 4: unknown element 'z' in relation pair"),
        ("elements = a b a\n", "line 2: duplicate element 'a'"),
        ("elements = a b\nelements = c a b\n", "line 3: duplicate element 'a'"),
        # an unknown endpoint is reported before a duplicate element
        ("elements = a a\nrelation = a<z\n", "line 3: unknown element 'z' in relation pair"),
    ])
    def test_relation_and_element_errors_name_their_line(self, poset, message):
        with pytest.raises(DocumentError) as err:
            parse_document("[poset]\n" + poset)
        assert str(err.value) == message

    # Each key naming an element is refused with the same text and line
    # whether or not the [poset] block came first: an invalid identifier
    # while the blocks are read, an unknown element once they all are.
    POSET = "[poset]\nelements = a b\nrelation = a<b\n"
    SHEAF = "[sheaf]\ndim a = 1\ndim b = 1\n"

    @pytest.mark.parametrize("poset_first", [True, False])
    @pytest.mark.parametrize("key, message", [
        ("map a->b!", "invalid identifier 'b!'"),
        ("map a!->b", "invalid identifier 'a!'"),
        ("map a->zz", "unknown element in map a->zz"),
        ("map zz->b", "unknown element in map zz->b"),
    ])
    def test_map_key_errors_name_their_line(self, key, message, poset_first):
        sheaf = self.SHEAF + f"{key} = [[1]]\n"
        text = self.POSET + sheaf if poset_first else sheaf + self.POSET
        line = 7 if poset_first else 4
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    @pytest.mark.parametrize("key, message", [
        ("dim zz", "line 5: unknown element 'zz'"),
        ("dim a!", "line 5: invalid identifier 'a!'"),
    ])
    def test_dim_key_errors_name_their_line(self, key, message):
        text = self.POSET + f"[sheaf]\n{key} = 1\n"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("key, message", [
        ("map a!", "line 8: invalid identifier 'a!'"),
        ("map ->", "line 8: invalid identifier '->'"),
        ("map zz", "line 8: unknown element 'zz' in morphism 'f'"),
    ])
    def test_morphism_map_key_errors_name_their_line(self, key, message):
        text = self.POSET + self.SHEAF + f"[morphism f]\n{key} = [[1]]\n"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        # an invalid identifier is found while the blocks are read, so it is
        # reported before an unknown element on any line, earlier or later
        ("[poset]\nelements = a b\nrelation = a<b!\nrelation = a<zz\n",
         "line 3: invalid identifier 'b!'"),
        ("[poset]\nelements = a b\nrelation = a<zz\nrelation = a!<b\n",
         "line 4: invalid identifier 'a!'"),
        ("[sheaf]\ndim a = 1\nmap a->zz = [[1]]\n[poset]\nelements = a b\nrelation = a<b!\n",
         "line 6: invalid identifier 'b!'"),
        ("[poset]\nelements = a b\n[sheaf]\ndim zz = 1\n[morphism f]\nmap a! = [[1]]\n",
         "line 6: invalid identifier 'a!'"),
        # unknown elements: relation pairs first, then sheaf keys, then
        # morphism keys
        ("[morphism f]\nmap zz = [[1]]\n[sheaf]\nmap a->yy = [[1]]\n"
         "[poset]\nelements = a b\nrelation = a<xx\n",
         "line 7: unknown element 'xx' in relation pair"),
        ("[morphism f]\nmap zz = [[1]]\n[sheaf]\nmap a->yy = [[1]]\n"
         "[poset]\nelements = a b\n",
         "line 4: unknown element in map a->yy"),
        # then the points of opens, at the line of their key, then the
        # sheaves a morphism names
        ("[morphism f]\nsource = x\nmap zz = [[1]]\n[open U]\nmembers = yy\n"
         "[poset]\nelements = a b\n",
         "line 3: unknown element 'zz' in morphism 'f'"),
        ("[morphism f]\nsource = x\n[open U]\n# its points\nstars = yy\n"
         "[poset]\nelements = a b\n",
         "line 5: unknown element 'yy' in open 'U'"),
        ("[morphism f]\nsource = x\n[sheaf]\ndim a = 1\n[poset]\nelements = a b\n",
         "line 1: morphism 'f' names unknown sheaf 'x'"),
    ])
    def test_the_first_of_several_faults_is_reported(self, text, message):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, line, message", [
        ("[poset x]\nelements = a\n", 1, "[poset] takes no name"),
        (POSET.replace("a<b", "ab"), 3, "relation token 'ab' must look like x<y"),
        (POSET + "[sheaf]\ndim a = -1\n", 5, "dimension must be non-negative"),
        (POSET + SHEAF + "map a->b = [[1]]\n[morphism f]\nmap a = [[1]]\nmap a = [[2]]\n",
         10, "duplicate map for 'a'"),
        (POSET + "[bogus]\nx = 1\n", 4, "unknown block kind 'bogus'"),
        ("[sheaf]\ndim a = 1\n", None, "document has no [poset] block"),
        (POSET + "[open]\nmembers = b\n", 4, "[open] blocks need a name"),
        # found only once both sheaves are realized, at the morphism's header
        (POSET + SHEAF + "map a->b = [[1]]\n[sheaf other]\nfield = fp:5\ndim a = 1\n"
         "dim b = 1\nmap a->b = [[1]]\n[morphism f]\ntarget = other\n",
         13, "morphism 'f' mixes fields q and fp:5"),
        # a map left out where neither dimension is 0, at the block's header
        (POSET + SHEAF, 4, "sheaf 'main' is missing `map a->b`"),
        (POSET + SHEAF + "map a->b = [[1]]\n[morphism f]\nmap a = [[1]]\n",
         8, "morphism 'f' is missing `map b`"),
        # resolved at parse time, at the block's header
        (POSET + "[sheaf]\nfield = banana\n", 4,
         "unknown field 'banana' (expected 'q' or 'fp:<prime>')"),
    ])
    def test_each_front_door_error_names_its_line(self, text, line, message):
        with pytest.raises(DocumentError) as err:
            parse_text(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("block, key, first, second", [
        ("[sheaf]", "field", "fp:5", "q"),
        ("[sheaf other]", "field", "q", "q"),
        ("[open U]", "stars", "a", "b"),
        ("[open U]", "members", "a", "a"),
        ("[morphism f]", "source", "main", "other"),
        ("[morphism f]", "target", "main", "main"),
    ])
    def test_repeated_single_value_key_names_its_line(self, block, key, first, second):
        # the first value is not silently replaced by the second
        text = (f"[poset]\nelements = a b\n{block}\n"
                f"{key} = {first}\n{key} = {second}\n")
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        kind = block[1:-1].split()[0]
        assert str(err.value) == f"line 5: duplicate key {key!r} in [{kind}]"

    @pytest.mark.parametrize("value", ["1_0", "+1"])
    def test_dimension_is_written_as_an_integer_entry_is(self, value):
        # `int` reads both; the matrix entry [[1_0]] is refused too
        text = f"[poset]\nelements = a\n[sheaf]\ndim a = 2\n[sheaf other]\ndim a = {value}\n"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == "line 6: dimension must be an integer"

    def test_open_needs_exactly_one_of_stars_or_members(self):
        with pytest.raises(DocumentError):
            parse_text("[poset]\nelements = a\n[sheaf]\ndim a = 1\n[open U]\n")

    def test_unknown_element_in_morphism_map(self):
        with pytest.raises(DocumentError) as err:
            parse_document(
                "[poset]\nelements = a\n[sheaf]\ndim a = 1\n"
                "[morphism f]\nmap a = [[1]]\nmap zz = [[1]]\n"
            )
        assert err.value.line == 7

    def test_unknown_sheaf_in_morphism(self):
        with pytest.raises(DocumentError):
            parse_text(
                "[poset]\nelements = a\n[sheaf]\ndim a = 1\n"
                "[morphism f]\nsource = ghost\nmap a = [[1]]\n"
            )

    def test_id_requires_square(self):
        with pytest.raises(DocumentError):
            parse_text(
                "[poset]\nelements = a b\nrelation = a<b\n"
                "[sheaf]\ndim a = 2\ndim b = 1\nmap a->b = id\n"
            )

    def test_bad_field_name(self):
        with pytest.raises(DocumentError):
            parse_text("[poset]\nelements = a\n[sheaf]\nfield = r\ndim a = 1\n")

    @pytest.mark.parametrize("field, entry", [
        ("fp:5", "1/5"), ("fp:5", "2/10"), ("fp:7", "-3/0"), ("q", "1/0"), ("q", "0/0"),
    ])
    def test_entry_dividing_by_zero_names_its_line(self, field, entry):
        text = ("[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
                f"field = {field}\ndim a = 1\ndim b = 1\nmap a->b = [[{entry}]]\n")
        with pytest.raises(DocumentError) as err:
            parse_text(text)
        assert err.value.line == 9
        assert str(err.value).startswith(f"line 9: entry '{entry}' divides by zero")

    @pytest.mark.parametrize("field, entry, message", [
        ("q", "1/0", "entry '1/0' divides by zero in QQ"),
        ("fp:5", "1/5", "entry '1/5' divides by zero in GF(5)"),
        ("q", "1/" + "7" * 5000, "entry 1/7777777777... has too many digits (5002 characters)"),
        ("fp:5", "7" * 5000, "entry 777777777777... has too many digits (5000 characters)"),
        ("fp:5", "-" + "7" * 5000 + "/3",
         "entry -77777777777... has too many digits (5003 characters)"),
    ])
    def test_entry_errors_keep_their_text_and_line(self, field, entry, message):
        # read off the parser that made a field value per entry
        text = ("[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
                f"field = {field}\ndim a = 1\ndim b = 2\nmap a->b = [[1], [{entry}]]\n")
        with pytest.raises(DocumentError) as err:
            parse_text(text)
        assert err.value.line == 9
        assert str(err.value) == f"line 9: {message}"

    @pytest.mark.parametrize("field", ["q", "fp:11", "fp:1000000000000000003"])
    def test_lowered_entries_equal_the_field_values(self, field):
        entries = [["12", "-3/4", "5/6"], ["0", "-7/14", "2/1"], ["9/3", "1", "-0/5"]]
        text = ("[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
                f"field = {field}\ndim a = 3\ndim b = 3\nmap a->b = "
                + "[" + ", ".join("[" + ", ".join(row) + "]" for row in entries) + "]\n")
        sheaf = parse_text(text).sheaves["main"]
        expected = Matrix.build(sheaf.field, entries)
        got = sheaf.restriction("a", "b")
        assert got == expected
        assert got.data == expected.data

    @pytest.mark.parametrize("field, entries, values", [
        ("q", "12, -3, 007, 4/6, -0", [12, -3, 7, Fraction(2, 3), 0]),
        ("fp:7", "12, -3, 007, 4/6, -0", [5, 4, 0, 3, 0]),
    ])
    def test_integer_and_fraction_entries_read_exactly(self, field, entries, values):
        text = ("[poset]\nelements = a b\nrelation = a<b\n\n[sheaf]\n"
                f"field = {field}\ndim a = 5\ndim b = 1\nmap a->b = [[{entries}]]\n")
        sheaf = parse_text(text).sheaves["main"]
        row = sheaf.restriction("a", "b").data[0]
        assert list(row) == [sheaf.field.coerce(v) for v in values]
        if field == "q":
            assert all(type(v) is Fraction for v in row)

    def test_morphism_entry_dividing_by_zero_names_its_line(self):
        text = ("[poset]\nelements = a\n[sheaf]\nfield = fp:3\ndim a = 1\n"
                "[morphism f]\nmap a = [[2/6]]\n")
        with pytest.raises(DocumentError) as err:
            parse_text(text)
        assert err.value.line == 7

    def test_field_override_can_make_an_entry_divide_by_zero(self):
        # 1/5 is a rational, but has no value in GF(5)
        text = ("[poset]\nelements = a b\nrelation = a<b\n"
                "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[1/5]]\n")
        assert parse_text(text).sheaves["main"].restriction("a", "b") == Matrix.build(
            QQ, [[Fraction(1, 5)]])
        with pytest.raises(DocumentError):
            parse_text(text, field_override="fp:5")

    def test_large_prime_field_accepted(self):
        realized = parse_text(load("square.sheaf"), field_override="fp:1000000000000000003")
        assert realized.sheaves["main"].field == PrimeField(10**18 + 3)

    def test_prime_above_the_exact_bound_rejected_with_the_bound(self):
        with pytest.raises(DocumentError) as err:
            parse_text(load("square.sheaf"), field_override=f"fp:{PRIME_BOUND + 2}")
        assert str(PRIME_BOUND) in str(err.value)


# the interpreter's limit on the digits `int` reads from a string, 0 if none
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_REALIZE_FIELDS = [QQ, PrimeField(5), PrimeField(7), PrimeField(10**18 + 3)]


@st.composite
def literal_tokens(draw):
    """Rows of entry tokens: integers only, or integers mixed with `n/d`
    over denominators that may be 0 or a multiple of 5 or 7, and now and
    then one token past the digit limit."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    integer = st.one_of(st.integers(-10**30, 10**30).map(str),
                        st.sampled_from(["0", "-0", "007", "-12", "5", "-7"]))
    entry = integer
    if draw(st.booleans()):
        entry = st.one_of(integer, st.builds("{}/{}".format, integer, st.integers(0, 60)))
    tokens = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if _DIGIT_LIMIT and draw(st.integers(0, 9)) == 0:
        too_long = draw(st.sampled_from(["", "-"])) + "7" * (_DIGIT_LIMIT + 1)
        tokens[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = (
            too_long + draw(st.sampled_from(["", "/3"])))
    return tokens


def first_entry_error(field, tokens):
    """The message for the first token, row by row, that `field.coerce`
    cannot read, in the words the parser uses; None if there is none."""
    for tok in itertools.chain.from_iterable(tokens):
        try:
            field.coerce(tok)
        except ValueError:  # past the digit limit
            return f"entry {tok[:12]}... has too many digits ({len(tok)} characters)"
        except ZeroDivisionError:
            return f"entry {tok!r} divides by zero in {field!r}"
    return None


class TestRealizeEntries:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_REALIZE_FIELDS), literal_tokens(), st.integers(0, 3))
    def test_realizes_each_entry_as_matrix_build_does(self, field, tokens, blank_lines):
        rows, cols = len(tokens), len(tokens[0])
        literal = "[" + ", ".join("[" + ", ".join(row) + "]" for row in tokens) + "]"
        text = ("[poset]\nelements = a b\nrelation = a<b\n[sheaf]\n"
                f"field = {field.name}\ndim a = {cols}\ndim b = {rows}\n"
                + "\n" * blank_lines + f"map a->b = {literal}\n")
        line = 8 + blank_lines
        message = first_entry_error(field, tokens)
        if message is not None:
            with pytest.raises(DocumentError) as err:
                parse_text(text)
            assert str(err.value) == f"line {line}: {message}"
            return
        got = parse_text(text).sheaves["main"].restriction("a", "b")
        expected = Matrix.build(field, tokens)
        assert got == expected
        assert got.data == expected.data


# two forests: every pair of points has at most one chain between them,
# so any maps are functorial
_SHARING_POSETS = [
    (["a", "b", "c", "d", "e"], [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")]),
    (["a", "b", "c"], [("a", "b"), ("b", "c")]),
]
# a small alphabet of literals by shape, so that texts repeat; the `/5` and
# `/7` entries have no value under fp:5 and fp:7
_SHARED_LITERALS = {
    (1, 1): ["[[1]]", "[[2]]", "[[-1/2]]", "[[1/5]]", "id", "zero"],
    (1, 2): ["[[1, 0]]", "[[0, 1]]", "[[2, 1/7]]"],
    (2, 1): ["[[1], [0]]", "[[1], [1]]", "[[3/5], [1]]"],
    (2, 2): ["[[1, 0], [0, 1]]", "[[0, 1], [1, 0]]", "[[1, 1/2], [0, 1]]",
             "[[5/7, 0], [0, 1]]", "id", "zero"],
}
_ANY_LITERAL = sorted({lit for lits in _SHARED_LITERALS.values() for lit in lits})
# a scalar c as the literals of c times the identity in dims 1 and 2: a
# morphism of c at every point is natural
_SCALARS = {
    "1": (["id", "[[1]]"], ["id", "[[1, 0], [0, 1]]"]),
    "2": (["[[2]]"], ["[[2, 0], [0, 2]]"]),
    "1/5": (["[[1/5]]"], ["[[1/5, 0], [0, 1/5]]"]),
}


@st.composite
def shared_literal_documents(draw):
    """Two sheaves on one forest and a morphism of the first to itself, each
    map drawn from a few literals: mostly of the right shape, now and then
    any one; the morphism is one scalar at every point, with now and then
    any literal at a point instead."""
    elements, pairs = draw(st.sampled_from(_SHARING_POSETS))

    def literal(shape):
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(_ANY_LITERAL))
        return draw(st.sampled_from(_SHARED_LITERALS[shape]))

    dims = st.fixed_dictionaries({el: st.integers(1, 2) for el in elements})
    main_dims = draw(dims)
    lines = ["[poset]", "elements = " + " ".join(elements),
             "relation = " + " ".join(f"{a}<{b}" for a, b in pairs)]
    for header, field, ds in [("[sheaf]", None, main_dims),
                              ("[sheaf other]", draw(st.sampled_from(["q", "fp:5", "fp:7"])),
                               draw(dims))]:
        lines.append(header)
        if field is not None:
            lines.append(f"field = {field}")
        lines += [f"dim {el} = {ds[el]}" for el in elements]
        lines += [f"map {a}->{b} = {literal((ds[b], ds[a]))}" for a, b in pairs]
    scalar = _SCALARS[draw(st.sampled_from(sorted(_SCALARS)))]
    lines.append("[morphism f]")
    for el in elements:
        if draw(st.integers(0, 9)) == 0:
            lines.append(f"map {el} = {draw(st.sampled_from(_ANY_LITERAL))}")
        else:
            lines.append(f"map {el} = {draw(st.sampled_from(scalar[main_dims[el] - 1]))}")
    return "\n".join(lines) + "\n"


class TestSharedLiterals:
    @settings(max_examples=400, deadline=None)
    @given(shared_literal_documents(), st.sampled_from([None, "fp:5", "fp:7"]))
    def test_realizes_as_each_use_on_its_own(self, text, override):
        doc = parse_document(text)
        try:
            sheaves, morphisms = realize_by_literal(doc, text, override)
        except (DocumentError, ValidationError) as exc:
            with pytest.raises(type(exc)) as err:
                realize(doc, override)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
            assert getattr(err.value, "line", None) == getattr(exc, "line", None)
            return
        realized = realize(doc, override)
        assert realized.sheaves == sheaves
        assert realized.morphisms == morphisms

    @staticmethod
    def count_misses(monkeypatch) -> list:
        """The fields of the matrices `realize` makes from literals."""
        fields = []
        make = document._realize_matrix

        def counted(lit, field, *rest):
            fields.append(field)
            return make(lit, field, *rest)

        monkeypatch.setattr(document, "_realize_matrix", counted)
        return fields

    CHAIN = ("[poset]\nelements = p0 p1 p2 p3 p4 p5\n"
             "relation = p0<p1 p1<p2 p2<p3 p3<p4 p4<p5\n")

    def sheaf_block(self, header, field, literal):
        return (f"{header}\nfield = {field}\n"
                + "".join(f"dim p{i} = 2\n" for i in range(6))
                + "".join(f"map p{i}->p{i + 1} = {literal}\n" for i in range(5)))

    @pytest.mark.parametrize("literal, rows, values", [
        ("[[1, 1/2], [0, 1]]", (("1", "1/2"), ("0", "1")), [[1, Fraction(1, 2)], [0, 1]]),
        ("[[1, -6], [0, 1]]", ((1, -6), (0, 1)), [[1, -6], [0, 1]]),
    ])
    def test_a_literal_used_k_times_is_realized_once(self, monkeypatch, literal, rows,
                                                     values):
        misses = self.count_misses(monkeypatch)
        reads = []
        read = document._parse_matrix_value

        def counted(text, line):
            reads.append(line)
            return read(text, line)

        monkeypatch.setattr(document, "_parse_matrix_value", counted)
        doc = parse_document(self.CHAIN + self.sheaf_block("[sheaf]", "q", literal))
        assert reads == [12]
        uses = list(doc.sheaf_specs["main"].maps.values())
        assert [lit.line for lit in uses] == [12, 13, 14, 15, 16]
        assert uses[0].rows == rows
        assert all(lit.rows is uses[0].rows for lit in uses)
        for override, field in [(None, QQ), ("fp:7", PrimeField(7))]:
            misses.clear()
            realized = realize(doc, override)
            assert misses == [field]
            sheaf = realized.sheaves["main"]
            maps = [sheaf.restriction(f"p{i}", f"p{i + 1}") for i in range(5)]
            assert all(m is maps[0] for m in maps)
            assert maps[0] == Matrix.build(field, values)

    def test_the_same_text_is_realized_once_per_field(self, monkeypatch):
        misses = self.count_misses(monkeypatch)
        literal = "[[2, 3], [0, 1]]"
        text = self.CHAIN + "".join(
            self.sheaf_block(header, field, literal)
            for header, field in [("[sheaf]", "q"), ("[sheaf s5]", "fp:5"),
                                  ("[sheaf t5]", "fp:5"), ("[sheaf s7]", "fp:7")])
        realized = parse_text(text)
        assert misses == [QQ, PrimeField(5), PrimeField(7)]
        for name, field in [("main", QQ), ("s5", PrimeField(5)), ("s7", PrimeField(7))]:
            got = realized.sheaves[name].restriction("p0", "p1")
            assert got == Matrix.build(field, [[2, 3], [0, 1]])
        misses.clear()
        parse_text(text, field_override="fp:7")
        assert misses == [PrimeField(7)]

    def test_an_empty_literal_keeps_the_width_of_each_use(self):
        text = ("[poset]\nelements = a b c\nrelation = a<c b<c\n[sheaf]\n"
                "dim a = 1\ndim b = 2\ndim c = 0\nmap a->c = []\nmap b->c = []\n")
        sheaf = parse_text(text).sheaves["main"]
        assert sheaf.restriction("a", "c") == Matrix.zeros(QQ, 0, 1)
        assert sheaf.restriction("b", "c") == Matrix.zeros(QQ, 0, 2)

    @pytest.mark.parametrize("component, flags", [
        ("[[0, 1], [1, 0]]", (True, True, True)),
        ("[[1, 0], [0, 0]]", (False, False, False)),
    ])
    def test_shared_components_classify_as_copies_do(self, component, flags):
        text = (self.CHAIN + self.sheaf_block("[sheaf]", "q", "[[1, 0], [0, 1]]")
                + "[morphism f]\n" + "".join(f"map p{i} = {component}\n" for i in range(6)))
        shared = parse_text(text).morphisms["f"]
        first = shared.components["p0"]
        assert all(m is first for m in shared.components.values())
        copies = build_morphism(shared.source, shared.target, {
            el: Matrix.build(QQ, m.data) for el, m in shared.components.items()})
        assert len({id(m) for m in copies.components.values()}) == 6
        assert classify(shared) == classify(copies) == MorphismFlags(*flags)


@st.composite
def front_end_documents(draw):
    """A sheaf on a forest in each of two fields, and a scalar morphism of
    each to itself: dims 0 to 2, integer and fractional entries, and a map
    or component at a zero-dimensional point now and then left out."""
    elements, pairs = draw(st.sampled_from(_SHARING_POSETS))
    entry = st.sampled_from(["0", "1", "-3", "007", "-0", "1/2", "-2/3"])

    def literal(rows, cols):
        if not (rows and cols) and draw(st.booleans()):
            return None
        if rows and rows == cols and draw(st.integers(0, 3)) == 0:
            return "id"
        return "[" + ", ".join("[" + ", ".join(draw(entry) for _ in range(cols)) + "]"
                               for _ in range(rows)) + "]" if rows else "[]"

    lines = ["[poset]", "elements = " + " ".join(elements),
             "relation = " + " ".join(f"{a}<{b}" for a, b in pairs)]
    for name, field in [("main", None), ("other", draw(st.sampled_from(["q", "fp:5", "fp:7"])))]:
        dims = {el: draw(st.integers(0, 2)) for el in elements}
        scalar = draw(entry)
        lines.append("[sheaf]" if field is None else f"[sheaf {name}]")
        if field is not None:
            lines.append(f"field = {field}")
        lines += [f"dim {el} = {dims[el]}" for el in elements]
        for a, b in pairs:
            lit = literal(dims[b], dims[a])
            if lit is not None:
                lines.append(f"map {a}->{b} = {lit}")
        lines += [f"[morphism {name}_scaled]", f"source = {name}", f"target = {name}"]
        for el in elements:
            d = dims[el]
            if d or draw(st.booleans()):
                lines.append(f"map {el} = " + (
                    "[" + ", ".join("[" + ", ".join(scalar if i == j else "0" for j in range(d))
                                    + "]" for i in range(d)) + "]" if d else "zero"))
    return "\n".join(lines) + "\n"


def rebuilt_by_front_ends(realized) -> tuple[dict, dict]:
    """(sheaves, morphisms) of a realized document built again by the
    validating `build_sheaf` and `build_morphism` from the same poset, dims,
    covering-pair matrices, fields and components."""
    poset = realized.poset
    edges = hasse_edges(poset)
    sheaves = {name: build_sheaf(poset, sheaf.dims,
                                 {edge: sheaf.restriction(*edge) for edge in edges}, sheaf.field)
               for name, sheaf in realized.sheaves.items()}
    morphisms = {}
    for name, mor in realized.morphisms.items():
        src, tgt = realized.morphism_ends[name]
        morphisms[name] = build_morphism(sheaves[src], sheaves[tgt], mor.components)
    return sheaves, morphisms


class TestSingleValidation:
    """`realize` checks a document's data itself, with its lines, and skips
    the argument checks of `build_sheaf` and `build_morphism`; what it makes
    is what those front ends make of the same data."""

    # the shipped fixtures that fail, by design, in either field
    FAILING = {"bad_morphism.sheaf": NaturalityError, "bad_square.sheaf": FunctorialityError,
               "cycle.sheaf": NotAntisymmetricError}

    @pytest.mark.parametrize("override", [None, "fp:5"])
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.sheaf")))
    def test_each_fixture_is_what_the_front_ends_build(self, name, override):
        if name in self.FAILING:
            with pytest.raises(self.FAILING[name]):
                parse_text(load(name), override)
            return
        realized = parse_text(load(name), override)
        sheaves, morphisms = rebuilt_by_front_ends(realized)
        assert realized.sheaves == sheaves
        assert realized.morphisms == morphisms

    @settings(max_examples=300, deadline=None)
    @given(front_end_documents(), st.sampled_from([None, "fp:5", "fp:7"]))
    def test_each_generated_document_is_what_the_front_ends_build(self, text, override):
        realized = parse_text(text, override)
        sheaves, morphisms = rebuilt_by_front_ends(realized)
        assert realized.sheaves == sheaves
        assert realized.morphisms == morphisms
        assert len(morphisms) == 2


class TestSemanticFailures:
    def test_non_antisymmetric_relation_is_a_validation_error(self):
        doc = parse_document(
            "[poset]\nelements = a b\nrelation = a<b b<a\n[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[1]]\n"
        )
        with pytest.raises(NotAntisymmetricError):
            realize(doc)

    def test_path_dependent_fixture_reports_pair(self):
        with pytest.raises(FunctorialityError) as err:
            parse_text(load("bad_square.sheaf"))
        assert (err.value.low, err.value.high) == ("p", "r")


class TestFieldOverride:
    def test_override_to_prime_field(self):
        realized = parse_text(load("square.sheaf"), field_override="fp:5")
        sheaf = realized.sheaves["main"]
        assert sheaf.field == PrimeField(5)
        # 6 = 1 mod 5
        assert sheaf.restriction("p", "r") == Matrix.build(PrimeField(5), [[1, 1]])


class TestRecords:
    """What a document parses and realizes to is a set of value records."""

    def test_specs_by_keyword_with_each_default(self):
        literal = dict(kind="rows", rows=(("1", "1/2"),), line=3)
        assert_value_record(document.MatrixLiteral, literal,
                            "MatrixLiteral(kind='rows', rows=(('1', '1/2'),), line=3)")
        assert_value_record(document.SheafSpec, dict(name="main", line=2),
                            "SheafSpec(name='main', line=2, field_name=None, dims={}, maps={})")
        assert_value_record(document.OpenSpec, dict(name="U", line=7),
                            "OpenSpec(name='U', line=7, stars=None, members=None)")
        assert_value_record(
            document.MorphismSpec, dict(name="f", line=9),
            "MorphismSpec(name='f', line=9, source='main', target='main', maps={})")

    def test_specs_by_keyword_with_every_field(self):
        literal = document.MatrixLiteral("id", (), 4)
        assert_value_record(
            document.SheafSpec,
            dict(name="s", line=2, field_name="fp:5", dims={"a": (1, 3)},
                 maps={("a", "b"): literal}),
            "SheafSpec(name='s', line=2, field_name='fp:5', dims={'a': (1, 3)},"
            " maps={('a', 'b'): MatrixLiteral(kind='id', rows=(), line=4)})")
        assert_value_record(document.OpenSpec, dict(name="U", line=7, stars=("a",), members=None),
                            "OpenSpec(name='U', line=7, stars=('a',), members=None)")
        assert_value_record(
            document.MorphismSpec,
            dict(name="f", line=9, source="s", target="t", maps={"a": literal}),
            "MorphismSpec(name='f', line=9, source='s', target='t',"
            " maps={'a': MatrixLiteral(kind='id', rows=(), line=4)})")

    @pytest.mark.parametrize("spec, names", [(document.SheafSpec, ("dims", "maps")),
                                             (document.MorphismSpec, ("maps",))])
    def test_each_spec_has_dicts_of_its_own(self, spec, names):
        first, second = spec("x", 1), spec("x", 1)
        for name in names:
            getattr(first, name)["a"] = 1
            assert getattr(second, name) == {}

    def test_parsed_and_realized_documents(self):
        doc = parse_document("[poset]\nelements = a b\nrelation = a<b\n"
                             "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n")
        assert_value_record(
            SheafDocument, dict(preorder=doc.preorder, sheaf_specs=doc.sheaf_specs,
                                open_specs={}, morphism_specs={}),
            "SheafDocument(preorder=PreOrder(['a', 'b'], [('a', 'b')]), sheaf_specs={'main':"
            " SheafSpec(name='main', line=4, field_name=None, dims={'a': (1, 5), 'b': (1, 6)},"
            " maps={('a', 'b'): MatrixLiteral(kind='rows', rows=((2,),), line=7)})},"
            " open_specs={}, morphism_specs={})")
        realized = realize(doc)
        assert_value_record(
            RealizedDocument, dict(poset=realized.poset, sheaves=realized.sheaves, opens={},
                                   morphisms={}, morphism_ends={}),
            "RealizedDocument(poset=Poset(['a', 'b'], [('a', 'b')]),"
            " sheaves={'main': CellularSheaf(a:1, b:1 over q)}, opens={}, morphisms={},"
            " morphism_ends={})")
        assert realize(doc) == realized


class TestRender:
    def test_roundtrip_on_fixtures(self):
        for name in ["square", "span", "double_target", "fan", "fractions"]:
            realized = parse_text(load(f"{name}.sheaf"))
            again = parse_text(render_document(realized))
            assert again.poset == realized.poset
            assert again.sheaves == realized.sheaves
            assert {k: v.members for k, v in again.opens.items()} == {
                k: v.members for k, v in realized.opens.items()
            }

    def test_roundtrip_with_morphism_and_prime_field(self):
        text = (
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\nfield = fp:7\ndim a = 1\ndim b = 1\nmap a->b = [[3]]\n"
            "[sheaf other]\nfield = fp:7\ndim a = 1\ndim b = 1\nmap a->b = [[3]]\n"
            "[morphism f]\nsource = main\ntarget = other\nmap a = [[2]]\nmap b = [[2]]\n"
        )
        realized = parse_text(text)
        again = parse_text(render_document(realized))
        assert again.sheaves == realized.sheaves
        assert again.morphisms["f"].components == realized.morphisms["f"].components

    def test_morphism_ends_keep_their_document_names(self):
        # main and other are equal sheaves; the morphism lives on other
        text = (
            "[poset]\nelements = a b\nrelation = a<b\n"
            "[sheaf]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[sheaf other]\ndim a = 1\ndim b = 1\nmap a->b = [[2]]\n"
            "[morphism g]\nsource = other\ntarget = other\nmap a = [[3]]\nmap b = [[3]]\n"
        )
        realized = parse_text(text)
        assert realized.sheaves["main"] == realized.sheaves["other"]
        rendered = render_document(realized)
        assert "[morphism g]\nsource = other\ntarget = other\n" in rendered
        assert render_document(parse_text(rendered)) == rendered

    def test_rendering_is_stable(self):
        realized = parse_text(load("square.sheaf"))
        text = render_document(realized)
        assert render_document(parse_text(text)) == text
