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
    NotAntisymmetricError,
    PrimeField,
    QQ,
    parse_document,
    parse_text,
    realize,
    render_document,
)

from cellsheaf.document import _parse_matrix_value
from cellsheaf.linalg import PRIME_BOUND

from helpers import FIXTURES
from oracles import matrix_literal_by_walk


def load(name):
    return (FIXTURES / name).read_text()


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
            assert (lit.kind, lit.rows, lit.line) == (*expected, line)

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
    ])
    def test_the_first_of_several_faults_is_reported(self, text, message):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == message

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
