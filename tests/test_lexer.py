"""Unit tests for the SQL lexer."""

import pytest

from repro import Database, DataType
from repro.errors import BindError, SqlSyntaxError
from repro.sql.lexer import tokenize


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "eof"]


class TestTokenize:
    def test_keywords_uppercased(self):
        assert kinds("select from") == [("keyword", "SELECT"),
                                        ("keyword", "FROM")]

    def test_identifiers_keep_case(self):
        assert kinds("Emp dEpT") == [("ident", "Emp"), ("ident", "dEpT")]

    def test_integer_and_float(self):
        assert kinds("42 3.14") == [("number", "42"), ("number", "3.14")]

    def test_qualified_name_not_a_float(self):
        assert kinds("E.did") == [("ident", "E"), ("symbol", "."),
                                  ("ident", "did")]

    def test_number_then_qualifier_dot(self):
        # "1.x" must lex as number 1, dot, ident x
        assert kinds("1.x") == [("number", "1"), ("symbol", "."),
                                ("ident", "x")]

    def test_string_literal(self):
        assert kinds("'hello'") == [("string", "hello")]

    def test_string_with_escaped_quote(self):
        assert kinds("'it''s'") == [("string", "it's")]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_two_char_symbols(self):
        assert kinds("<= >= != <>") == [
            ("symbol", "<="), ("symbol", ">="),
            ("symbol", "!="), ("symbol", "<>"),
        ]

    def test_line_comment_skipped(self):
        assert kinds("select -- comment\n from") == [
            ("keyword", "SELECT"), ("keyword", "FROM"),
        ]

    def test_illegal_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind == "eof"
        assert tokenize("select")[-1].kind == "eof"

    def test_underscore_identifiers(self):
        assert kinds("_tmp foo_bar") == [("ident", "_tmp"),
                                         ("ident", "foo_bar")]


# Exact (kind, text, position, line) streams, eof included, for the
# cases a regular-expression lexer is most likely to get wrong.
EDGE_STREAMS = [
    ("'it''s' ''", [("string", "it's", 0, 1), ("string", "", 8, 1),
                    ("eof", "", 10, 1)]),
    ("1.5.3", [("number", "1.5", 0, 1), ("number", ".3", 3, 1),
               ("eof", "", 5, 1)]),
    ("E.1", [("ident", "E", 0, 1), ("number", ".1", 1, 1),
             ("eof", "", 3, 1)]),
    (".5", [("number", ".5", 0, 1), ("eof", "", 2, 1)]),
    ("select --", [("keyword", "SELECT", 0, 1), ("eof", "", 9, 1)]),
    ("x -- c\n y", [("ident", "x", 0, 1), ("ident", "y", 8, 2),
                    ("eof", "", 9, 2)]),
    ("a\r\nb", [("ident", "a", 0, 1), ("ident", "b", 3, 2),
                ("eof", "", 4, 2)]),
    # a newline inside a string does not advance the line count
    ("'a\nb' c", [("string", "a\nb", 0, 1), ("ident", "c", 6, 1),
                  ("eof", "", 7, 1)]),
    ("é É1", [("ident", "é", 0, 1), ("ident", "É1", 2, 1),
              ("eof", "", 4, 1)]),
]

# (text, position, line) of the SqlSyntaxError each text raises
EDGE_ERRORS = [
    ("'oops", 0, 1),
    # an unterminated string ending in an escaped quote is reported at
    # its opening quote, not at the last quote
    ("'ab''", 0, 1),
    ("'x''y''", 0, 1),
    ("\n\n'abc''", 2, 3),
    ("'a\nb", 0, 1),
    ("a\n  @", 4, 2),
]


@pytest.mark.parametrize("text, expected", EDGE_STREAMS)
def test_edge_case_streams(text, expected):
    assert [(t.kind, t.text, t.position, t.line)
            for t in tokenize(text)] == expected


@pytest.mark.parametrize("text, position, line", EDGE_ERRORS)
def test_edge_case_errors(text, position, line):
    with pytest.raises(SqlSyntaxError) as info:
        tokenize(text)
    assert (info.value.position, info.value.line) == (position, line)


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_a_unicode_digit_is_a_name(digit):
    """A number is ASCII digits only; any other word character is part
    of a name, so ``SELECT ²`` is sqlite3's "no such column", not a
    crash converting the text to an int."""
    assert kinds("%s 1%s" % (digit, digit)) == [
        ("ident", digit), ("number", "1"), ("ident", digit)]
    db = Database()
    db.create_table("t", [("k", DataType.INT)], rows=[(1,)])
    with pytest.raises(BindError, match="unknown column"):
        db.sql("SELECT %s AS x FROM t" % digit)
    with pytest.raises(SqlSyntaxError):  # the engine requires FROM
        db.sql("SELECT %s AS x" % digit)
