"""SQL tokenizer: one compiled pattern read with ``findall``.

Produces a flat list of :class:`Token` tuples ending in an ``eof`` token.
Each match of the master pattern absorbs the whitespace and ``--`` line
comments before one token, so the loop below runs once per token; the
newlines in that prefix advance the line count (a newline inside a
string literal does not). Keywords are recognized case-insensitively
and tagged with their uppercase form; identifiers keep the case they
were written with (catalog lookups lowercase them later). A number is
ASCII digits with at most one fractional part (``1.5.3`` is ``1.5``
then ``.3``); every other Unicode word character is an identifier
character, so ``²`` is a name, as in sqlite3. An illegal character or
an unterminated string raises :class:`SqlSyntaxError` with its position
and line.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "AND", "OR", "NOT", "IN", "BETWEEN",
    "UNION", "ALL", "AS", "CREATE", "TABLE",
    "VIEW", "INSERT", "INTO", "VALUES", "INT", "INTEGER", "FLOAT", "REAL",
    "VARCHAR", "TEXT", "BOOLEAN", "BOOL", "TRUE", "FALSE", "NULL", "ON",
    "INDEX", "DROP", "EXPLAIN", "LIMIT", "WITH", "RECURSIVE",
    "BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT", "RELEASE",
    "TRANSACTION", "TO", "UPDATE", "SET", "DELETE",
}

# Group 1 is the whitespace and comments before a token, groups 2-7 the
# token. A string may not end at the first quote of an escaped pair,
# so an unterminated one falls through to ``error`` at its opening
# quote. Some alternative matches at every position (``error`` takes
# any character, the empty one the end), so the matches tile the text
# and the prefix is never backtracked into.
_MASTER = re.compile(r"""
    (\s*(?:--[^\n]*\s*)*)
    (?:
        ([^\W0-9]\w*)
      | ([0-9]+(?:\.[0-9]+)?|\.[0-9]+)
      | (<=|>=|!=|<>|[(),.=<>+\-*/;?])
      | ('[^']*(?:''[^']*)*'(?!'))
      | (.)
      | \Z
    )""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    """One lexical token."""

    kind: str  # "keyword" | "ident" | "number" | "string" | "symbol" | "eof"
    text: str
    position: int
    line: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "symbol" and self.text in symbols

    def __str__(self) -> str:
        return "<%s %r @%d>" % (self.kind, self.text, self.position)


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises SqlSyntaxError on an illegal character
    or an unterminated string."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    line = 1
    position = 0
    for space, word, number, symbol, string, error in _MASTER.findall(text):
        if space:
            line += space.count("\n")
            position += len(space)
        if word:
            upper = word.upper()
            if upper in KEYWORDS:
                append(new(Token, ("keyword", upper, position, line)))
            else:
                append(new(Token, ("ident", word, position, line)))
            position += len(word)
        elif symbol:
            append(new(Token, ("symbol", symbol, position, line)))
            position += len(symbol)
        elif number:
            append(new(Token, ("number", number, position, line)))
            position += len(number)
        elif string:
            append(new(Token, ("string", string[1:-1].replace("''", "'"),
                               position, line)))
            position += len(string)
        elif error == "'":
            raise SqlSyntaxError("unterminated string literal", position,
                                 line)
        elif error:
            raise SqlSyntaxError("unexpected character %r" % error,
                                 position, line)
        else:
            break
    append(new(Token, ("eof", "", position, line)))
    return tokens
