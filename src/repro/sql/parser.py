"""Recursive-descent parser for the SQL subset.

Grammar (informal):

    statement     := select | with | create_table | create_view
                   | create_index | insert | drop | explain | txn
    txn           := BEGIN [TRANSACTION] | COMMIT [TRANSACTION]
                   | ROLLBACK [TRANSACTION] [TO [SAVEPOINT] ident]
                   | SAVEPOINT ident | RELEASE [SAVEPOINT] ident
    with          := WITH [RECURSIVE] cte (',' cte)* select
    cte           := ident ['(' ident (',' ident)* ')'] AS '(' select ')'
    select        := SELECT [DISTINCT] select_list FROM from_list
                     [WHERE expr] [GROUP BY columns] [HAVING expr]
                     [ORDER BY order_items] [LIMIT n]
    select_list   := '*' | select_item (',' select_item)*
    select_item   := expr [AS ident | ident]
    from_item     := ident [ident] | '(' select ')' ident
    expr          := or_expr
    or_expr       := and_expr (OR and_expr)*
    and_expr      := not_expr (AND not_expr)*
    not_expr      := NOT not_expr | comparison
    comparison    := additive [cmp_op additive]
    additive      := term (('+'|'-') term)*
    term          := factor (('*'|'/') factor)*
    factor        := literal | func_call | column | '(' expr ')' | '-' factor

Errors raise :class:`~repro.errors.SqlSyntaxError` with a position.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlSyntaxError
from . import ast
from .lexer import Token, tokenize

_TYPE_NAMES = {
    "INT": "int", "INTEGER": "int",
    "FLOAT": "float", "REAL": "float",
    "VARCHAR": "str", "TEXT": "str",
    "BOOLEAN": "bool", "BOOL": "bool",
}

_CMP_OPS = ("=", "!=", "<>", "<=", ">=", "<", ">")


class Parser:
    """One-shot parser over a token list: ``tokens`` when the caller has
    already lexed ``text``, else ``tokenize(text)``."""

    def __init__(self, text: str, tokens: Optional[List[Token]] = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0
        # number of `?` placeholders seen so far; each gets the next
        # 0-based index in textual order
        self.param_count = 0

    # ------------------------------------------------------------ utilities

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(
            "%s (at %s, line %d)" % (message, token, token.line),
            token.position, token.line,
        )

    def expect_keyword(self, *names: str) -> Token:
        if not self.peek().is_keyword(*names):
            raise self.error("expected %s" % "/".join(names))
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        if not self.peek().is_symbol(symbol):
            raise self.error("expected %r" % symbol)
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise self.error("expected identifier")
        self.advance()
        return token.text

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    # ----------------------------------------------------------- statements

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement (trailing ';' allowed)."""
        statement = self._statement()
        self.accept_symbol(";")
        if self.peek().kind != "eof":
            raise self.error("unexpected trailing input")
        return statement

    def parse_script(self) -> List[ast.Statement]:
        """Parse a ';'-separated sequence of statements."""
        return [statement for statement, _, _ in self.parse_script_spans()]

    def parse_script_spans(self) -> List[Tuple[ast.Statement, str,
                                               List[Token]]]:
        """Parse a ';'-separated script, keeping each statement's source
        text and token slice so callers (plan cache, error messages) can
        refer to one statement rather than the whole script."""
        statements = []
        while self.peek().kind != "eof":
            first = self.pos
            start = self.peek().position
            statement = self._statement()
            end = self.peek().position
            statements.append((statement, self.text[start:end].strip(),
                               self.tokens[first:self.pos]))
            while self.accept_symbol(";"):
                pass
        return statements

    def _statement(self) -> ast.Statement:
        token = self.peek()
        if token.is_keyword("SELECT"):
            return self.parse_query()
        if token.is_keyword("WITH"):
            return self._with_statement()
        if token.is_keyword("EXPLAIN"):
            self.advance()
            if self.peek().is_keyword("WITH"):
                return ast.ExplainStmt(self._with_statement())
            return ast.ExplainStmt(self.parse_query())
        if token.is_keyword("CREATE"):
            return self._create()
        if token.is_keyword("INSERT"):
            return self._insert()
        if token.is_keyword("UPDATE"):
            return self._update()
        if token.is_keyword("DELETE"):
            return self._delete()
        if token.is_keyword("DROP"):
            return self._drop()
        if token.is_keyword("BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT",
                            "RELEASE"):
            return self._transaction_statement()
        raise self.error("expected a statement")

    def _transaction_statement(self) -> ast.Statement:
        if self.accept_keyword("BEGIN"):
            self.accept_keyword("TRANSACTION")
            return ast.BeginStmt()
        if self.accept_keyword("COMMIT"):
            self.accept_keyword("TRANSACTION")
            return ast.CommitStmt()
        if self.accept_keyword("ROLLBACK"):
            self.accept_keyword("TRANSACTION")
            if self.accept_keyword("TO"):
                self.accept_keyword("SAVEPOINT")
                return ast.RollbackStmt(savepoint=self.expect_ident())
            return ast.RollbackStmt()
        if self.accept_keyword("SAVEPOINT"):
            return ast.SavepointStmt(self.expect_ident())
        self.expect_keyword("RELEASE")
        self.accept_keyword("SAVEPOINT")
        return ast.ReleaseStmt(self.expect_ident())

    def _create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            name = self.expect_ident()
            if self.accept_keyword("AS"):
                return ast.CreateTableAsStmt(name, self.parse_query())
            self.expect_symbol("(")
            columns = []
            while True:
                col_name = self.expect_ident()
                type_token = self.peek()
                if type_token.kind != "keyword" or type_token.text not in _TYPE_NAMES:
                    raise self.error("expected a column type")
                self.advance()
                # tolerate VARCHAR(n)
                if self.accept_symbol("("):
                    if self.peek().kind != "number":
                        raise self.error("expected a length")
                    self.advance()
                    self.expect_symbol(")")
                columns.append(ast.ColumnDef(col_name, _TYPE_NAMES[type_token.text]))
                if not self.accept_symbol(","):
                    break
            self.expect_symbol(")")
            return ast.CreateTableStmt(name, columns)
        recursive = self.accept_keyword("RECURSIVE")
        if self.accept_keyword("VIEW"):
            name = self.expect_ident()
            column_aliases: Optional[List[str]] = None
            if self.accept_symbol("("):
                column_aliases = [self.expect_ident()]
                while self.accept_symbol(","):
                    column_aliases.append(self.expect_ident())
                self.expect_symbol(")")
            self.expect_keyword("AS")
            wrapped = self.accept_symbol("(")
            start = self.peek().position
            select = self.parse_query()
            end = self.peek().position
            select_text = self.text[start:end].strip()
            if wrapped:
                self.expect_symbol(")")
                # strip the close paren from the captured text if present
                select_text = self.text[start:self.tokens[self.pos - 1].position].strip()
            return ast.CreateViewStmt(name, column_aliases, select,
                                      select_text, recursive=recursive)
        if recursive:
            raise self.error("expected VIEW after CREATE RECURSIVE")
        if self.accept_keyword("INDEX"):
            # CREATE INDEX ON table (column) — kind defaults to hash
            self.expect_keyword("ON")
            table = self.expect_ident()
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(")")
            kind = "hash"
            if self.peek().kind == "ident" and self.peek().text.lower() in (
                "hash", "sorted",
            ):
                kind = self.advance().text.lower()
            return ast.CreateIndexStmt(table, column, kind)
        raise self.error("expected TABLE, VIEW, or INDEX after CREATE")

    def _with_statement(self) -> ast.WithStmt:
        """WITH [RECURSIVE] name [(cols)] AS ( query ) [, ...] body."""
        self.expect_keyword("WITH")
        recursive = self.accept_keyword("RECURSIVE")
        ctes = [self._cte_def()]
        while self.accept_symbol(","):
            ctes.append(self._cte_def())
        body = self.parse_query()
        return ast.WithStmt(recursive, ctes, body)

    def _cte_def(self) -> ast.CteDef:
        name = self.expect_ident()
        column_aliases: Optional[List[str]] = None
        if self.accept_symbol("("):
            column_aliases = [self.expect_ident()]
            while self.accept_symbol(","):
                column_aliases.append(self.expect_ident())
            self.expect_symbol(")")
        self.expect_keyword("AS")
        self.expect_symbol("(")
        query = self.parse_query()
        self.expect_symbol(")")
        return ast.CteDef(name, column_aliases, query)

    def _insert(self) -> ast.InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        self.expect_keyword("VALUES")
        rows = []
        while True:
            self.expect_symbol("(")
            row = [self._literal_value()]
            while self.accept_symbol(","):
                row.append(self._literal_value())
            self.expect_symbol(")")
            rows.append(row)
            if not self.accept_symbol(","):
                break
        return ast.InsertStmt(table, rows)

    def _update(self) -> ast.UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect_symbol("=")
            assignments.append((column, self.parse_expr()))
            if not self.accept_symbol(","):
                break
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.UpdateStmt(table, assignments, where)

    def _delete(self) -> ast.DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.DeleteStmt(table, where)

    def _drop(self) -> ast.DropStmt:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            return ast.DropStmt("table", self.expect_ident())
        if self.accept_keyword("VIEW"):
            return ast.DropStmt("view", self.expect_ident())
        raise self.error("expected TABLE or VIEW after DROP")

    def _parameter(self) -> ast.AstParameter:
        node = ast.AstParameter(self.param_count)
        self.param_count += 1
        return node

    def _literal_value(self):
        token = self.peek()
        if token.is_symbol("?"):
            self.advance()
            return self._parameter()
        negative = False
        if token.is_symbol("-"):
            self.advance()
            negative = True
            token = self.peek()
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return -value if negative else value
        if negative:
            raise self.error("expected a number after '-'")
        if token.kind == "string":
            self.advance()
            return token.text
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        if token.is_keyword("NULL"):
            self.advance()
            return None
        raise self.error("expected a literal value")

    # --------------------------------------------------------------- SELECT

    def parse_query(self) -> "ast.Statement":
        """A SELECT, or a UNION [ALL] chain with trailing ORDER/LIMIT."""
        first = self._select_core()
        if not self.peek().is_keyword("UNION"):
            order_by, limit = self._order_limit()
            first.order_by = order_by
            first.limit = limit
            return first
        parts = [first]
        all_flags: List[bool] = []
        while self.accept_keyword("UNION"):
            all_flags.append(self.accept_keyword("ALL"))
            parts.append(self._select_core())
        order_by, limit = self._order_limit()
        return ast.UnionStmt(parts, all_flags, order_by, limit)

    def parse_select(self) -> ast.SelectStmt:
        """A single SELECT statement (no UNION)."""
        select = self._select_core()
        order_by, limit = self._order_limit()
        select.order_by = order_by
        select.limit = limit
        return select

    def _order_limit(self):
        order_by: List[Tuple[ast.AstColumn, bool]] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_symbol(","):
                order_by.append(self._order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.peek()
            if token.kind != "number" or "." in token.text:
                raise self.error("expected an integer LIMIT")
            self.advance()
            limit = int(token.text)
        return order_by, limit

    def _select_core(self) -> ast.SelectStmt:
        """SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ... —
        everything up to (but excluding) ORDER BY / LIMIT / UNION."""
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select_items = self._select_list()
        self.expect_keyword("FROM")
        from_items = [self._from_item()]
        while self.accept_symbol(","):
            from_items.append(self._from_item())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: List[ast.AstColumn] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._column_name())
            while self.accept_symbol(","):
                group_by.append(self._column_name())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return ast.SelectStmt(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=[],
            distinct=distinct,
            limit=None,
        )

    def _select_list(self) -> List[ast.AstSelectItem]:
        if self.peek().is_symbol("*"):
            self.advance()
            return [ast.AstSelectItem(expr=None, star=True)]
        items = [self._select_item()]
        while self.accept_symbol(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.AstSelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.advance().text
        return ast.AstSelectItem(expr=expr, alias=alias)

    def _from_item(self) -> ast.FromItem:
        if self.accept_symbol("("):
            select = self.parse_select()
            self.expect_symbol(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return ast.AstSubqueryRef(select, alias)
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.advance().text
        return ast.AstTableRef(name, alias)

    def _column_name(self) -> ast.AstColumn:
        first = self.expect_ident()
        if self.accept_symbol("."):
            return ast.AstColumn(first, self.expect_ident())
        return ast.AstColumn(None, first)

    def _order_item(self) -> Tuple[ast.AstColumn, bool]:
        column = self._column_name()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return column, ascending

    # ---------------------------------------------------------- expressions

    def parse_expr(self) -> ast.AstExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.AstExpr:
        left = self._and_expr()
        args = [left]
        while self.accept_keyword("OR"):
            args.append(self._and_expr())
        if len(args) == 1:
            return left
        return ast.AstBoolean("OR", tuple(args))

    def _and_expr(self) -> ast.AstExpr:
        left = self._not_expr()
        args = [left]
        while self.accept_keyword("AND"):
            args.append(self._not_expr())
        if len(args) == 1:
            return left
        return ast.AstBoolean("AND", tuple(args))

    def _not_expr(self) -> ast.AstExpr:
        if self.accept_keyword("NOT"):
            return ast.AstBoolean("NOT", (self._not_expr(),))
        return self._comparison()

    def _comparison(self) -> ast.AstExpr:
        left = self._additive()
        token = self.peek()
        if token.kind == "symbol" and token.text in _CMP_OPS:
            self.advance()
            right = self._additive()
            return ast.AstComparison(token.text, left, right)
        negated = False
        if token.is_keyword("NOT") and self.peek(1).is_keyword("IN",
                                                               "BETWEEN"):
            self.advance()
            negated = True
            token = self.peek()
        if token.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            if self.peek().is_keyword("SELECT"):
                subquery = self.parse_select()
                self.expect_symbol(")")
                return ast.AstInSubquery(left, subquery, negated)
            values = [self._literal_value()]
            while self.accept_symbol(","):
                values.append(self._literal_value())
            self.expect_symbol(")")
            return ast.AstInList(left, tuple(values), negated)
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            spanning = ast.AstBoolean("AND", (
                ast.AstComparison(">=", left, low),
                ast.AstComparison("<=", left, high),
            ))
            if negated:
                return ast.AstBoolean("NOT", (spanning,))
            return spanning
        if negated:
            raise self.error("expected IN or BETWEEN after NOT")
        return left

    def _additive(self) -> ast.AstExpr:
        left = self._term()
        while self.peek().is_symbol("+", "-"):
            op = self.advance().text
            left = ast.AstArithmetic(op, left, self._term())
        return left

    def _term(self) -> ast.AstExpr:
        left = self._factor()
        while self.peek().is_symbol("*", "/"):
            op = self.advance().text
            left = ast.AstArithmetic(op, left, self._factor())
        return left

    def _factor(self) -> ast.AstExpr:
        token = self.peek()
        if token.is_symbol("?"):
            self.advance()
            return self._parameter()
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.is_symbol("-"):
            self.advance()
            inner = self._factor()
            if isinstance(inner, ast.AstLiteral) and isinstance(
                inner.value, (int, float)
            ):
                return ast.AstLiteral(-inner.value)
            return ast.AstArithmetic("-", ast.AstLiteral(0), inner)
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return ast.AstLiteral(value)
        if token.kind == "string":
            self.advance()
            return ast.AstLiteral(token.text)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.AstLiteral(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.AstLiteral(False)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.AstLiteral(None)
        if token.kind == "ident":
            name = self.advance().text
            if self.peek().is_symbol("("):  # function call
                self.advance()
                if self.peek().is_symbol("*"):
                    self.advance()
                    self.expect_symbol(")")
                    return ast.AstFuncCall(name.lower(), None, star=True)
                distinct = self.accept_keyword("DISTINCT")
                argument = self.parse_expr()
                self.expect_symbol(")")
                return ast.AstFuncCall(name.lower(), argument,
                                       distinct=distinct)
            if self.accept_symbol("."):
                return ast.AstColumn(name, self.expect_ident())
            return ast.AstColumn(None, name)
        raise self.error("expected an expression")


def parse(text: str) -> ast.Statement:
    """Parse one statement from SQL text."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a ';'-separated script."""
    return Parser(text).parse_script()


def parse_select(text: str) -> ast.SelectStmt:
    """Parse text that must be a single SELECT statement."""
    statement = parse(text)
    if not isinstance(statement, ast.SelectStmt):
        raise SqlSyntaxError("expected a SELECT statement")
    return statement
