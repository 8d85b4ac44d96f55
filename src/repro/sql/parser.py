"""Recursive-descent parser: token stream -> AST."""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.tokens import Token, TokenKind, tokenize

# Keywords that may double as function names when followed by '('.
_FUNCTION_KEYWORDS = {"COUNT", "IF", "DATE", "TIMESTAMP", "REPLACE", "LEFT", "RIGHT"}

# Non-structural keywords additionally allowed wherever an identifier is
# expected (so names like ``dataset.remote`` keep working).
_IDENT_OK_KEYWORDS = _FUNCTION_KEYWORDS | {
    "REMOTE", "CONNECTION", "OPTIONS", "SYSTEM_TIME", "OF", "MODEL",
}

# Keywords that terminate an implicit alias position.
_NO_ALIAS_KEYWORDS = {
    "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON", "JOIN", "INNER",
    "LEFT", "RIGHT", "FULL", "CROSS", "UNION", "USING", "WHEN", "SET",
    "AND", "OR", "THEN", "ELSE", "END",
}


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def accept_keyword(self, *words: str) -> Token | None:
        if self.peek().is_keyword(*words):
            return self.advance()
        return None

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        tok = self.accept_keyword(*words)
        if tok is None:
            raise SqlSyntaxError(
                f"expected {'/'.join(words)} but found {self.peek().text!r} "
                f"at position {self.peek().pos}"
            )
        return tok

    def expect_symbol(self, symbol: str) -> Token:
        tok = self.accept_symbol(symbol)
        if tok is None:
            raise SqlSyntaxError(
                f"expected {symbol!r} but found {self.peek().text!r} "
                f"at position {self.peek().pos}"
            )
        return tok

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return tok.text
        # Allow non-reserved keywords as identifiers in name position.
        if tok.kind is TokenKind.KEYWORD and tok.text in _IDENT_OK_KEYWORDS:
            self.advance()
            return tok.text.lower()
        raise SqlSyntaxError(
            f"expected identifier but found {tok.text!r} at position {tok.pos}"
        )

    def parse_dotted_name(self) -> tuple[str, ...]:
        parts = [self.expect_ident()]
        while self.accept_symbol("."):
            parts.append(self.expect_ident())
        return tuple(parts)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        tok = self.peek()
        if tok.is_keyword("SELECT"):
            stmt: ast.Statement = self.parse_select()
        elif tok.is_keyword("CREATE"):
            stmt = self.parse_create()
        elif tok.is_keyword("INSERT"):
            stmt = self.parse_insert()
        elif tok.is_keyword("UPDATE"):
            stmt = self.parse_update()
        elif tok.is_keyword("DELETE"):
            stmt = self.parse_delete()
        elif tok.is_keyword("MERGE"):
            stmt = self.parse_merge()
        else:
            raise SqlSyntaxError(f"unexpected statement start {tok.text!r}")
        self.accept_symbol(";")
        if self.peek().kind is not TokenKind.EOF:
            raise SqlSyntaxError(
                f"trailing input at position {self.peek().pos}: {self.peek().text!r}"
            )
        return stmt

    def parse_create(self) -> ast.CreateTableAsSelect | ast.CreateModel:
        self.expect_keyword("CREATE")
        replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            replace = True
        if self.accept_keyword("MODEL"):
            return self._parse_create_model(replace)
        self.expect_keyword("TABLE")
        table = self.parse_dotted_name()
        self.expect_keyword("AS")
        query = self.parse_select()
        return ast.CreateTableAsSelect(table=table, query=query, replace=replace)

    def _parse_create_model(self, replace: bool) -> ast.CreateModel:
        """Listing 2's DDL: CREATE MODEL name [REMOTE WITH CONNECTION conn]
        OPTIONS (key = literal, ...)."""
        name = self.parse_dotted_name()
        remote_connection = None
        if self.accept_keyword("REMOTE"):
            self.expect_keyword("WITH")
            self.expect_keyword("CONNECTION")
            remote_connection = self.parse_dotted_name()
        options: dict = {}
        if self.accept_keyword("OPTIONS"):
            self.expect_symbol("(")
            while True:
                key = self.expect_ident()
                self.expect_symbol("=")
                value = self.parse_expr()
                if not isinstance(value, ast.Literal):
                    raise SqlSyntaxError("OPTIONS values must be literals")
                options[key.lower()] = value.value
                if not self.accept_symbol(","):
                    break
            self.expect_symbol(")")
        return ast.CreateModel(
            name=name, replace=replace,
            remote_connection=remote_connection, options=options,
        )

    def parse_insert(self) -> ast.InsertValues | ast.InsertSelect:
        self.expect_keyword("INSERT")
        self.accept_keyword("INTO")
        table = self.parse_dotted_name()
        columns: list[str] = []
        if self.accept_symbol("("):
            columns.append(self.expect_ident())
            while self.accept_symbol(","):
                columns.append(self.expect_ident())
            self.expect_symbol(")")
        if self.accept_keyword("VALUES"):
            rows: list[list[ast.Expr]] = []
            while True:
                self.expect_symbol("(")
                row = [self.parse_expr()]
                while self.accept_symbol(","):
                    row.append(self.parse_expr())
                self.expect_symbol(")")
                rows.append(row)
                if not self.accept_symbol(","):
                    break
            return ast.InsertValues(table=table, columns=columns, rows=rows)
        query = self.parse_select()
        return ast.InsertSelect(table=table, columns=columns, query=query)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.parse_dotted_name()
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_symbol(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_ident()
        self.expect_symbol("=")
        return column, self.parse_expr()

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.parse_dotted_name()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    def parse_merge(self) -> ast.Merge:
        self.expect_keyword("MERGE")
        self.accept_keyword("INTO")
        target = self.parse_dotted_name()
        target_alias = self._maybe_alias()
        self.expect_keyword("USING")
        source = self.parse_from_primary()
        self.expect_keyword("ON")
        on = self.parse_expr()
        whens: list[ast.MergeWhenClause] = []
        while self.accept_keyword("WHEN"):
            whens.append(self._parse_merge_when())
        if not whens:
            raise SqlSyntaxError("MERGE requires at least one WHEN clause")
        return ast.Merge(
            target=target, target_alias=target_alias, source=source, on=on, whens=whens
        )

    def _parse_merge_when(self) -> ast.MergeWhenClause:
        matched = True
        if self.accept_keyword("NOT"):
            self.expect_keyword("MATCHED")
            matched = False
        else:
            self.expect_keyword("MATCHED")
        condition = self.parse_expr() if self.accept_keyword("AND") else None
        self.expect_keyword("THEN")
        if self.accept_keyword("UPDATE"):
            self.expect_keyword("SET")
            assignments = [self._parse_assignment()]
            while self.accept_symbol(","):
                assignments.append(self._parse_assignment())
            return ast.MergeWhenClause(
                matched=matched, condition=condition, action="UPDATE",
                assignments=assignments,
            )
        if self.accept_keyword("DELETE"):
            return ast.MergeWhenClause(
                matched=matched, condition=condition, action="DELETE"
            )
        self.expect_keyword("INSERT")
        insert_columns: list[str] = []
        if self.accept_symbol("("):
            insert_columns.append(self.expect_ident())
            while self.accept_symbol(","):
                insert_columns.append(self.expect_ident())
            self.expect_symbol(")")
        self.expect_keyword("VALUES")
        self.expect_symbol("(")
        insert_values = [self.parse_expr()]
        while self.accept_symbol(","):
            insert_values.append(self.parse_expr())
        self.expect_symbol(")")
        return ast.MergeWhenClause(
            matched=matched, condition=condition, action="INSERT",
            insert_columns=insert_columns, insert_values=insert_values,
        )

    # -- SELECT ----------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self._parse_select_item()]
        while self.accept_symbol(","):
            items.append(self._parse_select_item())
        from_item = None
        if self.accept_keyword("FROM"):
            from_item = self.parse_from()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_symbol(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_symbol(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            tok = self.advance()
            if tok.kind is not TokenKind.NUMBER:
                raise SqlSyntaxError(f"LIMIT expects a number, got {tok.text!r}")
            limit = int(tok.text)
        select = ast.Select(
            items=items, from_item=from_item, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, distinct=distinct,
        )
        if self.accept_keyword("UNION"):
            self.expect_keyword("ALL")
            select.union_all = self.parse_select()
        return select

    def _parse_select_item(self) -> ast.SelectItem:
        if self.accept_symbol("*"):
            return ast.SelectItem(expr=ast.Star())
        # alias.* form
        if (
            self.peek().kind is TokenKind.IDENT
            and self.peek(1).is_symbol(".")
            and self.peek(2).is_symbol("*")
        ):
            qualifier = self.advance().text
            self.advance()  # '.'
            self.advance()  # '*'
            return ast.SelectItem(expr=ast.Star(qualifier=qualifier))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().text
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, ascending=ascending)

    # -- FROM / joins ------------------------------------------------------------

    def parse_from(self) -> ast.FromItem:
        left = self.parse_from_primary()
        while True:
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self.parse_from_primary()
                left = ast.Join(kind="CROSS", left=left, right=right)
                continue
            kind = None
            if self.peek().is_keyword("JOIN"):
                kind = "INNER"
                self.advance()
            elif self.peek().is_keyword("INNER") and self.peek(1).is_keyword("JOIN"):
                kind = "INNER"
                self.advance()
                self.advance()
            elif self.peek().is_keyword("LEFT") and (
                self.peek(1).is_keyword("JOIN")
                or (self.peek(1).is_keyword("OUTER") and self.peek(2).is_keyword("JOIN"))
            ):
                kind = "LEFT"
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
            if kind is None:
                break
            right = self.parse_from_primary()
            self.expect_keyword("ON")
            condition = self.parse_expr()
            left = ast.Join(kind=kind, left=left, right=right, condition=condition)
        return left

    def parse_from_primary(self) -> ast.FromItem:
        if self.accept_symbol("("):
            query = self.parse_select()
            self.expect_symbol(")")
            return ast.SubqueryRef(query=query, alias=self._maybe_alias())
        path = self.parse_dotted_name()
        name_upper = ".".join(path).upper()
        if self.peek().is_symbol("(") and name_upper.startswith("ML."):
            return self._parse_tvf(name_upper)
        system_time = None
        if self.accept_keyword("FOR"):
            self.expect_keyword("SYSTEM_TIME")
            self.expect_keyword("AS")
            self.expect_keyword("OF")
            system_time = self.parse_expr()
        return ast.TableRef(
            path=path, alias=self._maybe_alias(), system_time=system_time
        )

    def _parse_tvf(self, name: str) -> ast.TvfRef:
        self.expect_symbol("(")
        self.expect_keyword("MODEL")
        model = self.parse_dotted_name()
        input_query = None
        input_table = None
        if self.accept_symbol(","):
            if self.accept_keyword("TABLE"):
                input_table = self.parse_dotted_name()
            else:
                self.expect_symbol("(")
                input_query = self.parse_select()
                self.expect_symbol(")")
        self.expect_symbol(")")
        return ast.TvfRef(
            name=name, model=model, input_query=input_query,
            input_table=input_table, alias=self._maybe_alias(),
        )

    def _maybe_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_ident()
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return tok.text
        return None

    # -- expressions (precedence climbing) -----------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        tok = self.peek()
        if tok.is_symbol("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.advance().text
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, self._parse_additive())
        if tok.is_keyword("IS"):
            return self._parse_is_null(left)
        negated = False
        if tok.is_keyword("NOT"):
            nxt = self.peek(1)
            if nxt.is_keyword("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
                tok = self.peek()
        if tok.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            if self.peek().is_keyword("SELECT"):
                query = self.parse_select()
                self.expect_symbol(")")
                return self._parse_is_null(ast.InSubquery(left, query, negated=negated))
            items = [self._parse_in_item()]
            while self.accept_symbol(","):
                items.append(self._parse_in_item())
            self.expect_symbol(")")
            return self._parse_is_null(ast.InList(left, tuple(items), negated=negated))
        if tok.is_keyword("BETWEEN"):
            self.advance()
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return self._parse_is_null(ast.Between(left, low, high, negated=negated))
        if tok.is_keyword("LIKE"):
            self.advance()
            pattern = self.advance()
            if pattern.kind is not TokenKind.STRING:
                raise SqlSyntaxError("LIKE expects a string pattern literal")
            return self._parse_is_null(ast.Like(left, pattern.text, negated=negated))
        return left

    def _parse_is_null(self, operand: ast.Expr) -> ast.Expr:
        """``operand IS [NOT] NULL`` if that follows, else ``operand``: after
        an IN, BETWEEN or LIKE too, which sqlite3 parses as the operand of
        IS (``x IN (1) IS NULL`` is ``(x IN (1)) IS NULL``)."""
        if not self.accept_keyword("IS"):
            return operand
        negated = bool(self.accept_keyword("NOT"))
        self.expect_keyword("NULL")
        return ast.IsNull(operand, negated=negated)

    def _parse_in_item(self) -> ast.Expr:
        """One IN-list element. A bare literal followed by ``,`` or ``)`` —
        every element of a pushed-down dynamic-pruning list, thousands at a
        time — goes straight to the literal rule instead of descending the
        ten precedence levels above it; anything else parses as before."""
        tok = self.peek()
        if (
            tok.kind is TokenKind.NUMBER
            or tok.kind is TokenKind.STRING
            or tok.is_keyword("TRUE", "FALSE", "NULL")
        ) and self.peek(1).is_symbol(",", ")"):
            return self._parse_primary()
        return self.parse_expr()

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.is_symbol("+", "-", "||"):
                op = self.advance().text
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            if tok.is_symbol("*", "/", "%"):
                op = self.advance().text
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            operand = self._parse_unary()
            # Constant-fold negated numeric literals so '-1' round-trips
            # as a literal (and pruning sees a plain bound).
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ) and operand.type_hint is None and not isinstance(operand.value, bool):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.accept_symbol("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            text = tok.text
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if tok.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(tok.text)
        if tok.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if tok.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if tok.is_keyword("TIMESTAMP", "DATE") and self.peek(1).kind is TokenKind.STRING:
            kind = self.advance().text
            literal = self.advance().text
            return ast.Literal(literal, type_hint=kind)
        if tok.is_keyword("CASE"):
            return self._parse_case()
        if tok.is_keyword("CAST"):
            self.advance()
            self.expect_symbol("(")
            operand = self.parse_expr()
            self.expect_keyword("AS")
            target = self.advance().text.upper()
            self.expect_symbol(")")
            return ast.Cast(operand, target)
        if tok.is_symbol("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if tok.kind is TokenKind.IDENT or (
            tok.kind is TokenKind.KEYWORD and tok.text in _FUNCTION_KEYWORDS
        ):
            return self._parse_name_or_call()
        raise SqlSyntaxError(
            f"unexpected token {tok.text!r} at position {tok.pos} in expression"
        )

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            whens.append((cond, value))
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN")
        return ast.Case(tuple(whens), default)

    def _parse_name_or_call(self) -> ast.Expr:
        parts = [self.advance().text]
        while self.peek().is_symbol(".") and (
            self.peek(1).kind is TokenKind.IDENT
            or (self.peek(1).kind is TokenKind.KEYWORD and self.peek(1).text in _FUNCTION_KEYWORDS)
        ):
            self.advance()
            parts.append(self.advance().text)
        if self.peek().is_symbol("("):
            self.advance()
            name = ".".join(parts).upper()
            if self.accept_symbol("*"):
                self.expect_symbol(")")
                return ast.FunctionCall(name, (), is_star=True)
            distinct = bool(self.accept_keyword("DISTINCT"))
            args: list[ast.Expr] = []
            if not self.peek().is_symbol(")"):
                args.append(self.parse_expr())
                while self.accept_symbol(","):
                    args.append(self.parse_expr())
            self.expect_symbol(")")
            return ast.FunctionCall(name, tuple(args), distinct=distinct)
        return ast.ColumnRef(tuple(parts))


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement into its AST."""
    return _Parser(sql).parse_statement()


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone expression (used for row-policy predicates)."""
    parser = _Parser(sql)
    expr = parser.parse_expr()
    if parser.peek().kind is not TokenKind.EOF:
        raise SqlSyntaxError(
            f"trailing input in expression at position {parser.peek().pos}"
        )
    return expr
