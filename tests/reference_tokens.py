"""The per-character SQL lexer `repro.sql.tokens.tokenize` replaced, kept
verbatim as the oracle of tests/test_sql_tokens.py: the compiled pattern
must produce this token stream, these error messages and these error
positions for any text."""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql.tokens import KEYWORDS, SYMBOLS, Token, TokenKind


def reference_tokenize(sql: str) -> list[Token]:
    """Lex ``sql`` into tokens; raises :class:`SqlSyntaxError` on garbage."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and sql[i + 1] == "-":  # line comment
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch == "'":  # string literal with '' escaping
            j = i + 1
            chunks: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError(f"unterminated string literal at {i}")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(sql[j])
                j += 1
            tokens.append(Token(TokenKind.STRING, "".join(chunks), i))
            i = j + 1
            continue
        if ch == "`":  # quoted identifier
            j = sql.find("`", i + 1)
            if j < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token(TokenKind.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        matched = False
        for sym in SYMBOLS:
            if sql.startswith(sym, i):
                tokens.append(Token(TokenKind.SYMBOL, sym, i))
                i += len(sym)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
