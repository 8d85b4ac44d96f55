"""SQL lexer: text -> token stream."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL",
    "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "ON", "ASC", "DESC", "DISTINCT", "UNION", "ALL", "CASE",
    "WHEN", "THEN", "ELSE", "END", "CAST", "CREATE", "OR", "REPLACE",
    "TABLE", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "MERGE", "USING", "MATCHED", "TIMESTAMP", "DATE", "INTERVAL",
    "MODEL", "WITH", "COUNT", "EXCEPT", "IF", "EXISTS",
    "FOR", "SYSTEM_TIME", "OF", "OPTIONS", "REMOTE", "CONNECTION",
}

SYMBOLS = [
    "<=", ">=", "!=", "<>", "||", "(", ")", ",", ".", "*", "+", "-", "/",
    "%", "<", ">", "=", ";",
]


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    pos: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text in symbols


# ``str.isdigit`` is wider than ``\d`` (Unicode decimals): it also takes the
# superscripts, circled digits and the like. Unicode gives no new character
# Numeric_Type=Digit (UAX #44, since 6.3), so the list is closed;
# tests/test_sql_tokens.py checks it against the running interpreter.
_DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a]"
)

# One match per token: what separates tokens, then one alternative per
# token kind, tried in this order. No alternative can fail after it has
# consumed a character, so nothing backtracks: an unterminated string or
# quoted identifier matches to the end of the text with an empty closing
# group, and ``bad`` takes whatever nothing else does.
_TOKEN = re.compile(
    rf"""(?: \s+ | --[^\n]* )*
    (?: (?P<string>  '(?P<body>[^']*(?:''[^']*)*)(?P<close>'?) )
      | (?P<quoted>  `(?P<name>[^`]*)(?P<tick>`?) )
      | (?P<number>  (?:{_DIGIT}+\.?{_DIGIT}*|\.{_DIGIT}+)(?:[eE][+-]?{_DIGIT}*)? )
      | (?P<word>    (?!{_DIGIT})\w+ )
      | (?P<symbol>  {"|".join(map(re.escape, SYMBOLS))} )
      | (?P<eof>     \Z )
      | (?P<bad>     . )
    )""",
    re.VERBOSE,
)


def tokenize(sql: str) -> list[Token]:
    """Lex ``sql`` into tokens; raises :class:`SqlSyntaxError` on garbage."""
    tokens: list[Token] = []
    for m in _TOKEN.finditer(sql):
        kind = m.lastgroup
        text = m[kind]
        pos = m.end() - len(text)
        if kind == "word":
            # \w also takes the numeric letters (fractions, Roman numerals),
            # which start no identifier.
            if not (text[0].isalpha() or text[0] == "_"):
                raise SqlSyntaxError(f"unexpected character {text[0]!r} at position {pos}")
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, pos))
            else:
                tokens.append(Token(TokenKind.IDENT, text, pos))
        elif kind == "symbol":
            tokens.append(Token(TokenKind.SYMBOL, text, pos))
        elif kind == "number":
            tokens.append(Token(TokenKind.NUMBER, text, pos))
        elif kind == "string":
            if not m["close"]:
                raise SqlSyntaxError(f"unterminated string literal at {pos}")
            tokens.append(Token(TokenKind.STRING, m["body"].replace("''", "'"), pos))
        elif kind == "quoted":
            if not m["tick"]:
                raise SqlSyntaxError(f"unterminated quoted identifier at {pos}")
            tokens.append(Token(TokenKind.IDENT, m["name"], pos))
        elif kind == "eof":
            break
        else:
            raise SqlSyntaxError(f"unexpected character {text!r} at position {pos}")
    tokens.append(Token(TokenKind.EOF, "", len(sql)))
    return tokens
