"""The compiled lexer against the per-character lexer it replaced.

``repro.sql.tokens.tokenize`` is one compiled alternation;
``tests/reference_tokens.py`` is the loop it replaced, kept verbatim. For
any text the two must agree on the token stream — kinds, texts, positions —
or on the error message, position included.
"""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import tokens
from repro.sql.tokens import tokenize
from repro.workloads import tpcds_lite, tpch_lite

from tests.reference_tokens import reference_tokenize

_FRAGMENTS = [
    "SELECT", "from", "Where", "in", "NOT", "date", "x", "_y1", "tbl.col", "é", "ß", "Ⅷ",
    "0", "42", "1e5", "1E+5", "1e-", "1e", ".5", "5.", "1.5.2", "1..2", "3.e2", "٣", "²", "1²", "½",
    "'a'", "'it''s'", "''", "'''", "'", "'a\nb'", "`q r`", "``", "`", "`a\nb",
    "--", "-- c\n", "--'\n", "-", "- -",
    "<=", ">=", "!=", "<>", "||", "|", "!", "(", ")", ",", ".", "*", "+", "/", "%", "<", ">", "=", ";",
    " ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85", " ", " ", "@", "#", "\\", '"', "\x00",
]

sql_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.characters(), st.text(max_size=4)),
    max_size=24,
).map("".join)


def outcome(lexer, text):
    try:
        return lexer(text)
    except SqlSyntaxError as exc:
        return str(exc)


@settings(deadline=None)
@given(sql_text)
def test_same_tokens_or_same_error_as_the_reference(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize(
    "text",
    [
        "", "  ", "a  ", "a -- trailing", "a\n--", "'abc", "'abc''", "'''", "`abc",
        "1e5.3", "1.e5e", "12abc", "12½", "½a", "a½", "²3", "1²", "x\x1cy", "a\ud800",
        "x IN (" + ", ".join(map(str, range(300))) + ")",
    ],
)
def test_reference_cases(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_workload_statements():
    for sql in [*tpch_lite.queries().values(), *tpcds_lite.queries().values()]:
        assert tokenize(sql) == reference_tokenize(sql)


def test_trailing_whitespace_is_linear():
    # One eof match, not one failed attempt per trailing character.
    assert len(tokenize("a" + " " * 200_000)) == 2


def test_character_classes_are_the_interpreters():
    """The pattern's classes against ``str``'s predicates, which the
    reference uses, over every code point of the running interpreter."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(tokens._DIGIT, every)) == {c for c in every if c.isdigit()}
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}
    assert set(re.findall(r"\w", every)) == {c for c in every if c.isalnum() or c == "_"}
