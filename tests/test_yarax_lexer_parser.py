"""Tests for the YARA lexer and parser."""

import pytest

from repro.yarax import ast_nodes as ast
from repro.yarax.errors import YaraSyntaxError
from repro.yarax.lexer import tokenize
from repro.yarax.parser import parse_source

RULE = """
// a leading comment
import "pe"

rule demo_rule : tag1 tag2
{
    meta:
        description = "demo"
        score = 10
        active = true
    strings:
        $text = "hello world" nocase fullword
        $re = /https?:\\/\\/[a-z]+/
        $hex = { AB ?? CD [2-4] EF }
    condition:
        ($text and #re > 2) or any of ($hex, $re) or filesize < 100KB
}
"""


def test_tokenize_produces_eof_terminated_stream():
    tokens = tokenize('rule x { strings: $a = "v" condition: $a }')
    assert tokens[-1].type == "EOF"
    assert tokens[0].value == "rule"


def test_tokenize_tracks_line_numbers():
    tokens = tokenize("rule x\n{\n}")
    brace = [t for t in tokens if t.value == "{"][0]
    assert brace.line == 2


def test_tokenize_unterminated_string_raises():
    with pytest.raises(YaraSyntaxError):
        tokenize('rule x { strings: $a = "unterminated')


def test_tokenize_unterminated_regex_raises():
    with pytest.raises(YaraSyntaxError):
        tokenize("rule x { strings: $a = /abc")


def test_parse_full_rule_structure():
    rules = parse_source(RULE)
    assert len(rules) == 1
    rule = rules[0]
    assert rule.name == "demo_rule"
    assert rule.tags == ("tag1", "tag2")
    assert rule.meta == {"description": "demo", "score": 10, "active": True}
    assert [s.identifier for s in rule.strings] == ["$text", "$re", "$hex"]
    assert rule.strings[0].modifiers == ("nocase", "fullword")
    assert rule.strings[2].kind == ast.HEX
    assert rule.condition is not None


def test_parse_multiple_rules():
    source = 'rule a { strings: $x = "1" condition: $x }\nrule b { strings: $y = "2" condition: $y }'
    rules = parse_source(source)
    assert [r.name for r in rules] == ["a", "b"]


def test_parse_empty_source_raises():
    with pytest.raises(YaraSyntaxError):
        parse_source("   \n  ")


def test_parse_missing_brace_raises():
    with pytest.raises(YaraSyntaxError):
        parse_source('rule x { strings: $a = "v" condition: $a')


def test_parse_empty_strings_section_raises():
    with pytest.raises(YaraSyntaxError):
        parse_source("rule x { strings: condition: true }")


def test_parse_condition_operators():
    source = 'rule x { strings: $a = "1" $b = "2" condition: not $a and ($b or 2 of them) }'
    rule = parse_source(source)[0]
    assert isinstance(rule.condition, ast.AndExpr)


def test_parse_filesize_units():
    rule = parse_source('rule x { condition: filesize < 2MB }')[0]
    assert isinstance(rule.condition, ast.Comparison)
    assert rule.condition.right.value == 2 * 1024 * 1024


def test_referenced_strings_helper():
    rule = parse_source('rule x { strings: $a = "1" $b = "2" condition: $a and #b > 1 }')[0]
    assert ast.referenced_strings(rule.condition) == {"$a", "$b"}


def test_uses_them_helper():
    rule = parse_source('rule x { strings: $a = "1" condition: any of them }')[0]
    assert ast.uses_them(rule.condition)


def test_string_def_validation():
    with pytest.raises(ValueError):
        ast.StringDef("a", ast.TEXT, "missing dollar")
    with pytest.raises(ValueError):
        ast.StringDef("$a", "unknown-kind", "x")
    with pytest.raises(ValueError):
        ast.StringDef("$a", ast.TEXT, "x", modifiers=("bogus",))


# -- pinned token positions and error texts ---------------------------------------
# Recorded from the char-at-a-time lexer; any rewrite must reproduce them
# exactly, since the alignment agent reads these texts back.

POSITIONS_SOURCE = (
    "// header comment\r\n"
    "import \"pe\"\r\n"
    "/* a block\n"
    "   comment over\n"
    "   three lines */ rule\tdemo_rule : tag_a\n"
    "{\n"
    "\tmeta:\n"
    "\t\tscore = 10 ratio = 0x1F size = 2KB\n"
    "\tstrings:\n"
    "\t\t$s = \"tab\\there \\\"q\\\" \\x41\" nocase\r\n"
    "\t\t$r = /ab\\\ncd/is\n"
    "\t\t$h = { 4D 5A\n"
    "\t\t       ?? [2-4] }\n"
    "\tcondition:\n"
    "\t\t#s >= 2 and ($r or any of ($h*, $s)) and filesize <= 1MB /* x */ != 3\n"
    "\t\tand 1..2 [ ] -\n"
    "}\n"
)

POSITIONS_TOKENS = [
    ("KEYWORD", "import", 2, 1),
    ("STRING_LITERAL", "pe", 2, 8),
    ("KEYWORD", "rule", 5, 19),
    ("IDENTIFIER", "demo_rule", 5, 24),
    ("PUNCT", ":", 5, 34),
    ("IDENTIFIER", "tag_a", 5, 36),
    ("PUNCT", "{", 6, 1),
    ("KEYWORD", "meta", 7, 2),
    ("PUNCT", ":", 7, 6),
    ("IDENTIFIER", "score", 8, 3),
    ("PUNCT", "=", 8, 9),
    ("INTEGER", "10", 8, 11),
    ("IDENTIFIER", "ratio", 8, 14),
    ("PUNCT", "=", 8, 20),
    ("INTEGER", "0x1F", 8, 22),
    ("IDENTIFIER", "size", 8, 27),
    ("PUNCT", "=", 8, 32),
    ("INTEGER", "2KB", 8, 34),
    ("KEYWORD", "strings", 9, 2),
    ("PUNCT", ":", 9, 9),
    ("STRING_ID", "$s", 10, 3),
    ("PUNCT", "=", 10, 6),
    ("STRING_LITERAL", 'tab\there "q" A', 10, 8),
    ("KEYWORD", "nocase", 10, 31),
    ("STRING_ID", "$r", 11, 3),
    ("PUNCT", "=", 11, 6),
    ("REGEX_LITERAL", "(?is)ab\\\ncd", 11, 8),
    ("STRING_ID", "$h", 13, 3),
    ("PUNCT", "=", 13, 6),
    ("HEX_STRING", "4D 5A\n\t\t       ?? [2-4]", 13, 8),
    ("KEYWORD", "condition", 15, 2),
    ("PUNCT", ":", 15, 11),
    ("STRING_COUNT", "#s", 16, 3),
    ("PUNCT", ">=", 16, 6),
    ("INTEGER", "2", 16, 9),
    ("KEYWORD", "and", 16, 11),
    ("PUNCT", "(", 16, 15),
    ("STRING_ID", "$r", 16, 16),
    ("KEYWORD", "or", 16, 19),
    ("KEYWORD", "any", 16, 22),
    ("KEYWORD", "of", 16, 26),
    ("PUNCT", "(", 16, 29),
    ("STRING_ID", "$h*", 16, 30),
    ("PUNCT", ",", 16, 33),
    ("STRING_ID", "$s", 16, 35),
    ("PUNCT", ")", 16, 37),
    ("PUNCT", ")", 16, 38),
    ("KEYWORD", "and", 16, 40),
    ("KEYWORD", "filesize", 16, 44),
    ("PUNCT", "<=", 16, 53),
    ("INTEGER", "1MB", 16, 56),
    ("PUNCT", "!=", 16, 68),
    ("INTEGER", "3", 16, 71),
    ("KEYWORD", "and", 17, 3),
    ("INTEGER", "1", 17, 7),
    ("PUNCT", "..", 17, 8),
    ("INTEGER", "2", 17, 10),
    ("PUNCT", "[", 17, 12),
    ("PUNCT", "]", 17, 14),
    ("PUNCT", "-", 17, 16),
    ("PUNCT", "}", 18, 1),
    ("EOF", "", 19, 1),
]


def test_token_kinds_values_lines_and_columns():
    """Tabs and CR count one column each, CRLF ends a line, a block comment
    spans lines, and a backslash-newline stays inside a regex literal."""
    tokens = tokenize(POSITIONS_SOURCE)
    assert [(t.type, t.value, t.line, t.column) for t in tokens] == POSITIONS_TOKENS


@pytest.mark.parametrize(
    "source, message",
    [
        ('rule x { strings: $a = "abc',
         "syntax error (line 1): unterminated string literal"),
        ('rule x {\n strings:\n  $a = "abc\n" condition: $a }',
         "syntax error (line 3): unterminated string literal"),
        ("rule x { strings: $a = /abc",
         "syntax error (line 1): unterminated regular expression"),
        ("rule x {\n strings: $a = /abc\n/ }",
         "syntax error (line 2): unterminated regular expression"),
        ("rule x {\n strings:\n  $a = { 41 42",
         "syntax error (line 3): unterminated hex string"),
        ("rule x { } /* never\n closed",
         "syntax error (line 1): unterminated block comment"),
        ('rule x { strings: $a = "\\xZZ" }',
         "syntax error (line 1, column 29): invalid hex escape: \\xZZ"),
        ('rule x {\n\tstrings: $a = "ok \\x4" }',
         'syntax error (line 2, column 24): invalid hex escape: \\x4"'),
        ('rule x { strings: $a = "\\x',
         "syntax error (line 1, column 27): invalid hex escape: \\x"),
        ("rule x { condition: @ }",
         "syntax error (line 1, column 21): unexpected character: '@'"),
        ("rule x {\r\n\tcondition: true . }",
         "syntax error (line 2, column 18): unexpected character: '.'"),
        ("rule x { condition: \u00bd }",
         "syntax error (line 1, column 21): unexpected character: '\u00bd'"),
        ("rule x { condition: \x0c }",
         "syntax error (line 1, column 21): unexpected character: '\\x0c'"),
    ],
)
def test_lexer_error_texts(source, message):
    with pytest.raises(YaraSyntaxError) as caught:
        tokenize(source)
    assert str(caught.value) == message


def test_non_ascii_classification_follows_str_methods():
    """``isdigit`` (not ``\\d``) starts and continues an integer, ``isalpha``
    starts a word and ``isalnum`` continues words and string ids."""
    tokens = tokenize("\u00b2 1\u0663\u00b9KB \u00e9t\u00e9\u00b2 $\u00e9\u0663 x\u00bd")
    assert [(t.type, t.value) for t in tokens] == [
        ("INTEGER", "\u00b2"),
        ("INTEGER", "1\u0663\u00b9KB"),
        ("IDENTIFIER", "\u00e9t\u00e9\u00b2"),
        ("STRING_ID", "$\u00e9\u0663"),
        ("IDENTIFIER", "x\u00bd"),
        ("EOF", ""),
    ]
