"""Tokenizer for YARA rule source text.

One master regular expression, a named group per token kind, reads the
source token by token; the loop dispatches on the group that matched and
counts the newlines between consecutive token starts for line numbers.
Letters and digits are matched as ASCII in the master; a non-ASCII
character falls through to the ``other`` group and is classified with
``str.isdigit`` and ``str.isalpha``, so non-ASCII source keeps the
classification the YARA reader has always used (``\\d`` is narrower than
``isdigit``: ``²`` is a digit only to the latter).  Word and identifier
tails use ``\\w``, which is exactly ``str.isalnum()`` or ``_``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.yarax.errors import YaraSyntaxError

# Token types
KEYWORD = "KEYWORD"
IDENTIFIER = "IDENTIFIER"
STRING_ID = "STRING_ID"        # $a
STRING_COUNT = "STRING_COUNT"  # #a
STRING_LITERAL = "STRING_LITERAL"
REGEX_LITERAL = "REGEX_LITERAL"
HEX_STRING = "HEX_STRING"
INTEGER = "INTEGER"
PUNCT = "PUNCT"
EOF = "EOF"

KEYWORDS = {
    "rule", "meta", "strings", "condition", "and", "or", "not", "any", "all",
    "of", "them", "true", "false", "filesize", "nocase", "wide", "ascii",
    "fullword", "import", "private", "global", "at", "in",
}

# Group 1 takes the blanks and comments before a token; the token's
# alternatives are then tried in order.  A string or regex body is read
# greedily and its closing delimiter is optional, so the body never
# backtracks and a missing delimiter is reported, not re-read as
# punctuation.  In a string ``\x`` takes the next two characters whatever
# they are and any other backslash takes one; in a regex every backslash
# takes one.
_MASTER = re.compile(
    r"""
    ((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)
    (?:
      (?P<word>[A-Za-z_]\w*)
    | (?P<punct><=|>=|==|!=|\.\.|[{}():=,<>*\[\]-])
    | (?P<string_id>\$\w*\*?)
    | (?P<string>"(?:[^"\\\n]+|\\x.{0,2}|\\.?)*)(?P<string_end>")?
    | (?P<open_comment>/\*)
    | (?P<regex>/(?:[^/\\\n]+|\\.?)*)(?P<regex_end>/[is]*)?
    | (?P<string_count>\#\w*\*?)
    | (?P<hex_integer>0[xX][0-9a-fA-F]*)
    | (?P<integer>[0-9]+)
    | (?P<end>\Z)
    | (?P<other>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_STRING_ESCAPE = re.compile(r"\\(x.{0,2}|.?)", re.DOTALL)
_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_WORD_TAIL = re.compile(r"\w*")


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type}, {self.value!r}, line={self.line})"


def _position(source: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset`` (both 1-based; every character is one column)."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _integer_end(source: str, index: int) -> int:
    """Index past an integer whose digits continue at ``index``: any further
    ``isdigit`` characters, then an optional ``KB``/``MB`` multiplier."""
    end = len(source)
    while index < end and source[index].isdigit():
        index += 1
    if source.startswith(("KB", "MB"), index):
        index += 2
    return index


def _unescape(source: str, start: int, stop: int) -> str:
    """The value of the string literal body ``source[start:stop]``."""
    body = source[start:stop]
    if "\\" not in body:
        return body

    def replace(escape: re.Match) -> str:
        escaped = escape.group(1)
        if escaped[:1] == "x":
            code = escaped[1:]
            try:
                return chr(int(code, 16))
            except ValueError as exc:
                line, column = _position(source, start + escape.end())
                raise YaraSyntaxError(
                    f"invalid hex escape: \\x{code}", line=line, column=column
                ) from exc
        simple = _SIMPLE_ESCAPES.get(escaped)
        return simple if simple is not None else "\\" + escaped

    return _STRING_ESCAPE.sub(replace, body)


def tokenize(source: str) -> list[Token]:
    """Tokenize YARA source text into an EOF-terminated token list."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    counted = 0  # the newlines before this offset are counted in ``line``
    # '{' opens a hex string only right after '=' (comments and blanks
    # between them do not count as tokens)
    previous_was_assign = False
    while True:
        found = match(source, pos)
        start = found.end(1)
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        kind = found.lastgroup
        if kind == "end":
            break
        stop = found.end()
        value = source[start:stop]
        if kind == "word":
            token_type = KEYWORD if value in KEYWORDS else IDENTIFIER
        elif kind == "punct":
            token_type = PUNCT
            if value == "{" and previous_was_assign:
                close = source.find("}", start + 1)
                if close == -1:
                    raise YaraSyntaxError("unterminated hex string", line=line)
                value = source[start + 1 : close].strip()
                token_type = HEX_STRING
                stop = close + 1
        elif kind == "string_id":
            token_type = STRING_ID
        elif kind == "string" or kind == "string_end":
            value = _unescape(source, start + 1, found.end("string"))
            if kind == "string":
                raise YaraSyntaxError("unterminated string literal", line=line)
            token_type = STRING_LITERAL
        elif kind == "regex" or kind == "regex_end":
            if kind == "regex":
                raise YaraSyntaxError("unterminated regular expression", line=line)
            value = source[start + 1 : found.end("regex")]
            flags = source[found.start("regex_end") + 1 : stop]
            if flags:  # folded into an inline flag group Python's re understands
                value = f"(?{flags})" + value
            token_type = REGEX_LITERAL
        elif kind == "string_count":
            token_type = STRING_COUNT
        elif kind == "hex_integer":
            token_type = INTEGER
        elif kind == "open_comment":
            raise YaraSyntaxError("unterminated block comment", line=line)
        elif kind == "integer" or value.isdigit():  # or a non-ASCII digit
            stop = _integer_end(source, stop)
            value = source[start:stop]
            token_type = INTEGER
        elif value.isalpha():  # a non-ASCII letter starts a word
            stop = _WORD_TAIL.match(source, stop).end()
            value = source[start:stop]
            token_type = KEYWORD if value in KEYWORDS else IDENTIFIER
        else:
            raise YaraSyntaxError(
                f"unexpected character: {value!r}", line=line, column=column
            )
        append(Token(token_type, value, line, column))
        previous_was_assign = token_type == PUNCT and value == "="
        pos = stop
    append(Token(EOF, "", line, column))
    return tokens
