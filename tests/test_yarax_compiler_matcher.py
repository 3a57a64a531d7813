"""Tests for YARA compilation semantics and matching."""

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.faults import FaultInjector
from repro.utils.seeding import DeterministicRandom
from repro.yarax import YaraCompilationError, compile_source
from repro.yarax import ast_nodes as ast
from repro.yarax.compiler import scan_many, try_compile
from repro.yarax.matcher import CompiledString


def compile_one(body: str):
    return compile_source(body)


def test_undefined_string_in_condition_is_an_error():
    with pytest.raises(YaraCompilationError, match="undefined string"):
        compile_one('rule x { strings: $a = "v" condition: $b }')


def test_unreferenced_strings_without_of_them_is_an_error():
    with pytest.raises(YaraCompilationError, match="unreferenced string"):
        compile_one('rule x { strings: $a = "v" $b = "w" condition: true }')


def test_missing_condition_is_an_error():
    with pytest.raises(YaraCompilationError, match="missing condition"):
        compile_one('rule x { strings: $a = "v" }')


def test_duplicate_rule_name_is_an_error():
    source = ('rule x { strings: $a = "v" condition: $a }\n'
              'rule x { strings: $a = "w" condition: $a }')
    with pytest.raises(YaraCompilationError, match="duplicated rule"):
        compile_one(source)


def test_duplicate_string_identifier_is_an_error():
    with pytest.raises(YaraCompilationError, match="duplicated string"):
        compile_one('rule x { strings: $a = "v" $a = "w" condition: any of them }')


def test_invalid_regex_is_an_error():
    with pytest.raises(YaraCompilationError, match="regular expression"):
        compile_one('rule x { strings: $a = /([A-Z/ condition: $a }')


def test_invalid_hex_string_is_an_error():
    with pytest.raises(YaraCompilationError):
        compile_one('rule x { strings: $a = { ZZ XX } condition: $a }')


def test_text_string_matching_and_offsets():
    rules = compile_one('rule x { strings: $a = "needle" condition: $a }')
    match = rules.rules[0].match("hay needle hay needle")
    assert match is not None
    assert len(match.string_matches) == 2
    assert match.string_matches[0].offset == 4


def test_nocase_modifier():
    rules = compile_one('rule x { strings: $a = "Token" nocase condition: $a }')
    assert rules.match("TOKEN in caps")
    assert not compile_one('rule x { strings: $a = "Token" condition: $a }').match("TOKEN")


def test_fullword_modifier():
    rules = compile_one('rule x { strings: $a = "cat" fullword condition: $a }')
    assert rules.match("a cat sat")
    assert not rules.match("concatenate")


def test_regex_string_matching():
    rules = compile_one(r'rule x { strings: $a = /AKIA[0-9A-Z]{8}/ condition: $a }')
    assert rules.match('key = "AKIA12345678"')
    assert not rules.match("key = nothing")


def test_hex_string_matching_with_wildcards():
    rules = compile_one('rule x { strings: $a = { 41 ?? 43 } condition: $a }')
    assert rules.match("xxAbCxx".replace("b", "B"))  # bytes 0x41 ?? 0x43 => 'A', any, 'C'
    assert rules.match("AZC")
    assert not rules.match("AC")


def test_of_them_quantifiers():
    source = 'rule x { strings: $a = "one" $b = "two" $c = "three" condition: 2 of them }'
    rules = compile_one(source)
    assert rules.match("one and two")
    assert not rules.match("only one")


def test_of_prefix_wildcard_set():
    source = ('rule x { strings: $net0 = "socket" $net1 = "connect" $other = "zzz" '
              'condition: all of ($net*) }')
    rules = compile_one(source)
    assert rules.match("socket then connect")
    assert not rules.match("socket only")


def test_count_comparison():
    rules = compile_one('rule x { strings: $a = "hit" condition: #a >= 3 }')
    assert rules.match("hit hit hit")
    assert not rules.match("hit hit")


def test_filesize_condition():
    rules = compile_one('rule x { strings: $a = "x" condition: $a and filesize < 10 }')
    assert rules.match("x")
    assert not rules.match("x" * 50)


def test_not_and_boolean_literals():
    rules = compile_one('rule x { strings: $a = "bad" condition: not $a and true }')
    assert rules.match("all good here")
    assert not rules.match("bad stuff")


def test_ruleset_match_returns_all_matching_rules():
    source = ('rule a { strings: $x = "alpha" condition: $x }\n'
              'rule b { strings: $y = "beta" condition: $y }')
    rules = compile_one(source)
    names = {m.rule_name for m in rules.match("alpha beta")}
    assert names == {"a", "b"}


def test_try_compile_success_and_failure():
    ok, err = try_compile('rule x { strings: $a = "v" condition: $a }')
    assert ok is not None and err is None
    bad, err = try_compile('rule x { strings: $a = "v" condition: $missing }')
    assert bad is None and "undefined string" in err


def test_scan_many_preserves_order():
    rules = compile_one('rule x { strings: $a = "mark" condition: $a }')
    results = scan_many(rules, ["no", "mark here", "no"])
    assert [len(r) for r in results] == [0, 1, 0]


def test_extend_rejects_duplicate_names():
    a = compile_one('rule x { strings: $a = "v" condition: $a }')
    b = compile_one('rule x { strings: $a = "w" condition: $a }')
    with pytest.raises(YaraCompilationError):
        a.extend(b)


# -- pinned compiler messages -------------------------------------------------------
# The alignment agent repairs rules from these texts, so they are recorded
# verbatim and must not drift when compilation changes.

_FAULT_SOURCES = [
    (
        'rule fault_one\n{\n    strings:\n        $a = "exec(base64"\n'
        '        $b = /eval\\(.{0,20}\\)/\n    condition:\n        any of them\n}\n',
        'compilation error: rule "fault_one": invalid regular expression in string $b: '
        "unterminated character set at position 1",
    ),
    (
        'rule fault_two\n{\n    strings:\n        $a = "subprocess.Popen"\n'
        "    condition:\n        $a\n}\n",
        'compilation error: rule "fault_two": invalid regular expression in string $broken: '
        "unterminated character set at position 1",
    ),
]


@pytest.mark.parametrize("source, message", _FAULT_SOURCES)
def test_try_compile_message_on_injected_bad_regex(source, message):
    broken = FaultInjector(DeterministicRandom(0)).apply_yara_fault(source, "bad_regex")
    assert try_compile(broken) == (None, message)


@pytest.mark.parametrize(
    "pattern, reason",
    [
        ("/a(b/", "missing ), unterminated subpattern at position 1"),
        ("/[z-a]/", "bad character range z-a at position 1"),
        ("/a**/", "multiple repeat at position 2"),
        ("/x{2,1}/", "min repeat greater than max repeat at position 2"),
        ("/\\p/", "bad escape \\p at position 0"),
        ("/(?<=a+)b/", "look-behind requires fixed-width pattern"),
        ("/[/", "unterminated character set at position 0"),
        ("/)/", "unbalanced parenthesis at position 0"),
        ("/a{1,2}{3}/", "multiple repeat at position 6"),
    ],
)
def test_try_compile_message_on_invalid_regex(pattern, reason):
    source = "rule bad_re { strings: $r = %s condition: $r }" % pattern
    assert try_compile(source) == (
        None,
        'compilation error: rule "bad_re": invalid regular expression in string $r: '
        + reason,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.text(min_size=1, max_size=24),
    st.sets(st.sampled_from(["nocase", "wide", "ascii", "fullword"])),
)
def test_text_string_pattern_always_compiles(value, modifiers):
    """A text string's pattern is built from ``re.escape`` pieces, so it
    compiles for every value and modifier set and finds its own value."""
    definition = ast.StringDef("$t", ast.TEXT, value, modifiers=tuple(sorted(modifiers)))
    compiled = CompiledString(definition, "text_rule")
    assert compiled.search(value)
    assert compiled.find(value)


# -- hex strings and repeat overflow --------------------------------------------------


def _hex_rule(body: str) -> str:
    return "rule h { strings: $h = %s condition: $h }" % body


@pytest.mark.parametrize(
    "body, reason",
    [
        ("{ 41 [a-b] 42 }", "invalid jump in hex string $h"),
        ("{ 41 [3-2] 42 }", "invalid jump in hex string $h"),
        ("{ 41 [-3] 42 }", "invalid jump in hex string $h"),
        ("{ 41 [] 42 }", "invalid jump in hex string $h"),
        ("{ 41 [2 42 }", "unterminated jump in hex string $h"),
        (
            "{ 41 [99999999999] 42 }",
            "invalid regular expression in string $h: the repetition number is too large",
        ),
    ],
)
def test_malformed_hex_jumps_are_compilation_errors(body, reason):
    assert try_compile(_hex_rule(body)) == (None, f'compilation error: rule "h": {reason}')


def test_repeat_overflow_is_a_compilation_error():
    with pytest.raises(YaraCompilationError) as caught:
        compile_one("rule r { strings: $a = /a{99999999999}/ condition: $a }")
    assert str(caught.value) == (
        'compilation error: rule "r": invalid regular expression in string $a: '
        "the repetition number is too large"
    )


@pytest.mark.parametrize(
    "body, matching, missing",
    [
        ("{ 41 [2-] 42 }", ["AxxB", "AxxxxxxB"], ["AxB", "AB"]),
        ("{ 41 [-] 42 }", ["AB", "AxxxxB"], ["BA"]),
        ("{ 41 4? 43 }", ["A@C", "AOC", "AAC"], ["AZC", "A0C"]),
        ("{ 41 ?3 43 }", ["ASC", "A#C", "A\xf3C", "A\x03C"], ["ATC", "A4C"]),
    ],
)
def test_open_jumps_and_nibble_wildcards(body, matching, missing):
    rules = compile_one(_hex_rule(body))
    assert all(rules.match(text) for text in matching)
    assert not any(rules.match(text) for text in missing)


_OLD_LAYOUT_STRINGS = [
    ast.StringDef("$t", ast.TEXT, "needle"),
    ast.StringDef("$n", ast.TEXT, "Needle", modifiers=("nocase", "fullword")),
    ast.StringDef("$w", ast.TEXT, "wide", modifiers=("wide",)),
    ast.StringDef("$r", ast.REGEX, "(?i)ne+dle[0-9]*"),
    ast.StringDef("$h", ast.HEX, "6E ?? 65 [1-2] 6C"),
]


@pytest.mark.parametrize("definition", _OLD_LAYOUT_STRINGS, ids=lambda d: d.identifier)
def test_string_pickled_in_the_pre_lazy_layout_matches_like_a_fresh_one(
    definition, monkeypatch
):
    """Before lazy compilation a string pickled its instance ``__dict__``,
    compiled ``_regex`` included; that state still loads."""
    fresh = CompiledString(definition, "layout_rule")

    def old_layout(self):
        return {
            "definition": self.definition,
            "identifier": self.identifier,
            "_rule_name": self._rule_name,
            "_regex": re.compile(self._source, self._flags),
            "_plain_value": self._plain_value,
        }

    with monkeypatch.context() as patched:
        patched.setattr(CompiledString, "__getstate__", old_layout)
        blob = pickle.dumps(fresh)
    restored = pickle.loads(blob)
    assert restored.identifier == fresh.identifier
    assert restored._regex is not None
    assert restored.atoms() == fresh.atoms()
    for text in ("needle", "a NEEDLE b", "w\x00i\x00d\x00e", "neeedle42", "nXeXXl", ""):
        assert restored.search(text) == fresh.search(text)
        assert restored.find(text) == fresh.find(text)
    # and the current layout pickles the source, never the compiled pattern
    assert pickle.loads(pickle.dumps(restored))._regex is None
