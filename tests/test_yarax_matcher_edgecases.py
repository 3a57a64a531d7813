"""Matcher edge cases that feed the scanserve prefilter index.

The index assumes specific matcher semantics (empty strings rejected at
compile time, ``nocase`` folding, non-overlapping ``finditer`` occurrences
but overlapping *atom* hits); these tests pin those behaviours down, plus a
property test that indexed scanning is identical to naive scanning.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scanserve import RuleIndex
from repro.yarax import YaraCompilationError, YaraError, compile_source
from repro.yarax.serializer import YaraRuleBuilder

_slow = settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)


class TestEmptyStrings:
    def test_empty_text_string_is_a_compile_error(self):
        with pytest.raises(YaraCompilationError, match="empty value"):
            compile_source('rule r { strings: $a = "" condition: $a }')

    def test_empty_regex_source_is_rejected(self):
        with pytest.raises(YaraError):
            compile_source("rule r { strings: $a = // condition: $a }")

    def test_empty_regex_definition_is_a_compile_error(self):
        from repro.yarax import ast_nodes as ast
        from repro.yarax.matcher import CompiledString

        definition = ast.StringDef(identifier="$a", kind=ast.REGEX, value="")
        with pytest.raises(YaraCompilationError, match="empty regular expression"):
            CompiledString(definition, "r")


class TestNocase:
    def test_nocase_matches_any_casing(self):
        ruleset = compile_source(
            'rule r { strings: $a = "PowerShell" nocase condition: $a }'
        )
        for haystack in ("powershell -enc", "POWERSHELL", "PoWeRsHeLl"):
            assert ruleset.match(haystack), haystack
        assert not ruleset.match("power shell")

    def test_case_sensitive_without_nocase(self):
        ruleset = compile_source('rule r { strings: $a = "PowerShell" condition: $a }')
        assert ruleset.match("PowerShell")
        assert not ruleset.match("powershell")

    def test_nocase_rule_is_indexed_and_parity_holds(self):
        ruleset = compile_source(
            'rule r { strings: $a = "PowerShell" nocase condition: $a }'
        )
        index = RuleIndex(yara=ruleset)
        assert index.stats().yara_indexed == 1
        for haystack in ("powershell", "POWERSHELL", "PowerShell", "nothing here"):
            naive = [m.rule_name for m in ruleset.match(haystack)]
            assert naive == index.yara_rule_names(haystack), haystack

    def test_case_sensitive_rule_prefilter_is_only_a_prefilter(self):
        """The index is case-insensitive; the full evaluation is not."""
        ruleset = compile_source('rule r { strings: $a = "Secret" condition: $a }')
        index = RuleIndex(yara=ruleset)
        # 'secret' makes the rule a candidate but full evaluation rejects it
        assert index.candidate_yara_rules("secret stuff")
        assert index.yara_rule_names("secret stuff") == []
        assert index.yara_rule_names("Secret stuff") == ["r"]


class TestOverlappingMatches:
    def test_occurrences_are_non_overlapping(self):
        """finditer semantics: 'aaaa' contains two non-overlapping 'aa'."""
        ruleset = compile_source('rule r { strings: $a = "aa" condition: #a == 2 }')
        assert ruleset.match("aaaa")
        assert not ruleset.match("aaa")  # second 'aa' would overlap

    def test_overlapping_strings_all_fire(self):
        ruleset = compile_source(
            "rule r { strings: "
            '$a = "she" $b = "he" $c = "hers" '
            "condition: all of them }"
        )
        matches = ruleset.match("ushers")
        assert matches
        assert {m.identifier for m in matches[0].string_matches} == {"$a", "$b", "$c"}

    def test_overlapping_strings_parity_with_index(self):
        ruleset = compile_source(
            "rule overlap { strings: "
            '$a = "she" $b = "he" $c = "hers" '
            "condition: all of them }"
        )
        index = RuleIndex(yara=ruleset, min_atom_length=2)
        naive = ruleset.match("ushers")
        assert [m.rule_name for m in naive] == index.yara_rule_names("ushers") == ["overlap"]

    def test_count_of_overlapping_occurrences(self):
        ruleset = compile_source('rule r { strings: $a = "aba" condition: #a >= 2 }')
        # 'ababa' holds two overlapping 'aba' but finditer reports one
        assert not ruleset.match("ababa")
        assert ruleset.match("abaaba")


class TestFullwordAndModifierCombos:
    def test_fullword_boundaries(self):
        ruleset = compile_source(
            'rule r { strings: $a = "eval" fullword condition: $a }'
        )
        assert ruleset.match("x = eval(y)")
        assert not ruleset.match("medieval times")

    def test_nocase_fullword_combination(self):
        ruleset = compile_source(
            'rule r { strings: $a = "eval" nocase fullword condition: $a }'
        )
        assert ruleset.match("EVAL(x)")
        assert not ruleset.match("primEVAL(x)")


@_slow
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=10,
        ).filter(lambda s: s.strip()),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.text(max_size=200),
)
def test_property_indexed_scan_identical_to_naive(values, nocase, haystack):
    """Indexed and naive scanning agree on arbitrary rules and haystacks."""
    builder = YaraRuleBuilder("prop_rule")
    for value in values:
        builder.text_string(value, nocase=nocase)
    builder.condition_any_of_them()
    ruleset = compile_source(builder.to_source())
    index = RuleIndex(yara=ruleset)
    naive = ruleset.match(haystack)
    assert [m.rule_name for m in naive] == index.yara_rule_names(haystack)
