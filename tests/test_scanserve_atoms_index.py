"""Atom extraction and the prefilter index: unit tests plus corpus parity."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scanserve import (
    PackedAutomaton,
    RuleIndex,
    guaranteed_identifiers,
    semgrep_rule_atoms,
    yara_rule_atoms,
)
from repro.semgrepx import compile_yaml
from repro.yarax import compile_source
from repro.yarax.matcher import required_literal_runs

_slow = settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None)


def _compile_one(source: str):
    return compile_source(source).rules[0]


# -- required_literal_runs ----------------------------------------------------------


class TestRequiredLiteralRuns:
    def test_plain_literal(self):
        assert required_literal_runs("subprocess") == ["subprocess"]

    def test_escaped_literals_are_decoded(self):
        assert required_literal_runs(r"os\.system") == ["os.system"]

    def test_alternation_defeats_the_guarantee(self):
        assert required_literal_runs("curl|wget") == []

    def test_optional_char_splits_the_run(self):
        assert required_literal_runs("abc?def") == ["ab", "def"]

    def test_star_and_class_break_runs(self):
        assert required_literal_runs(r"eval\s*\(base64") == ["eval", "(base64"]
        assert required_literal_runs("foo[abc]bar") == ["foo", "bar"]

    def test_plus_keeps_first_occurrence(self):
        assert required_literal_runs("ab+c") == ["ab", "c"]

    def test_counted_repetition(self):
        assert required_literal_runs("ab{2,3}c") == ["ab", "c"]
        assert required_literal_runs("ab{0,3}c") == ["a", "c"]

    def test_group_contents_are_not_required(self):
        assert required_literal_runs("(foo)?bar") == ["bar"]
        assert required_literal_runs(r"(?:https?://)host") == ["host"]

    def test_only_wildcards_gives_nothing(self):
        assert required_literal_runs(r"\w+\d*") == []

    def test_hex_escape(self):
        assert required_literal_runs(r"\x41\x42\x43") == ["ABC"]

    def test_nongreedy_quantifiers(self):
        assert required_literal_runs("ab*?cd") == ["a", "cd"]


# -- CompiledString.atoms -----------------------------------------------------------


class TestCompiledStringAtoms:
    def test_text_string_atom_is_its_value(self):
        rule = _compile_one(
            'rule r { strings: $a = "subprocess.Popen" condition: $a }'
        )
        assert rule.strings[0].atoms() == ("subprocess.Popen",)

    def test_nocase_string_is_flagged_case_insensitive(self):
        rule = _compile_one('rule r { strings: $a = "EvAl" nocase condition: $a }')
        assert rule.strings[0].search("x = EVAL(y)")
        assert rule.strings[0].atoms() == ("EvAl",)

    def test_fullword_keeps_the_literal(self):
        rule = _compile_one('rule r { strings: $a = "token" fullword condition: $a }')
        assert rule.strings[0].atoms() == ("token",)

    def test_wide_string_has_no_usable_atom(self):
        rule = _compile_one('rule r { strings: $a = "secret" wide condition: $a }')
        assert rule.strings[0].atoms() == ()

    def test_regex_string_literal_extraction(self):
        rule = _compile_one(
            r'rule r { strings: $a = /requests\.get\(.{0,40}token/ condition: $a }'
        )
        atoms = rule.strings[0].atoms()
        assert "requests.get(" in atoms
        assert "token" in atoms

    def test_hex_string_atoms(self):
        rule = _compile_one("rule r { strings: $a = { 41 42 43 ?? 44 } condition: $a }")
        assert rule.strings[0].atoms() == ("ABC",)

    def test_min_length_filters_short_runs(self):
        rule = _compile_one('rule r { strings: $a = "ab" condition: $a }')
        assert rule.strings[0].atoms(min_length=3) == ()
        assert rule.strings[0].atoms(min_length=2) == ("ab",)


# -- guaranteed_identifiers ---------------------------------------------------------


class TestGuaranteedIdentifiers:
    def _guaranteed(self, source: str):
        rule = _compile_one(source)
        return guaranteed_identifiers(
            rule.ast.condition, [cs.identifier for cs in rule.strings]
        )

    def test_single_reference(self):
        got = self._guaranteed('rule r { strings: $a = "xxx" condition: $a }')
        assert got == {"$a"}

    def test_or_needs_every_branch(self):
        got = self._guaranteed(
            'rule r { strings: $a = "xxx" $b = "yyy" condition: $a or $b }'
        )
        assert got == {"$a", "$b"}

    def test_and_needs_any_branch(self):
        got = self._guaranteed(
            'rule r { strings: $a = "xxx" $b = "yyy" condition: $a and $b }'
        )
        assert got in ({"$a"}, {"$b"})

    def test_any_of_them(self):
        got = self._guaranteed(
            'rule r { strings: $a = "xxx" $b = "yyy" condition: any of them }'
        )
        assert got == {"$a", "$b"}

    def test_wildcard_of_set(self):
        got = self._guaranteed(
            'rule r { strings: $net1 = "xxx" $net2 = "yyy" condition: any of ($net*) }'
        )
        assert got == {"$net1", "$net2"}

    def test_count_comparison(self):
        got = self._guaranteed('rule r { strings: $a = "xxx" condition: #a > 2 }')
        assert got == {"$a"}

    def test_negation_gives_no_guarantee(self):
        got = self._guaranteed(
            'rule r { strings: $a = "xxx" $b = "yyy" condition: $a or not $b }'
        )
        assert got is None

    def test_filesize_only_condition(self):
        rule = _compile_one("rule r { condition: filesize > 10 }")
        assert guaranteed_identifiers(rule.ast.condition, []) is None


# -- rule-level atoms ---------------------------------------------------------------


class TestRuleAtoms:
    def test_indexable_yara_rule(self):
        rule = _compile_one(
            'rule r { strings: $a = "base64.b64decode" $b = "exec(" '
            "condition: any of them }"
        )
        atoms = yara_rule_atoms(rule)
        assert atoms.indexable
        assert set(atoms.atoms) == {"base64.b64decode", "exec("}

    def test_atoms_are_lowercased(self):
        rule = _compile_one('rule r { strings: $a = "PowerShell" condition: $a }')
        assert yara_rule_atoms(rule).atoms == ("powershell",)

    def test_condition_without_string_guarantee_falls_back(self):
        rule = _compile_one(
            'rule r { strings: $a = "xxxx" condition: $a or filesize > 100 }'
        )
        atoms = yara_rule_atoms(rule)
        assert not atoms.indexable
        assert "without any string match" in atoms.reason

    def test_string_without_literal_falls_back(self):
        rule = _compile_one(r"rule r { strings: $a = /\w+\d+/ condition: $a }")
        atoms = yara_rule_atoms(rule)
        assert not atoms.indexable
        assert "$a" in atoms.reason

    def test_semgrep_anchor_rule(self):
        ruleset = compile_yaml(
            """
rules:
  - id: osd
    languages: [python]
    message: os.system call
    severity: WARNING
    pattern: os.system($CMD)
"""
        )
        atoms = semgrep_rule_atoms(ruleset.rules[0])
        assert atoms.indexable
        assert "system" in atoms.atoms

    def test_semgrep_regex_only_rule(self):
        ruleset = compile_yaml(
            """
rules:
  - id: rx
    languages: [python]
    message: suspicious token
    severity: WARNING
    pattern-regex: "secret_[a-z]+_key"
"""
        )
        atoms = semgrep_rule_atoms(ruleset.rules[0])
        assert atoms.indexable
        assert atoms.atoms == ("secret_",)

    def test_semgrep_metavariable_only_pattern_falls_back(self):
        ruleset = compile_yaml(
            """
rules:
  - id: mv
    languages: [python]
    message: any call
    severity: WARNING
    pattern: $F($X)
"""
        )
        atoms = semgrep_rule_atoms(ruleset.rules[0])
        assert not atoms.indexable


# -- semgrep required anchor sets (all-of semantics) --------------------------------


def _semgrep_rule(rule_id: str, body: str):
    return compile_yaml(
        f"""
rules:
  - id: {rule_id}
    languages: [python]
    message: test rule
    severity: WARNING
{body}
"""
    ).rules[0]


class TestSemgrepRequiredAnchorSets:
    def test_single_pattern_requires_all_anchors(self):
        rule = _semgrep_rule("osd", "    pattern: os.system($CMD)")
        atoms = semgrep_rule_atoms(rule)
        assert atoms.indexable
        assert atoms.required_sets == (("os", "system"),)
        # one representative atom per set (the most selective literal)
        assert atoms.atoms == ("system",)

    def test_either_alternatives_form_separate_sets(self):
        rule = _semgrep_rule(
            "either",
            "    pattern-either:\n"
            "      - pattern: subprocess.run($X)\n"
            "      - pattern: os.popen($X)\n",
        )
        atoms = semgrep_rule_atoms(rule)
        assert atoms.indexable
        assert set(atoms.required_sets) == {("run", "subprocess"), ("os", "popen")}

    def test_patterns_conjunction_unions_anchors(self):
        rule = _semgrep_rule(
            "conj",
            "    patterns:\n"
            "      - pattern: marshal.loads($X)\n"
            "      - pattern: socket.socket(...)\n",
        )
        atoms = semgrep_rule_atoms(rule)
        assert atoms.indexable
        assert atoms.required_sets == (("loads", "marshal", "socket"),)

    def test_regex_runs_join_the_required_sets(self):
        rule = _semgrep_rule(
            "mixed",
            "    pattern: os.system($CMD)\n"
            '    pattern-regex: "secret_[a-z]+_key"\n',
        )
        atoms = semgrep_rule_atoms(rule)
        assert atoms.indexable
        assert ("os", "system") in atoms.required_sets
        assert ("_key", "secret_") in atoms.required_sets

    def test_anchorless_alternative_disables_indexing(self):
        rule = _semgrep_rule(
            "mv",
            "    pattern-either:\n"
            "      - pattern: os.system($CMD)\n"
            "      - pattern: $F($X)\n",  # matches any call: no prefilter
        )
        atoms = semgrep_rule_atoms(rule)
        assert not atoms.indexable

    def test_all_of_gate_skips_partial_anchor_presence(self):
        """A file containing only *some* anchors of a pattern is skipped —
        the upgrade over the old any-anchor prefilter."""
        from repro.semgrepx import ScanTarget

        rule = _semgrep_rule("osd", "    pattern: os.system($CMD)")
        index = RuleIndex(semgrep=_wrap_rules([rule]))
        # 'system' present but 'os' absent: candidacy fires, the gate kills it
        partial = ScanTarget.from_files("partial", [("a.py", "my_system = 1\n")])
        assert index.candidate_semgrep_rules(partial) == []
        assert index.match_semgrep(partial) == []
        # both anchors present: the rule is evaluated (and fires)
        full = ScanTarget.from_files("full", [("a.py", "import os\nos.system('x')\n")])
        assert [r.id for r in index.candidate_semgrep_rules(full)] == ["osd"]
        assert [f.rule_id for f in index.match_semgrep(full)] == ["osd"]

    def test_string_anchors_never_join_the_all_of_gate(self):
        """A string constant can be escape-spelled in matching source
        (``"\\x65vil..."``), so it must not be a required all-of member."""
        from repro.semgrepx import ScanTarget

        rule = _semgrep_rule("strc", '    pattern: foo("evilpayload")')
        assert rule.anchors == {"foo", "evilpayload"}
        atoms = semgrep_rule_atoms(rule)
        assert atoms.indexable
        assert atoms.required_sets == (("foo",),)  # identifiers only
        index = RuleIndex(semgrep=_wrap_rules([rule]))
        escaped = ScanTarget.from_files(
            "escaped", [("a.py", 'foo("\\x65vilpayload")\n')]
        )
        naive = _wrap_rules([rule]).match_target(escaped)
        assert [f.rule_id for f in naive] == ["strc"]
        assert index.match_semgrep(escaped) == naive  # parity preserved

    def test_string_only_pattern_degrades_to_any_of(self):
        """A mode with no identifier anchors falls back to the matcher's
        own any-of anchor semantics instead of an unsound all-of gate."""
        rule = _semgrep_rule("stronly", '    pattern: "\\"evilpayload\\""')
        atoms = semgrep_rule_atoms(rule)
        if rule.anchors:
            assert atoms.indexable
            assert all(len(s) == 1 for s in atoms.required_sets)
        else:
            assert not atoms.indexable

    def test_gate_parity_with_naive_matching(self):
        from repro.semgrepx import ScanTarget

        rules = _wrap_rules(
            [
                _semgrep_rule("osd", "    pattern: os.system($CMD)"),
                _semgrep_rule(
                    "either",
                    "    pattern-either:\n"
                    "      - pattern: subprocess.run($X)\n"
                    "      - pattern: os.popen($X)\n",
                ),
                _semgrep_rule("rx", '    pattern-regex: "secret_[a-z]+_key"'),
            ]
        )
        index = RuleIndex(semgrep=rules)
        sources = [
            "import os\nos.system('x')\n",
            "import subprocess\nsubprocess.run(['ls'])\n",
            "os.popen('whoami')\n",
            "token = 'secret_api_key'\n",
            "my_system = 1\nrun = 2\n",  # partial anchors only
            "print('clean')\n",
        ]
        for i, source in enumerate(sources):
            target = ScanTarget.from_files(f"t{i}", [("a.py", source)])
            assert rules.match_target(target) == index.match_semgrep(target)


def _wrap_rules(rules):
    from repro.semgrepx.compiler import CompiledSemgrepRuleSet

    return CompiledSemgrepRuleSet(rules=list(rules))


# -- atom matcher -------------------------------------------------------------------


def _reference(words, text):
    """Oracle: per-word Python substring check."""
    return {i for i, w in enumerate(dict.fromkeys(words)) if w in text}


class TestAtomMatcher:
    def test_overlapping_and_suffix_hits(self):
        automaton = PackedAutomaton(["he", "she", "his", "hers"])
        hits = {automaton.words[i] for i in automaton.find("ushers")}
        assert hits == {"she", "he", "hers"}

    def test_duplicate_words_are_merged(self):
        automaton = PackedAutomaton(["abc", "abc"])
        assert len(automaton) == 1

    def test_no_hits(self):
        automaton = PackedAutomaton(["abc"])
        assert automaton.find("zzzzzz") == set()

    @_slow
    @given(
        st.lists(
            st.text(alphabet="abcd", min_size=1, max_size=5), min_size=1, max_size=12
        ),
        st.lists(st.text(alphabet="abcd", max_size=120), max_size=6),
    )
    def test_automaton_matches_substring_scan(self, words, texts):
        automaton = PackedAutomaton(words)
        expected = [_reference(words, text) for text in texts]
        encoded = [text.encode("utf-8") for text in texts]
        assert automaton._find_substring(encoded) == expected
        assert automaton._find_joined(encoded) == expected
        assert automaton._find_walk(encoded) == expected
        assert automaton.find_batch(texts) == expected


# -- index parity -------------------------------------------------------------------


class TestRuleIndexParity:
    def test_candidates_are_a_superset_of_matches(self, compiled_yara, small_dataset):
        index = RuleIndex(yara=compiled_yara)
        for package in small_dataset.packages:
            text = package.all_text
            fired = {m.rule_name for m in compiled_yara.match(text)}
            candidates = {r.name for r in index.candidate_yara_rules(text)}
            assert fired <= candidates

    def test_yara_parity_over_full_corpus(self, compiled_yara, small_dataset):
        """Indexed scanning fires the *identical* rules, in rule order."""
        index = RuleIndex(yara=compiled_yara)
        for package in small_dataset.packages:
            text = package.all_text
            naive = compiled_yara.match(text)
            assert [m.rule_name for m in naive] == index.yara_rule_names(text)

    def test_semgrep_parity_over_full_corpus(self, compiled_semgrep, small_dataset):
        from repro.semgrepx import ScanTarget

        index = RuleIndex(semgrep=compiled_semgrep)
        for package in small_dataset.packages:
            target = ScanTarget.from_package(package)
            assert compiled_semgrep.match_target(target) == index.match_semgrep(target)

    def test_stats_report_index_coverage(self, compiled_yara, compiled_semgrep):
        index = RuleIndex(yara=compiled_yara, semgrep=compiled_semgrep)
        stats = index.stats()
        assert stats.yara_rules == len(compiled_yara.rules)
        assert stats.semgrep_rules == len(compiled_semgrep.rules)
        assert 0 < stats.indexed_fraction <= 1
        assert stats.atoms > 0
        assert sum(not atoms.indexable for atoms in index.rule_atoms) == (
            stats.yara_rules - stats.yara_indexed
        ) + (stats.semgrep_rules - stats.semgrep_indexed)

    def test_nonindexable_rule_still_fires_through_fallback(self):
        ruleset = compile_source(
            'rule sizey { strings: $a = "zzzz" condition: $a or filesize > 5 }'
        )
        index = RuleIndex(yara=ruleset)
        assert not index.stats().yara_indexed
        assert index.yara_rule_names("tiny but >5") == ["sizey"]

    @_slow
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1,
                max_size=12,
            ).filter(lambda s: s.strip()),
            min_size=1,
            max_size=5,
        ),
        st.text(max_size=300),
    )
    def test_property_indexed_equals_naive(self, values, haystack):
        """Rules built from arbitrary printable strings: indexed == naive."""
        from repro.yarax.serializer import YaraRuleBuilder

        builder = YaraRuleBuilder("prop_rule")
        for value in values:
            builder.text_string(value)
        builder.condition_any_of_them()
        ruleset = compile_source(builder.to_source())
        index = RuleIndex(yara=ruleset)
        naive = ruleset.match(haystack)
        assert [m.rule_name for m in naive] == index.yara_rule_names(haystack)
