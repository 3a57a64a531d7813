"""Tests for basic-unit extraction, prompt rendering and the alignment agent."""

import pytest

from repro.core.agent import AgentMemory, AlignmentAgent, semgrep_compiler_tool, yara_compiler_tool
from repro.core.basic_units import extract_basic_units, split_basic_units
from repro.core.config import RuleLLMConfig
from repro.core.prompts import (
    render_craft_prompt,
    render_direct_prompt,
    render_fix_prompt,
    render_refine_prompt,
)
from repro.llm import protocol
from repro.llm.profiles import ORACLE
from repro.llm.simulated import SimulatedAnalystLLM

SOURCE = '''
import os

CONSTANT = 1


def first_function():
    return CONSTANT


class Thing:
    def method(self):
        return 2


for index in range(3):
    print(index)
'''


# -- basic units -------------------------------------------------------------------

def test_split_basic_units_finds_blocks():
    units = split_basic_units(SOURCE)
    assert any(unit.startswith("def first_function") for unit in units)
    assert any(unit.startswith("class Thing") for unit in units)
    assert any(unit.startswith("for index") for unit in units)


def test_split_basic_units_never_loses_code():
    units = split_basic_units(SOURCE)
    joined = "\n".join(units)
    for line in SOURCE.splitlines():
        if line.strip():
            assert line.strip() in joined


def test_split_basic_units_respects_size_cap():
    big = "def f():\n" + "    x = 'aaaaaaaaaaaaaaaa'\n" * 2000
    units = split_basic_units(big, max_chars=4000)
    assert all(len(unit) <= 4000 for unit in units)
    assert len(units) > 1


def test_split_basic_units_rejects_tiny_cap():
    with pytest.raises(ValueError):
        split_basic_units("x = 1", max_chars=10)


def test_split_empty_source():
    assert split_basic_units("   \n") == []


def test_extract_basic_units_from_package(malware_packages):
    units = extract_basic_units(malware_packages[0])
    assert units
    assert all(unit.package == malware_packages[0].identifier for unit in units)


# -- prompts ------------------------------------------------------------------------

def test_craft_prompt_structure():
    request = render_craft_prompt("yara", ["code one", "code two"], metadata_json='{"name": "x"}')
    sections = protocol.parse_sections(request.full_text)
    assert protocol.first_section(sections, "TASK") == protocol.TASK_CRAFT
    assert protocol.first_section(sections, "FORMAT") == "yara"
    assert protocol.sections_with_prefix(sections, "SAMPLE") == ["code one", "code two"]
    assert protocol.first_section(sections, "METADATA")
    assert "YARA" in request.system_text
    assert "FEW_SHOT" in request.user_text


def test_direct_prompt_structure():
    request = render_direct_prompt("semgrep", "whole package source")
    sections = protocol.parse_sections(request.full_text)
    assert protocol.first_section(sections, "TASK") == protocol.TASK_DIRECT
    assert "Semgrep" in request.system_text


def test_refine_prompt_contains_rules():
    request = render_refine_prompt("yara", "analysis", ["rule a {}", "rule b {}"])
    sections = protocol.parse_sections(request.full_text)
    assert protocol.sections_with_prefix(sections, "RULE") == ["rule a {}", "rule b {}"]
    assert protocol.first_section(sections, "ANALYSIS") == "analysis"


def test_fix_prompt_contains_errors():
    request = render_fix_prompt("yara", "rule text", ["error one", "error two"])
    sections = protocol.parse_sections(request.full_text)
    assert protocol.sections_with_prefix(sections, "ERROR") == ["error one", "error two"]
    assert "syntactically correct" in request.system_text


# -- agent memory and tools ---------------------------------------------------------------

def test_agent_memory_is_bounded_to_two_messages():
    memory = AgentMemory(capacity=2)
    for index in range(5):
        memory.observe(f"error {index}")
    assert memory.recall() == ["error 3", "error 4"]
    memory.clear()
    assert len(memory) == 0


def test_compiler_tools_report_errors():
    ok, error = yara_compiler_tool('rule x { strings: $a = "v" condition: $a }')
    assert ok and error is None
    ok, error = yara_compiler_tool('rule x { strings: $a = "v" condition: $b }')
    assert not ok and "undefined" in error
    ok, error = semgrep_compiler_tool("rules:\n  - id: a\n    languages: [python]\n    message: m\n    pattern: f()\n")
    assert ok
    ok, error = semgrep_compiler_tool("not yaml rules")
    assert not ok and error


def test_agent_fixes_broken_rule_within_attempt_budget():
    agent = AlignmentAgent(SimulatedAnalystLLM(ORACLE), max_attempts=5)
    broken = 'rule x\n{\n    strings:\n        $a = "v"\n    condition:\n        $a and $missing\n}\n'
    outcome = agent.align(broken, "yara")
    assert outcome.success
    assert 1 <= outcome.attempts <= 5
    ok, _ = yara_compiler_tool(outcome.rule_text)
    assert ok


def test_agent_passes_through_valid_rule_without_llm_calls():
    provider = SimulatedAnalystLLM(ORACLE)
    agent = AlignmentAgent(provider, max_attempts=5)
    valid = 'rule ok { strings: $a = "v" condition: $a }'
    outcome = agent.align(valid, "yara")
    assert outcome.success and outcome.attempts == 0
    assert provider.stats.requests == 0


def test_agent_unknown_format_raises():
    agent = AlignmentAgent(SimulatedAnalystLLM(ORACLE))
    with pytest.raises(ValueError):
        agent.align("rule x {}", "snort")


def test_config_validation_and_presets():
    alone = RuleLLMConfig.llm_alone()
    assert not alone.use_basic_units and not alone.use_alignment and not alone.use_refinement
    full = RuleLLMConfig.full()
    assert full.use_basic_units and full.use_alignment and full.use_refinement
