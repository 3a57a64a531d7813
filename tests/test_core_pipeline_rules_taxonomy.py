"""Tests for the end-to-end pipeline, the rule containers and the taxonomy classifier."""

import pytest

from repro.categories import CATEGORIES
from repro.core import RuleLLM, RuleLLMConfig
from repro.core.rules import GeneratedRule, GeneratedRuleSet
from repro.core.taxonomy import RuleTaxonomyClassifier
from repro.evaluation.detector import RuleScanner


# -- GeneratedRule / GeneratedRuleSet ------------------------------------------------

def _yara_rule(name="MAL_x", text=None):
    return GeneratedRule(format="yara", name=name,
                         text=text or f'rule {name} {{ strings: $a = "discord.com/api/webhooks" condition: $a }}')


def _semgrep_rule(rule_id="detect-x"):
    text = (f"rules:\n  - id: {rule_id}\n    languages: [python]\n    severity: WARNING\n"
            f"    message: m\n    pattern: os.system($C)\n")
    return GeneratedRule(format="semgrep", name=rule_id, text=text)


def test_generated_rule_validation_and_filenames():
    with pytest.raises(ValueError):
        GeneratedRule(format="snort", name="x", text="...")
    assert _yara_rule().file_name.endswith(".yar")
    assert _semgrep_rule().file_name.endswith(".yaml")


def test_rule_set_counts_and_accessors():
    rs = GeneratedRuleSet()
    rs.add(_yara_rule("MAL_a"))
    rs.add(_semgrep_rule("detect-a"))
    rs.reject(_yara_rule("MAL_broken"))
    counts = rs.counts()
    assert counts == {"total": 2, "yara": 1, "semgrep": 1, "rejected": 1}


def test_rule_set_compiles_with_duplicate_names():
    rs = GeneratedRuleSet()
    rs.add(_yara_rule("MAL_dup"))
    rs.add(_yara_rule("MAL_dup"))
    compiled = rs.compile_yara()
    assert len(compiled) == 2
    assert len(set(compiled.rule_names())) == 2


def test_rule_set_save_and_load_roundtrip(tmp_path):
    rs = GeneratedRuleSet()
    rs.add(_yara_rule("MAL_save"))
    rs.add(_semgrep_rule("detect-save"))
    rs.save(tmp_path)
    loaded = GeneratedRuleSet.load(tmp_path)
    assert loaded.counts()["yara"] == 1
    assert loaded.counts()["semgrep"] == 1
    assert len(loaded.compile_yara()) == 1
    assert len(loaded.compile_semgrep()) == 1


# -- taxonomy ---------------------------------------------------------------------------

def test_classify_network_rule():
    classification = RuleTaxonomyClassifier().classify(_yara_rule())
    assert "Messaging Platform Abuse" in {label.subcategory for label in classification.labels}


def test_classify_unknown_rule_falls_back_to_other():
    rule = GeneratedRule(format="yara", name="MAL_opaque",
                         text='rule MAL_opaque { strings: $a = "zzzqqqzzz" condition: $a }')
    classification = RuleTaxonomyClassifier().classify(rule)
    assert classification.categories == ["Other Rules"]


def test_classifier_counts_and_overlap(generated_rules):
    classifier = RuleTaxonomyClassifier()
    counts = classifier.subcategory_counts(generated_rules.rules)
    assert counts, "expected at least one category"
    for category in counts:
        assert category in CATEGORIES
    matrix = classifier.category_overlap_matrix(generated_rules.rules)
    assert len(matrix) == len(CATEGORIES)
    # symmetric with an empty diagonal
    for i in range(len(matrix)):
        assert matrix[i][i] == 0
        for j in range(len(matrix)):
            assert matrix[i][j] == matrix[j][i]


def test_total_labels_at_least_total_rules(generated_rules):
    classifier = RuleTaxonomyClassifier()
    classifications = classifier.classify_all(generated_rules.rules)
    assert len(classifications) == len(generated_rules.rules)
    assert sum(len(c.labels) for c in classifications) >= len(generated_rules.rules)


# -- pipeline ------------------------------------------------------------------------------

def test_pipeline_generates_both_formats(generated_rules):
    counts = generated_rules.counts()
    assert counts["yara"] > 0
    assert counts["semgrep"] > 0
    assert generated_rules.model == "gpt-4o"


def test_pipeline_rules_all_compile(generated_rules):
    assert len(generated_rules.compile_yara()) == len(generated_rules.yara_rules)
    assert len(generated_rules.compile_semgrep()) == len(generated_rules.semgrep_rules)


def test_pipeline_detection_beats_chance(small_dataset, generated_rules):
    scanner = RuleScanner(yara_rules=generated_rules.compile_yara(),
                          semgrep_rules=generated_rules.compile_semgrep())
    metrics = scanner.evaluate(small_dataset.packages)
    assert metrics.recall >= 0.6
    assert metrics.precision >= 0.6
    assert metrics.f1 >= 0.65


def test_pipeline_empty_corpus():
    rules = RuleLLM(RuleLLMConfig.full()).generate_rules([])
    assert len(rules) == 0


def test_pipeline_run_info_populated(pipeline, generated_rules):
    info = pipeline.last_run
    assert info.package_count > 0
    assert info.cluster_count > 0
    assert info.refined_rule_count >= info.cluster_count
    assert info.alignment.total == info.refined_rule_count


def test_pipeline_group_generation(malware_packages):
    pipeline = RuleLLM(RuleLLMConfig.full())
    rules = pipeline.generate_rules_for_group(malware_packages[:2], cluster_id=7)
    assert len(rules) >= 1


def test_ablation_arm_produces_fewer_or_equal_valid_rules(malware_packages):
    full = RuleLLM(RuleLLMConfig.full()).generate_rules(malware_packages)
    alone = RuleLLM(RuleLLMConfig.llm_alone()).generate_rules(malware_packages)
    # without alignment, some broken rules are dropped instead of repaired
    assert len(alone.rejected) >= 0
    assert len(alone) <= len(full) + len(alone.rejected) + 5
