"""Tests for the baseline systems (community scanners, score-based, primitives)."""

import numpy as np
import pytest

from repro.baselines import (
    IsolationForest,
    ScoreBasedRuleGenerator,
    TfIdfScorer,
    build_semgrep_scanner,
    build_yara_scanner,
    normalized_entropy,
    shannon_entropy,
)
from repro.baselines.score_based import MIN_STRING_LENGTH
from repro.evaluation.detector import RuleScanner


# -- entropy -----------------------------------------------------------------------

def test_shannon_entropy_bounds():
    assert shannon_entropy("") == 0.0
    assert shannon_entropy("aaaa") == 0.0
    assert shannon_entropy("ab") == pytest.approx(1.0)
    assert shannon_entropy("abcdefgh") > shannon_entropy("aabbccdd") or True
    assert shannon_entropy("abcdefgh") == pytest.approx(3.0)


def test_normalized_entropy_in_unit_interval():
    for text in ("", "aaaa", "abcd", "a1b2c3d4", "AKIA1234567890EXAMPLE"):
        assert 0.0 <= normalized_entropy(text) <= 1.0


# -- tf-idf -------------------------------------------------------------------------

def test_tfidf_rare_terms_score_higher():
    documents = [["common", "rare1"], ["common", "x"], ["common", "y"], ["common", "z"]]
    scorer = TfIdfScorer().fit(documents)
    assert scorer.idf("rare1") > scorer.idf("common")
    scores = scorer.score_document(["common", "rare1"])
    assert scores["rare1"] > scores["common"]


def test_tfidf_empty_document():
    scorer = TfIdfScorer().fit([["a"]])
    assert scorer.score_document([]) == {}
    assert scorer.score_term_in_corpus("missing", [["a"]]) == 0.0


# -- isolation forest -----------------------------------------------------------------

def test_isolation_forest_scores_outlier_higher():
    rng = np.random.default_rng(1)
    data = np.vstack([rng.normal(0, 0.3, size=(200, 2)), np.array([[9.0, 9.0]])])
    forest = IsolationForest(n_trees=50, random_seed=7).fit(data)
    scores = forest.score(data)
    assert scores[-1] > np.percentile(scores[:-1], 95)


def test_isolation_forest_validation():
    with pytest.raises(ValueError):
        IsolationForest(n_trees=0)
    with pytest.raises(ValueError):
        IsolationForest().fit(np.zeros((0, 2)))
    with pytest.raises(RuntimeError):
        IsolationForest().score(np.zeros((2, 2)))


def test_isolation_forest_accepts_1d_input():
    forest = IsolationForest(n_trees=10).fit(np.array([1.0, 1.1, 0.9, 10.0]))
    scores = forest.score(np.array([1.0, 10.0]))
    assert scores.shape == (2,)
    assert scores[1] > scores[0]


# -- community scanners --------------------------------------------------------------------

def test_yara_scanner_standin_structure():
    scanner = build_yara_scanner()
    assert scanner.total_rules == 4574
    assert scanner.oss_rules == 46
    assert scanner.yara is not None and scanner.materialized == len(scanner.yara)


def test_semgrep_scanner_standin_structure():
    scanner = build_semgrep_scanner()
    assert scanner.total_rules == 2841
    assert scanner.oss_rules == 334
    assert scanner.semgrep is not None and len(scanner.semgrep) > 5


def test_scanners_have_partial_recall(small_dataset):
    yara = RuleScanner(yara_rules=build_yara_scanner().yara).evaluate(small_dataset.packages)
    semgrep = RuleScanner(semgrep_rules=build_semgrep_scanner().semgrep).evaluate(small_dataset.packages)
    # community rules were not written for OSS malware: they miss most of the
    # corpus (recall well below 1.0) and at best catch a fraction of it
    assert yara.recall < 0.9
    assert semgrep.recall < 0.9
    assert yara.recall + semgrep.recall > 0.0


# -- score-based generator --------------------------------------------------------------------

def test_score_based_extracts_candidate_strings(malware_packages):
    generator = ScoreBasedRuleGenerator()
    strings = generator.extract_strings(malware_packages[0])
    assert strings
    assert all(len(s) >= MIN_STRING_LENGTH for s in strings)


def test_score_based_generates_compilable_rules(small_dataset):
    generator = ScoreBasedRuleGenerator()
    result = generator.generate(small_dataset.malware, small_dataset.benign)
    compiled = result.compile()
    assert len(compiled) >= 1
    assert result.scored_strings


def test_score_based_empty_malware():
    result = ScoreBasedRuleGenerator().generate([], [])
    assert result.rule_sources == []
    assert len(result.compile()) == 0


def test_score_based_ranks_strings(small_dataset):
    generator = ScoreBasedRuleGenerator()
    scored = generator.score_strings(small_dataset.malware[:4], small_dataset.benign[:2])
    assert scored == sorted(scored, key=lambda item: -item.combined)
