"""Tests for the malware and benign package generators."""

import ast

from repro.corpus import malware_generator
from repro.corpus.benign_generator import BenignGenerator, BenignGeneratorConfig
from repro.corpus.malware_generator import MalwareGenerator, MalwareGeneratorConfig
from repro.corpus.package import BENIGN, MALWARE


def small_malware(count=24):
    config = MalwareGeneratorConfig(package_count=count, seed=77)
    return MalwareGenerator(config).generate()


def small_benign(count=6):
    config = BenignGeneratorConfig(package_count=count, seed=78,
                                   modules_range=(4, 6), pieces_per_module_range=(8, 12))
    return BenignGenerator(config).generate()


def test_malware_generator_respects_package_count():
    packages = small_malware(24)
    assert len(packages) == 24
    assert all(pkg.label == MALWARE for pkg in packages)


def test_malware_generator_is_deterministic():
    a = small_malware(16)
    b = small_malware(16)
    assert [p.identifier for p in a] == [p.identifier for p in b]
    assert [p.signature for p in a] == [p.signature for p in b]


def test_malware_packages_have_setup_and_payload():
    for pkg in small_malware(12):
        assert pkg.file("setup.py") is not None
        assert pkg.file("PKG-INFO") is not None
        assert any(f.path.endswith("core.py") for f in pkg.files)


def test_malware_packages_carry_behavior_labels():
    packages = small_malware(20)
    assert all(pkg.behaviors for pkg in packages)
    assert all(pkg.family for pkg in packages)


def test_malware_duplicate_fraction_produces_duplicates():
    packages = small_malware(30)
    signatures = {}
    for pkg in packages:
        signatures.setdefault(pkg.signature, 0)
    # at least some signatures repeat through re-uploads
    from repro.corpus.dedup import deduplicate
    result = deduplicate(packages)
    assert result.duplicates, "expected duplicate re-uploads in the corpus"


def test_family_members_share_behaviors():
    packages = small_malware(30)
    by_family = {}
    for pkg in packages:
        by_family.setdefault(pkg.family, []).append(pkg)
    multi = [members for members in by_family.values() if len(members) >= 2]
    assert multi
    for members in multi:
        behaviors = {tuple(sorted(pkg.behaviors)) for pkg in members}
        assert len(behaviors) == 1


def test_obfuscated_families_hide_plain_indicators(monkeypatch):
    monkeypatch.setattr(malware_generator, "OBFUSCATION_PROBABILITY", 1.0)
    monkeypatch.setattr(malware_generator, "EVASIVE_FAMILY_PROBABILITY", 0.0)
    packages = small_malware(40)
    for pkg in packages:
        core = next(f for f in pkg.files if f.path.endswith("core.py"))
        assert "base64.b64decode(_blob)" in core.content


def test_generated_python_parses(monkeypatch):
    monkeypatch.setattr(malware_generator, "OBFUSCATION_PROBABILITY", 0.0)
    for pkg in small_malware(10):
        for source in pkg.source_files:
            ast.parse(source.content)


def test_benign_generator_counts_and_labels():
    packages = small_benign(5)
    assert len(packages) == 5
    assert all(pkg.label == BENIGN for pkg in packages)


def test_benign_packages_are_larger_than_malware():
    benign = small_benign(4)
    malware = small_malware(12)
    avg_benign = sum(p.loc for p in benign) / len(benign)
    avg_malware = sum(p.loc for p in malware) / len(malware)
    assert avg_benign > avg_malware


def test_benign_metadata_is_complete():
    for pkg in small_benign(4):
        assert pkg.metadata.author
        assert pkg.metadata.description
        assert pkg.metadata.classifiers


def test_benign_source_parses():
    for pkg in small_benign(3):
        for source in pkg.source_files:
            ast.parse(source.content)


def test_benign_generator_deterministic():
    a = small_benign(3)
    b = small_benign(3)
    assert [p.signature for p in a] == [p.signature for p in b]
