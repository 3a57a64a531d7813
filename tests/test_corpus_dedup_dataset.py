"""Tests for deduplication and dataset assembly."""

from repro.corpus import DatasetConfig, build_dataset, deduplicate
from repro.corpus.dedup import package_signature
from repro.corpus.package import Package, PackageFile, PackageMetadata


def make_pkg(name, payload, label="malware"):
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name, version="1.0"),
        files=[
            PackageFile("setup.py", f"setup(name='{name}')"),
            PackageFile("PKG-INFO", f"Name: {name}"),
            PackageFile(f"{name}/core.py", payload),
        ],
        label=label,
    )


def test_signature_ignores_identity_files():
    a = make_pkg("alpha", "print('payload')")
    b = make_pkg("beta", "print('payload')")
    assert package_signature(a) == package_signature(b)


def test_signature_sensitive_to_payload():
    a = make_pkg("alpha", "print('payload')")
    b = make_pkg("alpha", "print('other')")
    assert package_signature(a) != package_signature(b)


def test_deduplicate_keeps_first_occurrence():
    a = make_pkg("alpha", "x = 1")
    b = make_pkg("beta", "x = 1")
    c = make_pkg("gamma", "x = 2")
    result = deduplicate([a, b, c])
    assert [p.name for p in result.unique] == ["alpha", "gamma"]
    assert [p.name for p in result.duplicates] == ["beta"]
    assert result.total == 3


def test_deduplicate_idempotent():
    packages = [make_pkg(f"p{i}", f"x = {i % 3}") for i in range(9)]
    once = deduplicate(packages)
    twice = deduplicate(once.unique)
    assert len(twice.unique) == len(once.unique)
    assert not twice.duplicates


def test_build_dataset_small_structure():
    dataset = build_dataset(DatasetConfig.small())
    assert dataset.malware, "expected deduplicated malware"
    assert dataset.benign
    assert len(dataset.malware) < len(dataset.malware_raw)
    stats = dataset.statistics()
    assert stats.malware_total == len(dataset.malware_raw)
    assert stats.malware_unique == len(dataset.malware)
    assert stats.benign_avg_loc > 0


def test_dataset_statistics_rows_shape():
    dataset = build_dataset(DatasetConfig.small())
    rows = dataset.statistics().rows()
    assert [row[0] for row in rows] == ["Malware", "Legitimate"]
    assert all(len(row) == 4 for row in rows)


def test_dataset_scaling_controls_size():
    small = DatasetConfig.small()
    assert small.scaled_malware_count < DatasetConfig().scaled_malware_count


def test_dataset_families_grouping():
    dataset = build_dataset(DatasetConfig.small())
    families = dataset.families()
    assert sum(len(v) for v in families.values()) == len(dataset.malware)


def test_dataset_labels_mapping():
    dataset = build_dataset(DatasetConfig.small())
    labels = dataset.labels
    assert all(label in ("malware", "benign") for label in labels.values())
    assert len(labels) == len(dataset.packages)
