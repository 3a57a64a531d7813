"""Tests for the shared taxonomy vocabulary (repro.categories)."""

import pytest

from repro.categories import (
    CATEGORIES,
    NUM_CATEGORIES,
    NUM_SUBCATEGORIES,
    PAPER_TABLE_XII_COUNTS,
    SUBCATEGORIES,
    TaxonomyLabel,
    category_of,
)


def test_eleven_categories_and_thirty_eight_subcategories():
    assert NUM_CATEGORIES == 11
    assert NUM_SUBCATEGORIES == 38


def test_every_category_has_subcategories():
    for category in CATEGORIES:
        assert SUBCATEGORIES[category]


def test_paper_counts_cover_every_subcategory():
    for category, subs in SUBCATEGORIES.items():
        for subcategory in subs:
            assert subcategory in PAPER_TABLE_XII_COUNTS[category]


def test_paper_table_total_is_1217():
    total = sum(count for subs in PAPER_TABLE_XII_COUNTS.values() for count in subs.values())
    assert total == 1217


def test_category_of_round_trips():
    for category, subs in SUBCATEGORIES.items():
        for subcategory in subs:
            assert category_of(subcategory) == category


def test_category_of_unknown_raises():
    with pytest.raises(KeyError):
        category_of("Not A Real Subcategory")


def test_taxonomy_label_validation():
    label = TaxonomyLabel("Network Related", "C2 Communication")
    assert label.category_index == CATEGORIES.index("Network Related")
    with pytest.raises(ValueError):
        TaxonomyLabel("Network Related", "Credential Theft")
    with pytest.raises(ValueError):
        TaxonomyLabel("Nonexistent", "C2 Communication")


def test_all_subcategories_enumerates_38_unique_labels():
    labels = [TaxonomyLabel(category, subcategory)
              for category in CATEGORIES for subcategory in SUBCATEGORIES[category]]
    assert len(labels) == 38
    assert len({(l.category, l.subcategory) for l in labels}) == 38
