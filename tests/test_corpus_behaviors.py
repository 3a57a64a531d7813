"""Tests for the behaviour registry and templates."""

import ast

import pytest

from repro.categories import SUBCATEGORIES, METADATA_RELATED
from repro.corpus.behaviors import default_registry
from repro.corpus.behaviors.base import Behavior
from repro.utils.seeding import DeterministicRandom


REGISTRY = default_registry()


def test_registry_is_non_trivial():
    assert len(REGISTRY) >= 30


def test_every_subcategory_has_at_least_one_behavior():
    covered = {behavior.subcategory for behavior in REGISTRY.all()}
    expected = {sub for subs in SUBCATEGORIES.values() for sub in subs}
    assert expected.issubset(covered), expected - covered


def test_behavior_keys_are_unique():
    keys = REGISTRY.keys()
    assert len(keys) == len(set(keys))


def test_duplicate_registration_rejected():
    behavior = REGISTRY.all()[0]
    with pytest.raises(ValueError):
        REGISTRY.register(behavior)


def test_behavior_requires_variants_or_metadata():
    with pytest.raises(ValueError):
        Behavior(key="empty", subcategory="C2 Communication", description="nothing")


def test_rendered_code_is_valid_python():
    rng = DeterministicRandom(5, "render")
    for behavior in REGISTRY.all():
        if not behavior.variants:
            continue
        rendered = behavior.render(rng.child(behavior.key))
        assert rendered.functions, behavior.key
        module_text = "\n".join(rendered.imports) + "\n\n" + rendered.code
        try:
            ast.parse(module_text)
        except SyntaxError as exc:  # pragma: no cover - assertion carries context
            pytest.fail(f"behavior {behavior.key} renders invalid python: {exc}\n{module_text}")


def test_fixed_variant_index_pins_template():
    rng = DeterministicRandom(6, "pin")
    behavior = next(b for b in REGISTRY.all() if len(b.variants) >= 2)
    a = behavior.render(rng.child("a"), variant_index=0)
    b = behavior.render(rng.child("b"), variant_index=0)
    # same template: same structure even though placeholders differ
    assert a.functions[0].split("(")[0].split()[0] == b.functions[0].split("(")[0].split()[0]


def test_metadata_behaviors_patch_metadata_only():
    rng = DeterministicRandom(7, "meta")
    for behavior in (b for b in REGISTRY.all() if b.category == METADATA_RELATED):
        rendered = behavior.render(rng.child(behavior.key))
        assert rendered.metadata_patch
        assert not rendered.functions


def test_setup_code_behaviors_provide_setup_snippets():
    rng = DeterministicRandom(8, "setup")
    setup_behaviors = [b for b in REGISTRY.all() if b.category == "Setup Code"]
    assert setup_behaviors
    snippets = [behavior.render(rng.child(behavior.key)).setup_snippet for behavior in setup_behaviors]
    assert any(snippets)


def test_registry_covers_all_38_subcategories_exactly_once_each_at_minimum():
    covered = {behavior.subcategory for behavior in REGISTRY.all()}
    assert len(covered) == sum(len(subs) for subs in SUBCATEGORIES.values())
